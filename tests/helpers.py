"""Shared fixture generators for the test suite: the checked pipeline config
with overrides, random strings, synthetic synonym ontologies, and
edit-distance perturbed mentions; one-text encoder
and featurizer helpers over the batch functions, a term table for test
indexes, a one-query index search, the PCA inverse and the evaluation
report reader.
"""

import json

import numpy as np

from belforge import encoder as enc
from belforge import index as ix
from belforge.config import DEFAULTS, apply_overrides
from belforge.corpus import CorpusSlice, MentionAnnotation, SentenceRecord
from belforge.evaluation import EvalReport, GroupResult
from belforge.features import featurize_batch
from belforge.ontology import OntologyRecord, TermRecord

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

SEMANTIC_GROUPS = frozenset({
    "DISO", "CHEM", "PROC", "ANAT", "LIVB", "PHEN", "DEVI", "PHYS",
    "ACTI", "OBJC", "GENE", "OCCU", "CONC", "OTHER",
})


def config(*overrides):
    """The pipeline config: DEFAULTS with ``section.key=value`` overrides,
    each checked against the schema as the CLI checks a --set."""
    return apply_overrides(DEFAULTS, overrides)


def fresh_params(seed, **encoder):
    """``encoder.init_params`` under the encoder section of ``config()``,
    with the ``encoder`` settings given as its overrides."""
    overrides = (f"encoder.{key}={json.dumps(value)}"
                 for key, value in encoder.items())
    return enc.init_params(seed, **config(*overrides)["encoder"])


def random_word(rng, lo=4, hi=10):
    n = int(rng.integers(lo, hi + 1))
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), n))


def perturb(rng, word, n_edits=1):
    """Apply random character edits (substitute/insert/delete/swap)."""
    chars = list(word)
    for _ in range(n_edits):
        op = rng.integers(0, 4)
        pos = int(rng.integers(0, len(chars)))
        if op == 0:
            chars[pos] = ALPHABET[int(rng.integers(0, len(ALPHABET)))]
        elif op == 1:
            chars.insert(pos, ALPHABET[int(rng.integers(0, len(ALPHABET)))])
        elif op == 2 and len(chars) > 2:
            del chars[pos]
        elif len(chars) > 1:
            other = int(rng.integers(0, len(chars)))
            chars[pos], chars[other] = chars[other], chars[pos]
    return "".join(chars)


def make_synthetic_ontology(seed=0, n_concepts=200, variants=4, n_affixes=30,
                            group="DISO"):
    """Concepts with a distinctive core string per CUI; synonyms combine a
    lightly perturbed core with noisy affixes drawn from a shared pool.

    Returns (records, cores) with cores mapping cui -> core string.
    """
    rng = np.random.default_rng(seed)
    affixes = [random_word(rng, 3, 6) for _ in range(n_affixes)]
    records = []
    cores = {}
    seen_cores = set()
    for i in range(n_concepts):
        core = random_word(rng, 6, 10)
        while core in seen_cores:
            core = random_word(rng, 6, 10)
        seen_cores.add(core)
        cui = f"C{1000000 + i:07d}"
        cores[cui] = core
        seen_terms = set()
        for v in range(variants):
            body = core if v == 0 else perturb(rng, core, 1)
            affix = affixes[int(rng.integers(0, n_affixes))]
            term = f"{affix} {body}" if rng.random() < 0.5 else f"{body} {affix}"
            if term in seen_terms:
                continue
            seen_terms.add(term)
            records.append(OntologyRecord(term_id=len(records), cui=cui,
                                          text=term, vocab="SYN", group=group))
    return records, cores


def make_perturbed_mentions(cores, seed=1, n=500, core_edits=2, n_affixes=30):
    """Held-out mentions: heavier perturbation of a concept core plus a
    fresh affix. Returns a list of (mention_text, gold_cui)."""
    rng = np.random.default_rng(seed)
    affixes = [random_word(rng, 3, 6) for _ in range(n_affixes)]
    cuis = sorted(cores)
    out = []
    for _ in range(n):
        cui = cuis[int(rng.integers(0, len(cuis)))]
        body = perturb(rng, cores[cui], core_edits)
        affix = affixes[int(rng.integers(0, n_affixes))]
        text = f"{affix} {body}" if rng.random() < 0.5 else f"{body} {affix}"
        out.append((text, cui))
    return out


def mentions_as_slice(mention_pairs):
    """Wrap (text, cui) pairs as a CorpusSlice of weak mentions."""
    sentences = []
    mentions = []
    for i, (text, cui) in enumerate(mention_pairs):
        sentences.append(SentenceRecord(sentence_id=i, page_title=f"p{i}",
                                        text=text))
        mentions.append(MentionAnnotation(
            sentence_id=i, start=0, end=len(text), anchor=text,
            target_title=f"p{i}", cui=cui, qid=f"Q{i}"))
    return CorpusSlice(sentences=sentences, mentions=mentions)


def ontology_as_terms(records):
    """Re-wrap OntologyRecords as TermRecords (for pipeline idempotence)."""
    return [TermRecord(cui=r.cui, vocab=r.vocab, source_code="", text=r.text)
            for r in records]


def term_embeddings(dim, seed=0, n_concepts=300):
    """The rows index-build fits its PCA to: the terms of a synthetic
    ontology, encoded by fresh params with criterion 06's buckets and hidden
    width and an output of ``dim``."""
    records, _ = make_synthetic_ontology(seed=seed, n_concepts=n_concepts)
    params = fresh_params(seed, buckets=1024, hidden=192, dim=dim)
    return enc.encode_batch(params, [r.text for r in records])


def random_unit_rows(rng, n, k):
    M = rng.normal(size=(n, k))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def term_table(ids):
    """A CUI and a semantic group per term id, for build_ivf: the CUI spells
    the id, so a neighbor's cui names its term_id."""
    return [f"C{int(i):07d}" for i in ids], ["DISO"] * len(ids)


def search(index, query, top_k):
    """search_ivf for one query: the first row of a LINK_BLOCK block whose
    other rows are zero."""
    block = np.zeros((ix.LINK_BLOCK, len(query)))
    block[0] = query
    return ix.search_ivf(index, block, top_k, real=1)[0][0]


def encode(params, text):
    """Embed one string: a one-text encode_batch."""
    return enc.encode_batch(params, [text])[0]


def featurize_text(params, text):
    """The sparse (indices, counts) of one text under the params' hashing."""
    return enc.featurize_texts(params, [text])[0]


def encode_backward(params, text, upstream):
    """Exact gradients of upstream . encode(params, text) for every
    parameter: backward_batch over a one-row batch."""
    _, cache = enc.forward_batch(params, [featurize_text(params, text)])
    return enc.backward_batch(params, cache, np.asarray(upstream)[None, :])


def featurize(text, n_min, n_max, buckets, lowercase=False):
    """featurize_batch for one text: returns its (indices, counts)."""
    return featurize_batch([text], n_min, n_max, buckets, lowercase)[0]


def reconstruct(transform, projected):
    """Map PCA coordinates back to the input space."""
    return np.asarray(projected, dtype=float) @ transform.projection.T + transform.mean


def report_from_json(text):
    """The EvalReport that report.json holds."""
    payload = json.loads(text)
    groups = [GroupResult(group=g["group"], count=g["count"],
                          accuracy=g["accuracy"],
                          one_dist_accuracy=g["one_dist_accuracy"])
              for g in payload["groups"]]
    t = payload["total"]
    total = GroupResult(group="TOTAL", count=t["count"], accuracy=t["accuracy"],
                        one_dist_accuracy=t["one_dist_accuracy"])
    return EvalReport(groups=groups, total=total, metadata=payload["metadata"])
