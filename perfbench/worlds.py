"""Seeded input generators for the pipeline benchmark.

A *world* is one complete set of pipeline inputs written to a directory:
pipe-delimited concept / semantic-type / crosswalk / relation files, a
semantic-group map, a MediaWiki XML dump, an article-to-CUI map and a gold
mention corpus. Every world is generated from an integer seed alone, and the
generator records what each stage must produce from it (per-step ontology
counts, corpus sentence and mention counts), so the benchmark can check the
outputs without trusting the program.

Concept terms and held-out mentions come from the test suite's fixture
generators (``tests/helpers.py``), which are loaded read-only.
"""

import importlib.util
import json
import os
from dataclasses import dataclass, field
from xml.sax.saxutils import escape

import numpy as np

# vocabularies and semantic types the generated sources use; the pipeline
# config written next to them names the same values
BASE_VOCAB = "MDRDUT"
DROP_VOCAB = "DROPV"
DRUG_VOCAB = "DRUGV"
BRIDGE_VOCAB = "SNOMEDCT_US"
SUBTERM = " (NAO)"
DROP_TUI = "T999"
GROUPS = {"T047": "DISO", "T121": "CHEM", "T023": "ANAT", DROP_TUI: "OTHER"}

FILLER = ("de het een bij vaak komt voor wordt behandeld met en is die door "
          "patiënten ziekte klachten kan ook na jaar zijn meestal tijdens "
          "ernstige lichte chronische acute vorm oorzaak gevolg").split()
OPENERS = ("Bij De Het Een Vaak Soms Meestal Tijdens Patiënten Artsen "
           "Onderzoek Behandeling").split()
SECTIONS = ("Symptomen", "Oorzaken", "Behandeling", "Geschiedenis", "Zie ook")


def load_helpers(root):
    """Import ``tests/helpers.py`` from the checkout without making ``tests``
    a package on sys.path."""
    path = os.path.join(root, "tests", "helpers.py")
    spec = importlib.util.spec_from_file_location("perfbench_test_helpers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's world."""
    concepts: int          # base concepts from the synthetic ontology
    variants: int          # synonyms per base concept
    removed: int           # source lines of each kind the filter removes
    added: int             # source lines of each kind the enrichment adds
    dropped_concepts: int  # extra concepts whose semantic type is dropped
    pages: int             # namespace-0 pages in the dump
    mapped_rate: float     # share of sentences carrying a mapped link
    gold: int              # held-out perturbed gold mentions (evaluate)
    core_edits: int        # character edits per gold mention's concept core
    verbatim: int          # ontology terms linked beside the gold mentions
    mention_calls: int     # distinct queries for single `link --mention` calls


@dataclass
class World:
    root: str
    paths: dict
    source_terms: int = 0
    malformed_lines: int = 0
    expected_steps: list = field(default_factory=list)
    pages_total: int = 0
    expected_sentences: int = 0
    expected_mentions: int = 0
    expected_unlinkable: int = 0
    expected_subset: int = 0
    gold: list = field(default_factory=list)       # (mention, cui)
    queries: list = field(default_factory=list)    # link --input lines
    verbatim: set = field(default_factory=set)     # queries that are terms
    mention_sample: list = field(default_factory=list)


class _Texts:
    """Fresh lowercase two-word texts, unique across the whole world."""

    def __init__(self, helpers, rng, taken):
        self.helpers = helpers
        self.rng = rng
        self.taken = taken

    def fresh(self):
        while True:
            text = (f"{self.helpers.random_word(self.rng, 4, 8)} "
                    f"{self.helpers.random_word(self.rng, 4, 8)}")
            if text not in self.taken:
                self.taken.add(text)
                return text


def _cui(block, i):
    return f"C{block * 1000000 + i:07d}"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _psv(rows):
    return "".join("|".join(str(x) for x in row) + "|\n" for row in rows)


def _write_sources(world, helpers, rng, shape, records):
    """Concept, semantic-type, crosswalk, relation and group files that drive
    each of the seven ontology-build steps, plus the per-step counts the
    build must report."""
    texts = _Texts(helpers, rng, {r.text.lower() for r in records})
    base_cuis = sorted({r.cui for r in records})
    code = iter(range(100000, 10**9))
    lines = [(r.cui, "DUT", BASE_VOCAB, next(code), r.text) for r in records]

    def pick_record():
        return records[int(rng.integers(len(records)))]

    def pick_cui():
        return base_cuis[int(rng.integers(len(base_cuis)))]

    # step 1: a vocabulary the config drops
    for _ in range(shape.removed):
        lines.append((pick_cui(), "DUT", DROP_VOCAB, next(code), texts.fresh()))
    # step 2: descriptive subterms; stripped, they either repeat a term of
    # the same concept (removed at step 3) or form a new synonym
    for _ in range(shape.removed):
        r = pick_record()
        lines.append((r.cui, "DUT", BASE_VOCAB, next(code), r.text + SUBTERM))
    for _ in range(shape.added):
        lines.append((pick_cui(), "DUT", BASE_VOCAB, next(code),
                      texts.fresh() + SUBTERM))
    # step 3: case-only duplicates
    for _ in range(shape.removed):
        r = pick_record()
        lines.append((r.cui, "DUT", BASE_VOCAB, next(code), r.text.upper()))
    # step 4: bridge terms; crosswalk rows hit one concept, hit two
    # (ambiguous) or miss
    n_amb = max(shape.added // 4, 1)
    bridge_cuis = rng.choice(len(base_cuis), size=shape.added + 2 * n_amb,
                             replace=False)
    sctid = iter(range(200000, 10**9, 7))
    crosswalk = []
    for k in range(shape.added):
        s = next(sctid)
        lines.append((base_cuis[bridge_cuis[k]], "ENG", BRIDGE_VOCAB, s,
                      texts.fresh()))
        crosswalk.append((s, texts.fresh()))
    for k in range(n_amb):
        s = next(sctid)
        for j in (shape.added + 2 * k, shape.added + 2 * k + 1):
            lines.append((base_cuis[bridge_cuis[j]], "ENG", BRIDGE_VOCAB, s,
                          texts.fresh()))
        crosswalk.append((s, texts.fresh()))
    for _ in range(n_amb):
        crosswalk.append((next(sctid) + 1, texts.fresh()))
    # step 5: concepts of a dropped semantic type, two terms each
    dropped_cuis = [_cui(2, i) for i in range(shape.dropped_concepts)]
    for c in dropped_cuis:
        for _ in range(2):
            lines.append((c, "DUT", BASE_VOCAB, next(code), texts.fresh()))
    # step 6: drug names, in any language; some repeat an existing term
    for k in range(shape.added):
        lines.append((pick_cui(), ("ENG", "DUT")[k % 2], DRUG_VOCAB, next(code),
                      texts.fresh()))
    n_drug_dup = max(shape.added // 4, 1)
    for _ in range(n_drug_dup):
        r = pick_record()
        lines.append((r.cui, "ENG", DRUG_VOCAB, next(code), r.text))

    malformed = ["C12|DUT|X|1|bad cui|\n", "C0000001|DUT|X\n",
                 f"{base_cuis[0]}|DUT|{BASE_VOCAB}|1| |\n"]
    _write(world.paths["concepts"], _psv(lines) + "".join(malformed))
    world.source_terms = len(lines) + len(malformed)
    world.malformed_lines = len(malformed)

    total = len(lines)
    drug_pool = shape.added + n_drug_dup
    s1 = total - drug_pool - shape.removed
    s3 = s1 - 2 * shape.removed
    s4 = s3 + shape.added
    s5 = s4 - 2 * shape.dropped_concepts
    s6 = s5 + shape.added
    world.expected_steps = [
        ("drop_vocabs", s1), ("strip_descriptive_subterms", s1), ("dedupe", s3),
        ("crosswalk_add", s4), ("drop_semantic_types", s5),
        ("drug_vocab_add", s6), ("assign_groups", s6)]

    tuis = ("T047", "T047", "T121", "T023")
    sty = [(c, tuis[int(rng.integers(len(tuis)))], "Type") for c in base_cuis]
    sty += [(c, DROP_TUI, "Dropped type") for c in dropped_cuis]
    sty += [(base_cuis[0], "T121", "Second type")]
    _write(world.paths["semantic_types"], _psv(sty))
    _write(world.paths["crosswalk"],
           _psv(crosswalk) + "notanid|tekst|\n0|nul|\n")
    _write(world.paths["semantic_groups"], json.dumps(GROUPS))
    rel = [(base_cuis[int(rng.integers(len(base_cuis)))], "RO",
            base_cuis[int(rng.integers(len(base_cuis)))], "V")
           for _ in range(len(base_cuis) // 2)]
    rel += [(base_cuis[0], "RO", base_cuis[0], "V")]
    _write(world.paths["relations"], _psv(rel) + "C1|RO\n")
    return dropped_cuis


def _title(core):
    return core[:1].upper() + core[1:]


def _write_dump(world, helpers, rng, shape, cores, dropped_cuis):
    """MediaWiki export whose namespace-0 sentences carry piped, bare and
    section links to concept articles, next to links the compiler must
    ignore (unmapped, inside templates, refs, comments and media captions),
    nested templates, headings and abbreviations; plus the article map."""
    cuis = sorted(cores)
    titles = {c: _title(cores[c]) for c in cuis}
    # concepts whose semantic type is dropped still have articles; their
    # mentions are unlinkable and leave at corpus-subset
    for i, c in enumerate(dropped_cuis):
        titles[c] = f"Verworpen{helpers.random_word(rng, 5, 8)}{i}"
    mapped = cuis + list(dropped_cuis)
    amap = [f"Q{i + 1}\t{c}\t{titles[c]}" for i, c in enumerate(mapped)]
    amap += ["X1\tC0000001\tOngeldig", f"Q0\t{cuis[0]}\t{titles[cuis[0]]}", ""]
    _write(world.paths["article_map_tsv"], "\n".join(amap) + "\n")

    def weak_anchors():
        while True:
            yield from helpers.make_perturbed_mentions(
                cores, seed=int(rng.integers(2**31)), n=256, core_edits=1)

    anchors = weak_anchors()

    def word():
        return FILLER[int(rng.integers(len(FILLER)))]

    def unmapped():
        return f"{_title(helpers.random_word(rng, 4, 8))} {helpers.random_word(rng, 3, 6)}"

    def mapped_link():
        r = rng.random()
        if r < 0.05 and dropped_cuis:
            c = dropped_cuis[int(rng.integers(len(dropped_cuis)))]
            return f"[[{titles[c]}]]", titles[c], c
        if r < 0.55:
            text, c = next(anchors)
            return f"[[{titles[c]}|{text}]]", text, c
        c = cuis[int(rng.integers(len(cuis)))]
        if r < 0.65:
            text, c = next(anchors)
            return f"[[{titles[c]}#{SECTIONS[0]}|{text}]]", text, c
        return f"[[{titles[c]}]]", titles[c], c

    def ignored_piece():
        c = cuis[int(rng.integers(len(cuis)))]
        kind = int(rng.integers(7))
        if kind == 0:
            return f"{{{{Zie ook|[[{titles[c]}]]|{{{{lang|nl|x}}}}}}}}"
        if kind == 1:
            return f'<ref name="r{int(rng.integers(9))}">Bron over [[{titles[c]}|iets]]. Meer.</ref>'
        if kind == 2:
            return '<ref name="b" />'
        if kind == 3:
            return f"<!-- [[{titles[c]}]] -->"
        if kind == 4:
            return f"[[Bestand:Foto{int(rng.integers(99))}.jpg|miniatuur|Een [[{titles[c]}]] foto]]"
        if kind == 5:
            return f"[[{unmapped()}]]"
        return f"[[{unmapped()}|{word()}]]"

    made = {"sentences": 0, "mapped": 0}

    def sentence():
        tokens = [OPENERS[int(rng.integers(len(OPENERS)))]]
        links = []
        # exactly mapped_rate of the sentences carry mapped links, three in
        # ten of them two, so that the pair counts, and with them the
        # training time per pair, vary little between seeds
        made["sentences"] += 1
        n_mapped = 0
        if int(made["sentences"] * shape.mapped_rate) > made["mapped"]:
            n_mapped = 2 if made["mapped"] % 10 < 3 else 1
            made["mapped"] += 1
        slots = int(rng.integers(5, 12))
        mapped_at = set(rng.choice(slots, size=n_mapped, replace=False).tolist()) \
            if n_mapped else set()
        for k in range(slots):
            if k in mapped_at:
                markup, anchor, c = mapped_link()
                tokens.append(markup)
                links.append((anchor, c))
            elif rng.random() < 0.15:
                tokens.append(ignored_piece())
            elif rng.random() < 0.06:
                tokens.append(("bijv.", "o.a.", "ca. 5")[int(rng.integers(3))]
                              + " " + OPENERS[int(rng.integers(len(OPENERS)))])
            elif rng.random() < 0.05:
                tokens.append(f"'''{word()}'''")
            else:
                tokens.append(word())
        # a filler word before the stop keeps anchors out of the
        # abbreviation check
        tokens.append(word())
        end = ".!?"[int(rng.integers(3))] if rng.random() < 0.1 else "."
        return " ".join(tokens) + end, links

    sentences_with_links = []
    pages = []
    for p in range(shape.pages):
        parts = ["{{Infobox ziekte|naam=" + word() + "|code={{nowrap|"
                 + str(p) + "}}}}\n"]
        for s in range(int(rng.integers(6, 11))):
            if s and rng.random() < 0.2:
                parts.append(f"\n\n== {SECTIONS[int(rng.integers(len(SECTIONS)))]} ==\n")
            text, links = sentence()
            parts.append(text + " ")
            if links:
                sentences_with_links.append(links)
        parts.append("\n[[Categorie:Ziekten]]")
        pages.append((0, f"{_title(helpers.random_word(rng, 5, 9))} {p}",
                      "".join(parts)))
        if p % 50 == 0:
            c = cuis[int(rng.integers(len(cuis)))]
            pages.append((4 if p % 100 else 14, f"Project:Overleg {p}",
                          f"Over [[{titles[c]}|dit]] artikel."))

    out = ['<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="nl">']
    for i, (ns, title, text) in enumerate(pages):
        out.append(
            f"<page><title>{escape(title)}</title><ns>{ns}</ns><id>{i + 1}</id>"
            f"<revision><id>{1000 + i}</id><text xml:space=\"preserve\">"
            f"{escape(text)}</text></revision></page>")
    out.append("</mediawiki>")
    _write(world.paths["dump"], "\n".join(out) + "\n")

    known = set(cuis)
    seen = set()
    world.pages_total = len(pages)
    world.expected_sentences = len(sentences_with_links)
    for links in sentences_with_links:
        for anchor, c in links:
            world.expected_mentions += 1
            world.expected_unlinkable += c not in known
            if anchor not in seen:
                seen.add(anchor)
                world.expected_subset += c in known


def _write_gold(world, helpers, rng, shape, records, cores):
    """The gold corpus holds held-out perturbed mentions only, so that
    `evaluate`'s accuracy measures the encoder on mentions it has not seen.
    The link queries are the gold mentions plus verbatim ontology terms,
    which are checked to link at score 1 but are not scored."""
    gold = helpers.make_perturbed_mentions(
        cores, seed=int(rng.integers(2**31)), n=shape.gold,
        core_edits=shape.core_edits)
    picks = rng.choice(len(records), size=shape.verbatim, replace=False)
    verbatim = [records[i].text for i in picks]
    lines = ["<corpus>"]
    for i, (text, c) in enumerate(gold):
        lines.append(
            f'<sentence id="{i}" page="g{i}"><mention cui="{c}" qid="Q{i}" '
            f'start="0" end="{len(text)}" target="g{i}">{escape(text)}'
            f"</mention></sentence>")
    lines.append("</corpus>")
    _write(world.paths["gold_corpus"], "\n".join(lines) + "\n")
    world.gold = gold
    queries = [text for text, _ in gold] + verbatim
    world.queries = list(dict.fromkeys(queries[i]
                                       for i in rng.permutation(len(queries))))
    world.verbatim = set(verbatim)
    _write(world.paths["queries"], "\n".join(world.queries) + "\n")
    k = min(shape.mention_calls, len(world.queries))
    world.mention_sample = [world.queries[i]
                            for i in sorted(rng.choice(len(world.queries), size=k,
                                                       replace=False))]


def input_paths(src):
    return {name: os.path.join(src, fname) for name, fname in (
        ("concepts", "concepts.psv"), ("semantic_types", "sty.psv"),
        ("crosswalk", "crosswalk.psv"), ("relations", "relations.psv"),
        ("semantic_groups", "groups.json"), ("dump", "dump.xml"),
        ("article_map_tsv", "articles.tsv"), ("gold_corpus", "gold.xml"),
        ("queries", "queries.txt"))}


def build_world(root, shape, seed, helpers):
    """Write one world under ``root`` (``src/`` inputs, empty ``out/``)."""
    src = os.path.join(root, "src")
    os.makedirs(src)
    os.makedirs(os.path.join(root, "out"))
    world = World(root=root, paths=input_paths(src))
    rng = np.random.default_rng(seed)
    records, cores = helpers.make_synthetic_ontology(
        seed=int(rng.integers(2**31)), n_concepts=shape.concepts,
        variants=shape.variants)
    dropped = _write_sources(world, helpers, rng, shape, records)
    _write_dump(world, helpers, rng, shape, cores, dropped)
    _write_gold(world, helpers, rng, shape, records, cores)
    return world
