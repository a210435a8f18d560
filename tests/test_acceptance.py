"""Acceptance suite: one test per shipped criterion, each self-contained.

The per-criterion pass/fail summary is printed by the hook in conftest.py.
"""

import io
import json
import math
import os
import time
from dataclasses import replace

import numpy as np

from belforge import corpus as corpus_mod
from belforge import evaluation as ev
from belforge import index as ix
from belforge import ontology as onto
from belforge import training as tr
from belforge.cli import main as cli_main
from helpers import (config, encode, encode_backward, featurize_text,
                     fresh_params, make_perturbed_mentions, make_synthetic_ontology,
                     mentions_as_slice, random_unit_rows, random_word,
                     reconstruct, search, term_table)
from oracles import ABBREVIATIONS, Triplet, mine_hard_triplets, ms_loss


def term(cui, text, vocab="MDRDUT", code="0"):
    return onto.TermRecord(cui=cui, vocab=vocab, source_code=code, text=text)


# --------------------------------------------------------------------------
# 1. ontology pipeline fidelity: 60-record fixture, hand-simulated step stats


def _sixty_record_fixture():
    records = []

    def add(cui, text, vocab="MDRDUT", code="0"):
        records.append(term(cui, text, vocab=vocab, code=code))

    # 29 plain disease terms, kept throughout (except the semantic-type drop)
    for i in range(1, 30):
        add(f"C{i:07d}", f"aandoening {i}")
    # 6 descriptive-subterm records: 4 strip to a new term, 2 strip to empty
    for i in range(1, 5):
        add(f"C{i:07d}", f"term {i}, niet gespecificeerd", vocab="ICD10DUT")
    add("C0000005", ", niet gespecificeerd", vocab="ICD10DUT")
    add("C0000006", ", niet gespecificeerd", vocab="ICD10DUT")
    # 5 case-variant duplicates of plain terms
    for i in range(1, 6):
        add(f"C{i:07d}", f"Aandoening {i}")
    # 5 bridge-vocabulary records; code 102 is deliberately ambiguous
    add("C0000301", "bridge term one", vocab="SNOMEDCT_US", code="100")
    add("C0000302", "bridge term two", vocab="SNOMEDCT_US", code="101")
    add("C0000303", "bridge term three", vocab="SNOMEDCT_US", code="102")
    add("C0000304", "bridge term four", vocab="SNOMEDCT_US", code="102")
    add("C0000305", "bridge term five", vocab="SNOMEDCT_US", code="103")
    # 10 lab-code records in a dropped vocabulary
    for i in range(1, 11):
        add(f"C{100 + i:07d}", f"lab meting {i}", vocab="LOINC")
    # 5 drug-vocabulary records, set aside and re-added at step 6
    for i, name in enumerate(["ibuprofen", "paracetamol", "metformine",
                              "amoxicilline", "simvastatine"], start=1):
        add(f"C{200 + i:07d}", name, vocab="ATC")
    assert len(records) == 60

    sty = [
        onto.SemanticTypeRow("C0000004", "T999"),
        onto.SemanticTypeRow("C0000028", "T999"),
        onto.SemanticTypeRow("C0000029", "T999"),
        onto.SemanticTypeRow("C0000001", "T047"),
        onto.SemanticTypeRow("C0000002", "T047"),
        onto.SemanticTypeRow("C0000301", "T047"),
    ]
    groups = {"T047": "DISO"}
    crosswalk = [
        onto.CrosswalkRow(100, "brugterm een"),      # unique match -> added
        onto.CrosswalkRow(101, "brugterm twee"),     # unique match -> added
        onto.CrosswalkRow(102, "dubbelzinnig"),      # ambiguous -> dropped
        onto.CrosswalkRow(999, "geen match"),        # unmatched -> dropped
        onto.CrosswalkRow(103, "bridge term five"),  # duplicate -> not added
    ]
    filters = config(
        'ontology.drop_vocabs=["LOINC"]',
        'ontology.descriptive_subterms=[{"pattern": ", niet gespecificeerd", '
        '"vocabs": ["ICD10DUT"]}]',
        'ontology.drop_tuis=["T999"]',
        'ontology.drug_vocabs=["ATC"]',
    )["ontology"]
    return records, sty, groups, crosswalk, filters


def test_criterion_01():
    start = time.perf_counter()
    concepts, sty, groups, crosswalk, filters = _sixty_record_fixture()
    records, steps = onto.build_ontology(concepts, sty, groups, crosswalk,
                                         filters)
    # hand simulation: 55 non-drug records; step 1 drops the 10 LOINC rows;
    # step 2 empties the 2 bare-pattern rows; step 3 removes the 5 case
    # duplicates; step 4 adds 2 of 5 crosswalk rows; step 5 drops the 4
    # records of the 3 T999 concepts; step 6 re-adds the 5 drug names.
    assert steps == [
        ("drop_vocabs", 45),
        ("strip_descriptive_subterms", 43),
        ("dedupe", 38),
        ("crosswalk_add", 40),
        ("drop_semantic_types", 36),
        ("drug_vocab_add", 41),
        ("assign_groups", 41),
    ]
    texts = {r.text for r in records}
    assert {"term 1", "brugterm een", "brugterm twee", "ibuprofen"} <= texts
    assert {"aandoening 4", "dubbelzinnig", "geen match", "lab meting 1",
            ", niet gespecificeerd"}.isdisjoint(texts)
    by_text = {r.text: r for r in records}
    assert by_text["aandoening 1"].group == "DISO"
    assert by_text["brugterm een"].cui == "C0000301"
    assert by_text["ibuprofen"].group == "OTHER"
    assert [r.term_id for r in records] == list(range(41))
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# 2. corpus compiler fidelity: 5-page dump, 6-entry map, hand annotations


FIXTURE_DUMP = """\
<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">
<page><title>Griep</title><ns>0</ns><id>1</id><revision><id>10</id>
<text>[[Griep]] veroorzaakt [[Koorts|hoge koorts]] bij velen. Tweede zin zonder links.</text>
</revision></page>
<page><title>Hartinfarct</title><ns>0</ns><id>2</id><revision><id>20</id>
<text>{{Infobox ziekte}}Een [[Hartinfarct|infarct]] is ernstig. Zie ook [[Onbekend artikel]] nu.</text>
</revision></page>
<page><title>Diabetes</title><ns>0</ns><id>3</id><revision><id>30</id>
<text>Over [[Diabetes|suikerziekte]] gaat dit &lt;ref&gt;bron&lt;/ref&gt;artikel.</text>
</revision></page>
<page><title>Categorie:Ziekten</title><ns>14</ns><id>4</id><revision><id>40</id>
<text>[[Griep]] hier.</text>
</revision></page>
<page><title>Leeg artikel</title><ns>0</ns><id>5</id><revision><id>50</id>
<text>Geen links hier. Echt helemaal niet.</text>
</revision></page>
</mediawiki>
"""

FIXTURE_MAP = """\
Q1\tC0000001\tGriep
Q2\tC0000002\tKoorts
Q3\tC0000003\tHartinfarct
Q4\tC0000004\tDiabetes
Q5\tC0000005\tSuikerziekte
Q6\tC0000006\tExtra_artikel
"""


def test_criterion_02():
    start = time.perf_counter()
    amap = corpus_mod.load_article_map_tsv(io.StringIO(FIXTURE_MAP))
    assert len(amap.entries) == 6
    pages = corpus_mod.parse_dump(io.BytesIO(FIXTURE_DUMP.encode("utf-8")))
    sentences, mentions, stats, _ = corpus_mod.compile_corpus(pages, amap,
                                                              ABBREVIATIONS)

    assert sentences == [
        corpus_mod.SentenceRecord(
            0, "Griep", "Griep veroorzaakt hoge koorts bij velen."),
        corpus_mod.SentenceRecord(1, "Hartinfarct", "Een infarct is ernstig."),
        corpus_mod.SentenceRecord(
            2, "Diabetes", "Over suikerziekte gaat dit artikel."),
    ]
    assert mentions == [
        corpus_mod.MentionAnnotation(0, 0, 5, "Griep", "Griep", "C0000001", "Q1"),
        corpus_mod.MentionAnnotation(0, 18, 29, "hoge koorts", "Koorts",
                                     "C0000002", "Q2"),
        corpus_mod.MentionAnnotation(1, 4, 11, "infarct", "Hartinfarct",
                                     "C0000003", "Q3"),
        corpus_mod.MentionAnnotation(2, 5, 17, "suikerziekte", "Diabetes",
                                     "C0000004", "Q4"),
    ]
    by_id = {s.sentence_id: s for s in sentences}
    for m in mentions:
        assert by_id[m.sentence_id].text[m.start:m.end] == m.anchor
    assert stats.sentences == 3 and stats.mentions == 4
    assert stats.avg_tokens_per_sentence == (6 + 4 + 5) / 3

    # XML serialization is byte-stable after one normalization pass
    sl = corpus_mod.CorpusSlice(sentences=sentences, mentions=mentions)
    once = corpus_mod.serialize_corpus(sl)
    back = corpus_mod.parse_corpus(io.StringIO(once))
    assert back == sl
    assert corpus_mod.serialize_corpus(back) == once
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# 3. pair-file format and pair counts


def test_criterion_03():
    ontology = [
        onto.OntologyRecord(0, "C0021400", "griep", "MDRDUT", "DISO"),
        onto.OntologyRecord(1, "C0021400", "influenza", "MDRDUT", "DISO"),
        onto.OntologyRecord(2, "C0021400", "seizoensgriep", "MDRDUT", "DISO"),
        onto.OntologyRecord(3, "C0027051", "hartinfarct", "MDRDUT", "DISO"),
        onto.OntologyRecord(4, "C0027051", "myocardinfarct", "MDRDUT", "DISO"),
    ]
    pairs = tr.generate_pretrain_pairs(ontology)
    assert "".join(tr.serialize_pairs(pairs)) == (
        "C0021400||griep||influenza\n"
        "C0021400||griep||seizoensgriep\n"
        "C0021400||influenza||seizoensgriep\n"
        "C0027051||hartinfarct||myocardinfarct\n"
    )
    for k in (1, 2, 3, 5):
        one_concept = [onto.OntologyRecord(i, "C0000001", f"synoniem {i}",
                                           "V", "DISO") for i in range(k)]
        assert len(tr.generate_pretrain_pairs(one_concept)) == math.comb(k, 2)


# --------------------------------------------------------------------------
# 4. miner oracle equivalence: 200 random batches vs O(B^3) brute force


def _brute_force_triplets(E, labels, margin):
    n = len(labels)
    dist = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            dist[a, b] = np.linalg.norm(E[a] - E[b])
    out = set()
    for a in range(n):
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            for m in range(n):
                if labels[m] == labels[a]:
                    continue
                if dist[a, p] >= dist[a, m] + margin:
                    out.add((a, p, m))
    return out


def test_criterion_04():
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        E = rng.normal(size=(n, 6))
        labels = [str(rng.integers(0, 6)) for _ in range(n)]
        for margin in (0.0, 0.2, 1.0):
            mined = mine_hard_triplets(E, labels, margin)
            got = {(t.anchor_idx, t.positive_idx, t.negative_idx)
                   for t in mined}
            want = _brute_force_triplets(E, labels, margin)
            mismatches += got != want
            # the miner that trains, against the oracle's (anchor, positive)
            # and (anchor, negative) entries
            work = tr.workspace(n)
            work.fill(np.nan)
            _, _, pos, neg = tr._ms_step(E, labels, margin, config()["loss"],
                                         work)
            mismatches += set(zip(pos[0].tolist(), pos[1].tolist())) != \
                {(a, p) for a, p, _ in want}
            mismatches += set(zip(neg[0].tolist(), neg[1].tolist())) != \
                {(a, m) for a, _, m in want}
    assert mismatches == 0
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# 5. loss and gradient correctness


def _rel_err(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _generic_encoder_draw(rng, trial):
    """Params and text away from relu kinks and the zero-norm switch, with
    unit pre-normalization magnitude so finite differences are well posed."""
    for attempt in range(100):
        p = fresh_params(9000 + 100 * trial + attempt, buckets=64, hidden=6,
                         dim=4)
        p.b1 = rng.normal(scale=0.1, size=p.hidden)
        text = random_word(rng, 3, 9)
        idx, vals = featurize_text(p, text)
        z = p.W1[:, idx] @ vals + p.b1
        e = p.W2 @ np.maximum(z, 0) + p.b2
        if np.min(np.abs(z)) > 1e-2 and np.linalg.norm(e) > 1e-3:
            scale = 1.0 / np.linalg.norm(e)
            p.W2 *= scale
            p.b2 *= scale
            return p, text
    raise AssertionError("no generic draw found")


def test_criterion_05():
    start = time.perf_counter()
    # hand-evaluated multi-similarity value: one anchor with a positive at
    # similarity 0.9 and a negative at 0.8, alpha=2, beta=50, base=0.5
    S = np.array([[1.0, 0.9, 0.8], [0.9, 1.0, 0.0], [0.8, 0.0, 1.0]])
    cfg = config("loss.alpha=2.0", "loss.beta=50.0", "loss.base=0.5")["loss"]
    loss, _ = ms_loss(S, ["a", "a", "b"], [Triplet(0, 1, 2)], cfg)
    assert abs(loss - 0.4856) < 1e-3

    rng = np.random.default_rng(50)
    for trial in range(50):
        # ms_loss gradient vs central finite differences
        n = 6
        E = random_unit_rows(rng, n, 3)
        sims = E @ E.T
        labels = [str(rng.integers(0, 3)) for _ in range(n)]
        mined = mine_hard_triplets(E, labels, 0.2)
        if mined:
            _, grad = ms_loss(sims, labels, mined, cfg)
            step = 1e-6
            num = np.zeros_like(sims)
            for i in range(n):
                for j in range(n):
                    P = sims.copy()
                    P[i, j] += step
                    hi, _ = ms_loss(P, labels, mined, cfg)
                    P[i, j] -= 2 * step
                    lo, _ = ms_loss(P, labels, mined, cfg)
                    num[i, j] = (hi - lo) / (2 * step)
            assert _rel_err(grad, num, floor=1e-4) < 1e-4

        # encode_backward vs central finite differences
        p, text = _generic_encoder_draw(rng, trial)
        upstream = rng.normal(size=p.dim)
        g = encode_backward(p, text, upstream)
        step = 1e-5
        for name in ("W1", "b1", "W2", "b2"):
            arr = getattr(p, name)
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                pos = it.multi_index
                orig = arr[pos]
                arr[pos] = orig + step
                hi = float(upstream @ encode(p, text))
                arr[pos] = orig - step
                lo = float(upstream @ encode(p, text))
                arr[pos] = orig
                num[pos] = (hi - lo) / (2 * step)
            assert _rel_err(g[name], num) < 1e-4
    assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# 6. training effectiveness on the synthetic synonym ontology


def _linking_accuracy(params, ontology, mention_list, pca_k=64):
    E = np.vstack([encode(params, r.text) for r in ontology])
    transform = ix.fit_pca(E, pca_k)
    flat = ix.build_ivf(ix.apply_pca(transform, E),
                        np.arange(len(ontology), dtype=np.int64),
                        [r.cui for r in ontology], [r.group for r in ontology],
                        1, seed=0)
    results, _ = ix.link_mentions([text for text, _ in mention_list], params,
                                  transform, flat, top_k=1)
    hits = sum(pred == cui for (pred, _), (_, cui) in zip(results, mention_list))
    return hits / len(mention_list)


def test_criterion_06():
    start = time.perf_counter()
    for seed in (0, 1, 2):
        ontology, cores = make_synthetic_ontology(seed=seed, n_concepts=200,
                                                  variants=4, n_affixes=30)
        held_out = make_perturbed_mentions(cores, seed=seed + 100, n=500,
                                           core_edits=2)
        params = fresh_params(seed, buckets=1024, hidden=192, dim=96)
        baseline = _linking_accuracy(params, ontology, held_out)

        pairs = tr.generate_pretrain_pairs(ontology)
        settings = (f"seed={seed}", "train.weight_decay=0.01",
                    "train.batch_size=64", "mining.margin=0.2")
        pre_cfg = config(*settings, "train.learning_rate=0.5")
        pretrained, _ = tr.run_training(params, pairs, pre_cfg, 3, None, 0)
        pre_acc = _linking_accuracy(pretrained, ontology, held_out)
        assert pre_acc >= baseline + 0.15, (seed, baseline, pre_acc)

        weak = make_perturbed_mentions(cores, seed=seed + 200, n=200,
                                       core_edits=2)
        ft_pairs = tr.generate_finetune_pairs(mentions_as_slice(weak), ontology,
                                              50)
        ft_cfg = config(*settings, "train.learning_rate=0.1")
        finetuned, _ = tr.run_training(pretrained, ft_pairs, ft_cfg, 4, None, 0)
        ft_acc = _linking_accuracy(finetuned, ontology, held_out)
        assert ft_acc >= pre_acc + 0.03, (seed, pre_acc, ft_acc)
    assert time.perf_counter() - start < 300.0


# --------------------------------------------------------------------------
# 7. PCA vs an independent eigensolver oracle


def test_criterion_07():
    rng = np.random.default_rng(70)
    for _ in range(50):
        n = int(rng.integers(10, 41))
        d = int(rng.integers(3, 11))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
        k = int(rng.integers(1, min(n - 1, d) + 1))
        t = ix.fit_pca(X, k)

        # oracle: eigendecomposition of the sample covariance matrix
        mean = X.mean(axis=0)
        C = (X - mean).T @ (X - mean) / (n - 1)
        w, V = np.linalg.eigh(C)
        order = np.argsort(w)[::-1][:k]
        comps = V[:, order].T
        flip = comps[np.arange(k), np.argmax(np.abs(comps), axis=1)] < 0
        comps[flip] *= -1.0

        assert np.max(np.abs(t.explained_variance - w[order])) < 1e-8
        assert np.max(np.abs(t.projection - comps.T)) < 1e-6

    # reconstruction error is non-increasing in k
    X = rng.normal(size=(30, 10)) * rng.uniform(0.5, 3.0, size=10)
    errors = []
    for k in range(1, 10):
        t = ix.fit_pca(X, k)
        back = reconstruct(t, ix.apply_pca(t, X))
        errors.append(float(np.sum((back - X) ** 2)))
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


# --------------------------------------------------------------------------
# 8. index exactness and recall


def test_criterion_08():
    start = time.perf_counter()
    rng = np.random.default_rng(80)

    # flat search equals a brute-force scan
    for _ in range(50):
        n = int(rng.integers(1, 80))
        k = int(rng.integers(2, 10))
        V = random_unit_rows(rng, n, k)
        ids = rng.permutation(n).astype(np.int64)
        flat = ix.build_ivf(V, ids, *term_table(ids), 1, seed=0)
        q = random_unit_rows(rng, 1, k)[0]
        top_k = int(rng.integers(1, n + 2))
        got = search(flat, q, top_k)
        scores = V @ q
        want = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[:top_k]
        assert [nb.term_id for nb in got] == [int(ids[i]) for i in want]

    # exhaustive ivf probing equals flat search, including tie handling
    for trial in range(20):
        n = int(rng.integers(20, 100))
        V = random_unit_rows(rng, n, 6)
        V[: n // 4] = V[n // 4: 2 * (n // 4)]  # force cross-list score ties
        ids = np.arange(n, dtype=np.int64)
        flat = ix.build_ivf(V, ids, *term_table(ids), 1, seed=0)
        nlist = int(rng.integers(1, 10))
        ivf = ix.build_ivf(V, ids, *term_table(ids), nlist=nlist, seed=trial)
        q = random_unit_rows(rng, 1, 6)[0]
        assert [(nb.term_id, nb.score)
                for nb in search(replace(ivf, nprobe=nlist), q, top_k=10)] == \
            [(nb.term_id, nb.score) for nb in search(flat, q, top_k=10)]

    # recall@1 on clustered vectors
    n, dim, n_clusters = 5000, 16, 50
    centers = random_unit_rows(rng, n_clusters, dim)
    assign = rng.integers(0, n_clusters, n)
    V = centers[assign] + 0.05 * rng.normal(size=(n, dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    ids = np.arange(n, dtype=np.int64)
    flat = ix.build_ivf(V, ids, *term_table(ids), 1, seed=0)
    ivf = ix.build_ivf(V, ids, *term_table(ids), nlist=64, seed=0)
    queries = centers[rng.integers(0, n_clusters, 200)] \
        + 0.05 * rng.normal(size=(200, dim))
    hits = 0
    for q in queries:
        truth = search(flat, q, 1)[0].term_id
        approx = search(replace(ivf, nprobe=8), q, top_k=1)
        hits += bool(approx) and approx[0].term_id == truth
    assert hits / len(queries) >= 0.9
    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# 9. evaluator correctness


def test_criterion_09():
    # narrower-relation example: predicting the narrower concept scores 0
    # exact but 1 at one relation distance
    graph = ev.build_relation_graph(
        [onto.RelationRow("C0150600", "C0010210")])
    report = ev.evaluate({"decubituswond": "C0010210"},
                         [ev.GoldMention("decubituswond", "C0150600", "DISO")],
                         graph)
    assert report.total.accuracy == 0.0
    assert report.total.one_dist_accuracy == 1.0

    # hand-counted 4-mention fixture: 2 exact, 1 more within one edge
    graph = ev.build_relation_graph(
        [onto.RelationRow("C0000003", "C0000004")])
    gold = [ev.GoldMention(m, c, "DISO") for m, c in
            [("a", "C0000001"), ("b", "C0000002"), ("c", "C0000003"),
             ("d", "C0000005")]]
    preds = {"a": "C0000001", "b": "C0000002", "c": "C0000004", "d": "C0000009"}
    report = ev.evaluate(preds, gold, graph)
    assert report.total.accuracy == 0.5
    assert report.total.one_dist_accuracy == 0.75

    # one-distance accuracy dominates exact accuracy on random instances
    rng = np.random.default_rng(90)
    for _ in range(1000):
        cuis = [f"C{i:07d}" for i in range(8)]
        rows = [onto.RelationRow(cuis[int(rng.integers(8))],
                                 cuis[int(rng.integers(8))])
                for _ in range(int(rng.integers(0, 12)))]
        graph = ev.build_relation_graph(rows)
        gold = [ev.GoldMention(f"m{i}", cuis[int(rng.integers(8))],
                               ["DISO", "CHEM"][int(rng.integers(2))])
                for i in range(int(rng.integers(1, 15)))]
        preds = {g.mention: cuis[int(rng.integers(8))] for g in gold
                 if rng.random() < 0.8}
        report = ev.evaluate(preds, gold, graph)
        assert report.total.one_dist_accuracy >= report.total.accuracy
        for row in report.groups:
            assert row.one_dist_accuracy >= row.accuracy


# --------------------------------------------------------------------------
# 10. full-pipeline determinism


PIPELINE_CONCEPTS = """\
C0000001|DUT|MDRDUT|10001|griep
C0000001|DUT|MDRDUT|10002|influenza
C0000002|DUT|MDRDUT|10003|hartinfarct
C0000002|DUT|MDRDUT|10004|myocardinfarct
C0000003|DUT|MDRDUT|10005|koorts
C0000004|DUT|MDRDUT|10006|diabetes
C0000004|DUT|MDRDUT|10007|suikerziekte
"""


def _run_determinism_pipeline(root, config):
    stages = [
        ["ontology-build"],
        ["corpus-compile"],
        ["corpus-subset"],
        ["pairs", "--stage", "pretrain"],
        ["train", "--epochs", "1"],
        ["index-build"],
        ["link", "--input", str(root / "mentions.txt")],
        ["evaluate"],
    ]
    for stage in stages:
        code = cli_main(stage + ["--config", config, "--quiet"])
        assert code == 0, stage


def test_criterion_10(tmp_path, capsys):
    (tmp_path / "concepts.psv").write_text(PIPELINE_CONCEPTS)
    (tmp_path / "sty.psv").write_text("C0000001|T047|Disease or Syndrome\n")
    (tmp_path / "rel.psv").write_text("C0000001|RN|C0000003|V\n")
    (tmp_path / "groups.json").write_text('{"T047":"DISO"}')
    (tmp_path / "map.tsv").write_text(FIXTURE_MAP)
    (tmp_path / "dump.xml").write_text(FIXTURE_DUMP)
    (tmp_path / "mentions.txt").write_text("griep\nkoorts\nsuikerziekte\n")
    out = tmp_path / "out"
    cfg = {
        "seed": 0,
        "paths": {
            "concepts": str(tmp_path / "concepts.psv"),
            "semantic_types": str(tmp_path / "sty.psv"),
            "relations": str(tmp_path / "rel.psv"),
            "semantic_groups": str(tmp_path / "groups.json"),
            "dump": str(tmp_path / "dump.xml"),
            "article_map_tsv": str(tmp_path / "map.tsv"),
            "gold_corpus": str(out / "val.xml"),
        },
        "corpus": {"split_ratio": 0.5},
        "encoder": {"buckets": 256, "hidden": 8, "dim": 8},
        "train": {"learning_rate": 0.05, "batch_size": 8},
        "index": {"pca_k": 8, "nlist": 2, "nprobe": 2, "top_k": 3},
    }
    for name in ("ontology", "ontology_stats", "corpus", "corpus_stats",
                 "train_corpus", "val_corpus", "pretrain_pairs",
                 "params_pretrained", "pretrain_loss_log", "pca", "flat_index",
                 "ivf_index", "link_output", "report"):
        from belforge.config import DEFAULTS
        cfg["paths"][name] = str(out / os.path.basename(DEFAULTS["paths"][name]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))

    snapshots = []
    for _run in range(2):
        out.mkdir()
        _run_determinism_pipeline(tmp_path, str(config))
        blobs = {name: (out / name).read_bytes()
                 for name in sorted(os.listdir(out))}
        snapshots.append(blobs)
        for path in out.iterdir():
            path.unlink()
        out.rmdir()
    assert sorted(snapshots[0]) == sorted(snapshots[1])
    for name, blob in snapshots[0].items():
        assert snapshots[1][name] == blob, name
