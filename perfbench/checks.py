"""Output checks for one benchmark run, made outside the timed calls.

The checks read the pipeline's files, not its objects: artifacts are parsed
from the documented container format, and the brute-force search oracle
embeds queries with its own n-gram hash and forward pass, so the checks keep
working when the package's internals are rewritten.
"""

import hashlib
import json
import math
import os
import struct
import xml.etree.ElementTree as ET
from collections import defaultdict

import numpy as np

SCORE_TOL = 1e-9
VERBATIM_SCORE = 1.0 - 1e-6
BRUTE_FORCE_SAMPLE = 20
TOP_K = 10
PER_MENTION_CAP = 50

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def read_artifact(path):
    """Parse the artifact container: magic, version, header length, JSON
    header, then little-endian arrays in header order."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"BELF":
        raise ValueError(f"{path}: not an artifact")
    _version, hdr_len = struct.unpack("<II", blob[4:12])
    header = json.loads(blob[12:12 + hdr_len].decode("utf-8"))
    arrays = {}
    off = 12 + hdr_len
    for spec in header["arrays"]:
        dt = np.dtype(spec["dtype"]).newbyteorder("<")
        count = int(np.prod(spec["shape"], dtype=np.int64)) if spec["shape"] else 1
        arrays[spec["name"]] = np.frombuffer(
            blob, dtype=dt, count=count, offset=off).reshape(spec["shape"])
        off += dt.itemsize * count
    return header["meta"], arrays


def _fnv1a(data):
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


class OracleEncoder:
    """Independent re-implementation of encode + PCA compression."""

    def __init__(self, params_path, pca_path):
        self.meta, p = read_artifact(params_path)
        self.W1, self.b1, self.W2, self.b2 = (
            np.asarray(p[k], dtype=float) for k in ("W1", "b1", "W2", "b2"))
        _, t = read_artifact(pca_path)
        self.mean = np.asarray(t["mean"], dtype=float)
        self.projection = np.asarray(t["projection"], dtype=float)

    def featurize(self, text):
        s = text.strip()
        if self.meta["lowercase"]:
            s = s.lower()
        s = "^" + s + "$"
        counts = defaultdict(float)
        for n in range(max(self.meta["n_min"], 1), self.meta["n_max"] + 1):
            for i in range(len(s) - n + 1):
                counts[_fnv1a(s[i:i + n].encode("utf-8")) % self.meta["buckets"]] += 1.0
        idx = np.array(sorted(counts), dtype=np.int64)
        return idx, np.array([counts[i] for i in idx])

    def query_vector(self, text):
        idx, vals = self.featurize(text)
        h = np.maximum(self.W1[:, idx] @ vals + self.b1, 0.0)
        e = self.W2 @ h + self.b2
        norm = np.linalg.norm(e)
        if self.meta["normalize_output"] and norm >= 1e-12:
            e = e / norm
        v = (e - self.mean) @ self.projection
        n = np.linalg.norm(v)
        return v / n if n >= 1e-12 else v


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(out_dir):
    """sha256 of every file the pipeline wrote, plus one digest over all."""
    files = {name: sha256_file(os.path.join(out_dir, name))
             for name in sorted(os.listdir(out_dir))}
    combined = hashlib.sha256("".join(
        f"{n}:{d}\n" for n, d in files.items()).encode()).hexdigest()
    return files, combined


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _corpus_mentions(path):
    root = ET.parse(path).getroot()
    return [(m.text or "", m.get("cui")) for m in root.iter("mention")]


def _same_ranking(out_top, scores, ids, row_of):
    """The output's top-k against a full scan ordered by (score desc,
    term_id asc); neighbours whose scores agree within SCORE_TOL may swap."""
    order = np.lexsort((ids, -scores))[:len(out_top)]
    if len(out_top) != min(TOP_K, len(ids)):
        return False
    for pos, n in enumerate(out_top):
        tid = n["term_id"]
        if tid not in row_of:
            return False
        mine = scores[row_of[tid]]
        if abs(mine - n["score"]) > SCORE_TOL:
            return False
        if tid != int(ids[order[pos]]) and abs(mine - scores[order[pos]]) > SCORE_TOL:
            return False
    return True


def check_outputs(world, out, summaries, mention_results):
    """Check every output of the pipeline run on ``world``.

    ``summaries`` maps a stage key to its parsed stdout summary and
    ``mention_results`` holds the parsed output of each single-mention call.
    Returns (failures, facts) where facts carries accuracy, IVF recall and
    the artifact digests.
    """
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    def path(name):
        return os.path.join(out, name)

    # ontology-build: per-step counts follow from how the sources were made
    stats = _read_json(path("ontology_stats.json"))
    steps = [(s["step"], s["remaining"]) for s in stats["steps"]]
    expect(steps == world.expected_steps,
           f"ontology steps {steps} != expected {world.expected_steps}")
    ob = summaries.get("ontology-build", {})
    expect(ob.get("malformed_lines") == world.malformed_lines,
           f"malformed lines {ob.get('malformed_lines')} != {world.malformed_lines}")
    ontology = _read_jsonl(path("ontology.jsonl"))
    expect(len(ontology) == world.expected_steps[-1][1],
           f"ontology has {len(ontology)} records")
    terms_by_cui = defaultdict(list)
    cuis_by_text = defaultdict(set)
    for r in sorted(ontology, key=lambda r: r["term_id"]):
        terms_by_cui[r["cui"]].append(r["text"])
        cuis_by_text[r["text"]].add(r["cui"])

    # corpus-compile and corpus-subset
    cstats = _read_json(path("corpus_stats.json"))
    for key, want in (("sentences", world.expected_sentences),
                      ("mentions", world.expected_mentions),
                      ("unlinkable_cuis", world.expected_unlinkable)):
        expect(cstats.get(key) == want, f"corpus {key} {cstats.get(key)} != {want}")
    train_mentions = _corpus_mentions(path("train.xml"))
    val_mentions = _corpus_mentions(path("val.xml"))
    expect(len(train_mentions) + len(val_mentions) == world.expected_subset,
           f"subset has {len(train_mentions)}+{len(val_mentions)} mentions, "
           f"expected {world.expected_subset}")

    # pairs: recount both files from the ontology and the train split
    want_pre = sum(len(set(t)) * (len(set(t)) - 1) // 2
                   for t in terms_by_cui.values())
    want_ft = sum(min(PER_MENTION_CAP, sum(1 for t in terms_by_cui.get(cui, ())
                                           if t != anchor))
                  for anchor, cui in train_mentions)
    for name, want in (("pretrain_pairs.txt", want_pre), ("finetune_pairs.txt", want_ft)):
        with open(path(name), encoding="utf-8") as f:
            lines = [ln for ln in f.read().split("\n") if ln]
        expect(len(lines) == want, f"{name} has {len(lines)} pairs, expected {want}")
        expect(all(len(ln.split("||")) == 3 for ln in lines), f"{name} malformed")

    for name in ("pretrain_losses.json", "finetune_losses.json"):
        losses = _read_json(path(name))
        expect(len(losses) == 1 and all(math.isfinite(x) for x in losses),
               f"{name}: {losses}")

    # index-build
    _, flat = read_artifact(path("flat.index"))
    vectors = np.asarray(flat["vectors"], dtype=float)
    ids = np.asarray(flat["ids"], dtype=np.int64)
    expect(len(ids) == len(ontology), f"flat index has {len(ids)} rows")
    _, ivf = read_artifact(path("ivf.index"))
    expect(sorted(np.asarray(ivf["ids"]).tolist()) == sorted(ids.tolist()),
           "ivf index does not hold every term once")
    row_of = {int(t): i for i, t in enumerate(ids)}

    # link --input, flat and IVF
    flat_out = _read_jsonl(path("links_flat.jsonl"))
    ivf_out = _read_jsonl(path("links_ivf.jsonl"))
    for name, rows in (("flat", flat_out), ("ivf", ivf_out)):
        expect([r.get("mention") for r in rows] == world.queries,
               f"{name} link output does not follow the input")
        errors = [r for r in rows if "error" in r]
        expect(not errors, f"{name} link: {len(errors)} error lines")
        bad = [r["mention"] for r in rows if r.get("mention") in world.verbatim
               and "error" not in r
               and (r["score"] < VERBATIM_SCORE
                    or r["predicted_cui"] not in cuis_by_text.get(r["mention"], ()))]
        expect(not bad, f"{name} link: {len(bad)} verbatim terms not found "
                        f"at score 1, e.g. {bad[:3]}")
    ok_rows = [(f, i) for f, i in zip(flat_out, ivf_out)
               if "error" not in f and "error" not in i]
    found = sum(len({n["term_id"] for n in f["top_k"]} & {n["term_id"] for n in i["top_k"]})
                for f, i in ok_rows)
    wanted = sum(len(f["top_k"]) for f, _ in ok_rows)
    recall = found / wanted if wanted else 0.0

    # a sample of flat top-10 against a brute-force scan
    oracle = OracleEncoder(path("finetuned.params"), path("pca.bin"))
    by_mention = {r["mention"]: r for r in flat_out if "error" not in r}
    sample = world.queries[:BRUTE_FORCE_SAMPLE]
    mismatched = [m for m in sample if m in by_mention and not _same_ranking(
        by_mention[m]["top_k"], vectors @ oracle.query_vector(m), ids, row_of)]
    expect(not mismatched, f"flat top-{TOP_K} differs from a brute-force scan "
                           f"for {len(mismatched)}/{len(sample)} queries")

    # single-mention calls agree with the batch output
    disagree = [r.get("mention") for r in mention_results
                if r.get("mention") not in by_mention
                or [n["term_id"] for n in r.get("top_k", ())]
                != [n["term_id"] for n in by_mention[r["mention"]]["top_k"]]]
    expect(not disagree, f"link --mention disagrees with link --input for {disagree[:3]}")

    # evaluate: accuracy recounted from the flat link output
    report = _read_json(path("report.json"))
    total = report["total"]
    hits = sum(by_mention.get(m, {}).get("predicted_cui") == cui for m, cui in world.gold)
    recount = hits / len(world.gold)
    expect(total["count"] == len(world.gold),
           f"evaluate counted {total['count']} of {len(world.gold)} mentions")
    expect(total["accuracy"] == recount,
           f"evaluate accuracy {total['accuracy']} != recount {recount}")

    files, combined = digests(out)
    facts = {"accuracy": total["accuracy"], "ivf_recall_at_10": recall,
             "digests": files, "digest": combined,
             "ontology_terms": len(ontology),
             "pretrain_pairs": want_pre, "finetune_pairs": want_ft}
    return failures, facts
