import hashlib
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
import urllib.parse
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from belforge import artifacts
from belforge import corpus as corpus_mod
from belforge import encoder as enc
from belforge import index as index_mod
from belforge.cli import _HANDLERS, _build_parser, main
from belforge.config import DEFAULTS
from belforge.errors import DataError, UsageError
from helpers import fresh_params
from oracles import search_ivf_per_query

SUBCOMMANDS = list(_HANDLERS)

CONCEPTS = """\
C0000001|DUT|MDRDUT|10001|griep
C0000001|DUT|MDRDUT|10002|influenza
C0000002|DUT|MDRDUT|10003|hartinfarct
C0000002|DUT|MDRDUT|10004|myocardinfarct
C0000003|DUT|MDRDUT|10005|koorts
C0000004|DUT|MDRDUT|10006|diabetes
C0000004|DUT|MDRDUT|10007|suikerziekte
"""

SEMANTIC_TYPES = """\
C0000001|T047|Disease or Syndrome
C0000002|T047|Disease or Syndrome
C0000003|T047|Disease or Syndrome
C0000004|T047|Disease or Syndrome
"""

RELATIONS = "C0000001|RN|C0000003|V\n"

ARTICLE_MAP = """\
Q1\tC0000001\tGriep
Q2\tC0000002\tHartinfarct
Q3\tC0000003\tKoorts
Q4\tC0000004\tDiabetes
"""

DUMP = """\
<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">
<page><title>Griep</title><ns>0</ns><id>1</id><revision><id>100</id>
<text>[[Griep]] geeft vaak [[Koorts|koorts]] bij mensen. Soms volgt een [[Hartinfarct|hartinfarct]] erna.</text>
</revision></page>
<page><title>Diabetes</title><ns>0</ns><id>2</id><revision><id>200</id>
<text>Over [[Diabetes|suikerziekte]] is veel bekend. Het geeft geen [[Griep|influenza]] of iets.</text>
</revision></page>
</mediawiki>
"""


# encoder settings each in range whose combination _initial_params refuses
CROSS_FIELD_OVERRIDES = {"encoder.n_max=1", "encoder.hidden=" + "9" * 21,
                         "encoder.dim=" + "9" * 21, "encoder.buckets=33554433"}


def _files(directory):
    """{relative path: bytes} of every file under ``directory``."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "concepts.psv").write_text(CONCEPTS)
    (tmp_path / "sty.psv").write_text(SEMANTIC_TYPES)
    (tmp_path / "rel.psv").write_text(RELATIONS)
    (tmp_path / "map.tsv").write_text(ARTICLE_MAP)
    (tmp_path / "dump.xml").write_text(DUMP)
    (tmp_path / "groups.json").write_text(json.dumps({"T047": "DISO"}))
    cfg = {
        "seed": 0,
        "paths": {
            "concepts": str(tmp_path / "concepts.psv"),
            "semantic_types": str(tmp_path / "sty.psv"),
            "relations": str(tmp_path / "rel.psv"),
            "semantic_groups": str(tmp_path / "groups.json"),
            "dump": str(tmp_path / "dump.xml"),
            "article_map_tsv": str(tmp_path / "map.tsv"),
            "gold_corpus": str(tmp_path / "out" / "val.xml"),
        },
        "corpus": {"split_ratio": 0.5},
        "encoder": {"buckets": 256, "hidden": 8, "dim": 8},
        "train": {"learning_rate": 0.05, "batch_size": 8, "epochs": 2},
        "index": {"pca_k": 8, "nlist": 2, "nprobe": 2, "top_k": 3},
    }
    # artifact paths in DEFAULTS are relative; run from the workspace
    cwd = os.getcwd()
    os.makedirs(tmp_path / "out")
    os.chdir(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    yield tmp_path, str(config_path)
    os.chdir(cwd)


def run_pipeline(config, upto="evaluate"):
    stages = [
        ["ontology-build"],
        ["corpus-compile"],
        ["corpus-subset"],
        ["pairs", "--stage", "pretrain"],
        ["train"],
        ["pairs", "--stage", "finetune"],
        ["finetune"],
        ["index-build"],
        ["evaluate"],
    ]
    for stage in stages:
        assert main(stage + ["--config", config, "--quiet"]) == 0, stage
        if stage[0] == upto:
            break


def run_links(root, config, mentions="griep\nkoorts\nhartinfarct\n"):
    """link --input over a mention file into links_flat.jsonl and
    links_ivf.jsonl; returns their paths."""
    (root / "mentions.txt").write_text(mentions, encoding="utf-8")
    outputs = {}
    for kind in ("flat", "ivf"):
        out = root / "out" / f"links_{kind}.jsonl"
        assert main(["link", "--config", config, "--quiet", "--index", kind,
                     "--input", str(root / "mentions.txt"),
                     "--set", f"paths.link_output={out}"]) == 0
        outputs[kind] = out
    return outputs


class TestPipeline:
    def test_end_to_end(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config)
        out_lines = capsys.readouterr().out.strip().split("\n")
        summaries = {json.loads(l)["command"]: json.loads(l) for l in out_lines}
        assert summaries["ontology-build"]["records"] == 7
        assert summaries["corpus-compile"]["sentences"] == 4
        assert summaries["corpus-compile"]["mentions"] == 5
        assert summaries["corpus-compile"]["unbalanced_templates"] == 0
        # five distinct anchors, all CUIs in the ontology
        assert summaries["corpus-subset"]["train_mentions"] == 2
        assert summaries["corpus-subset"]["val_mentions"] == 3
        # C(2,2) pairs per multi-term concept: griep/influenza,
        # hartinfarct/myocardinfarct, diabetes/suikerziekte
        assert summaries["pairs"]["pairs"] >= 1
        assert len(summaries["train"]["loss_log"]) == 2
        assert summaries["evaluate"]["mentions"] == 3
        assert (root / "out" / "report.json").exists()
        report = json.loads((root / "out" / "report.json").read_text())
        assert report["total"]["count"] == 3

    def test_ontology_build_adds_crosswalk_terms(self, workspace, capsys):
        """paths.crosswalk adds each external term whose id one bridge
        record carries, as a SNOMEDCT_NL term of that record's CUI."""
        root, config = workspace
        with open(root / "concepts.psv", "a") as f:
            f.write("C0000003|ENG|SNOMEDCT_US|386661006|fever\n")
        (root / "crosswalk.psv").write_text(
            "386661006|verhoogde temperatuur\n999|geen brug\n")
        steps = {}
        for crosswalk in ("null", str(root / "crosswalk.psv")):
            assert main(["ontology-build", "--config", config, "--quiet",
                         "--set", f"paths.crosswalk={crosswalk}"]) == 0
            summary = json.loads(capsys.readouterr().out)
            steps[crosswalk] = {s["step"]: s["remaining"] for s in summary["steps"]}
        assert steps["null"]["crosswalk_add"] == steps["null"]["dedupe"] == 8
        assert steps[crosswalk]["crosswalk_add"] == 9
        records = [json.loads(l) for l in
                   (root / "out" / "ontology.jsonl").read_text().splitlines()]
        assert {"term_id": 8, "cui": "C0000003", "text": "verhoogde temperatuur",
                "vocab": "SNOMEDCT_NL", "group": "DISO"} in records

    def test_train_resumes_after_a_checkpoint(self, workspace):
        """train from a checkpoint continues at the next epoch index: 1 + 1
        epochs give the bytes of a straight 2-epoch run, and the resumed
        run leaves the first run's checkpoint as it was."""
        root, config = workspace
        run_pipeline(config, upto="pairs")

        def train(epochs, checkpoints, *overrides):
            assert main(["train", "--config", config, "--quiet",
                         "--epochs", str(epochs), "--set",
                         f"paths.checkpoint_dir={root / checkpoints}",
                         *(x for o in overrides for x in ("--set", o))]) == 0
            return (root / "out" / "pretrained.params").read_bytes()

        straight = train(2, "straight")
        train(1, "resumed")
        first = (root / "resumed" / "epoch_000.params").read_bytes()
        resumed = train(1, "resumed",
                        f"paths.params_init={root / 'resumed' / 'epoch_000.params'}")
        assert resumed == straight
        assert (root / "resumed" / "epoch_000.params").read_bytes() == first
        assert sorted(os.listdir(root / "resumed")) == ["epoch_000.params",
                                                       "epoch_001.params"]
        for ep in range(2):
            name = f"epoch_{ep:03d}.params"
            assert (root / "resumed" / name).read_bytes() == \
                (root / "straight" / name).read_bytes()
            assert enc.load_params(root / "straight" / name).epoch == ep
        # a finished run's params record no epoch: training from them
        # starts at epoch 0 again
        assert enc.load_params(root / "out" / "pretrained.params").epoch is None

    def test_finetune_checkpoints_leave_train_checkpoints_alone(self, workspace):
        """train and finetune sharing paths.checkpoint_dir: finetune writes
        its epochs under finetune/, so train's checkpoint bytes stay."""
        root, config = workspace
        shared = ["--set", f"paths.checkpoint_dir={root / 'checkpoints'}"]
        run_pipeline(config, upto="pairs")
        assert main(["train", "--config", config, "--quiet"] + shared) == 0
        names = ["epoch_000.params", "epoch_001.params"]
        before = {n: (root / "checkpoints" / n).read_bytes() for n in names}
        assert main(["pairs", "--config", config, "--quiet",
                     "--stage", "finetune"]) == 0
        assert main(["finetune", "--config", config, "--quiet",
                     "--epochs", "2"] + shared) == 0
        assert {n: (root / "checkpoints" / n).read_bytes() for n in names} == before
        assert sorted(os.listdir(root / "checkpoints")) == names + ["finetune"]
        assert sorted(os.listdir(root / "checkpoints" / "finetune")) == names
        # the pretrained params record no epoch, so finetune counts from 0
        for ep, name in enumerate(names):
            assert enc.load_params(root / "checkpoints" / "finetune" / name).epoch == ep

    def test_link_single_mention(self, workspace, capsys):
        _root, config = workspace
        run_pipeline(config, upto="index-build")
        capsys.readouterr()
        assert main(["link", "--config", config, "--quiet",
                     "--mention", "griep"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["predicted_cui"] == "C0000001"
        assert len(result["top_k"]) == 3

    def test_link_batch_file(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        (root / "mentions.txt").write_text("griep\nkoorts\n")
        assert main(["link", "--config", config, "--quiet",
                     "--input", str(root / "mentions.txt")]) == 0
        lines = (root / "out" / "links.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["mention"] == "griep"

    @staticmethod
    def dump_with(root, first_link, pages=2):
        """The dump's first ``pages`` pages, the [[Griep]] link replaced, and a
        split ratio of 0.9."""
        kept = "<page>".join(DUMP.split("<page>")[:pages + 1])
        kept = kept.split("</mediawiki>")[0].replace("[[Griep]] geeft",
                                                     first_link + " geeft")
        (root / "dump.xml").write_text(kept + "</mediawiki>\n")
        cfg = json.loads((root / "config.json").read_text())
        cfg["corpus"]["split_ratio"] = 0.9
        (root / "config.json").write_text(json.dumps(cfg))

    def test_anchor_across_a_line_break_reaches_finetune(self, workspace, caplog):
        """A link anchor that spans a line break reaches the corpus and the
        finetune pairs as one line, its whitespace run folded to one
        space as a rendered page shows it, and finetune reads the pairs."""
        root, config = workspace
        self.dump_with(root, "[[Griep|hoge\n  koorts]]", pages=1)
        run_pipeline(config, upto="train")
        with open(root / "out" / "train.xml", encoding="utf-8") as f:
            train = corpus_mod.parse_corpus(f)
        assert [m.anchor for m in train.mentions] == ["hoge koorts", "hartinfarct"]
        assert train.sentences[0].text.startswith("hoge koorts geeft vaak koorts")
        caplog.clear()
        assert main(["pairs", "--stage", "finetune", "--config", config,
                     "--quiet"]) == 0
        assert "dropped" not in caplog.text
        pairs = (root / "out" / "finetune_pairs.txt").read_text(encoding="utf-8")
        assert pairs == ("C0000001||hoge koorts||griep\n"
                         "C0000001||hoge koorts||influenza\n"
                         "C0000002||hartinfarct||myocardinfarct\n")
        assert main(["finetune", "--config", config, "--quiet"]) == 0

    def test_blank_anchor_makes_no_mention(self, workspace, caplog):
        """A link whose anchor is only whitespace stays text but makes no
        mention, so pairs --stage finetune and finetune run through."""
        root, config = workspace
        self.dump_with(root, "Ook [[Griep| ]]")
        run_pipeline(config, upto="corpus-compile")
        with open(root / "out" / "corpus.xml", encoding="utf-8") as f:
            full = corpus_mod.parse_corpus(f)
        assert [m.anchor for m in full.mentions] == [
            "koorts", "hartinfarct", "suikerziekte", "influenza"]
        assert full.sentences[0].text.startswith("Ook   geeft vaak koorts")
        run_pipeline(config, upto="train")
        caplog.clear()
        assert main(["pairs", "--stage", "finetune", "--config", config,
                     "--quiet"]) == 0
        assert "dropped" not in caplog.text
        assert main(["finetune", "--config", config, "--quiet"]) == 0

    def test_link_ivf_index(self, workspace, capsys):
        _root, config = workspace
        run_pipeline(config, upto="index-build")
        capsys.readouterr()
        assert main(["link", "--config", config, "--quiet", "--index", "ivf",
                     "--mention", "hartinfarct"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["predicted_cui"] == "C0000002"

    def test_link_with_input_and_mention_usage(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        (root / "mentions.txt").write_text("griep\nkoorts\n")
        capsys.readouterr()
        assert main(["link", "--config", config, "--quiet", "--mention", "griep",
                     "--input", str(root / "mentions.txt")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err
        assert not (root / "out" / "links.jsonl").exists()

    def test_rerun_byte_identical(self, workspace):
        root, config = workspace
        run_pipeline(config)
        run_links(root, config)
        first = {}
        for name in ("ontology.jsonl", "corpus.xml", "train.xml", "val.xml",
                     "pretrain_pairs.txt", "pretrained.params",
                     "finetuned.params", "pca.bin", "flat.index", "ivf.index",
                     "report.json", "links_flat.jsonl", "links_ivf.jsonl"):
            first[name] = (root / "out" / name).read_bytes()
        run_pipeline(config)
        run_links(root, config)
        for name, blob in first.items():
            assert (root / "out" / name).read_bytes() == blob, name

    def test_batch_links_equal_single_mentions(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        mentions = ["griep", "", "koorts", "griep", "   ", "Hartinfarct!",
                    "koorts", "suikerziekte"]
        outputs = run_links(root, config, "\n".join(mentions) + "\n")
        for kind, path in outputs.items():
            lines = path.read_text(encoding="utf-8").splitlines()
            assert len(lines) == len(mentions)
            capsys.readouterr()
            for mention, line in zip(mentions, lines):
                code = main(["link", "--config", config, "--quiet",
                             "--index", kind, "--mention", mention])
                out = capsys.readouterr().out
                if mention.strip():
                    assert code == 0
                    assert out.rstrip("\n") == line, (kind, mention)
                else:
                    # the error stays in place in the batch output
                    assert code == 2
                    assert json.loads(line) == {
                        "mention": mention,
                        "error": "empty text cannot be featurized"}

    def test_stats_command(self, workspace, capsys):
        _root, config = workspace
        run_pipeline(config, upto="corpus-compile")
        capsys.readouterr()
        assert main(["stats", "--config", config, "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ontology_stats" in payload and "corpus_stats" in payload

    def test_ontology_stats_json(self, workspace, capsys):
        """ontology_stats.json and the ontology-build summary list each step
        with the records it leaves, in order."""
        root, config = workspace
        assert main(["ontology-build", "--config", config, "--quiet"]) == 0
        steps = [{"step": name, "remaining": 7} for name in (
            "drop_vocabs", "strip_descriptive_subterms", "dedupe",
            "crosswalk_add", "drop_semantic_types", "drug_vocab_add",
            "assign_groups")]
        payload = json.loads((root / "out" / "ontology_stats.json").read_text())
        assert payload == {"steps": steps}
        assert json.loads(capsys.readouterr().out)["steps"] == steps

    def test_every_json_output_is_in_canonical_form(self, workspace, capsys):
        """Every stdout line and every JSON or JSONL file the pipeline writes
        is its own compact, key-sorted re-dump."""
        root, config = workspace
        run_pipeline(config)
        run_links(root, config, mentions="griep\n\nkoorts\n")
        for argv in (["link", "--mention", "griep"], ["stats"]):
            assert main(argv + ["--config", config, "--quiet"]) == 0
        texts = capsys.readouterr().out.splitlines()
        assert len(texts) == 13
        for path in sorted((root / "out").iterdir()):
            if path.suffix == ".json":
                texts.append(path.read_text(encoding="utf-8").rstrip("\n"))
            elif path.suffix == ".jsonl":
                texts += path.read_text(encoding="utf-8").splitlines()
        assert len(texts) == 13 + 5 + 7 + 2 * 3
        for text in texts:
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      separators=(",", ":"))

    def test_train_zero_epochs(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="pairs")
        capsys.readouterr()
        assert main(["train", "--config", config, "--quiet",
                     "--epochs", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["loss_log"] == []
        assert (root / "out" / "pretrained.params").exists()

    def test_set_override(self, workspace, capsys):
        _root, config = workspace
        run_pipeline(config, upto="pairs")
        capsys.readouterr()
        assert main(["train", "--config", config, "--quiet",
                     "--set", "train.epochs=3"]) == 0
        assert len(json.loads(capsys.readouterr().out)["loss_log"]) == 3


def link_outputs(root, config, capsys):
    """Every output of the link stack: link --mention stdout (flat and IVF),
    link --input files (flat and IVF), evaluate's report and stdout."""
    outputs = {}
    for kind in ("flat", "ivf"):
        for mention in ("griep", "koorts", "Hartinfarct!"):
            capsys.readouterr()
            assert main(["link", "--config", config, "--quiet", "--index", kind,
                         "--mention", mention]) == 0
            outputs[kind, mention] = capsys.readouterr().out
    for kind, path in run_links(root, config).items():
        outputs[kind, "input"] = path.read_bytes()
    for kind in ("flat", "ivf"):
        capsys.readouterr()
        assert main(["evaluate", "--config", config, "--quiet",
                     "--index", kind]) == 0
        outputs[kind, "evaluate"] = capsys.readouterr().out
        outputs[kind, "report"] = (root / "out" / "report.json").read_bytes()
    return outputs


def edit_header(path, edit):
    """Rewrite the artifact at ``path`` with ``edit`` applied to its header."""
    blob = path.read_bytes()
    hdr_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + hdr_len])
    edit(header)
    hdr = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(hdr)) + hdr
                     + blob[12 + hdr_len:])


def assert_io_error(config, capsys, argv, *fragments):
    """``argv`` exits 3 with one stderr line holding every fragment."""
    capsys.readouterr()
    assert main(argv + ["--config", config, "--quiet"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    for fragment in fragments:
        assert fragment in captured.err


LINK_CALLS = [["link", "--mention", "griep"],
              ["link", "--mention", "griep", "--index", "ivf"],
              ["link", "--input", "mentions.txt"],
              ["link", "--input", "mentions.txt", "--index", "ivf"],
              ["evaluate"], ["evaluate", "--index", "ivf"]]


def out_files(root):
    return {p.name: p.read_bytes() for p in (root / "out").iterdir()}


def keep_digest(path, mutate, kind="pca-transform"):
    """Rewrite the artifact at ``path`` with ``mutate`` applied to its
    arrays, keeping the payload digest its header recorded."""
    meta, arrays, sha256 = artifacts.load_artifact(path, kind)
    mutate(arrays)
    artifacts.save_artifact(path, kind, meta, arrays)
    edit_header(path, lambda header: header.update(sha256=sha256))


def flip_payload_bit(path):
    """Flip the lowest bit of the last float64 in the artifact's payload,
    its last array's, leaving the header and its digest as they were."""
    blob = bytearray(path.read_bytes())
    blob[-8] ^= 1
    path.write_bytes(bytes(blob))


def cut_index(path):
    index = index_mod.load_ivf(path)
    index_mod.save_ivf(path, replace(index, vectors=index.vectors[:, :5],
                                     centroids=index.centroids[:, :5]))


def cut_pca_rows(arrays):
    arrays["mean"], arrays["projection"] = arrays["mean"][:-3], arrays["projection"][:-3]


def cut_pca_columns(arrays):
    arrays["projection"] = arrays["projection"][:, :-1]
    arrays["explained_variance"] = arrays["explained_variance"][:-1]


def cut_variance(arrays):
    arrays["explained_variance"] = arrays["explained_variance"][:-1]


# artifact -> mutation, and the file the stderr line must name ({kind} is
# the index the call reads)
DIM_MISMATCHES = {
    "index_columns": ({"flat.index": cut_index, "ivf.index": cut_index},
                      "{kind}.index"),
    "pca_rows": ({"pca.bin": lambda p: keep_digest(p, cut_pca_rows)}, "pca.bin"),
    "pca_columns": ({"pca.bin": lambda p: keep_digest(p, cut_pca_columns)},
                    "pca.bin"),
    "pca_variance": ({"pca.bin": lambda p: keep_digest(p, cut_variance)}, "pca.bin"),
}


class TestLinkStack:
    @pytest.mark.parametrize("stored", [None, 2])
    def test_nprobe_is_read_at_search(self, workspace, capsys, stored):
        """link reads index.nprobe from the config, not from the index file
        (older files record the nprobe they were built with): one built
        index gives the search_ivf results of each nprobe."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        out = root / "out"
        if stored is not None:
            edit_header(out / "ivf.index",
                        lambda header: header["meta"].update(nprobe=stored))
        params = enc.load_params(out / "finetuned.params")
        transform = index_mod.load_pca(out / "pca.bin")
        index = index_mod.load_ivf(out / "ivf.index")
        assert len(index.centroids) == 2
        got = {}
        for nprobe in (1, 2):
            capsys.readouterr()
            assert main(["link", "--config", config, "--quiet", "--index", "ivf",
                         "--mention", "griep", "--top-k", "7",
                         "--set", f"index.nprobe={nprobe}"]) == 0
            got[nprobe] = json.loads(capsys.readouterr().out)
            [(cui, neighbors)], _ = index_mod.link_mentions(
                ["griep"], params, transform, replace(index, nprobe=nprobe), top_k=7)
            assert got[nprobe]["predicted_cui"] == cui
            assert got[nprobe]["top_k"] == [
                {"term_id": n.term_id, "cui": n.cui, "score": n.score}
                for n in neighbors]
        assert len(got[1]["top_k"]) < len(got[2]["top_k"]) == 7

    def test_ivf_links_equal_the_per_query_oracle(self, workspace, monkeypatch):
        """link --input --index ivf at nprobe 1, in mid-range and at nlist
        writes, byte for byte, the lines of the per-query search oracle on
        the same stack, over two blocks with a blank mention among them."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        assert main(["index-build", "--config", config, "--quiet",
                     "--set", "index.nlist=4"]) == 0
        out = root / "out"
        params = enc.load_params(out / "finetuned.params")
        transform = index_mod.load_pca(out / "pca.bin")
        index = index_mod.load_ivf(out / "ivf.index")
        assert len(index.centroids) == 4
        mentions = ["griep", "koorts", " ", "hartinfarct", "suikerziekte",
                    "Influenza!", "myocard infarct", "diabetes type", "koorts griep",
                    "x"]
        (root / "mentions.txt").write_text("\n".join(mentions) + "\n")
        for nprobe in (1, 2, 4):
            path = out / f"links_{nprobe}.jsonl"
            assert main(["link", "--config", config, "--quiet", "--index", "ivf",
                         "--input", str(root / "mentions.txt"),
                         "--set", f"index.nprobe={nprobe}",
                         "--set", f"paths.link_output={path}"]) == 0
            with monkeypatch.context() as m:
                m.setattr(index_mod, "search_ivf", search_ivf_per_query)
                results, _ = index_mod.link_mentions(
                    mentions, params, transform, replace(index, nprobe=nprobe), top_k=3)
            lines = [json.dumps(
                {"mention": text, "error": str(r)} if isinstance(r, DataError) else
                {"mention": text, "predicted_cui": r[0], "score": r[1][0].score,
                 "top_k": [{"term_id": n.term_id, "cui": n.cui, "score": n.score}
                           for n in r[1]]}, sort_keys=True, separators=(",", ":"))
                for text, r in zip(mentions, results)]
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_rows_scored(self, workspace, capsys):
        """link --input reports the stored rows it scored: every index row
        per linked mention for flat, and for IVF the sizes of the lists each
        linked mention probes, nearest by the full distance form."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        assert main(["index-build", "--config", config, "--quiet",
                     "--set", "index.nlist=4"]) == 0
        out = root / "out"
        params = enc.load_params(out / "finetuned.params")
        transform = index_mod.load_pca(out / "pca.bin")
        mentions = ["griep", " ", "koorts", "hartinfarct", "suikerziekte", "x"]
        (root / "mentions.txt").write_text("\n".join(mentions) + "\n")
        linked = [m for m in mentions if m.strip()]
        queries = []
        for m in linked:
            block = np.zeros((index_mod.LINK_BLOCK, params.dim))
            block[0] = enc.encode_batch(params, [m])[0]
            queries.append(index_mod._unit_rows(index_mod.apply_pca(transform, block))[0])
        for kind, nprobe in (("flat", 1), ("ivf", 1), ("ivf", 2), ("ivf", 3)):
            capsys.readouterr()
            assert main(["link", "--config", config, "--quiet", "--index", kind,
                         "--input", str(root / "mentions.txt"),
                         "--set", f"index.nprobe={nprobe}"]) == 0
            summary = json.loads(capsys.readouterr().out)
            index = index_mod.load_ivf(out / f"{kind}.index")
            if kind == "flat":
                want = len(index.ids) * len(linked)
            else:
                sizes = np.diff(index.offsets)
                want = sum(int(sizes[np.argsort(np.sum((index.centroids - q) ** 2, axis=1),
                                                kind="stable")[:nprobe]].sum())
                           for q in queries)
                assert 0 < want < len(index.ids) * len(linked)
            assert summary["rows_scored"] == want

    def test_outputs_do_not_need_the_ontology(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        with_ontology = link_outputs(root, config, capsys)
        (root / "out" / "ontology.jsonl").unlink()
        assert link_outputs(root, config, capsys) == with_ontology

    def test_ontology_edited_after_index_build(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        before = link_outputs(root, config, capsys)
        # keep one record and move it to a new CUI and term_id
        ontology = root / "out" / "ontology.jsonl"
        record = json.loads(ontology.read_text().splitlines()[0])
        record.update(term_id=99, cui="C9999999")
        ontology.write_text(json.dumps(record) + "\n")
        assert link_outputs(root, config, capsys) == before

    def test_retrained_params_are_refused(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        assert main(["finetune", "--config", config, "--quiet",
                     "--epochs", "3"]) == 0
        for argv in LINK_CALLS:
            assert_io_error(config, capsys, argv, "finetuned.params",
                            "rerun index-build")

    def test_params_named_on_the_command_line_are_checked(self, workspace,
                                                          capsys):
        _root, config = workspace
        run_pipeline(config, upto="index-build")
        assert_io_error(config, capsys, ["link", "--mention", "griep",
                                         "--params", "out/pretrained.params"],
                        "pretrained.params", "rerun index-build")

    def test_pca_from_another_build_is_refused(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        old_pca = (root / "out" / "pca.bin").read_bytes()
        assert main(["index-build", "--config", config, "--quiet",
                     "--set", "index.pca_k=4"]) == 0
        (root / "out" / "pca.bin").write_bytes(old_pca)
        for argv in LINK_CALLS:
            assert_io_error(config, capsys, argv, "pca.bin", "built together")

    def test_index_without_term_table_is_refused(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        for kind, name in (("flat", "flat.index"), ("ivf", "ivf.index")):
            path = root / "out" / name
            meta, arrays, _sha256 = artifacts.load_artifact(path, "ivf-index")
            del arrays["cuis"], arrays["groups"]
            artifacts.save_artifact(path, "ivf-index", meta, arrays)
            for argv in (["link", "--mention", "griep", "--index", kind],
                         ["evaluate", "--index", kind]):
                assert_io_error(config, capsys, argv, name, "no term table",
                                "rerun index-build")

    def test_index_without_provenance_is_refused(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        for kind, name in (("flat", "flat.index"), ("ivf", "ivf.index")):
            path = root / "out" / name
            index_mod.save_ivf(path, replace(index_mod.load_ivf(path),
                                             params_sha256=None, pca_sha256=None))
            for argv in (["link", "--mention", "griep", "--index", kind],
                         ["evaluate", "--index", kind]):
                assert_io_error(config, capsys, argv, name, "no provenance",
                                "rerun index-build")

    @pytest.mark.parametrize("name", sorted(DIM_MISMATCHES))
    def test_artifacts_of_other_dimensions_are_refused(self, workspace, capsys,
                                                       name):
        """A params, PCA and index stack whose dimensions disagree, with
        every recorded digest intact, ends in exit 3 at load for link
        --mention, link --input and evaluate, and writes nothing."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        (root / "mentions.txt").write_text("griep\nkoorts\n", encoding="utf-8")
        mutations, culprit = DIM_MISMATCHES[name]
        for artifact, mutate in mutations.items():
            mutate(root / "out" / artifact)
        before = out_files(root)
        for argv in LINK_CALLS:
            kind = "ivf" if "ivf" in argv else "flat"
            assert_io_error(config, capsys, argv, culprit.format(kind=kind))
            assert out_files(root) == before

    @pytest.mark.parametrize("kind, name", [("flat", "flat.index"),
                                            ("ivf", "ivf.index")])
    def test_index_file_storing_rows_is_refused(self, workspace, capsys, kind,
                                                name):
        """An index file written before the row array was named vectors."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        path = root / "out" / name
        meta, arrays, _sha256 = artifacts.load_artifact(path, "ivf-index")
        arrays["rows"] = arrays.pop("vectors")
        artifacts.save_artifact(path, "ivf-index", meta, arrays)
        assert_io_error(config, capsys, ["link", "--mention", "griep",
                                         "--index", kind], name, "'vectors'")

    def test_index_naming_other_params_is_refused(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        path = root / "out" / "flat.index"
        index = index_mod.load_ivf(path)
        index.params_sha256 = "0" * 64
        index_mod.save_ivf(path, index)
        assert_io_error(config, capsys, ["link", "--mention", "griep"],
                        "finetuned.params", "rerun index-build")

    def test_group_of_a_cui_is_that_of_its_lowest_term_id(self, workspace,
                                                          capsys):
        root, config = workspace
        run_pipeline(config, upto="finetune")
        # give every term its own group, so a CUI's terms disagree, and
        # list the terms in descending term_id order
        ontology = root / "out" / "ontology.jsonl"
        records = [json.loads(line) for line in ontology.read_text().splitlines()]
        for r in records:
            r["group"] = f"G{r['term_id']}"
        ontology.write_text("".join(json.dumps(r) + "\n" for r in records[::-1]))
        assert main(["index-build", "--config", config, "--quiet"]) == 0
        gold = {m.split('"')[0] for m in
                (root / "out" / "val.xml").read_text().split('cui="')[1:]}
        expected = {min((r["term_id"] for r in records if r["cui"] == cui),
                        default=None) for cui in gold}
        expected = sorted(f"G{t}" if t is not None else "OTHER" for t in expected)
        for kind in ("flat", "ivf"):
            assert main(["evaluate", "--config", config, "--quiet",
                         "--index", kind]) == 0
            report = json.loads((root / "out" / "report.json").read_text())
            assert sorted(g["group"] for g in report["groups"]) == expected

    def test_params_without_digest_are_refused_by_index_build(self, workspace,
                                                               capsys):
        root, config = workspace
        run_pipeline(config, upto="finetune")
        edit_header(root / "out" / "finetuned.params",
                    lambda header: header.pop("sha256"))
        assert_io_error(config, capsys, ["index-build"], "finetuned.params",
                        "no payload digest",
                        "rewrite it with the command that made it")

    @pytest.mark.parametrize("name, value", [("W1", -np.inf), ("b1", np.nan),
                                             ("W2", np.inf), ("b2", np.nan)])
    def test_params_with_a_weight_not_finite_are_refused(self, workspace, capsys,
                                                          name, value):
        """index-build and evaluate, which verify the params, exit 3 on a
        params file saved, with its digest, holding a NaN or infinite
        weight, and write nothing."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        path = root / "out" / "finetuned.params"
        params = enc.load_params(path)
        weights = getattr(params, name).copy()
        weights.flat[0] = value
        enc.save_params(path, replace(params, **{name: weights}))
        before = out_files(root)
        for argv in (["index-build"], ["evaluate"]):
            assert_io_error(config, capsys, argv, "out/finetuned.params: "
                            f"{name} holds a weight that is not finite")
            assert out_files(root) == before

    @pytest.mark.parametrize("argv", LINK_CALLS[:4])
    def test_link_refuses_a_score_that_is_not_finite(self, workspace, capsys,
                                                     argv):
        """link checks only the headers, so params whose W2 payload is NaN
        under an intact header load; the NaN scores they rank end the call
        in exit 3 with one stderr line, and nothing is written."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        (root / "mentions.txt").write_text("griep\nkoorts\n")

        def nan_w2(arrays):
            arrays["W2"][...] = np.nan

        keep_digest(root / "out" / "finetuned.params", nan_w2, "encoder-params")
        before = out_files(root)
        assert_io_error(config, capsys, argv, "score is not finite", "corrupt",
                        "evaluate verifies")
        assert out_files(root) == before

    def test_centroid_whose_square_overflows_links_quietly(self, workspace):
        """An ivf.index, its digest valid, with a centroid entry of 1e300
        still links: nothing but error lines reaches stderr. Numpy's overflow
        warning would, in a fresh interpreter (pytest captures it), so each
        call runs in one."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        (root / "mentions.txt").write_text("griep\nkoorts\n")
        path = root / "out" / "ivf.index"
        index = index_mod.load_ivf(path)
        centroids = index.centroids.copy()
        centroids[0, 0] = 1e300
        index_mod.save_ivf(path, replace(index, centroids=centroids))
        src = os.path.dirname(os.path.dirname(enc.__file__))
        for source in (["--mention", "griep"], ["--input", "mentions.txt"]):
            proc = subprocess.run(
                [sys.executable, "-m", "belforge.cli", "link", "--config", config,
                 "--quiet", "--index", "ivf", "--set", "index.nprobe=1"] + source,
                cwd=root, env={**os.environ, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            assert json.loads(proc.stdout)

    def test_evaluate_report_does_not_depend_on_top_k(self, workspace, capsys):
        """evaluate reads only each mention's nearest neighbour, so
        index.top_k, link's setting, leaves report.json as it is."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        reports = {}
        for kind in ("flat", "ivf"):
            for top_k in (1, 10):
                assert main(["evaluate", "--config", config, "--quiet",
                             "--index", kind, "--set", f"index.top_k={top_k}"]) == 0
                reports[kind, top_k] = (root / "out" / "report.json").read_bytes()
            assert reports[kind, 1] == reports[kind, 10]

    @pytest.mark.parametrize("artifact", ["finetuned.params", "pca.bin",
                                          "flat.index", "ivf.index"])
    def test_corrupted_payload_is_refused_by_evaluate(self, workspace, capsys,
                                                      artifact):
        """evaluate recomputes the digest of every payload it reads: one
        flipped bit ends it in exit 3 with one stderr line naming the file,
        and nothing is written."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        flip_payload_bit(root / "out" / artifact)
        before = out_files(root)
        kind = "ivf" if artifact == "ivf.index" else "flat"
        assert_io_error(config, capsys, ["evaluate", "--index", kind], artifact,
                        "corrupt")
        assert out_files(root) == before

    def test_corrupted_params_are_refused_by_index_build(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="finetune")
        flip_payload_bit(root / "out" / "finetuned.params")
        before = out_files(root)
        assert_io_error(config, capsys, ["index-build"], "finetuned.params",
                        "corrupt")
        assert out_files(root) == before

    MISALIGNMENTS = {
        "short_cuis": lambda ix: replace(ix, cuis=ix.cuis[:2]),
        "short_groups": lambda ix: replace(ix, groups=ix.groups[:-1]),
        "sizes_past_rows": lambda ix: replace(
            ix, offsets=np.append(ix.offsets[:-1], ix.offsets[-1] + 1)),
        "extra_size": lambda ix: replace(ix, offsets=np.append(ix.offsets,
                                                               ix.offsets[-1])),
    }

    @pytest.mark.parametrize("name", sorted(MISALIGNMENTS))
    def test_misaligned_index_is_refused(self, workspace, capsys, name):
        """An index whose term table or list sizes do not match its rows
        ends in exit 3 at load, not in a traceback at the first lookup."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        path = root / "out" / "ivf.index"
        index_mod.save_ivf(path, self.MISALIGNMENTS[name](index_mod.load_ivf(path)))
        assert_io_error(config, capsys, ["link", "--mention", "griep",
                                         "--index", "ivf"], "ivf.index")


def unnormalized(header):
    header["meta"]["normalize_output"] = False


class TestParamsFormat:
    """Encoder outputs are always unit rows. Params files keep recording it
    as ``normalize_output: true``, the entry other readers of the format
    rely on, and a file that records false is refused."""

    def test_saved_header_records_unit_rows(self, tmp_path):
        path = tmp_path / "p.params"
        enc.save_params(path, fresh_params(0, buckets=16, hidden=4, dim=3))
        meta, _arrays, _sha256 = artifacts.load_artifact(path, "encoder-params")
        assert meta["normalize_output"] is True

    def test_checkpoint_of_the_earlier_format_resumes(self, tmp_path):
        """A checkpoint as written while the flag was still an option, with
        its meta spelled out, has the bytes of one written now, so it loads
        and resumes after its epoch."""
        params = replace(fresh_params(3, buckets=16, hidden=4, dim=3), epoch=4)
        earlier = tmp_path / "earlier.params"
        artifacts.save_artifact(
            earlier, "encoder-params",
            {"n_min": 2, "n_max": 4, "buckets": 16, "hidden": 4, "dim": 3,
             "normalize_output": True, "lowercase": False, "epoch": 4},
            {"W1": params.W1, "b1": params.b1, "W2": params.W2, "b2": params.b2})
        enc.save_params(tmp_path / "now.params", params)
        assert earlier.read_bytes() == (tmp_path / "now.params").read_bytes()
        assert enc.load_params(earlier).epoch == 4

    def test_unnormalized_params_are_refused(self, workspace, capsys):
        """train through paths.params_init, finetune and index-build
        --params each exit 3 on a params file that records false, and
        write nothing."""
        root, config = workspace
        run_pipeline(config, upto="finetune")
        bad = root / "bad.params"
        shutil.copy(root / "out" / "finetuned.params", bad)
        edit_header(bad, unnormalized)
        edit_header(root / "out" / "pretrained.params", unnormalized)
        before = {p: p.read_bytes() for p in (root / "out").iterdir()}
        calls = [(["train", "--set", f"paths.params_init={bad}"], "bad.params"),
                 (["finetune"], "pretrained.params"),
                 (["index-build", "--params", str(bad)], "bad.params")]
        for argv, name in calls:
            assert_io_error(config, capsys, argv, name, "'normalize_output'")
            assert {p: p.read_bytes() for p in (root / "out").iterdir()} == before


# argv after the subcommand name: valid options, bad options and values,
# --set items and options of other subcommands
PARSER_SAMPLES = [
    [],
    ["--config", "c.json"],
    ["--config", "c.json", "--quiet", "--seed", "3", "--set", "train.epochs=2",
     "--set", "a.b=[1, 2]", "--set", "nonsense"],
    ["--config", "c.json", "--seed", "x"],
    ["--config", "c.json", "--bogus"],
    ["--config", "c.json", "extra"],
    ["--config", "c.json", "--epochs", "2"],
    ["--config", "c.json", "--stage", "finetune"],
    ["--config", "c.json", "--stage", "nope"],
    ["--config", "c.json", "--params", "p.params", "--index", "ivf",
     "--top-k", "3"],
    ["--config", "c.json", "--mention", "griep", "--input", "m.txt",
     "--index", "hnsw"],
    ["--config", "c.json", "--top-k", "x"],
    ["--set", "k=v"],
]


class TestParser:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_one_subcommand_parser_matches_full_parser(self, capsys, name):
        """The parser built for one subcommand gives the full parser's
        namespace, or its usage error and stderr, on every sample."""
        for sample in PARSER_SAMPLES:
            outcomes = []
            for names in (SUBCOMMANDS, [name]):
                try:
                    outcomes.append(vars(_build_parser(names).parse_args(
                        [name] + sample)))
                except UsageError as e:
                    outcomes.append(("usage error", str(e)))
                outcomes.append(capsys.readouterr())
            assert outcomes[:2] == outcomes[2:], sample

    @pytest.mark.parametrize("argv", [[], ["frobnicate", "--config", "c.json"],
                                      ["--config", "c.json"]])
    def test_unknown_or_missing_subcommand_gets_full_usage(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "|".join(SUBCOMMANDS) in err
        assert err.count("usage error") == 1


class TestExitCodes:
    def test_unknown_subcommand_usage(self, workspace, capsys):
        _root, config = workspace
        assert main(["frobnicate", "--config", config]) == 1

    def test_missing_subcommand_usage(self, capsys):
        assert main([]) == 1

    def test_bad_override_usage(self, workspace):
        _root, config = workspace
        assert main(["stats", "--config", config, "--set", "nonsense"]) == 1

    def test_malformed_config_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", "--config", str(bad)]) == 2

    def test_malformed_ontology_data_error(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="corpus-compile")
        (root / "out" / "ontology.jsonl").write_text("broken\n")
        assert main(["corpus-subset", "--config", config, "--quiet"]) == 2

    def test_missing_config_io(self, capsys):
        assert main(["stats", "--config", "/nonexistent/config.json"]) == 1

    def test_missing_params_init_io(self, workspace, capsys):
        """train loads paths.params_init whenever it is set: a missing file
        ends in exit 3 naming it, not in training from fresh params."""
        root, config = workspace
        run_pipeline(config, upto="pairs")
        missing = root / "nope" / "x.params"
        assert_io_error(config, capsys, ["train", "--set",
                                         f"paths.params_init={missing}"],
                        str(missing))
        assert not (root / "out" / "pretrained.params").exists()

    def test_missing_pretrained_artifact_io(self, workspace, capsys):
        _root, config = workspace
        run_pipeline(config, upto="ontology-build")
        assert main(["finetune", "--config", config, "--quiet"]) == 3

    def test_missing_input_file_io(self, workspace, capsys):
        root, config = workspace
        (root / "concepts.psv").unlink()
        assert main(["ontology-build", "--config", config, "--quiet"]) == 3

    def test_top_k_below_one_usage(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        capsys.readouterr()
        for extra in (["--top-k", "0"], ["--top-k", "-1"],
                      ["--set", "index.top_k=0"]):
            assert main(["link", "--config", config, "--quiet",
                         "--mention", "griep"] + extra) == 1, extra
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert "index.top_k" in captured.err
        assert main(["evaluate", "--config", config, "--quiet",
                     "--set", "index.top_k=-3"]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (root / "out" / "report.json").exists()

    @pytest.mark.parametrize("nprobe", ["0", "-2"])
    @pytest.mark.parametrize("argv", LINK_CALLS)
    def test_nprobe_below_one_usage(self, workspace, capsys, argv, nprobe):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        (root / "mentions.txt").write_text("griep\n")
        capsys.readouterr()
        assert main(argv[:1] + ["--config", config, "--quiet",
                                "--set", f"index.nprobe={nprobe}"] + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "index.nprobe" in captured.err
        assert not (root / "out" / "links.jsonl").exists()
        assert not (root / "out" / "report.json").exists()

    def test_non_utf8_mention_file_data_error(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        bad = root / "mentions.txt"
        bad.write_bytes(b"griep\nko\xffrts\n")
        capsys.readouterr()
        assert main(["link", "--config", config, "--quiet",
                     "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(bad) in err and "UTF-8" in err
        assert not (root / "out" / "links.jsonl").exists()

    def test_non_utf8_ontology_data_error(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="corpus-compile")
        ontology = root / "out" / "ontology.jsonl"
        ontology.write_bytes(ontology.read_bytes() + b"\xff\xfe\n")
        capsys.readouterr()
        assert main(["corpus-subset", "--config", config, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "ontology at out/ontology.jsonl" in err and "UTF-8" in err

    def test_truncated_params_artifact_io(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="train")
        params = root / "out" / "pretrained.params"
        params.write_bytes(params.read_bytes()[:-100])
        capsys.readouterr()
        assert main(["index-build", "--config", config, "--quiet"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "pretrained.params" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("in_file, overrides", [
        ({"train": {"epoch": 3}}, []),
        ({"mining": {"sample_anchors": True}}, []),
        ({"ontology": {"column_map": {"cui": 0, "lang": 1}}}, []),
        ({"index": 5}, []),
        ({"seed": {"value": 1}}, []),
        ({}, ["train.epoch=3"]),
        ({}, ["mining.sample_anchors=true"]),
        ({}, ["ontology.column_map.lang=1"]),
        ({}, ["paths=null"]),
        ({}, ["seed.value=1"]),
    ])
    def test_unknown_config_key_usage(self, workspace, capsys, in_file,
                                      overrides):
        root, config = workspace
        cfg = json.loads((root / "config.json").read_text())
        cfg.update(in_file)
        (root / "config.json").write_text(json.dumps(cfg))
        argv = ["ontology-build", "--config", config, "--quiet"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "config key" in captured.err
        assert not (root / "out" / "ontology.jsonl").exists()

    @pytest.mark.parametrize("in_file, overrides", [
        ({"encoder": {"normalize_output": True}}, []),
        ({}, ["encoder.normalize_output=true"]),
    ])
    def test_removed_normalize_output_key_usage(self, workspace, capsys,
                                                in_file, overrides):
        """Encoder outputs are always unit rows: the key that switched the
        normalization off is unknown, whatever its value."""
        root, config = workspace
        cfg = json.loads((root / "config.json").read_text())
        cfg["encoder"].update(in_file.get("encoder", {}))
        (root / "config.json").write_text(json.dumps(cfg))
        argv = ["train", "--config", config, "--quiet"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "unknown config key 'encoder.normalize_output'" in captured.err
        assert os.listdir(root / "out") == []

    @pytest.mark.parametrize("in_file, overrides", [
        ({"index": {"kmeans_iters": 10}}, []),
        ({}, ["index.kmeans_iters=-1"]),
        ({"ontology": {"bridge_vocab": "SNOMEDCT_US"}}, []),
        ({}, ["ontology.crosswalk_vocab=SNOMEDCT_NL"]),
        ({"ontology": {"crosswalk_language": "DUT"}}, []),
        ({}, ["ontology.crosswalk_language=ENG"]),
    ])
    def test_removed_kmeans_iters_key_usage(self, workspace, capsys, in_file,
                                            overrides):
        """Settings that became constants (the k-means pass count, the
        crosswalk's bridge and target vocabularies and its language) are
        unknown keys, whatever their value."""
        root, config = workspace
        cfg = json.loads((root / "config.json").read_text())
        argv = ["index-build", "--config", config, "--quiet"]
        for section, values in in_file.items():
            cfg.setdefault(section, {}).update(values)
            (key,) = (f"{section}.{name}" for name in values)
        (root / "config.json").write_text(json.dumps(cfg))
        for item in overrides:
            argv += ["--set", item]
            key = item.partition("=")[0]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"unknown config key '{key}'" in captured.err
        assert os.listdir(root / "out") == []

    @pytest.mark.parametrize("in_file, overrides", [
        ({"cui": 0, "language": 1, "vocab": 2, "source_code": 3, "text": 4}, []),
        (None, ["ontology.column_map.language=1"]),
    ])
    def test_removed_column_map_language_key_usage(self, workspace, capsys,
                                                   in_file, overrides):
        """No record carries a concept's language: the column_map key that
        named its field is unknown, whatever its value."""
        root, config = workspace
        cfg = json.loads((root / "config.json").read_text())
        if in_file is not None:
            cfg["ontology"] = {"column_map": in_file}
        (root / "config.json").write_text(json.dumps(cfg))
        argv = ["ontology-build", "--config", config, "--quiet"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "unknown config key 'ontology.column_map.language'" in captured.err
        assert os.listdir(root / "out") == []

    @pytest.mark.parametrize("in_file, overrides, key", [
        ({"train": {"batch_size": "x"}}, [], "train.batch_size"),
        ({"train": {"epochs": 1.5}}, [], "train.epochs"),
        ({"train": {"epochs": True}}, [], "train.epochs"),
        ({"encoder": {"lowercase": 1}}, [], "encoder.lowercase"),
        ({"seed": "7"}, [], "seed"),
        ({"paths": {"ontology": 5}}, [], "paths.ontology"),
        ({"ontology": {"drop_vocabs": "SNOMEDCT_US"}}, [], "ontology.drop_vocabs"),
        ({"ontology": {"column_map": {"cui": "0"}}}, [], "ontology.column_map.cui"),
        ({}, ["train.batch_size=x"], "train.batch_size"),
        ({}, ["train.batch_size=8.0"], "train.batch_size"),
        ({}, ["index.top_k=true"], "index.top_k"),
        ({}, ["loss.alpha=\"2\""], "loss.alpha"),
        ({}, ["encoder.lowercase=0"], "encoder.lowercase"),
        ({}, ["paths.report=null"], "paths.report"),
        ({}, ["paths.concepts=1"], "paths.concepts"),
        ({}, ["paths.dump=true"], "paths.dump"),
        ({}, ["corpus.sparql.endpoint=[]"], "corpus.sparql.endpoint"),
        ({}, ["corpus.abbreviations=[1]"], "corpus.abbreviations"),
        ({"ontology": {"drop_vocabs": [["DUT"]]}}, [], "ontology.drop_vocabs"),
        ({"ontology": {"descriptive_subterms": [{"pattern": 1, "vocabs": []}]}},
         [], "ontology.descriptive_subterms"),
        ({"ontology": {"descriptive_subterms": [{"pattern": "x"}]}}, [],
         "ontology.descriptive_subterms"),
        # a blank pattern would match between every two characters
        ({"ontology": {"descriptive_subterms": [{"pattern": "",
                                                 "vocabs": ["MDRDUT"]}]}}, [],
         "ontology.descriptive_subterms"),
        ({}, ['ontology.descriptive_subterms=[{"pattern": " \\t", '
              '"vocabs": ["MDRDUT"]}]'], "ontology.descriptive_subterms"),
        ({}, ["corpus.sparql.cache_dir=5"], "corpus.sparql.cache_dir"),
    ])
    def test_wrong_leaf_type_usage(self, workspace, capsys, in_file,
                                   overrides, key):
        root, config = workspace
        cfg = json.loads((root / "config.json").read_text())
        for section, value in in_file.items():
            if isinstance(value, dict):
                cfg.setdefault(section, {}).update(value)
            else:
                cfg[section] = value
        (root / "config.json").write_text(json.dumps(cfg))
        argv = ["ontology-build", "--config", config, "--quiet"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"config key {key!r} must be of type" in captured.err
        assert not (root / "out" / "ontology.jsonl").exists()

    def test_non_finite_loss_is_a_data_error(self, workspace, capsys):
        _root, config = workspace
        run_pipeline(config, upto="pairs")
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--config", config, "--quiet",
                       "--set", "loss.alpha=1e6"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mean loss inf is not finite" in captured.err
        assert not os.path.exists("out/pretrained.params")

    def test_diverging_loss_prints_one_stderr_line(self, workspace):
        """Numpy's overflow warnings would reach stderr before the error in a
        fresh interpreter; pytest would capture them, so this runs one."""
        root, config = workspace
        run_pipeline(config, upto="pairs")
        src = os.path.dirname(os.path.dirname(enc.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "belforge.cli", "train", "--config", config,
             "--quiet", "--set", "loss.alpha=1e6"],
            cwd=root, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "mean loss inf is not finite" in proc.stderr

    def test_int_accepted_for_float_leaf(self, workspace, capsys):
        _root, config = workspace
        run_pipeline(config, upto="pairs")
        capsys.readouterr()
        assert main(["train", "--config", config, "--quiet",
                     "--set", "train.learning_rate=1", "--set", "loss.alpha=2",
                     "--set", "train.epochs=0"]) == 0

    @pytest.mark.parametrize("stage, upto, override", [
        ("corpus-subset", "corpus-compile", "corpus.split_ratio=0"),
        ("corpus-subset", "corpus-compile", "corpus.split_ratio=1"),
        ("corpus-subset", "corpus-compile", "corpus.split_ratio=-0.5"),
        ("corpus-subset", "corpus-compile", "corpus.split_ratio=\"half\""),
        ("index-build", "train", "index.pca_k=0"),
        ("index-build", "train", "index.nlist=0"),
        ("index-build", "train", "index.nprobe=0"),
        ("index-build", "train", "index.nprobe=-2"),
        ("pairs", "corpus-subset", "finetune.per_mention_cap=-1"),
        ("train", "pairs", "seed=-1"),
        ("index-build", "train", "seed=-1"),
        ("train", "pairs", "encoder.hidden=0"),
        ("train", "pairs", "encoder.n_min=0"),
        ("train", "pairs", "encoder.n_max=1"),
        ("train", "pairs", "encoder.hidden=" + "9" * 21),
        ("train", "pairs", "encoder.dim=" + "9" * 21),
        ("train", "pairs", "encoder.buckets=33554433"),  # x hidden 8 > 2^28
        ("train", "pairs", "loss.alpha=0"),
        ("train", "pairs", "loss.beta=-1"),
        ("finetune", "finetune", "loss.beta=0"),
        ("train", "pairs", "loss.alpha=NaN"),
        ("train", "pairs", "train.learning_rate=Infinity"),
        ("train", "pairs", "mining.margin=-Infinity"),
        ("train", "pairs", "loss.base=1e400"),
        ("train", "pairs", "train.weight_decay=" + "9" * 400),
        ("ontology-build", "ontology-build", "ontology.column_map.text=-1"),
        ("train", "pairs", "train.epochs=-1"),
        ("finetune", "finetune", "finetune.epochs=-1"),
        ("train", "pairs", "train.batch_size=0"),
        ("train", "pairs", "train.batch_size=-5"),
        ("finetune", "finetune", "train.batch_size=0"),
    ])
    def test_out_of_range_setting_usage(self, workspace, capsys, stage, upto,
                                        override):
        """The config check refuses a leaf out of its range for every
        command, stats included; a pair of leaves each in range is refused
        only by the stage that draws fresh params."""
        root, config = workspace
        run_pipeline(config, upto=upto)
        before = _files(root / "out")
        capsys.readouterr()
        stats_rc = 0 if override in CROSS_FIELD_OVERRIDES else 1
        for command, rc in ((stage, 1), ("stats", stats_rc)):
            assert main([command, "--config", config, "--quiet",
                         "--set", override]) == rc, command
            captured = capsys.readouterr()
            if rc:
                assert captured.out == ""
                assert len(captured.err.splitlines()) == 1
                assert override.split("=")[0] in captured.err
        assert _files(root / "out") == before

    @pytest.mark.parametrize("in_file, key, argv", [
        ({"index": {"nprobe": 0}}, "index.nprobe", ["link", "--mention", "griep"]),
        ({"loss": {"beta": 0.0}}, "loss.beta", ["train"]),
    ])
    def test_out_of_range_setting_in_config_file_usage(self, workspace, capsys,
                                                       in_file, key, argv):
        """Refused before any input is opened: no stage has run, so the
        stage would otherwise end in an I/O error."""
        root, config = workspace
        cfg = json.loads((root / "config.json").read_text())
        for section, value in in_file.items():
            cfg.setdefault(section, {}).update(value)
        (root / "config.json").write_text(json.dumps(cfg))
        for command in (argv, ["stats"]):
            assert main(command[:1] + ["--config", config, "--quiet"]
                        + command[1:]) == 1, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert f"config key {key!r} must be of type" in captured.err
        assert _files(root / "out") == {}

    def test_flag_is_applied_after_every_set(self, workspace, capsys):
        """--seed, --epochs and --top-k are one more --set of their keys,
        applied last: each wins over a --set of the same key, and is checked
        as that --set would be."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        capsys.readouterr()
        assert main(["finetune", "--config", config, "--quiet",
                     "--set", "finetune.epochs=3", "--epochs", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["epochs"] == 2
        assert main(["index-build", "--config", config, "--quiet"]) == 0
        assert main(["link", "--config", config, "--quiet", "--mention", "griep",
                     "--set", "index.top_k=5", "--top-k", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out.splitlines()[-1])["top_k"]) == 2
        assert main(["link", "--config", config, "--quiet", "--mention", "griep",
                     "--set", "index.top_k=2", "--top-k", "0"]) == 1
        assert "index.top_k" in capsys.readouterr().err

    def test_negative_seed_flag_usage(self, workspace, capsys):
        _root, config = workspace
        assert main(["stats", "--config", config, "--quiet", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "config key 'seed' must be of type int >= 0" in captured.err

    @pytest.mark.parametrize("stage, upto", [("train", "pairs"),
                                             ("finetune", "finetune")])
    def test_negative_epochs_flag_usage(self, workspace, capsys, stage, upto):
        root, config = workspace
        run_pipeline(config, upto=upto)
        params = root / "out" / ("pretrained.params" if stage == "train"
                                 else "finetuned.params")
        params.unlink(missing_ok=True)
        capsys.readouterr()
        assert main([stage, "--config", config, "--quiet", "--epochs", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"{stage}.epochs" in captured.err
        assert not params.exists()

    @pytest.mark.parametrize("setup, argv", [
        (lambda root: (root / "out" / "ontology_stats.json").write_text("{x"),
         ["stats"]),
        (lambda root: (root / "groups.json").write_text("[1]"),
         ["ontology-build"]),
        (lambda root: None,
         ["corpus-compile", "--set", "paths.article_map_tsv=null",
          "--set", "corpus.sparql.endpoint=nowhere"]),
    ])
    def test_bad_input_data_error(self, workspace, capsys, setup, argv):
        root, config = workspace
        setup(root)
        assert main(argv[:1] + ["--config", config, "--quiet"] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("field, value", [("text", 5), ("cui", ["C1"]),
                                              ("term_id", True)])
    @pytest.mark.parametrize("stage, upto", [("index-build", "train"),
                                             ("pairs", "ontology-build")])
    def test_ontology_field_of_another_type_data_error(self, workspace, capsys,
                                                       stage, upto, field, value):
        root, config = workspace
        run_pipeline(config, upto=upto)
        ontology = root / "out" / "ontology.jsonl"
        lines = ontology.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = value
        lines[1] = json.dumps(record)
        ontology.write_text("\n".join(lines) + "\n")
        before = _files(root / "out")
        capsys.readouterr()
        assert main([stage, "--config", config, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "data error: ontology line 2: term_id must be an int and cui, "
            "text, vocab and group strings"]
        assert _files(root / "out") == before

    @pytest.mark.parametrize("stage, upto", [("index-build", "train"),
                                             ("pairs", "ontology-build")])
    def test_ontology_blank_text_data_error(self, workspace, capsys, stage, upto):
        root, config = workspace
        run_pipeline(config, upto=upto)
        ontology = root / "out" / "ontology.jsonl"
        lines = ontology.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "text": " \t "})
        ontology.write_text("\n".join(lines) + "\n")
        before = _files(root / "out")
        capsys.readouterr()
        assert main([stage, "--config", config, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "data error: ontology line 2: text is blank"]
        assert _files(root / "out") == before

    def test_semantic_group_of_another_type_data_error(self, workspace, capsys):
        root, config = workspace
        (root / "groups.json").write_text(json.dumps({"T047": ["DISO"]}))
        assert main(["ontology-build", "--config", config, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"data error: semantic groups at {root / 'groups.json'} must be a "
            "JSON object of strings"]
        assert _files(root / "out") == {}

    @pytest.mark.parametrize("element, numbers", [("ns", "<ns>x</ns><id>2</id>"),
                                                  ("id", "<ns>0</ns><id>12a</id>")])
    def test_non_integer_dump_page_number_data_error(self, workspace, capsys,
                                                     element, numbers):
        root, config = workspace
        (root / "dump.xml").write_text(DUMP.replace("<ns>0</ns><id>2</id>", numbers))
        assert main(["corpus-compile", "--config", config, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "'Diabetes'" in captured.err and f"<{element}>" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_gold_corpus_data_error(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        gold = root / "out" / "val.xml"
        gold.write_text(gold.read_text().replace("<sentence id=", "<sentence x=", 1))
        capsys.readouterr()
        assert main(["evaluate", "--config", config, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "sentence #1 of the corpus: attribute 'id' is missing" in captured.err
        assert not (root / "out" / "report.json").exists()

    @pytest.mark.parametrize("entry, value", [("lowercase", 0), ("n_max", 1)])
    def test_bad_artifact_meta_io(self, workspace, capsys, entry, value):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        edit_header(root / "out" / "finetuned.params",
                    lambda header: header["meta"].update({entry: value}))
        assert_io_error(config, capsys, ["link", "--mention", "griep"],
                        "finetuned.params", entry)


def assert_refused(root, config, capsys, argv, rc, fragment):
    """``argv`` exits ``rc`` with one stderr line holding ``fragment``, an
    empty stdout and the workspace's out/ directory as it was."""
    before = _files(root / "out")
    capsys.readouterr()
    assert main(argv + ["--config", config, "--quiet"]) == rc
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert fragment in captured.err
    assert _files(root / "out") == before


class TestRefusals:
    """Refusals of bad inputs, each ending in its exit code with one stderr
    line and no file written."""

    def test_pca_path_naming_an_index_io(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        (root / "mentions.txt").write_text("griep\n")
        for source in (["--mention", "griep"], ["--input", "mentions.txt"]):
            assert_refused(root, config, capsys,
                           ["link", "--set", "paths.pca=out/flat.index"] + source, 3,
                           "artifact kind 'ivf-index', expected 'pca-transform'")

    def test_config_that_is_a_json_array_data_error(self, workspace, capsys):
        root, config = workspace
        with open(config, "w") as f:
            f.write("[]")
        assert_refused(root, config, capsys, ["ontology-build"], 2,
                       "top level must be a JSON object")

    def test_params_of_other_shapes_than_their_header_io(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="finetune")
        path = root / "out" / "finetuned.params"
        params = enc.load_params(path)
        enc.save_params(path, replace(params, W1=params.W1[:, :-1]))
        assert_refused(root, config, capsys, ["index-build"], 3,
                       "parameter shapes do not match declared dimensions")

    @pytest.mark.parametrize("file, array, dtype", [
        ("finetuned.params", "W1", "<i8"), ("finetuned.params", "b1", "<U2"),
        ("finetuned.params", "W2", "<u8"), ("finetuned.params", "b2", "<i8"),
        ("pca.bin", "mean", "<i8"), ("pca.bin", "projection", "<U2"),
        ("pca.bin", "explained_variance", "<u8"),
        ("flat.index", "vectors", "<i8"), ("flat.index", "ids", "<f8"),
        ("ivf.index", "centroids", "<i8"), ("ivf.index", "vectors", "<U2"),
        ("ivf.index", "ids", "<f8"), ("ivf.index", "sizes", "<u8"),
    ])
    def test_array_of_another_dtype_io(self, workspace, capsys, file, array,
                                       dtype):
        """The payload digest does not cover the dtypes the header declares:
        an array declared of another dtype of the same width is refused by
        every command that loads it, evaluate's digest check passing."""
        root, config = workspace
        run_pipeline(config, upto="index-build")
        (root / "mentions.txt").write_text("griep\n")

        def retype(header):
            (spec,) = (s for s in header["arrays"] if s["name"] == array)
            spec["dtype"] = dtype
        edit_header(root / "out" / file, retype)
        kind = ["--index", file.split(".")[0]] if file.endswith(".index") else []
        calls = [["link", "--mention", "griep"], ["link", "--input", "mentions.txt"],
                 ["evaluate"]]
        calls = [argv + kind for argv in calls] + (
            [["index-build"]] if file == "finetuned.params" else [])
        for argv in calls:
            assert_io_error(config, capsys, argv, file, f"array {array!r} must be of")

    @pytest.mark.parametrize("text, fragment", [
        ("<corpus><sentence", "corpus XML parse error"),
        ("<korpus></korpus>", "expected <corpus> root, found <korpus>"),
        ("<corpus><para/></corpus>", "unexpected element <para> under <corpus>"),
        ('<corpus><sentence id="0" page="P">a <b>c</b></sentence></corpus>',
         "unexpected element <b> in sentence 0"),
    ])
    def test_corpus_of_another_shape_data_error(self, workspace, capsys, text,
                                                fragment):
        root, config = workspace
        run_pipeline(config, upto="corpus-compile")
        (root / "out" / "corpus.xml").write_text(text)
        assert_refused(root, config, capsys, ["corpus-subset"], 2, fragment)

    def test_link_without_a_mention_source_usage(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="index-build")
        assert_refused(root, config, capsys, ["link"], 1,
                       "link requires --mention or --input")

    def test_index_build_over_an_empty_ontology_data_error(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="finetune")
        (root / "out" / "ontology.jsonl").write_text("")
        assert_refused(root, config, capsys, ["index-build"], 2,
                       "cannot build an index from an empty ontology")

    def test_corpus_compile_without_an_article_map_usage(self, workspace, capsys):
        root, config = workspace
        run_pipeline(config, upto="ontology-build")
        assert_refused(root, config, capsys,
                       ["corpus-compile", "--set", "paths.article_map_tsv=null"], 1,
                       "no article map source configured")


class TestSparqlCache:
    def test_corpus_compile_reads_the_cached_response(self, workspace, capsys,
                                                      monkeypatch):
        """With corpus.sparql.cache_dir set, corpus-compile maps the articles
        from the response cached under sha256(url).json and fetches
        nothing."""
        root, config = workspace
        assert main(["corpus-compile", "--config", config, "--quiet"]) == 0
        from_tsv = json.loads(capsys.readouterr().out)
        corpus_bytes = (root / "out" / "corpus.xml").read_bytes()
        (root / "out" / "corpus.xml").unlink()

        endpoint = "http://127.0.0.1:9/sparql"
        sp = DEFAULTS["corpus"]["sparql"]
        query = corpus_mod.build_sparql_query(sp["site_url"], sp["property_id"],
                                              sp["language"])
        url = endpoint + "?" + urllib.parse.urlencode({"query": query,
                                                       "format": "json"})
        bindings = [{"concept": {"value": f"http://www.wikidata.org/entity/{qid}"},
                     "cui": {"value": cui},
                     "article": {"value": f"https://nl.wikipedia.org/wiki/{title}"}}
                    for qid, cui, title in (line.split("\t") for line
                                            in ARTICLE_MAP.splitlines())]
        cache = root / "cache"
        cache.mkdir()
        (cache / (hashlib.sha256(url.encode("utf-8")).hexdigest() + ".json")
         ).write_text(json.dumps({"results": {"bindings": bindings}}))

        def no_fetch(url):
            raise AssertionError(f"fetched {url}")

        monkeypatch.setattr(corpus_mod, "_default_fetcher", no_fetch)
        assert main(["corpus-compile", "--config", config, "--quiet",
                     "--set", "paths.article_map_tsv=null",
                     "--set", f"corpus.sparql.endpoint=\"{endpoint}\"",
                     "--set", f"corpus.sparql.cache_dir={json.dumps(str(cache))}"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == from_tsv
        assert summary["mentions"] == 5 and summary["map_entries"] == 4
        assert summary["map_skipped"] == summary["map_duplicates"] == 0
        assert (root / "out" / "corpus.xml").read_bytes() == corpus_bytes


def test_corpus_compile_reports_the_article_map_counts(workspace, capsys):
    """The summary counts the article map's malformed bindings and the
    repeated titles, of which the first binding wins."""
    root, config = workspace
    (root / "map.tsv").write_text(ARTICLE_MAP + "Q5\tC0000005\n"
                                  "X6\tC0000006\tOnzin\n"
                                  "Q7\tC0000007\tgriep\n")
    assert main(["corpus-compile", "--config", config, "--quiet"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["map_entries"], summary["map_skipped"],
            summary["map_duplicates"]) == (4, 2, 1)
    assert summary["mentions"] == 5


UNBALANCED_DUMP = DUMP.replace(
    "<text>Over", "<text>{{Infobox [[Diabetes]] zonder einde. Over")


class TestUnbalancedTemplates:
    def test_count_in_summary_and_warning(self, workspace, capsys, caplog):
        root, config = workspace
        (root / "dump.xml").write_text(UNBALANCED_DUMP)
        assert main(["corpus-compile", "--config", config]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["unbalanced_templates"] == 1
        assert summary["sentences"] == 2  # the second page lost its text
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "unbalanced templates on 1 pages" in warnings[0]
        stats = json.loads((root / "out" / "corpus_stats.json").read_text())
        assert "unbalanced_templates" not in stats

    def test_no_warning_when_balanced(self, workspace, capsys, caplog):
        _root, config = workspace
        assert main(["corpus-compile", "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["unbalanced_templates"] == 0
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]


# the modules beside belforge, cli, config and errors that a command imports
# in a fresh interpreter: it imports the stages it runs, numpy only through
# them and urllib.request only to fetch over SPARQL
LINK_STACK = {"artifacts", "encoder", "features", "index", "numpy"}
IMPORTS = {
    "stats": set(),
    "usage-error": set(),
    "ontology-build": {"artifacts", "ontology"},
    "corpus-compile": {"artifacts", "corpus", "ontology", "wikitext", "numpy"},
    "corpus-compile-sparql": {"artifacts", "corpus", "wikitext", "numpy",
                              "urllib.request"},
    "corpus-subset": {"artifacts", "corpus", "ontology", "wikitext", "numpy"},
    "pairs": {"artifacts", "corpus", "encoder", "features", "ontology",
              "training", "wikitext", "numpy"},
    "train": {"artifacts", "encoder", "features", "training", "numpy"},
    "finetune": {"artifacts", "encoder", "features", "training", "numpy"},
    "index-build": LINK_STACK | {"ontology"},
    "link": LINK_STACK,
    "evaluate": LINK_STACK | {"corpus", "evaluation", "ontology", "wikitext"},
}
IMPORT_ARGV = {"usage-error": ["bogus"],
               "corpus-compile-sparql": ["corpus-compile", "--set",
                                         "paths.article_map_tsv=null", "--set",
                                         "corpus.sparql.endpoint=\"nowhere\""],
               "pairs": ["pairs", "--stage", "finetune"],
               "link": ["link", "--mention", "griep"]}
IMPORT_PROBE = (
    "import sys\n"
    "import belforge.cli\n"
    "rc = belforge.cli.main(sys.argv[1:])\n"
    "print(rc, *(m for m in sys.modules if m.split('.')[0] == 'belforge'\n"
    "            or m in ('numpy', 'urllib.request')))\n")


@pytest.mark.parametrize("case", sorted(IMPORTS))
def test_command_imports_only_what_it_runs(workspace, case):
    """Each subcommand, run on the built workspace in a fresh interpreter,
    imports exactly the modules of its own stages: stats and a usage error
    start without numpy, and only a SPARQL fetch imports urllib.request."""
    root, config = workspace
    run_pipeline(config)
    assert set(SUBCOMMANDS) <= set(IMPORTS)
    argv = IMPORT_ARGV.get(case, [case]) + ["--config", config, "--quiet"]
    src = os.path.dirname(os.path.dirname(enc.__file__))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE] + argv, cwd=root,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout, proc.stderr
    rc, *modules = proc.stdout.splitlines()[-1].split()
    assert int(rc) == {"usage-error": 1, "corpus-compile-sparql": 2}.get(case, 0), \
        proc.stderr
    core = {"belforge", "belforge.cli", "belforge.config", "belforge.errors"}
    assert set(modules) == core | {m if m in ("numpy", "urllib.request")
                                   else f"belforge.{m}" for m in IMPORTS[case]}


class TestIndexClamp:
    """index-build names a cut pca_k or nlist in one INFO line on stderr,
    which --quiet suppresses. Logging is configured once per interpreter, and
    pytest's own handlers keep --quiet from applying in process, so each
    case runs a fresh one."""

    # 7 terms of dim 8: pca_k is cut to 6, nlist to 7
    CASES = {"pca_k": (["index.pca_k=8", "index.nlist=2"], "index.pca_k=8 cut to 6", 6, 2),
             "nlist": (["index.pca_k=4", "index.nlist=50"], "index.nlist=50 cut to 7", 4, 7)}

    @pytest.mark.parametrize("quiet", [False, True])
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_cut_key_is_logged_once(self, workspace, key, quiet):
        root, config = workspace
        run_pipeline(config, upto="train")
        overrides, line, pca_k, nlist = self.CASES[key]
        src = os.path.dirname(os.path.dirname(enc.__file__))
        argv = [sys.executable, "-m", "belforge.cli", "index-build", "--config", config]
        for item in overrides:
            argv += ["--set", item]
        proc = subprocess.run(argv + ["--quiet"] * quiet, cwd=root,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out, = proc.stdout.splitlines()
        summary = json.loads(out)
        assert (summary["pca_k"], summary["nlist"]) == (pca_k, nlist)
        if quiet:
            assert proc.stderr == ""
        else:
            assert proc.stderr.splitlines() == \
                [f"INFO belforge: {line} to fit 7 terms of dim 8"]


# each stage setting: (another valid value, the command that reads it)
SETTING_READERS = {
    "seed": ("1", ["train"]),
    "encoder.n_min": ("3", ["train"]),
    "encoder.n_max": ("5", ["train"]),
    "encoder.buckets": ("128", ["train"]),
    "encoder.hidden": ("6", ["train"]),
    "encoder.dim": ("6", ["train"]),
    "encoder.lowercase": ("true", ["train"]),
    "train.learning_rate": ("0.5", ["train"]),
    "train.weight_decay": ("0.5", ["train"]),
    "train.batch_size": ("2", ["train"]),
    "train.epochs": ("1", ["train"]),
    "mining.margin": ("-1.0", ["train"]),
    "loss.alpha": ("10.0", ["train"]),
    "loss.beta": ("5.0", ["train"]),
    "loss.base": ("0.0", ["train"]),
    "finetune.per_mention_cap": ("0", ["pairs", "--stage", "finetune"]),
    "finetune.epochs": ("3", ["finetune"]),
    "index.pca_k": ("4", ["index-build"]),
    "index.nlist": ("1", ["index-build"]),
    "index.nprobe": ("1", ["link", "--index", "ivf", "--input", "mentions.txt"]),
    "index.top_k": ("1", ["link", "--index", "ivf", "--input", "mentions.txt"]),
    "corpus.split_ratio": ("0.2", ["corpus-subset"]),
    "ontology.drop_vocabs": ('["MDRDUT"]', ["ontology-build"]),
    "ontology.descriptive_subterms": (
        '[{"pattern": "infarct", "vocabs": ["MDRDUT"]}]', ["ontology-build"]),
    "ontology.drop_tuis": ('["T047"]', ["ontology-build"]),
    "ontology.drug_vocabs": ('["MDRDUT"]', ["ontology-build"]),
    "ontology.dedupe_case_insensitive": ("false", ["ontology-build"]),
}


def test_every_setting_reaches_its_stage(workspace, capsys):
    """Each stage setting, set to another valid value, changes the outputs
    or the summary of the command that reads it; a setting that a stage
    stopped reading would leave both as they were."""
    root, config = workspace
    # a case duplicate for ontology.dedupe_case_insensitive to keep or drop
    with open(root / "concepts.psv", "a") as f:
        f.write("C0000003|DUT|MDRDUT|10008|Koorts\n")
    (root / "mentions.txt").write_text("griep\nkoorts\nhartinfarct\n")
    run_pipeline(config, upto="index-build")
    sections = ("seed", "encoder", "train", "mining", "loss", "finetune",
                "index", "ontology")
    assert set(SETTING_READERS) == {"corpus.split_ratio"} | {
        key for key, _ in _leaves(DEFAULTS) if key.split(".")[0] in sections
        and not key.startswith("ontology.column_map.")}
    built = _files(root / "out")

    def run(argv):
        shutil.rmtree(root / "out")
        (root / "out").mkdir()
        for name, data in built.items():
            (root / "out" / name).write_bytes(data)
        capsys.readouterr()
        assert main(argv + ["--config", config, "--quiet"]) == 0, argv
        return capsys.readouterr().out, _files(root / "out")

    unread = []
    for key, (value, argv) in SETTING_READERS.items():
        if run(argv) == run(argv + ["--set", f"{key}={value}"]):
            unread.append(key)
    assert unread == []


def _leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


# no '/' or '\\': a drawn string names nothing outside the working directory
# and forms no URL with a host
FUZZ_CHARS = "abxz01.-_ :[]{}\"',=tnul"
fuzz_text = st.text(FUZZ_CHARS, max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | fuzz_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(fuzz_text, inner, max_size=3),
    max_leaves=6)


def _typed_values(default):
    """JSON values mostly of the type of ``default``."""
    if isinstance(default, bool):
        base = st.booleans()
    elif isinstance(default, int):
        base = st.integers(-2, 3)
    elif isinstance(default, float):
        base = st.integers(-2, 3) | st.floats()
    elif isinstance(default, list):
        base = st.lists(fuzz_text, max_size=3)
    elif isinstance(default, str):
        base = fuzz_text
    else:
        base = st.none() | fuzz_text | st.integers(-2, 3)
    return st.one_of(base, base, base, json_values)


LEAVES = dict(_leaves(DEFAULTS))
typed_overrides = st.sampled_from(sorted(LEAVES)).flatmap(
    lambda key: _typed_values(LEAVES[key]).map(
        lambda value: f"{key}={json.dumps(value)}"))
overrides = st.one_of(
    typed_overrides, typed_overrides, typed_overrides,
    st.tuples(st.sampled_from(sorted(LEAVES) + sorted(DEFAULTS)) | fuzz_text,
              json_values.map(json.dumps) | fuzz_text).map("=".join),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(SUBCOMMANDS), st.lists(overrides, min_size=1, max_size=2))
def test_random_overrides_end_in_an_exit_code(workspace, capsys, command, items):
    """Every subcommand run on a built workspace with random --set items
    returns a documented exit code instead of raising."""
    root, config = workspace
    if not (root / "out" / "ivf.index").exists():
        run_pipeline(config, upto="index-build")
    argv = [command, "--config", config, "--quiet"]
    argv += {"link": ["--mention", "griep"], "pairs": ["--stage", "finetune"]}.get(command, [])
    for item in items:
        argv += ["--set", item]
    assert main(argv) in (0, 1, 2, 3)
    capsys.readouterr()
