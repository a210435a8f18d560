import copy
import json
import re
from pathlib import Path

from belforge.config import DEFAULTS, apply_overrides, load_config

README = Path(__file__).resolve().parents[1] / "README.md"
# last parts of the dotted file names the README names, such as train.xml
FILE_SUFFIXES = {"bin", "index", "json", "jsonl", "md", "params", "py", "tsv",
                 "txt", "xml"}


def test_loaded_and_overridden_configs_share_nothing_mutable(tmp_path):
    """A loaded config and each overridden one are copies: mutating their
    nested lists and sections leaves DEFAULTS, the input config and the
    next load unchanged, with or without overrides."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ontology": {"drop_vocabs": ["A"]},
                                "index": {"top_k": 3}}))
    defaults = copy.deepcopy(DEFAULTS)
    first = load_config(path)
    loaded = copy.deepcopy(first)

    def mutate(cfg):
        cfg["ontology"]["drop_vocabs"].append("X")
        cfg["ontology"]["drug_vocabs"].append("X")
        cfg["ontology"]["column_map"]["cui"] = 9
        cfg["index"]["nlist"] = 1

    for overrides in ([], ['ontology.drop_vocabs=["B"]', "index.top_k=5"]):
        overridden = apply_overrides(first, overrides)
        mutate(overridden)
        assert first == loaded
    mutate(first)
    assert DEFAULTS == defaults
    assert load_config(path) == loaded
    assert loaded["ontology"]["drop_vocabs"] == ["A"]
    assert loaded["ontology"]["drug_vocabs"] == []


def test_readme_names_only_config_keys():
    """Every backticked dotted name in the README that starts with a config
    section, alone (`index.nprobe`) or set (`--set train.epochs=N`), is a
    leaf or section of DEFAULTS; file names such as `train.xml` are not
    keys."""
    names = re.findall(r"`(?:--set )?([a-z_]+(?:\.\w+)+)(?:=[^`]*)?`",
                       README.read_text(encoding="utf-8"))
    keys = [n for n in names if n.split(".")[0] in DEFAULTS
            and n.rsplit(".", 1)[1] not in FILE_SUFFIXES]
    assert len(keys) > 20
    for key in keys:
        node = DEFAULTS
        for part in key.split("."):
            assert isinstance(node, dict) and part in node, key
            node = node[part]
