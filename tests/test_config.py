import copy
import json

from belforge.config import DEFAULTS, apply_overrides, load_config


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
