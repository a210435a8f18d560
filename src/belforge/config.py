"""Pipeline configuration: one JSON file, deep-merged over defaults, with
dotted-key command-line overrides. Both may only name keys that DEFAULTS has,
with values of each leaf's type and range (see ``_leaf_type``).
"""

import copy
import json
import sys

from .errors import DataError, UsageError

DEFAULTS = {
    "seed": 0,
    "paths": {
        "concepts": None,
        "semantic_types": None,
        "relations": None,
        "crosswalk": None,
        "semantic_groups": None,
        "ontology": "out/ontology.jsonl",
        "ontology_stats": "out/ontology_stats.json",
        "dump": None,
        "article_map_tsv": None,
        "corpus": "out/corpus.xml",
        "corpus_stats": "out/corpus_stats.json",
        "train_corpus": "out/train.xml",
        "val_corpus": "out/val.xml",
        "gold_corpus": None,
        "pretrain_pairs": "out/pretrain_pairs.txt",
        "finetune_pairs": "out/finetune_pairs.txt",
        "params_init": None,
        "params_pretrained": "out/pretrained.params",
        "params_finetuned": "out/finetuned.params",
        "checkpoint_dir": None,
        "pretrain_loss_log": "out/pretrain_losses.json",
        "finetune_loss_log": "out/finetune_losses.json",
        "pca": "out/pca.bin",
        "flat_index": "out/flat.index",
        "ivf_index": "out/ivf.index",
        "link_output": "out/links.jsonl",
        "report": "out/report.json",
    },
    "ontology": {
        "column_map": {"cui": 0, "vocab": 2, "source_code": 3, "text": 4},
        "drop_vocabs": [],
        # entries: {"pattern": "...", "vocabs": [...]}
        "descriptive_subterms": [],
        "drop_tuis": [],
        "drug_vocabs": [],
        "dedupe_case_insensitive": True,
    },
    "corpus": {
        "sparql": {
            "endpoint": None,
            "site_url": "https://nl.wikipedia.org/",
            "property_id": "P2892",
            "language": "nl",
            "cache_dir": None,   # null -> SPARQL responses are not cached
        },
        # tokens ending in '.' after which split_sentences finds no boundary
        "abbreviations": ["ca.", "bijv.", "bv.", "o.a.", "dr.", "prof.", "nr.",
                          "e.g.", "i.e.", "etc.", "resp.", "afb.", "blz.", "jr.",
                          "sr.", "st.", "vs."],
        "split_ratio": 0.8,
    },
    "encoder": {
        "n_min": 2,
        "n_max": 4,
        "buckets": 4096,
        "hidden": 64,
        "dim": 32,
        "lowercase": False,
    },
    "train": {
        "learning_rate": 1e-4,
        "weight_decay": 0.01,
        "batch_size": 512,
        "epochs": 1,
    },
    "mining": {"margin": 0.2},
    "loss": {"alpha": 2.0, "beta": 50.0, "base": 0.5},
    "finetune": {"per_mention_cap": 50, "epochs": 1},
    "index": {"pca_k": 256, "nlist": 64, "nprobe": 8, "top_k": 10},
}


def _merge_into(base, override):
    """Merge ``override`` into ``base`` in place, section by section; the
    values of ``override`` are stored, not copied."""
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge_into(base[key], value)
        else:
            base[key] = value
    return base


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _subterm(entry):
    return (isinstance(entry, dict) and set(entry) == {"pattern", "vocabs"}
            and isinstance(entry["pattern"], str) and entry["pattern"].strip() != ""
            and _strings(entry["vocabs"]))


def _leaf_type_ok(value, default):
    """Whether ``value`` has the type of a non-None default: an int passes
    for a float, a bool never passes for an int, and a float must be finite."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


def _positive(v):
    return _leaf_type_ok(v, 1.0) and v > 0


# leaves whose type their default cannot show: every other None default is an
# optional string (a path, an endpoint), every other list a list of strings and
# every other int a count of at least 0, or of at least 1 under _AT_LEAST_ONE
_LEAF_TYPES = {
    "ontology.descriptive_subterms": (
        "list of {pattern: non-blank str, vocabs: list of str}",
        lambda v: isinstance(v, list) and all(_subterm(e) for e in v)),
    "corpus.split_ratio": ("finite float in (0, 1)",
                           lambda v: _positive(v) and v < 1),
    "loss.alpha": ("finite float > 0", _positive),
    "loss.beta": ("finite float > 0", _positive),
}
_AT_LEAST_ONE = ("encoder.", "index.", "train.batch_size")


def _leaf_type(dotted, default):
    """(name, check) of the type and range the leaf ``dotted`` must have."""
    if dotted in _LEAF_TYPES:
        return _LEAF_TYPES[dotted]
    if default is None:
        return "str or null", lambda v: v is None or isinstance(v, str)
    if isinstance(default, list):
        return "list of str", _strings
    if type(default) is int:
        least = 1 if dotted.startswith(_AT_LEAST_ONE) else 0
        return f"int >= {least}", lambda v: _leaf_type_ok(v, 0) and v >= least
    name = "finite float" if isinstance(default, float) else type(default).__name__
    return name, lambda v: _leaf_type_ok(v, default)


def _check_keys(node, schema, where=""):
    """Raise UsageError for the first key of ``node`` that ``schema`` lacks,
    that is a section in one and a plain value in the other, or whose value
    has another type or range than the leaf's (see ``_leaf_type``)."""
    for key, value in node.items():
        dotted = where + key
        if key not in schema:
            raise UsageError(f"unknown config key {dotted!r}")
        default = schema[key]
        if isinstance(value, dict) != isinstance(default, dict):
            kind = "section" if isinstance(default, dict) else "plain value"
            raise UsageError(f"config key {dotted!r} must be a {kind}")
        if isinstance(value, dict):
            _check_keys(value, default, dotted + ".")
            continue
        want, ok = _leaf_type(dotted, default)
        if not ok(value):
            raise UsageError(f"config key {dotted!r} must be of type {want}, "
                             f"got {value!r}")


def load_config(path):
    try:
        with open(path, encoding="utf-8") as f:
            user = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    except ValueError as e:
        raise DataError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(user, dict):
        raise DataError(f"config {path}: top level must be a JSON object")
    _check_keys(user, DEFAULTS)
    return _merge_into(copy.deepcopy(DEFAULTS), user)


def apply_overrides(cfg, overrides):
    """Merge ``section.key=value`` overrides into a copy of ``cfg``; values
    parse as JSON, falling back to plain strings."""
    cfg = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        for key in reversed(dotted.split(".")):
            value = {key: value}
        _check_keys(value, DEFAULTS)
        _merge_into(cfg, value)
    return cfg
