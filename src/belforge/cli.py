"""Command line front end: one subcommand per pipeline stage, a shared JSON
config file with dotted-key overrides, atomic artifact writes, and
machine-readable one-line JSON summaries on stdout.

Exit codes: 0 success, 1 usage error, 2 data error, 3 I/O error.
"""

import argparse
import contextlib
import json
import logging
import math
import os
import sys

# the stage modules, and numpy through them, are imported by the handlers
# that run them: a process pays only for its own subcommand's imports
from .config import apply_overrides, load_config
from .errors import ArtifactError, DataError, NetworkError, UsageError

log = logging.getLogger("belforge")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser(names):
    """The CLI parser with a subparser for each of ``names``; the usage line
    lists every subcommand."""
    parser = _Parser(prog="belforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="|".join(_HANDLERS))
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted config override, e.g. train.epochs=3")
        p.add_argument("--quiet", action="store_true",
                       help="write only errors to stderr")
        p.add_argument("--seed", type=int, help="sets seed, after any --set")
        if name in ("train", "finetune"):
            p.add_argument("--epochs", type=int,
                           help=f"sets {name}.epochs, after any --set")
        if name == "pairs":
            p.add_argument("--stage", choices=["pretrain", "finetune"],
                           default="pretrain")
        if name in ("index-build", "link", "evaluate"):
            p.add_argument("--params", help="encoder params artifact to use")
        if name == "link":
            source = p.add_mutually_exclusive_group()
            source.add_argument("--mention", help="link a single mention")
            source.add_argument("--input", help="file with one mention per line")
            p.add_argument("--top-k", type=int, dest="top_k",
                           help="sets index.top_k, after any --set")
        if name in ("link", "evaluate"):
            p.add_argument("--index", choices=["flat", "ivf"], dest="index_kind")
    return parser


@contextlib.contextmanager
def _open_input(path, what, mode="r"):
    """Open an input file for a ``with`` block; a UTF-8 decoding error
    raised inside the block becomes a DataError naming the file."""
    if not path:
        raise UsageError(f"config does not name a path for {what}")
    try:
        f = open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as e:
        raise ArtifactError(f"cannot open {what} at {path}: {e}") from e
    with f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise DataError(f"{what} at {path} is not valid UTF-8: {e}") from e


def _read_json(path, what):
    with _open_input(path, what) as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise DataError(f"{what} at {path} is not valid JSON: {e}") from e


def _json(value):
    """The one form of every JSON output but the ontology JSONL: compact,
    keys sorted, NaN and infinity refused."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _write(path, text):
    from .artifacts import write_text_atomic
    write_text_atomic(path, text)


def _optional_rows(path, what, parse):
    """The records ``parse`` reads from the file at ``path``; none for an
    unset path."""
    if not path:
        return []
    with _open_input(path, what) as f:
        return parse(f)[0]


def _load_ontology(cfg):
    from . import ontology as onto_mod
    with _open_input(cfg["paths"]["ontology"], "ontology") as f:
        return onto_mod.parse_ontology(f)


def _resolve_params_path(cfg, args):
    if getattr(args, "params", None):
        return args.params
    paths = cfg["paths"]
    if paths["params_finetuned"] and os.path.exists(paths["params_finetuned"]):
        return paths["params_finetuned"]
    return paths["params_pretrained"]


def cmd_ontology_build(cfg, args):
    from . import ontology as onto_mod
    paths = cfg["paths"]
    with _open_input(paths["concepts"], "concepts") as f:
        concepts, malformed = onto_mod.parse_concepts(
            f, cfg["ontology"]["column_map"])
    sty = _optional_rows(paths["semantic_types"], "semantic types",
                         onto_mod.parse_semantic_types)
    crosswalk = _optional_rows(paths["crosswalk"], "crosswalk",
                               onto_mod.parse_crosswalk)
    groups = {}
    if paths["semantic_groups"]:
        groups = _read_json(paths["semantic_groups"], "semantic groups")
        if not (isinstance(groups, dict)
                and all(isinstance(g, str) for g in groups.values())):
            raise DataError(f"semantic groups at {paths['semantic_groups']} "
                            "must be a JSON object of strings")

    records, steps = onto_mod.build_ontology(concepts, sty, groups, crosswalk,
                                             cfg["ontology"])
    steps = [{"step": n, "remaining": c} for n, c in steps]
    _write(paths["ontology"], onto_mod.serialize_ontology(records))
    _write(paths["ontology_stats"], _json({"steps": steps}) + "\n")
    return {"command": "ontology-build", "records": len(records),
            "malformed_lines": malformed, "steps": steps}


def _load_article_map(cfg):
    from . import corpus as corpus_mod
    paths = cfg["paths"]
    if paths["article_map_tsv"]:
        with _open_input(paths["article_map_tsv"], "article map TSV") as f:
            return corpus_mod.load_article_map_tsv(f)
    if cfg["corpus"]["sparql"]["endpoint"]:
        return corpus_mod.load_article_map_sparql(**cfg["corpus"]["sparql"])
    raise UsageError("no article map source configured (TSV path or SPARQL endpoint)")


def cmd_corpus_compile(cfg, args):
    from . import corpus as corpus_mod
    paths = cfg["paths"]
    amap = _load_article_map(cfg)
    ontology = None
    if paths["ontology"] and os.path.exists(paths["ontology"]):
        ontology = _load_ontology(cfg)
    abbreviations = cfg["corpus"]["abbreviations"]  # null: the built-in list
    with _open_input(paths["dump"], "wiki dump", mode="rb") as f:
        sentences, mentions, stats, unbalanced = corpus_mod.compile_corpus(
            corpus_mod.parse_dump(f), amap, ontology=ontology,
            abbreviations=(corpus_mod.DEFAULT_ABBREVIATIONS if abbreviations is None
                           else abbreviations))
    if unbalanced:
        log.warning("unbalanced templates on %d pages of %s: the text after "
                    "each unmatched '{{' was dropped", unbalanced, paths["dump"])
    full = corpus_mod.CorpusSlice(sentences=sentences, mentions=mentions)
    _write(paths["corpus"], corpus_mod.serialize_corpus(full))
    _write(paths["corpus_stats"], _json(vars(stats)) + "\n")
    return {"command": "corpus-compile", "sentences": stats.sentences,
            "mentions": stats.mentions, "map_entries": len(amap.entries),
            "map_skipped": amap.skipped, "map_duplicates": amap.duplicates,
            "unbalanced_templates": unbalanced}


def cmd_corpus_subset(cfg, args):
    from . import corpus as corpus_mod
    paths = cfg["paths"]
    with _open_input(paths["corpus"], "corpus") as f:
        full = corpus_mod.parse_corpus(f)
    ontology = _load_ontology(cfg)
    train, val = corpus_mod.build_star_subset(
        full.sentences, full.mentions, ontology,
        cfg["corpus"]["split_ratio"], cfg["seed"])
    for part, path in ((train, paths["train_corpus"]), (val, paths["val_corpus"])):
        _write(path, corpus_mod.serialize_corpus(part))
    return {"command": "corpus-subset", "train_mentions": len(train.mentions),
            "val_mentions": len(val.mentions)}


def cmd_pairs(cfg, args):
    from . import training as train_mod
    paths = cfg["paths"]
    ontology = _load_ontology(cfg)
    if args.stage == "pretrain":
        pairs = train_mod.generate_pretrain_pairs(ontology)
        out_path = paths["pretrain_pairs"]
    else:
        from . import corpus as corpus_mod
        with _open_input(paths["train_corpus"], "train corpus") as f:
            star = corpus_mod.parse_corpus(f)
        pairs = train_mod.generate_finetune_pairs(
            star, ontology, cfg["finetune"]["per_mention_cap"])
        out_path = paths["finetune_pairs"]
    lines = train_mod.serialize_pairs(pairs)
    _write(out_path, "".join(lines))
    return {"command": "pairs", "stage": args.stage, "pairs": len(lines)}


def _initial_params(cfg):
    from . import encoder as enc
    paths = cfg["paths"]
    if paths["params_init"]:
        return enc.load_params(paths["params_init"])
    # the two rules that tie encoder leaves together; the schema checks each
    e = cfg["encoder"]
    if e["n_max"] < e["n_min"]:
        raise UsageError(f"encoder.n_max must be an integer of at least "
                         f"{e['n_min']}, got {e['n_max']!r}")
    if e["hidden"] * max(e["buckets"], e["dim"]) > 2 ** 28:  # before allocation
        raise UsageError("encoder.hidden x encoder.buckets and encoder.hidden x "
                         "encoder.dim must each be at most 2**28")
    return enc.init_params(cfg["seed"], **e)


def cmd_train(cfg, args):
    """train and finetune, one self-alignment stage: on the pretrain pairs
    from fresh (or params_init) params, or on the finetune pairs from the
    pretrained params; finetune checkpoints go to a finetune/ subdirectory."""
    from . import encoder as enc
    from . import training as train_mod
    paths, stage = cfg["paths"], args.command
    epochs = cfg[stage]["epochs"]
    checkpoint_dir = paths["checkpoint_dir"]
    if stage == "train":
        params = _initial_params(cfg)
        prefix, out_key = "pretrain", "params_pretrained"
    else:
        src = paths["params_pretrained"]
        if not src or not os.path.exists(src):
            raise ArtifactError(f"finetune requires the pretrained params artifact at {src}")
        params = enc.load_params(src)
        prefix, out_key = "finetune", "params_finetuned"
        checkpoint_dir = checkpoint_dir and os.path.join(checkpoint_dir, "finetune")
    with _open_input(paths[f"{prefix}_pairs"], f"{prefix} pairs") as f:
        pairs = train_mod.read_pairs(f)
    # params that record an epoch (a checkpoint) resume after it
    params, loss_log = train_mod.run_training(
        params, pairs, cfg, epochs, checkpoint_dir,
        0 if params.epoch is None else params.epoch + 1)
    enc.save_params(paths[out_key], params)
    _write(paths[f"{prefix}_loss_log"], _json(loss_log) + "\n")
    return {"command": stage, "epochs": epochs, "pairs": len(pairs),
            "loss_log": loss_log}


def cmd_index_build(cfg, args):
    from . import encoder as enc
    from . import index as index_mod
    paths = cfg["paths"]
    icfg = cfg["index"]
    params_path = _resolve_params_path(cfg, args)
    params = enc.load_params(params_path, verify=True)
    ontology = _load_ontology(cfg)
    if not ontology:
        raise DataError("cannot build an index from an empty ontology")
    embeddings = enc.encode_batch(params, [r.text for r in ontology])
    ids = [r.term_id for r in ontology]
    cuis = [r.cui for r in ontology]
    groups = [r.group for r in ontology]

    k = min(icfg["pca_k"], embeddings.shape[0] - 1, embeddings.shape[1])
    transform = index_mod.fit_pca(embeddings, k)
    transform.params_sha256 = params.sha256
    compressed = index_mod.apply_pca(transform, embeddings)
    nlist = min(icfg["nlist"], len(ids))
    pca_sha256 = index_mod.save_pca(paths["pca"], transform)
    # the flat index is the one-list index, which search_ivf scans exactly
    for key, lists in (("flat_index", 1), ("ivf_index", nlist)):
        index = index_mod.build_ivf(compressed, ids, cuis, groups, lists,
                                    cfg["seed"])
        index.params_sha256, index.pca_sha256 = params.sha256, pca_sha256
        index_mod.save_ivf(paths[key], index)
    for key, used in (("pca_k", k), ("nlist", nlist)):
        if used < icfg[key]:
            log.info("index.%s=%d cut to %d to fit %d terms of dim %d", key,
                     icfg[key], used, len(ids), embeddings.shape[1])
    return {"command": "index-build", "terms": len(ids), "pca_k": k, "nlist": nlist}


def _load_link_stack(cfg, args, verify=False):
    """The params, PCA and index artifacts, refused unless index-build made
    the PCA and index together from these params and their dimensions
    agree; with ``verify`` each payload must match its recorded digest.
    The index searches index.nprobe lists per mention."""
    from . import encoder as enc
    from . import index as index_mod
    paths = cfg["paths"]
    params_path = _resolve_params_path(cfg, args)
    params = enc.load_params(params_path, verify)
    transform = index_mod.load_pca(paths["pca"], verify)
    kind = getattr(args, "index_kind", None) or "flat"
    index_path = paths[f"{kind}_index"]
    index = index_mod.load_ivf(index_path, verify)
    if index.pca_sha256 is None:
        raise ArtifactError(f"{index_path}: index carries no provenance; "
                            "rerun index-build")
    if index.pca_sha256 != transform.sha256:
        raise ArtifactError(f"{index_path} and {paths['pca']} were not built "
                            "together; rerun index-build")
    if not params.sha256 == transform.params_sha256 == index.params_sha256:
        raise ArtifactError(f"{params_path} is not the params artifact the index "
                            "was built from; rerun index-build")
    (d, k), rows, cols = (transform.projection.shape, index.vectors.shape[1],
                          index.centroids.shape[1])
    if params.dim != d or rows != k or cols != k:
        raise ArtifactError(
            f"dimensions do not match: {params_path} outputs {params.dim}, "
            f"{paths['pca']} maps {d} to {k}, {index_path} stores {rows} with "
            f"centroids of {cols}; rerun index-build")
    index.nprobe = cfg["index"]["nprobe"]
    return params, transform, index


def _link_payload(mention, result):
    if isinstance(result, DataError):
        return {"mention": mention, "error": str(result)}
    cui, neighbors = result
    # link checks headers only: a corrupt payload shows in the ranked scores
    if not all(math.isfinite(n.score) for n in neighbors):
        raise ArtifactError("a ranked score is not finite: the params, PCA or "
                            "index payload is corrupt; evaluate verifies them")
    return {
        "mention": mention, "predicted_cui": cui,
        "score": neighbors[0].score,
        "top_k": [{"term_id": n.term_id, "cui": n.cui,
                   "score": n.score} for n in neighbors],
    }


def cmd_link(cfg, args):
    from . import index as index_mod
    top_k = cfg["index"]["top_k"]
    if args.mention is None and not args.input:
        raise UsageError("link requires --mention or --input")
    params, transform, index = _load_link_stack(cfg, args)

    if args.mention is not None:
        [result], _ = index_mod.link_mentions([args.mention], params, transform,
                                              index, top_k)
        if isinstance(result, DataError):
            raise result
        return _link_payload(args.mention, result)
    with _open_input(args.input, "mention list") as f:
        mentions = [raw.rstrip("\n") for raw in f]
    results, rows_scored = index_mod.link_mentions(mentions, params, transform,
                                                   index, top_k)
    lines = [_json(_link_payload(m, r)) for m, r in zip(mentions, results)]
    errors = sum(isinstance(r, DataError) for r in results)
    _write(cfg["paths"]["link_output"], "\n".join(lines) + ("\n" if lines else ""))
    return {"command": "link", "mentions": len(lines), "errors": errors,
            "rows_scored": rows_scored}


def cmd_evaluate(cfg, args):
    from dataclasses import asdict

    import numpy as np

    from . import corpus as corpus_mod
    from . import evaluation as eval_mod
    from . import index as index_mod
    from . import ontology as onto_mod
    paths = cfg["paths"]
    # evaluate verifies every payload before it reports; link, kept fast for
    # single mentions, checks the headers only
    params, transform, index = _load_link_stack(cfg, args, verify=True)
    with _open_input(paths["gold_corpus"], "gold corpus") as f:
        gold_slice = corpus_mod.parse_corpus(f)
    # a CUI's group is that of its lowest term_id, whatever the index order
    order = np.argsort(index.ids, kind="stable")
    group_by_cui = {}
    for cui, group in zip(index.cuis[order].tolist(), index.groups[order].tolist()):
        group_by_cui.setdefault(cui, group)
    gold = [
        eval_mod.GoldMention(mention=m.anchor, gold_cui=m.cui,
                             group=group_by_cui.get(m.cui, "OTHER"))
        for m in gold_slice.mentions
    ]
    graph = eval_mod.build_relation_graph(_optional_rows(
        paths["relations"], "relations", onto_mod.parse_relations))

    mentions = list(dict.fromkeys(g.mention for g in gold))
    # the report reads only each mention's nearest neighbour
    results, _ = index_mod.link_mentions(mentions, params, transform, index,
                                         top_k=1)
    predictions = {m: r[0] for m, r in zip(mentions, results)
                   if not isinstance(r, DataError)}
    report = eval_mod.evaluate(predictions, gold, graph,
                               metadata={"seed": cfg["seed"]})
    _write(paths["report"], _json(asdict(report)) + "\n")
    if not args.quiet:
        sys.stderr.write(eval_mod.render_report(report))
    return {"command": "evaluate", "mentions": report.total.count,
            "accuracy": report.total.accuracy,
            "one_dist_accuracy": report.total.one_dist_accuracy}


def cmd_stats(cfg, args):
    payload = {"command": "stats"}
    for key in ("ontology_stats", "corpus_stats"):
        path = cfg["paths"][key]
        if path and os.path.exists(path):
            payload[key] = _read_json(path, key.replace("_", " "))
    return payload


# each handler returns its summary, which run writes as the one stdout line
_HANDLERS = {
    "ontology-build": cmd_ontology_build,
    "corpus-compile": cmd_corpus_compile,
    "corpus-subset": cmd_corpus_subset,
    "pairs": cmd_pairs,
    "train": cmd_train,
    "finetune": cmd_train,
    "index-build": cmd_index_build,
    "link": cmd_link,
    "evaluate": cmd_evaluate,
    "stats": cmd_stats,
}


def run(argv):
    parser = _build_parser(argv[:1] if argv and argv[0] in _HANDLERS else _HANDLERS)
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("a subcommand is required")
    logging.basicConfig(stream=sys.stderr,
                        level=logging.ERROR if args.quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    # each flag is one more --set of its key, applied last so that it wins
    flags = {"seed": args.seed, f"{args.command}.epochs": getattr(args, "epochs", None),
             "index.top_k": getattr(args, "top_k", None)}
    cfg = apply_overrides(load_config(args.config), args.set + [
        f"{key}={value}" for key, value in flags.items() if value is not None])
    sys.stdout.write(_json(_HANDLERS[args.command](cfg, args)) + "\n")
    return 0


def main(argv=None):
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 1
    except (DataError, NetworkError) as e:
        sys.stderr.write(f"data error: {e}\n")
        return 2
    except (ArtifactError, OSError) as e:
        sys.stderr.write(f"i/o error: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
