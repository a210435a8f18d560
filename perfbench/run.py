"""Pipeline benchmark for belforge.

Usage:
    python3 perfbench/run.py --workload {train,link,ingest} --seed N \\
        --seconds S --trace {0,1}

Each workload is a closed loop through the whole CLI, driven in-process
through ``belforge.cli.main`` by one caller that runs each stage after the
previous one returns: ontology-build, corpus-compile, corpus-subset, pairs
(pretrain), train, pairs (finetune), finetune, index-build, link --input
(flat), link --input (IVF), single link --mention calls, evaluate. The
workloads differ in the shape of the world generated from the seed, so that
a different layer dominates each (see README.md).

Later passes repeat the loop on the same inputs, with a single-mention call
after every stage, until about ``--seconds`` have been spent in timed calls;
a stage's time is the mean of its calls, each scaled to a reference machine
speed by the calibration readings around it (``calibration.py``). The
outputs of the last pass are checked after it, outside the timed calls, and
must be byte-identical to the first pass's. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, per-layer metrics
from traced passes over the same world. Records go to ``.perfbench_run/`` in the checkout.
"""

import os
import sys

# pin BLAS threads before numpy is imported, here and in the set-up probes
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import xml.etree.ElementTree as ET  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

SETUP_PROBES = 12  # at least; one after each pass, the rest at the end
TRACE_PAIRS = 3    # traced and untraced passes each in a traced run
PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import belforge.cli\n"
    "with open(sys.argv[2], 'w') as sink:\n"
    "    sys.stdout = sink\n"
    "    rc = belforge.cli.main(['stats', '--config', sys.argv[1], '--quiet'])\n"
    "    sys.stdout = sys.__stdout__\n"
    "print(rc, time.perf_counter() - t)\n"
)

# criterion 06's encoder shape and learning rates, with the default batch.
# The default shape ranks held-out mentions little better than chance when
# untrained; this one is usable untrained (`link`, `ingest`), and one epoch
# on the `train` world lifts its accuracy by about a fifth, so that
# `accuracy` guards training
ENCODER = {"buckets": 1024, "hidden": 192, "dim": 96}
PRETRAIN_LR = 0.5
FINETUNE_LR = 0.1
CLI_STAGES = ("ontology-build", "corpus-compile", "corpus-subset", "pairs",
              "train", "finetune", "index-build", "link", "evaluate")
OUTPUTS = {
    "ontology": "ontology.jsonl", "ontology_stats": "ontology_stats.json",
    "corpus": "corpus.xml", "corpus_stats": "corpus_stats.json",
    "train_corpus": "train.xml", "val_corpus": "val.xml",
    "pretrain_pairs": "pretrain_pairs.txt", "finetune_pairs": "finetune_pairs.txt",
    "params_pretrained": "pretrained.params", "params_finetuned": "finetuned.params",
    "pretrain_loss_log": "pretrain_losses.json",
    "finetune_loss_log": "finetune_losses.json",
    "pca": "pca.bin", "flat_index": "flat.index", "ivf_index": "ivf.index",
    "link_output": "links_flat.jsonl", "report": "report.json",
}
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "pretrain_pairs_per_s": "1/s", "finetune_pairs_per_s": "1/s",
    "accuracy": "ratio", "index_build_terms_per_s": "1/s",
    "link_flat_mentions_per_s": "1/s", "link_ivf_mentions_per_s": "1/s",
    "link_mention_p50_ms": "ms", "link_mention_p90_ms": "ms",
    "ivf_recall_at_10": "ratio", "ontology_build_terms_per_s": "1/s",
    "corpus_compile_pages_per_s": "1/s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: object         # worlds.Shape of the measured world
    warmup: object        # worlds.Shape of the warm-up world


def workloads(Shape):
    small = dict(concepts=120, removed=20, added=20, dropped_concepts=5,
                 pages=12, gold=60, verbatim=20, mention_calls=3)
    return {w.name: w for w in (
        Workload("train",
                 Shape(concepts=300, variants=4, removed=2000, added=30,
                       dropped_concepts=300, pages=600, mapped_rate=0.02,
                       gold=1000, core_edits=1, verbatim=60, mention_calls=6),
                 Shape(variants=4, mapped_rate=0.6, core_edits=1, **small)),
        Workload("link",
                 Shape(concepts=3000, variants=1, removed=2000, added=60,
                       dropped_concepts=300, pages=250, mapped_rate=0.05,
                       gold=1000, core_edits=0, verbatim=100, mention_calls=8),
                 Shape(variants=1, mapped_rate=0.6, core_edits=0, **small)),
        Workload("ingest",
                 Shape(concepts=800, variants=1, removed=10000, added=60,
                       dropped_concepts=2000, pages=1200, mapped_rate=0.03,
                       gold=600, core_edits=0, verbatim=60, mention_calls=6),
                 Shape(variants=1, mapped_rate=0.3, core_edits=0, **small)),
    )}


def write_config(world, seed):
    out = os.path.join(world.root, "out")
    paths = {k: v for k, v in world.paths.items() if k != "queries"}
    paths.update({k: os.path.join(out, v) for k, v in OUTPUTS.items()})
    cfg = {
        "seed": seed,
        "paths": paths,
        "ontology": {
            "drop_vocabs": ["DROPV"],
            "descriptive_subterms": [{"pattern": " (NAO)", "vocabs": ["MDRDUT"]}],
            "drop_tuis": ["T999"],
            "drug_vocabs": ["DRUGV"],
        },
    }
    cfg["encoder"] = dict(ENCODER)
    cfg["train"] = {"learning_rate": PRETRAIN_LR, "batch_size": 512}
    path = os.path.join(world.root, "config.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=1)
    return path


def stage_plan(world, config):
    """The closed loop: (key, argv) for each CLI call of one pass, in order."""
    queries = world.paths["queries"]
    ivf_out = os.path.join(world.root, "out", "links_ivf.jsonl")
    plan = [
        ("ontology-build", ["ontology-build"]),
        ("corpus-compile", ["corpus-compile"]),
        ("corpus-subset", ["corpus-subset"]),
        ("pairs-pretrain", ["pairs", "--stage", "pretrain"]),
        ("train", ["train", "--epochs", "1"]),
        ("pairs-finetune", ["pairs", "--stage", "finetune"]),
        ("finetune", ["finetune", "--epochs", "1",
                      "--set", f"train.learning_rate={FINETUNE_LR!r}"]),
        ("index-build", ["index-build"]),
        ("link-flat", ["link", "--input", queries]),
        ("link-ivf", ["link", "--input", queries, "--index", "ivf",
                      "--set", f"paths.link_output={ivf_out}"]),
    ]
    plan += [("link-mention", ["link", "--mention", m]) for m in world.mention_sample]
    plan.append(("evaluate", ["evaluate"]))
    return [(key, [argv[0], "--config", config, "--quiet"] + argv[1:])
            for key, argv in plan]


def later_pass(plan, index):
    """A repeat of the loop with every stage followed by one single-mention
    call, so that every stage's calls and the mention latencies spread over
    the whole run."""
    mentions = [step for step in plan if step[0] == "link-mention"]
    steps = []
    for i, step in enumerate(s for s in plan if s[0] != "link-mention"):
        steps += [step, mentions[(index + i) % len(mentions)]]
    return steps


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def call_stage(cli, argv, tracer=None):
    """One in-process CLI call, timed. Returns (exit code, seconds, stdout).
    An exception the CLI does not turn into an exit code counts as exit
    code 1, so that the stage is counted as failed."""
    sink = io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.enter(f"cli.{argv[0]}", "cli")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception as e:  # noqa: BLE001 - any crash is a failed stage
        sys.stderr.write(f"perfbench: {argv[0]} raised {type(e).__name__}: {e}\n")
        rc = 1
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
    return rc, elapsed, sink.getvalue()


def run_stages(cli, steps, counts, timings, tracer=None):
    """Call each step in order, adding its time and a calibration reading
    taken just before it to ``timings``. Returns (seconds in the calls,
    summaries by key, single-mention results, ok)."""
    summaries = {}
    mentions = []
    spent = 0.0
    for key, argv in steps:
        counts.attempted += 1
        reading = calibration.kernel_seconds()
        rc, elapsed, out = call_stage(cli, argv, tracer)
        timings.add(key, elapsed, reading)
        spent += elapsed
        if rc != 0:
            counts.failed += 1
            sys.stderr.write(f"perfbench: {key} exited {rc}\n")
            return spent, summaries, mentions, False
        lines = out.splitlines()
        summary = json.loads(lines[-1]) if lines else {}
        if key in ("link-flat", "link-ivf"):
            counts.attempted += summary.get("mentions", 0)
            counts.failed += summary.get("errors", 0)
        if key == "link-mention":
            mentions.append(summary)
        else:
            summaries[key] = summary
    return spent, summaries, mentions, True


def cli_stage(key):
    """The CLI subcommand a plan key runs."""
    return key if key in CLI_STAGES else key.split("-")[0]


def end_to_end(world, samples, facts, setup_s, peak_rss_mb):
    """End-to-end metrics from call times at the reference speed. A stage's
    time is the mean of its calls, so a throughput is the work of all calls
    over their total time; ``wall_s`` is one pass of the loop at those
    times."""
    t = {key: statistics.fmean(v) for key, v in samples.items()}
    deciles = statistics.quantiles([1000.0 * s for s in samples["link-mention"]],
                                   n=10, method="inclusive")
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(v for k, v in t.items() if k != "link-mention")
                  + t["link-mention"] * len(world.mention_sample),
        "peak_rss_mb": peak_rss_mb,
        "pretrain_pairs_per_s": facts["pretrain_pairs"] / t["train"],
        "finetune_pairs_per_s": facts["finetune_pairs"] / t["finetune"],
        "index_build_terms_per_s": facts["ontology_terms"] / t["index-build"],
        "link_flat_mentions_per_s": len(world.queries) / t["link-flat"],
        "link_ivf_mentions_per_s": len(world.queries) / t["link-ivf"],
        "link_mention_p50_ms": deciles[4],
        "link_mention_p90_ms": deciles[-1],
        "ontology_build_terms_per_s": world.source_terms / t["ontology-build"],
        "corpus_compile_pages_per_s": world.pages_total / t["corpus-compile"],
        "accuracy": facts["accuracy"],
        "ivf_recall_at_10": facts["ivf_recall_at_10"],
    }
    return {k: {"value": metrics[k], "unit": UNITS[k]} for k in sorted(metrics)}


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.startswith("artifacts.bytes"):
        return "bytes"
    return "count"


def traced_passes(cli, tracer, plan, counts, out, untraced_s):
    """Alternate traced and untraced passes over the same world, starting
    with a traced one, until there are TRACE_PAIRS of each counting the
    untraced pass already made (``untraced_s``). Per-layer times and counts
    are per traced pass; the overhead compares the median traced and
    untraced pass. Returns (per-layer metrics, summaries, mention results,
    ok) of the last traced pass."""
    untraced, traced = [untraced_s], []
    timings = calibration.Timings()
    while True:
        shutil.rmtree(out)
        os.makedirs(out)
        tracer.install()
        try:
            wall, summaries, mentions, ok = run_stages(cli, plan, counts, timings, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        if not ok or len(traced) == TRACE_PAIRS:
            break
        wall, _, _, ok = run_stages(cli, plan, counts, calibration.Timings())
        untraced.append(wall)
        if not ok:
            return {}, summaries, mentions, False
    m = tracer.layer_metrics()
    samples = timings.raw()
    for stage in CLI_STAGES:
        m[f"cli.{stage}.s"] = sum(sum(v) for k, v in samples.items()
                                  if cli_stage(k) == stage)
    # sums over the traced passes, made per pass; ratios stay as they are
    m = {k: (v // len(traced) if isinstance(v, int) else v / len(traced))
         if layer_unit(k) != "ratio" else v for k, v in m.items()}
    wall, base = statistics.median(traced), statistics.median(untraced)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = base
    m["trace.overhead_s"] = wall - base
    m["trace.overhead_ratio"] = (wall - base) / base
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(m.items())}
    return metrics, summaries, mentions, ok


def measure_setup(config, run_dir, probes):
    """CLI start-up times: ``probes`` fresh interpreters, one at a time, each
    import the package and run `stats`. Returns (raw times, times at the
    reference speed), each probe bracketed by calibration readings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    samples, ref_samples = [], []
    sink = os.path.join(run_dir, "probe-stdout.txt")
    for _ in range(probes):
        before = calibration.kernel_seconds()
        proc = subprocess.run([sys.executable, "-c", PROBE, config, sink],
                              env=env, cwd=run_dir, capture_output=True,
                              text=True, timeout=120)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(fields[1]))
        ref_samples.append(calibration.scaled(samples[-1], before,
                                              calibration.kernel_seconds()))
    return samples, ref_samples


def max_rss_mb():
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def world_seed(seed, workload_name, role):
    digest = hashlib.sha256(f"{seed}/{workload_name}/{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, text=True, capture_output=True, timeout=30)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def checked(check, *args):
    """Run an output check; outputs it cannot read count as failed checks."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ET.ParseError) as e:
        return [f"outputs could not be checked: {type(e).__name__}: {e}"], {}


def environment_info(belforge_features):
    sha = git_sha()
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "belforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    import numpy
    return {
        "git_sha": sha, "source_sha256": h.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "compiled_hash_lane": getattr(belforge_features, "HAVE_FAST_LANE", None),
        "machine": platform.machine(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("train", "link", "ingest"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for needed in (os.path.join(SRC, "belforge", "cli.py"),
                   os.path.join(ROOT, "tests", "helpers.py")):
        if not os.path.isfile(needed):
            sys.stderr.write(f"perfbench: {os.path.relpath(needed, ROOT)} is missing; "
                             "run from a full checkout\n")
            return 2
    sys.path.insert(0, SRC)
    import belforge.cli as cli
    import belforge.features as features
    import checks
    import tracing
    import worlds

    helpers = worlds.load_helpers(ROOT)
    workload = workloads(worlds.Shape)[args.workload]
    run_dir = os.path.join(RUN_DIR, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # warm-up: one untimed pass over a small world of its own
    warm = worlds.build_world(os.path.join(run_dir, "warmup"), workload.warmup,
                              world_seed(args.seed, args.workload, "warmup"), helpers)
    warm_config = write_config(warm, args.seed)
    run_stages(cli, stage_plan(warm, warm_config), Counts(), calibration.Timings())
    rss = {"warmup": max_rss_mb()}

    world = worlds.build_world(os.path.join(run_dir, "world"), workload.shape,
                               world_seed(args.seed, args.workload, "main"), helpers)
    rss["generated"] = max_rss_mb()
    out = os.path.join(world.root, "out")
    plan = stage_plan(world, write_config(world, args.seed))
    counts = Counts()
    timings = calibration.Timings()
    setup_samples, setup_ref_samples = [], []
    failures = []
    facts = {}
    metrics = {}

    def probe_setup(probes):
        raw, ref = measure_setup(warm_config, run_dir, probes)
        setup_samples.extend(raw)
        setup_ref_samples.extend(ref)

    spent, summaries, mentions, ok = run_stages(cli, plan, counts, timings)
    pass_walls = [spent]
    first_digest = checks.digests(out)[1] if ok else None
    probe_setup(1)
    if ok and args.trace:
        tracer = tracing.Tracer(run_id=args.seed)
        metrics, summaries, mentions, ok = traced_passes(
            cli, tracer, plan, counts, out, spent)
        tracer.write_spans(os.path.join(RUN_DIR, f"{args.workload}-spans.csv"))
    # repeat the loop until another pass would overshoot the target by more
    # than stopping now falls short of it; a set-up probe follows each pass
    while ok and not args.trace and sum(pass_walls) + pass_walls[-1] / 2 < args.seconds:
        spent, summaries, pass_mentions, ok = run_stages(
            cli, later_pass(plan, len(pass_walls)), counts, timings)
        pass_walls.append(spent)
        mentions += pass_mentions
        probe_setup(1)
    timings.finish()
    rss["stages"] = max_rss_mb()
    probe_setup(SETUP_PROBES - len(setup_samples))
    if ok:
        # every pass rewrote every output: the last pass's outputs must pass
        # the checks and be byte-identical to the first pass's
        failures, facts = checked(checks.check_outputs, world, out, summaries, mentions)
        ok = bool(facts)
    rss["checked"] = max_rss_mb()
    if not ok:
        failures.append("a CLI stage failed or its outputs could not be checked")
    elif facts["digest"] != first_digest:
        failures.append("re-running the stages changed the artifacts")
    if ok and not args.trace:
        metrics = end_to_end(world, timings.scaled(), facts,
                             statistics.median(setup_ref_samples), rss["stages"])
    for f in failures:
        sys.stderr.write(f"perfbench: check failed: {f}\n")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(pass_walls), "pass_walls_s": pass_walls,
        "link_mention_samples": len(timings.raw()["link-mention"]),
        "setup_samples_s": setup_samples, "setup_ref_samples_s": setup_ref_samples,
        "max_rss_mb_after": rss, "calibration_readings_s": timings.readings(),
        "calibration_reference_s": calibration.REFERENCE_S,
        "slowdown": timings.slowdown(),
        "environment": environment_info(features),
        "artifact_digest": facts.get("digest"), "artifact_digests": facts.get("digests"),
        "stage_samples_s": timings.raw(), "stage_ref_samples_s": timings.scaled(),
        "check_failures": failures, "metrics": metrics,
    }
    with open(os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    shutil.rmtree(run_dir)
    print(json.dumps({k: record[k] for k in (
        "workload", "seed", "trace", "passes",
        "link_mention_samples", "artifact_digest", "environment")}, sort_keys=True))
    print(json.dumps({"correct": ok and not failures, "attempted": counts.attempted,
                      "failed": counts.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
