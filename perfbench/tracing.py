"""Outside-in span tracing of the belforge layers.

The tracer patches module namespaces, not function bodies: every function
bound in a layer module's namespace is replaced by a timing wrapper under the
name its callers look it up by (``belforge.encoder.featurize`` is what
``featurize_text`` calls, ``belforge.training._ms_loss_masks`` is what
``train_epoch`` calls). Only names that exist are wrapped, so a refactor that
renames or removes a function drops its named metric to zero while the module
totals keep counting whatever functions the module then has.

Spans (id, name, start, end, parent id, run id) are kept in memory and
written out once, when the benchmark ends.
"""

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

# the layers are the package's modules; config and errors do microseconds of
# work and are not measured separately
LAYERS = ("cli", "artifacts", "ontology", "wikitext", "corpus", "features",
          "encoder", "training", "index", "evaluation")
# hashing kernels count towards the features layer
KERNELS = {"_pyfeat": "features", "_fastfeat": "features"}

# per-layer metric -> span whose inclusive time it reports
TIME_METRICS = {
    "training.distances.s": "training._pairwise_distances",
    "training.mining.s": "training._mining_masks",
    "training.loss.s": "training._ms_loss_masks",
    "encoder.forward.s": "encoder.forward_features",
    "encoder.backward.s": "encoder.backward_features",
    "encoder.encode.s": "encoder.encode",
    "features.featurize.s": "features.featurize",
    "index.search_flat.s": "index.search_flat",
    "index.search_ivf.s": "index.search_ivf",
    "index.fit_pca.s": "index.fit_pca",
    "index.build_ivf.s": "index.build_ivf",
    "index.apply_pca.s": "index.apply_pca",
    "artifacts.save.s": "artifacts.save_artifact",
    "artifacts.load.s": "artifacts.load_artifact",
    "ontology.parse_ontology.s": "ontology.parse_ontology",
    "ontology.parse_concepts.s": "ontology.parse_concepts",
    "ontology.build.s": "ontology.build_ontology",
    "wikitext.strip.s": "wikitext.strip_wikitext",
    "wikitext.split_sentences.s": "wikitext.split_sentences",
    "corpus.parse_dump.s": "corpus.parse_dump",
    "corpus.serialize.s": "corpus.serialize_corpus",
    "corpus.parse_corpus.s": "corpus.parse_corpus",
    "corpus.star_subset.s": "corpus.build_star_subset",
    "evaluation.evaluate.s": "evaluation.evaluate",
}
# per-layer metric -> span whose self time (minus wrapped children) it reports
SELF_METRICS = {
    "training.epoch.self_s": "training.train_epoch",
    "index.link_mention.self_s": "index.link_mention",
    "corpus.compile.self_s": "corpus.compile_corpus",
}
CALL_METRICS = {
    "encoder.forward.calls": "encoder.forward_features",
    "encoder.backward.calls": "encoder.backward_features",
    "encoder.encode.calls": "encoder.encode",
    "features.featurize.calls": "features.featurize",
    "index.search_flat.calls": "index.search_flat",
    "index.search_ivf.calls": "index.search_ivf",
    "artifacts.load.calls": "artifacts.load_artifact",
    "ontology.parse_ontology.calls": "ontology.parse_ontology",
    "wikitext.strip.calls": "wikitext.strip_wikitext",
}
COUNT_METRICS = ("training.batches", "training.zero_mined_batches",
                 "training.mined_pos_pairs", "training.mined_neg_pairs",
                 "artifacts.bytes_written", "artifacts.bytes_read")


def _texts_in(args):
    first = args[0] if args else None
    return len(first) if isinstance(first, (list, tuple)) else 1


def _count_loss_masks(tracer, args, result):
    # _ms_loss_masks(similarities, pos_mask, neg_mask, config) runs once per
    # batch whichever miner produced the masks
    pos, neg = args[1], args[2]
    c = tracer.counts
    c["training.batches"] += 1
    c["training.mined_pos_pairs"] += int(pos.sum())
    c["training.mined_neg_pairs"] += int(neg.sum())
    c["training.zero_mined_batches"] += int(not pos.any() and not neg.any())
    c["training.anchors"] += pos.shape[0]
    c["training.active_anchors"] += int((pos.any(axis=1) | neg.any(axis=1)).sum())


def _count_epoch(tracer, args, result):
    tracer.counts["training.texts_trained"] += 2 * len(args[0])


def _count_write(tracer, args, result):
    tracer.counts["artifacts.bytes_written"] += len(args[1])


def _count_load(tracer, args, result):
    tracer.counts["artifacts.bytes_read"] += os.path.getsize(args[0])


HOOKS = {
    "training._ms_loss_masks": _count_loss_masks,
    "training.train_epoch": _count_epoch,
    "artifacts.write_atomic": _count_write,
    "artifacts.load_artifact": _count_load,
}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []       # (id, name, start, end, parent id, run id)
        self._patched = []
        self._stack = []      # [id, name, layer, start, child seconds]
        self._next_id = 0
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._layer_depth = Counter()
        self._layer_start = {}
        self.layer_total = defaultdict(float)

    def enter(self, name, layer):
        self._next_id += 1
        start = time.perf_counter()
        if not self._layer_depth[layer]:
            self._layer_start[layer] = start
        self._layer_depth[layer] += 1
        self._stack.append([self._next_id, name, layer, start, 0.0])

    def exit(self):
        end = time.perf_counter()
        span_id, name, layer, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.layer_total[layer] += end - self._layer_start[layer]
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent is not None else 0, self.run_id))
        return parent

    def _count_features(self, args, parent):
        # texts featurized inside a training epoch, at the outermost call
        # into the features layer
        if parent is not None and parent[2] == "features":
            return
        if any(entry[1] == "training.train_epoch" for entry in self._stack):
            self.counts["training.featurized_texts"] += _texts_in(args)

    def _wrap(self, fn, name, layer):
        tracer = self
        hook = HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    tracer.enter(name, layer)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = tracer.exit()
            if hook is not None:
                hook(tracer, args, result)
            if layer == "features":
                tracer._count_features(args, parent)
            return result
        return wrapper

    def install(self):
        """Wrap every package function bound in a layer module's namespace."""
        for layer in LAYERS:
            module = importlib.import_module(f"belforge.{layer}")
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", None) or ""
                if (isinstance(value, type) or not callable(value)
                        or not home.startswith("belforge.")):
                    continue
                home = home.rsplit(".", 1)[-1]
                home_layer = KERNELS.get(home, home)
                if home_layer not in LAYERS:
                    continue
                name = f"{home}.{getattr(value, '__name__', attr)}"
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(value, name, home_layer))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def layer_metrics(self):
        """Per-layer metrics of everything traced so far."""
        m = {}
        for metric, span in TIME_METRICS.items():
            m[metric] = self.inclusive.get(span, 0.0)
        for metric, span in SELF_METRICS.items():
            m[metric] = self.self_time.get(span, 0.0)
        for metric, span in CALL_METRICS.items():
            m[metric] = self.calls.get(span, 0)
        m["features.kernel.s"] = sum(
            t for n, t in self.inclusive.items() if n.split(".", 1)[0] in KERNELS)
        for metric in COUNT_METRICS:
            m[metric] = self.counts.get(metric, 0)
        c = self.counts
        m["training.active_anchor_ratio"] = (
            c["training.active_anchors"] / c["training.anchors"]
            if c["training.anchors"] else 0.0)
        m["training.feature_cache_hit_ratio"] = (
            1.0 - c["training.featurized_texts"] / c["training.texts_trained"]
            if c["training.texts_trained"] else 0.0)
        for layer in LAYERS:
            m[f"{layer}.total_s"] = self.layer_total.get(layer, 0.0)
        m["trace.spans"] = len(self.spans)
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start,end,parent,run\n")
            for span_id, name, start, end, parent, run in self.spans:
                f.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{run}\n")
