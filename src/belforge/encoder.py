"""Trainable string encoder: hashed char n-grams -> two-layer map -> R^d.

The output vector plays the role of the term representation used for
similarity search. It is unit-L2, so cosine similarity is the inner product;
a row of norm below NORM_EPS (a featureless text) passes through unchanged.
"""

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import artifacts
from .errors import ArtifactError
from .features import featurize_batch

NORM_EPS = 1e-12
# texts hashed and forwarded per call by encode_batch; bounds the
# temporaries however many texts are encoded
ENCODE_BATCH = 1024


@dataclass
class EncoderParams:
    n_min: int
    n_max: int
    buckets: int
    hidden: int
    dim: int
    W1: np.ndarray  # hidden x buckets
    b1: np.ndarray  # hidden
    W2: np.ndarray  # dim x hidden
    b2: np.ndarray  # dim
    lowercase: bool
    # payload digest of the artifact these weights were loaded from
    sha256: str | None = None
    # for a training checkpoint, the index of the epoch that ended in it
    epoch: int | None = None

    def copy(self):
        """A copy to train: its weights will no longer be the artifact's."""
        return replace(self, W1=self.W1.copy(), b1=self.b1.copy(), W2=self.W2.copy(),
                       b2=self.b2.copy(), sha256=None, epoch=None)


def init_params(seed, n_min, n_max, buckets, hidden, dim, lowercase):
    """Seeded uniform init: weights in [-1/sqrt(fan_in), 1/sqrt(fan_in)], zero biases."""
    rng = np.random.default_rng(seed)
    s1 = 1.0 / np.sqrt(buckets)
    s2 = 1.0 / np.sqrt(hidden)
    return EncoderParams(
        n_min=n_min, n_max=n_max, buckets=buckets, hidden=hidden, dim=dim,
        W1=rng.uniform(-s1, s1, size=(hidden, buckets)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-s2, s2, size=(dim, hidden)),
        b2=np.zeros(dim), lowercase=lowercase,
    )


def featurize_texts(params, texts):
    return featurize_batch(texts, params.n_min, params.n_max, params.buckets,
                           params.lowercase)


def forward_batch(params, feats):
    """Forward pass of sparse (indices, values) rows: (E, cache for backward_batch).
    W1's columns are gathered once per batch, but each row's products are the
    BLAS calls of a one-row forward on operands of the same layout, whether
    made one row at a time or by one stacked matmul, so a row has the same
    bits in any batch. Only elementwise steps are batched."""
    n = len(feats)
    bounds = list(accumulate((len(i) for i, _ in feats), initial=0))
    indices, values = (np.concatenate(a) for a in zip(*feats))
    # a lone row shares no columns: its own gather is its operand
    cols, pos = (indices, None) if n == 1 else np.unique(indices, return_inverse=True)
    rows = np.ascontiguousarray(params.W1[:, cols].T)
    # operands F-ordered hidden x nnz like W1[:, indices]; C order gives other bits
    H = np.array([(rows if pos is None else rows[pos[a:b]]).T @ values[a:b]
                  for a, b in zip(bounds, bounds[1:])])
    np.maximum(np.add(H, params.b1, out=H), 0.0, out=H)
    # stacked products: matmul runs a row's gemv, and its 1-D dot (a batched
    # sum would reorder), as the one-row forward does
    E = (params.W2 @ H[:, :, None])[:, :, 0] + params.b2
    norms = np.sqrt((E[:, None, :] @ E[:, :, None])[:, 0, 0])
    np.divide(E, norms[:, None], out=E, where=(norms >= NORM_EPS)[:, None])
    return E, (feats, H, E, norms)


def encode_batch(params, texts):
    """Embed a list of strings as the rows of a len(texts) x dim matrix,
    ENCODE_BATCH texts per forward_batch; a row is the same bits wherever
    its text sits in the list."""
    chunks = [texts[s:s + ENCODE_BATCH] for s in range(0, len(texts), ENCODE_BATCH)]
    parts = [forward_batch(params, featurize_texts(params, c))[0] for c in chunks]
    return np.vstack(parts) if parts else np.zeros((0, params.dim))


def backward_batch(params, cache, dE):
    """Gradients of sum_i dE[i] . E[i] w.r.t. every parameter, keyed by its
    name, given the forward_batch cache (feats, H, E, norms) of a batch of
    rows; one GEMM per weight matrix."""
    feats, H, E, norms = cache
    G = np.asarray(dE, dtype=float)
    # out = e/|e|; J^T u = (u - (u.out) out) / |e| on the normalized rows,
    # and u on the rows the forward passed through
    proj = np.sum(G * E, axis=1, keepdims=True) * E
    G = np.where((norms >= NORM_EPS)[:, None],
                 (G - proj) / np.maximum(norms, NORM_EPS)[:, None], G)
    # H > 0 exactly where the pre-activation is
    G_h = (G @ params.W2) * (H > 0.0)
    # the batch's dense n-gram count matrix lives only for the W1 GEMM
    X = np.zeros((len(feats), params.buckets))
    X[np.repeat(np.arange(len(feats)), [len(i) for i, _ in feats]),
      np.concatenate([i for i, _ in feats])] = np.concatenate([v for _, v in feats])
    return {"W1": G_h.T @ X, "b1": G_h.sum(axis=0),
            "W2": G.T @ H, "b2": G.sum(axis=0)}


def save_params(path, params):
    meta = {
        "n_min": params.n_min, "n_max": params.n_max, "buckets": params.buckets,
        "hidden": params.hidden, "dim": params.dim,
        "normalize_output": True, "lowercase": params.lowercase,  # always unit rows
    }
    if params.epoch is not None:
        meta["epoch"] = params.epoch
    return artifacts.save_artifact(path, "encoder-params", meta,
                                   {"W1": params.W1, "b1": params.b1,
                                    "W2": params.W2, "b2": params.b2})


def load_params(path, verify=False):
    """The saved params; with ``verify`` their payload digest is recomputed
    and checked (artifacts.load_artifact), and every weight must be finite."""
    meta, arrays, sha256 = artifacts.load_artifact(path, "encoder-params", verify)
    if not meta.flag("normalize_output"):
        raise ArtifactError(f"{path}: meta entry 'normalize_output' must be true")
    params = EncoderParams(
        n_min=meta.size("n_min"), n_max=meta.size("n_max"),
        buckets=meta.size("buckets"), hidden=meta.size("hidden"),
        dim=meta.size("dim"),
        **{k: arrays.typed(k, "float64") for k in ("W1", "b1", "W2", "b2")},
        lowercase=meta.flag("lowercase"), sha256=sha256,
        epoch=meta.size("epoch", least=0) if "epoch" in meta else None,
    )
    if params.n_max < params.n_min:
        raise ArtifactError(f"{path}: n_max {params.n_max} is below n_min {params.n_min}")
    if params.W1.shape != (params.hidden, params.buckets) or \
       params.W2.shape != (params.dim, params.hidden) or \
       params.b1.shape != (params.hidden,) or params.b2.shape != (params.dim,):
        raise ArtifactError(f"{path}: parameter shapes do not match declared dimensions")
    if verify:
        for name in ("W1", "b1", "W2", "b2"):
            if not np.isfinite(arrays[name]).all():
                raise ArtifactError(f"{path}: {name} holds a weight that is not finite")
    return params
