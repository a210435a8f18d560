"""Trainable string encoder: hashed char n-grams -> two-layer map -> R^d.

The output vector plays the role of the term representation used for
similarity search; with ``normalize_output`` on (the default) the output
is unit-L2, so cosine similarity equals the inner product.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import artifacts
from .errors import ArtifactError
from .features import featurize_batch

NORM_EPS = 1e-12
# texts hashed per featurize_batch call by encode_batch; bounds the hashing
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
    normalize_output: bool = True
    lowercase: bool = False
    # payload digest of the artifact these weights were loaded from
    sha256: str | None = None

    def copy(self):
        """A copy to train: its weights will no longer be the artifact's."""
        return replace(self, W1=self.W1.copy(), b1=self.b1.copy(),
                       W2=self.W2.copy(), b2=self.b2.copy(), sha256=None)


@dataclass
class EncoderGrads:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray


def init_params(seed, n_min=2, n_max=4, buckets=4096, hidden=64, dim=32,
                normalize_output=True, lowercase=False):
    """Seeded uniform init: weights in [-1/sqrt(fan_in), 1/sqrt(fan_in)], zero biases."""
    if min(buckets, hidden, dim) < 1 or n_min < 1 or n_max < n_min:
        raise ValueError("invalid encoder dimensions")
    rng = np.random.default_rng(seed)
    s1 = 1.0 / np.sqrt(buckets)
    s2 = 1.0 / np.sqrt(hidden)
    return EncoderParams(
        n_min=n_min, n_max=n_max, buckets=buckets, hidden=hidden, dim=dim,
        W1=rng.uniform(-s1, s1, size=(hidden, buckets)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-s2, s2, size=(dim, hidden)),
        b2=np.zeros(dim),
        normalize_output=normalize_output, lowercase=lowercase,
    )


def featurize_texts(params, texts):
    return featurize_batch(texts, params.n_min, params.n_max, params.buckets,
                           lowercase=params.lowercase)


def featurize_text(params, text):
    return featurize_texts(params, [text])[0]


def forward_features(params, indices, values):
    """Forward pass from a sparse feature vector; returns (output, cache)."""
    z = params.W1[:, indices] @ values + params.b1
    h = np.maximum(z, 0.0)
    e = params.W2 @ h + params.b2
    norm = float(np.linalg.norm(e))
    if params.normalize_output and norm >= NORM_EPS:
        out = e / norm
    else:
        out = e
    return out, (indices, values, z, h, norm, out)


def encode_batch(params, texts):
    """Embed a list of strings as the rows of a len(texts) x dim matrix.

    Texts are featurized ENCODE_BATCH at a time; each row then goes through
    forward_features on its own, so it equals encode(params, text) bit for
    bit wherever the text sits in the list.
    """
    rows = []
    for start in range(0, len(texts), ENCODE_BATCH):
        feats = featurize_texts(params, texts[start:start + ENCODE_BATCH])
        rows.extend(forward_features(params, idx, vals)[0] for idx, vals in feats)
    return np.vstack(rows) if rows else np.zeros((0, params.dim))


def encode(params, text):
    """Embed a string; unit-L2 output when normalization is active."""
    return encode_batch(params, [text])[0]


def backward_batch(params, caches, dE):
    """Gradients of sum_i dE[i] . output_i w.r.t. every parameter, given the
    forward caches of a batch of rows; one GEMM per weight matrix."""
    indices, values, Z, H, norms, outs = zip(*caches)
    Z, H, outs, norms = np.vstack(Z), np.vstack(H), np.vstack(outs), np.array(norms)
    G = np.asarray(dE, dtype=float)
    if params.normalize_output:
        # out = e/|e|; J^T u = (u - (u.out) out) / |e| on the normalized rows
        proj = np.sum(G * outs, axis=1, keepdims=True) * outs
        G = np.where((norms >= NORM_EPS)[:, None],
                     (G - proj) / np.maximum(norms, NORM_EPS)[:, None], G)
    G_h = (G @ params.W2) * (Z > 0.0)
    # the batch's dense n-gram count matrix lives only for the W1 GEMM
    X = np.zeros((len(caches), params.buckets))
    X[np.repeat(np.arange(len(caches)), [len(i) for i in indices]),
      np.concatenate(indices)] = np.concatenate(values)
    return EncoderGrads(W1=G_h.T @ X, b1=G_h.sum(axis=0),
                        W2=G.T @ H, b2=G.sum(axis=0))


def encode_backward(params, text, upstream):
    """Exact gradients of upstream . encode(params, text) for every parameter."""
    indices, values = featurize_text(params, text)
    _, cache = forward_features(params, indices, values)
    return backward_batch(params, [cache], [upstream])


def save_params(path, params):
    meta = {
        "n_min": params.n_min, "n_max": params.n_max, "buckets": params.buckets,
        "hidden": params.hidden, "dim": params.dim,
        "normalize_output": params.normalize_output, "lowercase": params.lowercase,
    }
    return artifacts.save_artifact(path, "encoder-params", meta,
                                   {"W1": params.W1, "b1": params.b1,
                                    "W2": params.W2, "b2": params.b2})


def load_params(path):
    meta, arrays, sha256 = artifacts.load_artifact(path, "encoder-params")
    params = EncoderParams(
        n_min=meta.size("n_min"), n_max=meta.size("n_max"),
        buckets=meta.size("buckets"), hidden=meta.size("hidden"),
        dim=meta.size("dim"),
        W1=arrays["W1"], b1=arrays["b1"], W2=arrays["W2"], b2=arrays["b2"],
        normalize_output=meta.flag("normalize_output"),
        lowercase=meta.flag("lowercase"), sha256=sha256,
    )
    if params.n_max < params.n_min:
        raise ArtifactError(f"{path}: n_max {params.n_max} is below n_min {params.n_min}")
    if params.W1.shape != (params.hidden, params.buckets) or \
       params.W2.shape != (params.dim, params.hidden) or \
       params.b1.shape != (params.hidden,) or params.b2.shape != (params.dim,):
        raise ArtifactError(f"{path}: parameter shapes do not match declared dimensions")
    return params
