"""PCA compression and nearest-neighbor linking over an inverted-file index
of unit-normalized compressed embeddings; the exact (flat) index is the
one-list case, probed exhaustively.
"""

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .encoder import NORM_EPS, encode_batch
from .errors import ArtifactError, DataError
from .features import prepare


@dataclass
class PcaTransform:
    mean: np.ndarray          # d
    projection: np.ndarray    # d x k, orthonormal columns
    explained_variance: np.ndarray  # k, non-increasing
    params_sha256: str | None = None  # digest of the params it was fitted for
    sha256: str | None = None  # payload digest of the artifact it was loaded from


@dataclass
class IvfIndex:
    centroids: np.ndarray  # nlist x k
    vectors: np.ndarray    # n x k unit rows, grouped by list
    ids: np.ndarray        # n term_ids, in row order
    offsets: np.ndarray    # nlist + 1; list c is vectors[offsets[c]:offsets[c + 1]]
    nprobe: int = 8
    cuis: np.ndarray | None = None    # n CUIs, in row order
    groups: np.ndarray | None = None  # n semantic groups, in row order
    params_sha256: str | None = None  # digests of the params and PCA artifacts
    pca_sha256: str | None = None     # the index was built with


@dataclass
class Neighbor:
    term_id: int
    score: float


def fit_pca(matrix, k):
    """PCA via SVD of the mean-centered data.

    Components are ordered by descending variance; the sign convention
    (largest-magnitude entry of each component positive) makes the
    transform deterministic.
    """
    X = np.asarray(matrix, dtype=float)
    n, d = X.shape
    if n < 2 or k < 1 or k > min(n - 1, d):
        raise DataError(f"pca: k={k} out of range for {n}x{d} data")
    mean = X.mean(axis=0)
    _u, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    components = vt[:k]
    variance = (s[:k] ** 2) / (n - 1)
    # sign convention
    flip = components[np.arange(k), np.argmax(np.abs(components), axis=1)] < 0
    components[flip] *= -1.0
    return PcaTransform(mean=mean, projection=components.T.copy(),
                        explained_variance=variance)


def apply_pca_raw(transform, vectors):
    """Project without normalization (supports single vectors and batches)."""
    V = np.asarray(vectors, dtype=float)
    return (V - transform.mean) @ transform.projection


def _unit_rows(M):
    M = np.asarray(M, dtype=float)
    norms = np.linalg.norm(M, axis=-1, keepdims=True)
    return np.where(norms >= NORM_EPS, M / np.maximum(norms, NORM_EPS), M)


def apply_pca(transform, vector):
    """Project a d-vector to k dims and unit-normalize (zero passes through)."""
    v = np.asarray(vector, dtype=float)
    if v.shape[-1] != transform.mean.shape[0]:
        raise DataError(
            f"pca: vector dim {v.shape[-1]} != transform dim {transform.mean.shape[0]}")
    return _unit_rows(apply_pca_raw(transform, v))


def _term_table(ids, cuis, groups):
    """The CUI and group arrays, checked to be row-aligned with ids."""
    table = [None if a is None else np.asarray(a, dtype=str) for a in (cuis, groups)]
    if any(a is not None and a.shape != ids.shape for a in table):
        raise DataError("index: cui or group count != id count")
    return table


def _rank(scores, ids, top_k):
    """The top_k rows by score descending, ties by ascending id.

    Only the rows scoring at or above the k-th score go through the lexsort.
    """
    if top_k < 1:
        raise ValueError(f"top_k={top_k} must be at least 1")
    neg = -scores
    if top_k < neg.size:
        kth = np.partition(neg, top_k - 1)[top_k - 1]
        # a NaN kth keeps every row, as the full lexsort would rank them
        keep = np.flatnonzero(~(neg > kth))
        neg, ids = neg[keep], ids[keep]
        scores = scores[keep]
    order = np.lexsort((ids, neg))[:top_k]
    return [Neighbor(term_id=int(ids[i]), score=float(scores[i])) for i in order]


def _kmeans_pp_init(rows, nlist, rng):
    n = rows.shape[0]
    centroids = np.empty((nlist, rows.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = rows[first]
    d2 = np.sum((rows - centroids[0]) ** 2, axis=1)
    for c in range(1, nlist):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, n - 1)
        centroids[c] = rows[idx]
        d2 = np.minimum(d2, np.sum((rows - centroids[c]) ** 2, axis=1))
    return centroids


def _assign(rows, centroids):
    d2 = (np.sum(rows ** 2, axis=1)[:, None]
          + np.sum(centroids ** 2, axis=1)[None, :]
          - 2.0 * rows @ centroids.T)
    return np.argmin(d2, axis=1)


def build_ivf(vectors, ids, nlist, seed=0, kmeans_iters=10, cuis=None,
              groups=None, nprobe=8):
    """Inverted-file index: k-means++ seeded centroids, Lloyd refinement,
    each row in the list of its nearest centroid; nprobe is capped at nlist."""
    rows = _unit_rows(vectors)
    ids = np.asarray(ids, dtype=np.int64)
    if rows.shape[0] != ids.shape[0]:
        raise DataError("ivf: row count != id count")
    cuis, groups = _term_table(ids, cuis, groups)
    n = rows.shape[0]
    if nlist < 1 or nlist > n:
        raise DataError(f"ivf: nlist={nlist} out of range for {n} rows")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(rows, nlist, rng)
    assign = _assign(rows, centroids)
    for _ in range(kmeans_iters):
        for c in range(nlist):
            members = rows[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        new_assign = _assign(rows, centroids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    order = np.argsort(assign, kind="stable")
    sizes = np.bincount(assign, minlength=nlist)
    return IvfIndex(centroids=centroids, vectors=rows[order], ids=ids[order],
                    offsets=np.concatenate(([0], np.cumsum(sizes))),
                    nprobe=min(nprobe, nlist),
                    cuis=None if cuis is None else cuis[order],
                    groups=None if groups is None else groups[order])


def search_ivf(index, query, top_k=10):
    """Top-k by inner product over the index.nprobe nearest centroids'
    lists, score descending, ties by ascending term_id. When nprobe is at
    least nlist the stored rows are ranked as they are, in one product, so a
    one-list index is an exact (flat) search."""
    nlist = index.centroids.shape[0]
    q = _unit_rows(np.asarray(query, dtype=float))
    if index.nprobe >= nlist:
        return _rank(index.vectors @ q, index.ids, top_k)
    cd = np.sum((index.centroids - q) ** 2, axis=1)
    probe = np.lexsort((np.arange(nlist), cd))[:index.nprobe]
    spans = [slice(index.offsets[c], index.offsets[c + 1]) for c in probe]
    V = np.concatenate([index.vectors[s] for s in spans])
    ids = np.concatenate([index.ids[s] for s in spans])
    return _rank(V @ q, ids, top_k)


def link_mentions(texts, params, transform, index, id_to_cui, top_k=10):
    """Encode, compress and search; the predicted CUI is the top neighbor's.

    The texts are featurized together; each one is then projected, scored
    and ranked on its own, so a mention gets the same result alone as in
    any batch. Returns, per text, (predicted_cui, neighbors) or the
    DataError it raised: the mention cannot be encoded or the index has no
    candidates.
    """
    results = [None] * len(texts)
    todo = []
    for i, text in enumerate(texts):
        try:
            prepare(text)
            todo.append(i)
        except DataError as e:
            results[i] = e
    embeddings = encode_batch(params, [texts[i] for i in todo])
    for i, emb in zip(todo, embeddings):
        try:
            q = apply_pca(transform, emb)
            neighbors = search_ivf(index, q, top_k=top_k)
            if not neighbors:
                raise DataError("no candidates: index is empty")
            results[i] = (id_to_cui[neighbors[0].term_id], neighbors)
        except DataError as e:
            results[i] = e
    return results


def save_pca(path, transform):
    return artifacts.save_artifact(
        path, "pca-transform", {"params_sha256": transform.params_sha256},
        {"mean": transform.mean, "projection": transform.projection,
         "explained_variance": transform.explained_variance})


def load_pca(path):
    meta, arrays, sha256 = artifacts.load_artifact(path, "pca-transform")
    return PcaTransform(mean=arrays["mean"], projection=arrays["projection"],
                        explained_variance=arrays["explained_variance"],
                        params_sha256=meta.get("params_sha256"), sha256=sha256)


def save_ivf(path, index):
    arrays = {name: a for name, a in (("cuis", index.cuis), ("groups", index.groups))
              if a is not None}
    artifacts.save_artifact(
        path, "ivf-index",
        {"nprobe": index.nprobe, "params_sha256": index.params_sha256,
         "pca_sha256": index.pca_sha256},
        {"centroids": index.centroids, "vectors": index.vectors, "ids": index.ids,
         "sizes": np.diff(index.offsets), **arrays})


def load_ivf(path):
    """The saved index, refused unless its arrays are row-aligned and its
    list sizes split the rows into one list per centroid."""
    meta, arrays, _sha256 = artifacts.load_artifact(path, "ivf-index")
    centroids, vectors, ids, sizes = (arrays[k] for k in
                                      ("centroids", "vectors", "ids", "sizes"))
    try:
        cuis, groups = _term_table(ids, arrays.get("cuis"), arrays.get("groups"))
    except DataError as e:
        raise ArtifactError(f"{path}: {e}") from e
    if centroids.ndim != 2 or vectors.ndim != 2 or ids.shape != vectors.shape[:1] or \
       sizes.dtype.kind != "i" or sizes.shape != centroids.shape[:1] or \
       np.any(sizes < 0) or sizes.sum() != len(ids):
        raise ArtifactError(f"{path}: vectors, ids, centroids and sizes do not match")
    if meta.size("nprobe") > len(centroids):
        raise ArtifactError(f"{path}: nprobe exceeds nlist {len(centroids)}")
    return IvfIndex(centroids=centroids, vectors=vectors, ids=ids,
                    offsets=np.concatenate(([0], np.cumsum(sizes))),
                    nprobe=meta.size("nprobe"), cuis=cuis, groups=groups,
                    params_sha256=meta.get("params_sha256"),
                    pca_sha256=meta.get("pca_sha256"))
