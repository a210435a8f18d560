"""PCA projection and nearest-neighbor linking over an inverted-file index
whose rows are unit-normalized once, at build, and stored with their term
id, CUI and group; the exact (flat) index is the one-list case, probed
exhaustively. Mentions are projected in zero-padded blocks of LINK_BLOCK
rows and searched in chunks of LINK_CHUNK rows: the flat search scores and
ranks each block on its own, the IVF search probes and ranks the chunk at
once, with a GEMM screen whose doubtful rows fall back to the exact
distance form, so a mention gets the same bits alone as in any chunk.
"""

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .encoder import NORM_EPS, encode_batch
from .errors import ArtifactError, DataError
from .features import prepare, utf8

KMEANS_ITERS = 10  # Lloyd passes after the k-means++ seeding
# rows per centroid that FAISS's k-means asks for; index-build logs fewer
KMEANS_MIN_LIST = 39
# fit_pca's cross product runs on columns zero-padded to a multiple of this
PCA_PAD = 64
# mentions per projection and scoring block; the last block is zero-padded,
# since a product's bits depend on its shape (a one-row product is a GEMV)
LINK_BLOCK = 8
# mentions per IVF search: the probe screen, the probed-row positions and the
# ranking each run once per chunk of LINK_BLOCK-row blocks
LINK_CHUNK = 16 * LINK_BLOCK


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
    cuis: np.ndarray       # n CUIs, in row order
    groups: np.ndarray     # n semantic groups, in row order
    offsets: np.ndarray    # nlist + 1; list c is vectors[offsets[c]:offsets[c + 1]]
    nprobe: int = 8        # lists searched per query: a search setting, not saved
    params_sha256: str | None = None  # digests of the params and PCA artifacts
    pca_sha256: str | None = None     # the index was built with


@dataclass(slots=True)
class Neighbor:
    term_id: int
    cui: str
    score: float


def fit_pca(matrix, k):
    """PCA from the eigendecomposition of the d x d sample covariance of the
    mean-centered data (Golub and Van Loan): the n x d factor a thin SVD
    would also compute is never formed.

    The cross product runs on the centered rows zero-padded to a multiple of
    PCA_PAD columns, so its bits do not depend on the BLAS thread count.
    Components are ordered by descending variance, clamped at 0 where
    rounding leaves a null direction slightly negative; the sign convention
    (largest-magnitude entry of each component positive) makes the
    transform deterministic.
    """
    X = np.asarray(matrix, dtype=float)
    n, d = X.shape
    if n < 2 or k < 1 or k > min(n - 1, d):
        raise DataError(f"pca: k={k} out of range for {n}x{d} data")
    mean = X.mean(axis=0)
    centered = np.zeros((n, -(-d // PCA_PAD) * PCA_PAD))
    np.subtract(X, mean, out=centered[:, :d])
    variance, vectors = np.linalg.eigh((centered.T @ centered)[:d, :d] / (n - 1))
    components = vectors[:, ::-1][:, :k].T
    # sign convention
    flip = components[np.arange(k), np.argmax(np.abs(components), axis=1)] < 0
    components[flip] *= -1.0
    return PcaTransform(mean=mean, projection=np.ascontiguousarray(components.T),
                        explained_variance=np.maximum(variance[::-1][:k], 0.0))


def apply_pca(transform, vectors):
    """Project d-vectors (one, or the rows of a block) to k PCA coordinates,
    computed as projection.T @ (V - mean).T with the rows as the right-hand
    operand: in a block of fixed size a row's coordinates then do not depend
    on the other rows. The result is not normalized: build_ivf and
    search_ivf unit-normalize the rows they store and the block they score."""
    V = np.asarray(vectors, dtype=float)
    return (transform.projection.T @ (V - transform.mean).T).T


def _unit_rows(M):
    # C order first: the norms' summation order follows the memory layout
    M = np.asarray(M, dtype=float, order="C")
    norms = np.linalg.norm(M, axis=-1, keepdims=True)
    return np.where(norms >= NORM_EPS, M / np.maximum(norms, NORM_EPS), M)


def _rank(scores, ids, cuis, top_k, rows=None, counts=None):
    """Per row of a queries x candidates score matrix, the top_k candidates
    by score descending, ties by ascending term id, as Neighbors carrying
    their index row's term id and CUI. Candidate j of row q is index row
    rows[q, j] (row j when rows is None). With counts, row q holds only its
    first counts[q] candidates and the rest is padding, never ranked
    whatever it scores. ids are read only at the kept candidates and cuis
    only at the ranked ones.

    One partition finds each row's k-th score; only the candidates scoring
    at or above it go through one lexsort keyed by (row, score, id).
    """
    if top_k < 1:
        raise ValueError(f"top_k={top_k} must be at least 1")
    neg = np.negative(scores, order="C")  # rows contiguous for the partition
    nq, m = neg.shape
    keep = np.ones((nq, m), dtype=bool)
    if counts is not None:
        keep = np.arange(m) < counts[:, None]
        # padding sorts after every score but NaN, so a row's k-th can only
        # rise: every candidate the row alone would keep is kept
        neg[~keep] = np.inf
    if top_k < m:
        kth = np.partition(neg, top_k - 1, axis=1)[:, top_k - 1:top_k]
        # a NaN kth keeps the whole row, as a full lexsort would rank it
        keep &= ~(neg > kth)
    keep = np.flatnonzero(keep)
    neg = neg.reshape(-1)
    q, at = np.divmod(keep, m)
    if rows is not None:
        at = rows.reshape(-1)[keep]
    order = np.lexsort((ids[at], neg[keep], q))
    q = q[order]
    # q is sorted: an entry's place in its row is its distance to the row start
    order = order[np.arange(len(q)) - np.searchsorted(q, q) < top_k]
    at = at[order]
    neighbors = list(map(Neighbor, ids[at].tolist(), cuis[at].tolist(),
                         (-neg[keep[order]]).tolist()))
    bounds = np.searchsorted(q[order], np.arange(nq + 1)).tolist()
    return [neighbors[a:b] for a, b in zip(bounds, bounds[1:])]


def _kmeans(rows, nlist, rng):
    """k-means++ seeds, then Lloyd passes until no row moves: the centroids
    and each row's list, every squared distance |x|^2 + |c|^2 - 2x.c. One
    list is the mean of every row, the bytes its one Lloyd pass gives."""
    n = rows.shape[0]
    if nlist == 1:
        return rows.mean(axis=0)[None], np.zeros(n, dtype=np.intp)
    sq = np.sum(rows ** 2, axis=1)
    twice = 2.0 * rows
    centroids = np.empty((nlist, rows.shape[1]))
    d2 = np.full(n, np.inf)
    idx = int(rng.integers(n))
    for c in range(nlist):
        centroids[c] = rows[idx]
        # clamped: rounding must not make a near-duplicate's weight negative
        np.minimum(d2, np.maximum(sq + sq[idx] - twice @ rows[idx], 0.0), out=d2)
        total = d2.sum()
        idx = (int(rng.integers(n)) if total <= 0 else
               min(int(np.searchsorted(np.cumsum(d2 / total), rng.random())), n - 1))

    def nearest():
        return np.argmin(sq[:, None] + np.sum(centroids ** 2, axis=1)
                         - twice @ centroids.T, axis=1)

    labels = nearest()
    for _ in range(KMEANS_ITERS):
        ends = np.cumsum(np.bincount(labels, minlength=nlist)).tolist()
        # stable: a list's rows keep their input order, as a mask keeps them
        members = rows[np.argsort(labels, kind="stable")]
        for c, (a, b) in enumerate(zip([0] + ends, ends)):
            if b > a:
                centroids[c] = members[a:b].mean(axis=0)
        new_labels = nearest()
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels


def build_ivf(vectors, ids, cuis, groups, nlist, seed):
    """Inverted-file index of the unit-normalized rows, each stored with its
    term id, CUI and group: k-means++ seeded centroids, Lloyd refinement,
    each row in the list of its nearest centroid."""
    rows = _unit_rows(vectors)
    ids = np.asarray(ids, dtype=np.int64)
    cuis, groups = (np.asarray(a, dtype=str) for a in (cuis, groups))
    if not rows.shape[:1] == ids.shape == cuis.shape == groups.shape:
        raise DataError("ivf: row, id, cui or group count differs")
    n = rows.shape[0]
    if nlist < 1 or nlist > n:
        raise DataError(f"ivf: nlist={nlist} out of range for {n} rows")
    centroids, assign = _kmeans(rows, nlist, np.random.default_rng(seed))
    order = np.argsort(assign, kind="stable")
    sizes = np.bincount(assign, minlength=nlist)
    return IvfIndex(centroids=centroids, vectors=rows[order], ids=ids[order],
                    cuis=cuis[order], groups=groups[order],
                    offsets=np.concatenate(([0], np.cumsum(sizes))))


def _nearest(centroids, Q, nprobe, lists=None):
    """Each row's nprobe nearest lists, nearest first, of every list or of
    its own candidate lists (a row of ``lists``, in ascending id order):
    distances summed as np.sum((c - q) ** 2), whose bits for a (row, list)
    pair do not depend on the other pairs, then a stable argsort, so of
    equal distances the lower list comes first. The rows go in pieces of at
    most LINK_BLOCK * nlist (row, list) pairs."""
    width = len(centroids) if lists is None else lists.shape[1]
    step = max(1, LINK_BLOCK * len(centroids) // width)
    probes = np.empty((len(Q), nprobe), dtype=np.intp)
    for a in range(0, len(Q), step):
        C = centroids if lists is None else centroids[lists[a:a + step]]
        # a loaded index's centroid may overflow (ranked last) or be NaN
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.sum((C - Q[a:a + step, None, :]) ** 2, axis=2)
        order = np.argsort(d, axis=1, kind="stable")[:, :nprobe]
        probes[a:a + step] = (order if lists is None else
                              np.take_along_axis(lists[a:a + step], order, axis=1))
    return probes


def _probe(centroids, Q, nprobe):
    """Each row's nprobe nearest lists, nearest first, ties to the lower
    list: _nearest over every list, computed over far fewer. A chunk of
    one block or less goes to _nearest directly: there the screen's fixed
    cost exceeds what it saves.

    A screen s = |c|^2 - 2 Q C^T, one GEMM for all rows, ranks the lists;
    it is |c - q|^2 - |q|^2 up to rounding, and |q|^2 is the same for every
    list of a row. Let f be the exact form's value, d = |c - q|^2 in real
    arithmetic, gamma_n = n u / (1 - n u) and u = eps / 2. With any
    summation order, FMA or not:
      |f - d|         <= gamma_(k+2) d <= gamma_(k+2) (|q| + |c|)^2
      |s + |q|^2 - d| <= gamma_(k+2) (|c|^2 + 2 |q| |c|)
    so both differ by at most E = 2 gamma_(k+2) (|q| + |c|)^2, which is
    below B = 2 (k + 3) eps (|q| + max |c|)^2 with the norms as computed
    (a factor of about 2 to spare), plus the smallest normal number for the
    absolute error of gradual underflow. If a row's (nprobe+1)-th screened
    distance exceeds its nprobe-th by more than 2B, every list inside the
    screened nprobe is strictly nearer than every list outside it by f too:
    the exact form then runs on those nprobe lists only, sorted by id, and
    gives the order it gives over all lists. Any other row, or one whose
    bound is not finite or leaves f room to overflow, takes the exact form
    over every list. The bound scales with the norms, so it holds for any
    centroids a loaded index carries. The screen's bits may depend on the
    other rows and on the BLAS thread count; the probes do not."""
    if len(Q) <= LINK_BLOCK:
        return _nearest(centroids, Q, nprobe)
    k = centroids.shape[1]
    # a screen that overflows only sends its rows to the exact form
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum(centroids ** 2, axis=1)
        screen = sq - 2.0 * (Q @ centroids.T)
        part = np.argpartition(screen, (nprobe - 1, nprobe), axis=1)
        edge = np.take_along_axis(screen, part[:, nprobe - 1:nprobe + 1], axis=1)
        scale = (np.linalg.norm(Q, axis=1) + np.sqrt(sq.max())) ** 2
        bound = 2 * (k + 3) * np.finfo(float).eps * scale + np.finfo(float).tiny
        # false for a NaN anywhere in the row's screen, norms or centroids
        exact = (edge[:, 1] - edge[:, 0] > 2 * bound) & (scale < np.finfo(float).max / 4)
    probes = np.empty((len(Q), nprobe), dtype=np.intp)
    probes[exact] = _nearest(centroids, Q[exact], nprobe,
                             np.sort(part[exact, :nprobe], axis=1))
    probes[~exact] = _nearest(centroids, Q[~exact], nprobe)
    return probes


def search_ivf(index, chunk, top_k, real):
    """Top-k neighbors of each of the first ``real`` rows of a chunk of
    LINK_BLOCK-row blocks of query rows, by inner product with the
    unit-normalized row over the index.nprobe nearest centroids' lists,
    score descending, ties by ascending term_id; each neighbor carries its
    stored row's term id and CUI. Returns the neighbor lists and the number
    of stored rows scored for them.

    When nprobe is at least nlist each block is scored against every stored
    row in one product, vectors @ Q.T, whose bits for a row do not depend on
    the others, and ranked on its own, so a one-list index is an exact
    (flat) search. Otherwise the whole chunk is probed at once (_probe),
    each query scores its probed rows, found by one repeat over the list
    offsets for the chunk, in a product of its own, and the chunk is ranked
    once, each row over its own candidate count: a query whose probed lists
    are all empty gets no neighbors."""
    Q = _unit_rows(chunk)
    if index.nprobe >= index.centroids.shape[0]:
        found = []
        for start in range(0, real, LINK_BLOCK):
            scores = index.vectors @ Q[start:start + LINK_BLOCK].T
            found += _rank(scores.T[:real - start], index.ids, index.cuis, top_k)
        return found, real * len(index.ids)
    Q = Q[:real]
    probes = _probe(index.centroids, Q, index.nprobe)
    # positions of each probed list's rows, in probe order, queries end to end
    starts = index.offsets[probes].ravel()
    sizes = index.offsets[probes + 1].ravel() - starts
    pos = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    counts = sizes.reshape(real, -1).sum(axis=1)
    rows = np.zeros((real, counts.max(initial=0)), dtype=np.int64)
    rows[np.arange(rows.shape[1]) < counts[:, None]] = pos
    scores = np.full(rows.shape, -np.inf)
    for q, r, s, c in zip(Q, rows, scores, counts.tolist()):
        s[:c] = np.take(index.vectors, r[:c], axis=0) @ q
    return _rank(scores, index.ids, index.cuis, top_k, rows, counts), len(pos)


def link_mentions(texts, params, transform, index, top_k):
    """Encode, project and search; the predicted CUI is the top neighbor's,
    read from its index row.

    The texts are featurized together, then projected in blocks of
    LINK_BLOCK rows, the last one zero-padded, so every block runs the same
    product, and searched in chunks of LINK_CHUNK rows, so a mention gets
    the same result alone as in any batch. Returns, per text,
    (predicted_cui, neighbors) or a DataError: the mention is blank or not
    encodable as UTF-8, or it has no candidates because the index or the
    lists probed for it are empty; and the number of stored rows scored.
    """
    results = [None] * len(texts)
    todo = []
    for i, text in enumerate(texts):
        try:
            utf8(prepare(text, params.lowercase))
            todo.append(i)
        except DataError as e:
            results[i] = e
    padded = np.zeros((-(-len(todo) // LINK_BLOCK) * LINK_BLOCK, params.dim))
    padded[:len(todo)] = encode_batch(params, [texts[i] for i in todo])
    scored = 0
    for start in range(0, len(todo), LINK_CHUNK):
        blocks = range(start, min(start + LINK_CHUNK, len(padded)), LINK_BLOCK)
        chunk = np.concatenate([apply_pca(transform, padded[b:b + LINK_BLOCK])
                                for b in blocks])
        found, n = search_ivf(index, chunk, top_k,
                              real=min(LINK_CHUNK, len(todo) - start))
        scored += n
        for i, neighbors in zip(todo[start:], found):
            results[i] = ((neighbors[0].cui, neighbors) if neighbors else DataError(
                "no candidates: " + ("index is empty" if not len(index.ids) else
                f"the lists probed are empty (index.nprobe={index.nprobe})")))
    return results, scored


def save_pca(path, transform):
    return artifacts.save_artifact(
        path, "pca-transform", {"params_sha256": transform.params_sha256},
        {"mean": transform.mean, "projection": transform.projection,
         "explained_variance": transform.explained_variance})


def load_pca(path, verify=False):
    """The saved transform, refused unless its mean, projection and
    explained variance agree in dimensions; with ``verify`` its payload
    digest is recomputed and checked (artifacts.load_artifact)."""
    meta, arrays, sha256 = artifacts.load_artifact(path, "pca-transform", verify)
    t = PcaTransform(**{k: arrays.typed(k, "float64") for k in
                        ("mean", "projection", "explained_variance")},
                     params_sha256=meta.get("params_sha256"), sha256=sha256)
    if t.mean.ndim != 1 or t.projection.ndim != 2 or \
       t.projection.shape[0] != t.mean.shape[0] or \
       t.explained_variance.shape != t.projection.shape[1:]:
        raise ArtifactError(f"{path}: mean, projection and explained variance "
                            "do not match")
    return t


def save_ivf(path, index):
    artifacts.save_artifact(
        path, "ivf-index",
        {"params_sha256": index.params_sha256, "pca_sha256": index.pca_sha256},
        {"centroids": index.centroids, "vectors": index.vectors, "ids": index.ids,
         "cuis": index.cuis, "groups": index.groups, "sizes": np.diff(index.offsets)})


def load_ivf(path, verify=False):
    """The saved index, refused unless its arrays are row-aligned and its
    list sizes split the rows into one list per centroid; with ``verify``
    its payload digest is recomputed and checked (artifacts.load_artifact).
    The caller sets the search's nprobe."""
    meta, arrays, _sha256 = artifacts.load_artifact(path, "ivf-index", verify)
    centroids, vectors = (arrays.typed(k, "float64") for k in ("centroids", "vectors"))
    ids, sizes = (arrays.typed(k, "signed integer") for k in ("ids", "sizes"))
    cuis, groups = (arrays.typed(k, "unicode") for k in ("cuis", "groups"))
    if centroids.ndim != 2 or vectors.ndim != 2 or ids.shape != vectors.shape[:1] or \
       cuis.shape != ids.shape or groups.shape != ids.shape or \
       sizes.shape != centroids.shape[:1] or np.any(sizes < 0) or \
       sizes.sum() != len(ids):
        raise ArtifactError(f"{path}: vectors, ids, cuis, groups, centroids and "
                            "sizes do not match")
    return IvfIndex(centroids=centroids, vectors=vectors, ids=ids, cuis=cuis,
                    groups=groups, offsets=np.concatenate(([0], np.cumsum(sizes))),
                    params_sha256=meta.get("params_sha256"),
                    pca_sha256=meta.get("pca_sha256"))
