import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belforge import artifacts
from belforge import index as ix
from belforge.errors import ArtifactError, DataError
from helpers import (encode, fresh_params, random_unit_rows, random_word,
                     reconstruct, search, term_table)
from oracles import kmeans, kmeans_expanded, rank, search_flat, search_ivf_per_query


def eig_pca_oracle(X, k):
    """Independent PCA reference via the eigendecomposition of the sample
    covariance matrix."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    C = np.cov(X - mean, rowvar=False)
    w, V = np.linalg.eigh(C)
    order = np.argsort(w)[::-1][:k]
    comps = V[:, order].T
    flip = comps[np.arange(k), np.argmax(np.abs(comps), axis=1)] < 0
    comps[flip] *= -1.0
    return mean, comps.T, w[order]


def brute_top_k(vectors, ids, query, top_k):
    scores = vectors @ query
    best = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:top_k]
    return [(int(ids[i]), float(scores[i])) for i in best]


def as_tuples(neighbors):
    return [(n.term_id, n.score) for n in neighbors]


class TestPca:
    def test_line_y_equals_x(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        t = ix.fit_pca(X, 1)
        assert np.allclose(t.projection[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(t.mean, [1.5, 1.5])

    def test_lossless_in_subspace(self):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.normal(size=(6, 3)))[0]  # 6-d data on 3-d plane
        X = rng.normal(size=(40, 3)) @ basis.T + rng.normal(size=6)
        t = ix.fit_pca(X, 3)
        back = reconstruct(t, ix.apply_pca(t, X))
        assert np.max(np.abs(back - X)) < 1e-9

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 8)) * rng.uniform(0.2, 3.0, size=8)
        k = 5
        t = ix.fit_pca(X, k)
        mean, proj, var = eig_pca_oracle(X, k)
        assert np.allclose(t.mean, mean)
        assert np.allclose(t.projection, proj, atol=1e-8)
        assert np.allclose(t.explained_variance, var)
        assert np.all(np.diff(t.explained_variance) <= 1e-12)

    def test_reconstruction_error_non_increasing_in_k(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 10))
        errors = []
        for k in range(1, 10):
            t = ix.fit_pca(X, k)
            back = reconstruct(t, ix.apply_pca(t, X))
            errors.append(np.sum((back - X) ** 2))
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_k_out_of_range(self):
        X = np.zeros((5, 3))
        with pytest.raises(DataError):
            ix.fit_pca(X, 5)
        with pytest.raises(DataError):
            ix.fit_pca(X, 0)

    def test_apply_pca_raw_linearity(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 5))
        t = ix.fit_pca(X, 3)
        a, b = rng.normal(size=5), rng.normal(size=5)
        lhs = ix.apply_pca(t, (a + b) / 2)
        rhs = (ix.apply_pca(t, a) + ix.apply_pca(t, b)) / 2
        assert np.allclose(lhs, rhs)

    def test_rank_deficient_variances_and_orthonormality(self):
        """Fewer rows than dimensions, some of them repeated: the null
        directions' variances, which rounding may leave below 0, are clamped
        at 0, and the projection stays orthonormal."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(8, 40))
            n = int(rng.integers(3, d))
            distinct = rng.normal(size=(max(2, n // 2), d))
            X = distinct[rng.integers(0, len(distinct), n)]
            t = ix.fit_pca(X, n - 1)
            assert np.all(t.explained_variance >= 0), (n, d)
            assert np.all(np.diff(t.explained_variance) <= 0), (n, d)
            P = t.projection
            assert P.flags.c_contiguous
            assert np.max(np.abs(P.T @ P - np.eye(n - 1))) < 1e-12, (n, d)

    def test_bytes_do_not_depend_on_blas_threads(self):
        """fit_pca in fresh interpreters whose BLAS thread count is set
        before numpy loads gives the same mean, projection and variance bytes
        under 1, 2 and 3 threads. The widths are the default encoder's,
        criterion 06's, one at which the unpadded cross product varied with
        the thread count, and 128: above it LAPACK's own eigh varied at some
        widths (150 and 256 measured)."""
        code = ("import hashlib\n"
                "from belforge import index as ix\n"
                "from helpers import term_embeddings\n"
                "for dim in (32, 96, 100, 128):\n"
                "    t = ix.fit_pca(term_embeddings(dim), dim)\n"
                "    print(dim, hashlib.sha256(t.mean.tobytes() + t.projection.tobytes()"
                " + t.explained_variance.tobytes()).hexdigest())\n")
        runs = {}
        for threads in (1, 2, 3):
            proc = subprocess.run([sys.executable, "-c", code], env=blas_env(threads),
                                  capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr[-3000:]
            runs[threads] = proc.stdout.splitlines()
        assert len(runs[1]) == 4
        assert runs[1] == runs[2] == runs[3]

    def test_dim_mismatch(self, tmp_path):
        """load_pca refuses a transform whose mean, projection and explained
        variance disagree in dimensions."""
        t = ix.fit_pca(np.random.default_rng(5).normal(size=(8, 4)), 2)
        bad = {"short_mean": replace(t, mean=t.mean[:3]),
               "mean_2d": replace(t, mean=t.mean[None, :]),
               "projection_1d": replace(t, projection=t.projection[:, 0]),
               "short_variance": replace(t, explained_variance=t.explained_variance[:1])}
        for name, transform in bad.items():
            ix.save_pca(tmp_path / name, transform)
            with pytest.raises(ArtifactError, match=f"{name}: mean, projection"):
                ix.load_pca(tmp_path / name)


class TestFlat:
    """The flat index: one list, which search_ivf ranks exhaustively."""

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(2, 8))
            V = random_unit_rows(rng, n, k)
            ids = rng.permutation(n).astype(np.int64) * 3
            flat = ix.build_ivf(V, ids, *term_table(ids), 1, seed=0)
            q = random_unit_rows(rng, 1, k)[0]
            top_k = int(rng.integers(1, n + 2))
            got = as_tuples(search(flat, q, top_k))
            want = brute_top_k(V, ids, q, top_k)
            # scores may differ in the last ulp (matrix product vs row dots)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert np.allclose([s for _, s in got], [s for _, s in want],
                               rtol=0, atol=1e-12)

    def test_tie_break_ascending_id(self):
        v = np.array([[1.0, 0.0]])
        V = np.vstack([v, v, v])
        flat = ix.build_ivf(V, [9, 2, 5], *term_table([9, 2, 5]), 1, seed=0)
        got = [n.term_id for n in search(flat, v[0], 3)]
        assert got == [2, 5, 9]

    def test_search_normalizes_the_query(self):
        """search_ivf unit-normalizes the query: a power-of-two multiple
        scores as the query itself, as the flat oracle scores it, and a zero
        query passes through and scores 0 everywhere."""
        rng = np.random.default_rng(3)
        ids = np.arange(12) * 2
        flat = ix.build_ivf(random_unit_rows(rng, 12, 4), ids, *term_table(ids), 1,
                            seed=0)
        q = rng.normal(size=4)
        want = as_tuples(search_flat(flat.vectors, flat.ids, flat.cuis, q, 5))
        for scale in (1.0, 8.0, 0.25):
            assert as_tuples(search(flat, scale * q, 5)) == want
        assert as_tuples(search(flat, np.zeros(4), 3)) == \
            [(0, 0.0), (2, 0.0), (4, 0.0)]

    def test_empty_index(self):
        with pytest.raises(DataError, match="out of range for 0 rows"):
            ix.build_ivf(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), [], [], 1,
                         seed=0)

    def test_mismatched_ids(self):
        with pytest.raises(DataError):
            ix.build_ivf(np.ones((2, 2)), [1], *term_table([1]), 1, seed=0)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 300), k=st.integers(1, 96), top_k=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_list_equals_flat_oracle_bitwise(self, n, k, top_k, seed):
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(n, k))
        V[: n // 4] = V[n // 4: 2 * (n // 4)]  # score ties
        ids = rng.permutation(n).astype(np.int64)
        cuis, groups = term_table(ids)
        q = rng.normal(size=k)
        got = search(ix.build_ivf(V, ids, cuis, groups, 1, seed=0), q, top_k)
        want = search_flat(ix._unit_rows(V), ids, np.array(cuis), q, top_k)
        assert same_neighbors(got, want)


def flat_world(rng, n, k, near=4):
    """A flat index of n rows of k columns: the first quarter repeats the
    second (score ties), and rows 1..near are row 0 with each entry moved a
    few ulps (scores a few ulps apart for any query). The rows are the
    index's own, so a test may corrupt them in place."""
    V = rng.normal(size=(n, k))
    V[: n // 4] = V[n // 4: 2 * (n // 4)]
    ids = rng.permutation(n).astype(np.int64)
    flat = ix.build_ivf(V, ids, *term_table(ids), 1, seed=0)
    for r in range(1, min(near, n - 1) + 1):
        flat.vectors[r] = flat.vectors[0] * (
            1 + rng.integers(-4, 5, size=k) * np.finfo(float).eps)
    return flat


def flat_chunk(rng, flat, real):
    """A chunk of LINK_BLOCK-row blocks for ``real`` queries: the first is
    stored row 0, so the near ties lead its ranking, then stored rows
    (ties) and random rows."""
    n, k = flat.vectors.shape
    chunk = rng.normal(size=(-(-real // ix.LINK_BLOCK) * ix.LINK_BLOCK, k))
    chunk[: real // 2] = flat.vectors[rng.integers(0, n, real // 2)]
    chunk[0] = flat.vectors[0]
    return chunk


# chunks of one row, of one block and of one row more (the float64 and the
# float32 screen), and a full chunk
CHUNK_SIZES = [1, ix.LINK_BLOCK, ix.LINK_BLOCK + 1, ix.LINK_CHUNK]
# a corrupt row of the index: an entry set to the value, or the row scaled
# to norm 1e30, whose square overflows float32, or 1e200, which overflows
# float64 too; or every row scaled by 1e-25 or 1e-170, whose squares
# underflow float32 or float64
CORRUPT = {"nan": ("entry", np.nan), "inf": ("entry", np.inf),
           "-inf": ("entry", -np.inf), "1e30": ("norm", 1e30),
           "1e200": ("norm", 1e200), "1e-25": ("scale", 1e-25),
           "1e-170": ("scale", 1e-170)}


class TestFlatScreen:
    """search_flat screens every stored row with one product and rescores
    by np.sum(v * q) only the rows that can reach the top-k: each query
    gets the neighbours and score bits of the brute-force scan, which
    scores every row by that form (oracles.search_flat)."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 60) | st.integers(500, 700),
           k=st.sampled_from([1, 2, 3, 8, 9, 17, 96]), real=st.sampled_from(CHUNK_SIZES),
           corrupt=st.one_of(st.none(), st.sampled_from(sorted(CORRUPT))),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_equals_the_brute_force_oracle(self, n, k, real, corrupt, seed, data):
        """Over ties and near ties at the k-th score, top_k at or above n, a
        zero and a NaN query, a corrupt stored row (a NaN or infinite
        entry, or a norm whose square overflows, which leaves every row a
        candidate) and rows too short for their squares, in chunks of every
        size."""
        rng = np.random.default_rng(seed)
        flat = flat_world(rng, n, k)
        chunk = flat_chunk(rng, flat, real)
        if real > 2:
            chunk[1] = 0.0
            chunk[2] = np.nan
        if corrupt is not None:
            how, value = CORRUPT[corrupt]
            row = data.draw(st.integers(0, n - 1))
            if how == "entry":
                flat.vectors[row, data.draw(st.integers(0, k - 1))] = value
            elif how == "norm":
                flat.vectors[row] *= value / np.linalg.norm(flat.vectors[row])
            else:
                flat.vectors *= value
        top_k = data.draw(st.sampled_from([1, 2, 3, 5, 10, 12, n, n + 3]))
        got, scored = ix.search_ivf(flat, chunk, top_k, real)
        want, want_scored = search_ivf_per_query(flat, chunk, top_k, real)
        assert len(got) == real and scored == want_scored == real * n
        assert all(same_neighbors(g, w) for g, w in zip(got, want))

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(n=st.one_of(st.integers(2, 60), st.integers(500, 700)),
           k=st.sampled_from([1, 2, 5, 8, 17, 96]),
           real=st.sampled_from([1, ix.LINK_BLOCK + 1]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_a_screen_within_the_bound_gives_the_exact_search(self, n, k, real, seed,
                                                               data):
        """The screen may differ from the exact form by up to B =
        2 (k + 3) eps max|v| + k tiny (search_flat). A screen whose rows are
        moved along the first query by 3/4 B, lowering the scores of the
        rows the scan ranks in that query's top-k and raising all others,
        still gives every query the scan's neighbours and score bits. At a
        near tie a rescoring margin of B instead of 2B would drop a top-k
        row. The rows may be scaled so short that their squared norms
        underflow, which must not shrink B."""
        rng = np.random.default_rng(seed)
        flat = flat_world(rng, n, k, near=8)
        chunk = flat_chunk(rng, flat, real)
        flat.vectors *= data.draw(st.sampled_from([1.0, 1e-25, 1e-170]))
        top_k = data.draw(st.integers(1, min(n, 9)))
        want, _ = search_ivf_per_query(flat, chunk, top_k, real)
        info = np.finfo(np.float32 if real > ix.LINK_BLOCK else np.float64)
        bound = (2 * (k + 3) * float(info.eps) * np.linalg.norm(flat.vectors, axis=1).max()
                 + k * float(info.tiny))
        down = np.isin(flat.ids, [nb.term_id for nb in want[0]])
        q = ix._unit_rows(chunk[:1])[0]
        moved = flat.vectors + np.where(down, -0.75, 0.75)[:, None] * bound * q
        got, _ = ix.search_ivf(flat, chunk, top_k, real, ix.flat_screen(moved, real))
        assert all(same_neighbors(g, w) for g, w in zip(got, want))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 300), k=st.sampled_from([1, 7, 96, 130]),
           real=st.sampled_from(CHUNK_SIZES), seed=st.integers(0, 2 ** 32 - 1))
    def test_a_pairs_score_has_the_same_bits_among_any_candidates(self, n, k, real, seed):
        """Each query of a chunk ranks every row (top_k = n), so its pairs
        are rescored among all the chunk's, split into pieces of
        RESCORE_PAIRS pairs at other places; searched alone, with another
        top_k, among far fewer. Every score it gets either way has the
        bits of np.sum(v * q) for its pair alone."""
        rng = np.random.default_rng(seed)
        flat = flat_world(rng, n, k)
        chunk = flat_chunk(rng, flat, real)
        Q = ix._unit_rows(chunk)
        got, _ = ix.search_ivf(flat, chunk, n, real)
        for i in rng.choice(real, size=min(real, 3), replace=False):
            alone = np.zeros((ix.LINK_BLOCK, k))
            alone[0] = chunk[i]
            [one], _ = ix.search_ivf(flat, alone, int(rng.integers(1, n + 1)), 1)
            want = {t: np.sum(v * Q[i]).hex() for t, v in zip(flat.ids.tolist(), flat.vectors)}
            assert len(got[i]) == n
            assert all(nb.score.hex() == want[nb.term_id] for nb in got[i] + one)

    def test_link_bytes_do_not_depend_on_blas_threads(self):
        """Flat link_mentions in fresh interpreters whose BLAS thread count
        is set before numpy loads gives the same neighbours and score bits
        under 1, 2 and 3 threads, and each of the last 20 mentions gets
        them alone (a float64 screen) as in its chunk (a float32 screen): a
        ranking read from either screen's bits would differ."""
        runs = {}
        for threads in (1, 2, 3):
            proc = subprocess.run([sys.executable, "-c", FLAT_LINK_CHILD],
                                  env=blas_env(threads), capture_output=True, text=True,
                                  timeout=600)
            assert proc.returncode == 0, proc.stderr[-3000:]
            runs[threads] = proc.stdout.splitlines()
        assert len(runs[1]) == 320
        assert runs[1] == runs[2] == runs[3]
        assert runs[1][280:300] == runs[1][300:]


# a child interpreter's flat link of 300 mentions, in chunks of the float32
# screen, and of its last 20 alone, under the float64 screen: one line per
# result, each score's bits in hex. The 1,504 terms are projected in blocks
# of LINK_BLOCK rows, as link projects mentions, so the stored rows do not
# depend on the thread count. The last 20 mentions are the first 20 terms,
# and each has 16 more rows about a point 5% of its length off it, spread
# by 3e-7 of that length: they score within a few float32 ulps of each
# other around its 10th score, which a float32 screen cannot order
FLAT_LINK_CHILD = """
import numpy as np
from belforge import index as ix
from belforge.encoder import encode_batch
from helpers import fresh_params, random_word, term_table
rng = np.random.default_rng(7)
params = fresh_params(0, buckets=1024, hidden=64, dim=96)
terms = [random_word(rng) for _ in range(1504)]
E = encode_batch(params, terms)
t = ix.fit_pca(E, 64)
P = np.concatenate([ix.apply_pca(t, E[b:b + ix.LINK_BLOCK])
                    for b in range(0, len(E), ix.LINK_BLOCK)])
size = np.linalg.norm(P[:20], axis=1)[:, None, None] / 8
centre = P[:20, None, :] + 0.05 * size * rng.normal(size=(20, 1, 64))
P = np.vstack([P, (centre + 3e-7 * size * rng.normal(size=(20, 16, 64))).reshape(-1, 64)])
ids = rng.permutation(len(P))
flat = ix.build_ivf(P, ids, *term_table(ids), 1, seed=0)
mentions = [random_word(rng) for _ in range(280)] + terms[:20]
batch, _ = ix.link_mentions(mentions, params, t, flat, 10)
alone = [ix.link_mentions([m], params, t, flat, 10)[0][0] for m in mentions[280:]]
for cui, neighbors in batch + alone:
    print(cui, *(f"{nb.term_id}:{nb.cui}:{nb.score.hex()}" for nb in neighbors))
"""


def lexsort_rank_oracle(scores, ids, top_k):
    """The ranking contract on every row: score descending, then term_id
    ascending (NaN scores last)."""
    order = np.lexsort((ids, -scores))[:top_k]
    return ids[order].tolist(), scores[order]


# few distinct values, so that ties straddle the k-th score; NaN, -0.0 and
# both infinities included
SCORE = st.one_of(st.sampled_from([1.0, 0.5, 0.0, -0.0, -0.5, np.nan, np.inf, -np.inf]),
                  st.floats(-1, 1))
SCORES = st.lists(SCORE, min_size=1, max_size=40)


def same_neighbors(got, want):
    """Equal term ids and CUIs, and scores equal bit for bit."""
    return [(nb.term_id, nb.cui) for nb in got] == \
        [(nb.term_id, nb.cui) for nb in want] and \
        np.array_equal(np.array([nb.score for nb in got]).view(np.int64),
                       np.array([nb.score for nb in want]).view(np.int64))


class TestRank:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(scores=SCORES, data=st.data())
    def test_matches_full_lexsort(self, scores, data):
        scores = np.array(scores)
        n = scores.size
        ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64) * 7
        top_k = data.draw(st.integers(1, n + 3))
        [got] = ix._rank(scores[None, :], ids, np.array(term_table(ids)[0]), top_k)
        want_ids, want_scores = lexsort_rank_oracle(scores, ids, top_k)
        assert [nb.term_id for nb in got] == want_ids
        assert [nb.cui for nb in got] == term_table(want_ids)[0]
        assert np.array_equal([nb.score for nb in got], want_scores, equal_nan=True)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(nq=st.integers(0, 9), m=st.integers(0, 30), data=st.data())
    def test_block_rows_equal_the_per_row_oracle(self, nq, m, data):
        """Every row of a block is ranked as the per-query oracle ranks its
        own candidates alone, over ties, NaN and infinities, with candidates
        that are index rows given by position per row or in order, and with
        or without per-row candidate counts, whatever the padding scores."""
        scores = np.array(data.draw(st.lists(SCORE, min_size=nq * m,
                                             max_size=nq * m))).reshape(nq, m)
        n = m + data.draw(st.integers(0, 5))
        ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64) * 3
        cuis = np.array([f"C{i % 4:07d}" for i in range(n)])
        rows = data.draw(st.one_of(st.none(), st.lists(
            st.permutations(range(n)), min_size=nq, max_size=nq).map(
            lambda ps: np.array([p[:m] for p in ps], dtype=np.int64).reshape(nq, m))))
        counts = data.draw(st.one_of(st.none(), st.lists(
            st.integers(0, m), min_size=nq, max_size=nq).map(np.array)))
        top_k = data.draw(st.integers(1, m + 3))
        got = ix._rank(scores, ids, cuis, top_k, rows, counts)
        assert len(got) == nq
        for q, row in enumerate(scores):
            at = np.arange(m) if rows is None else rows[q]
            c = m if counts is None else counts[q]
            assert same_neighbors(got[q], rank(row[:c], ids[at[:c]], cuis[at[:c]],
                                               top_k))

    def test_ties_at_kth_score_break_by_id(self):
        scores = np.array([[0.9, 0.5, 0.5, 0.7, 0.5, 0.5, 0.1]])
        ids = np.array([60, 50, 40, 30, 20, 10, 0])
        cuis = ids.astype(str)
        assert [nb.term_id for nb in ix._rank(scores, ids, cuis, 3)[0]] == [60, 30, 10]
        assert [nb.term_id for nb in ix._rank(scores, ids, cuis, 5)[0]] == \
            [60, 30, 10, 20, 40]

    def test_top_k_at_least_n_returns_all(self):
        scores = np.array([[0.2, 0.8, 0.2]])
        ids = np.array([5, 6, 4])
        for top_k in (3, 4, 100):
            assert [nb.term_id for nb in ix._rank(scores, ids, ids.astype(str),
                                                  top_k)[0]] == [6, 4, 5]

    def test_top_k_below_one_rejected(self):
        for top_k in (0, -1):
            with pytest.raises(ValueError):
                ix._rank(np.array([[0.1, 0.2]]), np.array([0, 1]),
                         np.array(["C1", "C2"]), top_k)


class TestIvf:
    def test_nprobe_equals_nlist_matches_flat(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(20, 80))
            V = random_unit_rows(rng, n, 5)
            # duplicate some rows to force score ties across lists
            V[: n // 4] = V[n // 4: 2 * (n // 4)]
            ids = np.arange(n, dtype=np.int64)
            flat = ix.build_ivf(V, ids, *term_table(ids), 1, seed=0)
            nlist = int(rng.integers(1, 9))
            ivf = ix.build_ivf(V, ids, *term_table(ids), nlist=nlist, seed=trial)
            q = random_unit_rows(rng, 1, 5)[0]
            assert as_tuples(search(replace(ivf, nprobe=nlist), q, top_k=10)) == \
                as_tuples(search(flat, q, top_k=10))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 150), k=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_probed_neighbors_carry_their_rows_cui(self, n, k, seed, data):
        """In the probe path every neighbor's cui and term_id name the same
        stored row, whichever lists were probed."""
        nlist = data.draw(st.integers(2, n))
        nprobe = data.draw(st.integers(1, nlist - 1))
        top_k = data.draw(st.integers(1, n + 2))
        rng = np.random.default_rng(seed)
        ids = rng.permutation(n).astype(np.int64) * 5
        # CUIs drawn independently of the ids, some shared by several terms
        cuis = [f"C{c:07d}" for c in rng.integers(0, max(n // 2, 1), n)]
        ivf = replace(ix.build_ivf(rng.normal(size=(n, k)), ids, cuis,
                                   ["DISO"] * n, nlist, seed=seed), nprobe=nprobe)
        assert ivf.nprobe == nprobe < len(ivf.centroids)
        cui_of = dict(zip(ids.tolist(), cuis))
        for q in rng.normal(size=(3, k)):
            got = search(ivf, q, top_k)
            assert len({nb.term_id for nb in got}) == len(got)
            assert all(nb.cui == cui_of[nb.term_id] for nb in got)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 120), k=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_every_nprobe_equals_the_per_query_oracle_bitwise(self, n, k, seed, data):
        """At every nprobe below nlist each real row of a chunk of one to
        three blocks (probed without and with the screen) gets the term ids,
        CUIs and score bytes of the per-query probe loop, over duplicated
        rows (score ties) and queries equal to stored rows."""
        nlist = data.draw(st.integers(2, n))
        top_k = data.draw(st.integers(1, n + 2))
        real = data.draw(st.integers(1, 3 * ix.LINK_BLOCK))
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(n, k))
        V[: n // 4] = V[n // 4: 2 * (n // 4)]
        ids = rng.permutation(n).astype(np.int64) * 3
        cuis = [f"C{c:07d}" for c in rng.integers(0, max(n // 2, 1), n)]
        ivf = ix.build_ivf(V, ids, cuis, ["DISO"] * n, nlist, seed=seed)
        block = rng.normal(size=(-(-real // ix.LINK_BLOCK) * ix.LINK_BLOCK, k))
        block[: real // 2] = V[rng.integers(0, n, real // 2)]
        for nprobe in range(1, nlist):
            probed = replace(ivf, nprobe=nprobe)
            got, scored = ix.search_ivf(probed, block, top_k, real)
            want, want_scored = search_ivf_per_query(probed, block, top_k, real)
            assert len(got) == len(want) == real and scored == want_scored
            assert all(same_neighbors(g, w) for g, w in zip(got, want))

    def test_probed_lists_may_be_empty(self):
        """A query that probes only empty lists gets no neighbors and its
        companions are ranked as alone; a block whose every query probes
        only empty lists has no candidate at all and is not ranked."""
        ids = np.array([10, 11, 12, 13])
        cuis, groups = (np.array(a) for a in term_table(ids))
        # list 0 (+x) is empty; lists 1 (+y) and 2 (-y) hold two rows each
        ivf = ix.IvfIndex(centroids=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                          vectors=ix._unit_rows([[1, 2], [-1, 2], [1, -2], [-1, -2]]),
                          ids=ids, cuis=cuis, groups=groups,
                          offsets=np.array([0, 0, 2, 4]), nprobe=1)
        block = np.zeros((ix.LINK_BLOCK, 2))
        block[:3] = [[1.0, 0.0], [0.1, 1.0], [0.2, -1.0]]
        for nprobe, top_k in [(1, 3), (1, 1), (2, 3)]:
            probed = replace(ivf, nprobe=nprobe)
            got = ix.search_ivf(probed, block, top_k, 3)
            assert got == search_ivf_per_query(probed, block, top_k, 3)
            assert [len(g) for g in got[0]] == \
                [0 if nprobe == 1 else min(top_k, 2)] + [min(top_k, 2)] * 2
        # x is as near list 1 as list 2: of the two the lower is probed
        assert [nb.term_id for nb in ix.search_ivf(replace(ivf, nprobe=2), block,
                                                   5, 1)[0][0]] == [10, 11]
        block[:] = [1.0, 0.1]
        for top_k in (1, 4):
            assert ix.search_ivf(ivf, block, top_k, ix.LINK_BLOCK) == \
                ([[]] * ix.LINK_BLOCK, 0)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 60), k=st.integers(1, 12),
           norm=st.sampled_from([1e-3, 1.0, 7.0, 1e3]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_near_ties_take_the_exact_form(self, n, k, norm, seed, data):
        """Centroids of any norm, one of them duplicated, and at each nprobe
        a query equidistant to its nprobe-th and (nprobe+1)-th lists: the
        centroid at rank nprobe + 1 is replaced by the mirror image of the
        one at rank nprobe in a hyperplane through the query. The screen
        cannot separate those lists, the row takes the exact form over every
        list, and each real row of the chunk gets the per-query oracle's
        neighbours and score bytes."""
        nlist = data.draw(st.integers(2, n))
        real = data.draw(st.integers(ix.LINK_BLOCK + 1, ix.LINK_CHUNK))
        top_k = data.draw(st.integers(1, n + 2))
        rng = np.random.default_rng(seed)
        ids = rng.permutation(n).astype(np.int64)
        ivf = ix.build_ivf(rng.normal(size=(n, k)), ids, *term_table(ids), nlist,
                           seed=seed)
        centroids = norm * ivf.centroids
        dup = rng.choice(nlist, 2, replace=False)
        centroids[dup[1]] = centroids[dup[0]]
        chunk = rng.normal(size=(-(-real // ix.LINK_BLOCK) * ix.LINK_BLOCK, k))
        chunk[: real // 2] = centroids[dup[0]] + 1e-3 * norm * chunk[: real // 2]
        pos = data.draw(st.integers(0, real - 1))
        q = ix._unit_rows(chunk[pos])
        order = np.argsort(np.sum((centroids - q) ** 2, axis=1), kind="stable")
        full = []
        spy = ix._nearest

        def nearest(centroids, Q, nprobe, lists=None):
            if lists is None:
                full.append(len(Q))
            return spy(centroids, Q, nprobe, lists)

        for nprobe in range(1, nlist):
            c = centroids[order[nprobe - 1]]
            v = c - (c @ q) * q
            mirrored = centroids.copy()
            if v @ v > 0:
                v /= np.linalg.norm(v)
                mirrored[order[nprobe]] = c - 2 * (c @ v) * v
            else:  # c lies on the query's line: its duplicate is the mirror
                mirrored[order[nprobe]] = c
            probed = replace(ivf, centroids=mirrored, nprobe=nprobe)
            full.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(ix, "_nearest", nearest)
                got, scored = ix.search_ivf(probed, chunk, top_k, real)
            want, want_scored = search_ivf_per_query(probed, chunk, top_k, real)
            assert sum(full) >= 1
            assert len(got) == real and scored == want_scored
            assert all(same_neighbors(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_non_finite_rows_take_the_exact_form(self, bad):
        """A centroid that is not finite, or whose square overflows, leaves
        every row to the exact form over all lists: the probes equal the
        oracle's."""
        rng = np.random.default_rng(5)
        ids = np.arange(40)
        ivf = ix.build_ivf(rng.normal(size=(40, 3)), ids, *term_table(ids), 6, seed=0)
        ivf.centroids[2, 1] = bad
        chunk = rng.normal(size=(2 * ix.LINK_BLOCK, 3))
        for nprobe in range(1, 6):
            probed = replace(ivf, nprobe=nprobe)
            got, scored = ix.search_ivf(probed, chunk, 5, 11)
            # the oracle's own centroid distances overflow at 1e300
            with np.errstate(over="ignore"):
                want, want_scored = search_ivf_per_query(probed, chunk, 5, 11)
            assert scored == want_scored
            assert all(same_neighbors(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("nlist", [2, 3, 5, 8])
    def test_each_nprobe_equals_brute_force_over_its_lists(self, nlist):
        """At every nprobe a query's neighbors are the brute-force top-k over
        the rows of the nprobe lists whose centroids are nearest the unit
        query, of equally near lists the lower first."""
        rng = np.random.default_rng(40 + nlist)
        n, k, top_k = 90, 4, 7
        ids = rng.permutation(n).astype(np.int64) * 3
        ivf = ix.build_ivf(rng.normal(size=(n, k)), ids, *term_table(ids), nlist,
                           seed=nlist)
        for q in rng.normal(size=(6, k)):
            unit = q / np.linalg.norm(q)
            d2 = [float(np.sum((c - unit) ** 2)) for c in ivf.centroids]
            nearest = sorted(range(nlist), key=lambda c: (d2[c], c))
            for p in range(1, nlist + 1):
                rows = np.concatenate([np.arange(ivf.offsets[c], ivf.offsets[c + 1])
                                       for c in nearest[:p]])
                want = brute_top_k(ivf.vectors[rows], ivf.ids[rows], unit, top_k)
                got = as_tuples(search(replace(ivf, nprobe=p), q, top_k))
                assert [i for i, _ in got] == [i for i, _ in want]
                assert np.allclose([s for _, s in got], [s for _, s in want],
                                   rtol=0, atol=1e-12)

    def test_nprobe_above_nlist_scans_every_list(self):
        rng = np.random.default_rng(9)
        V = random_unit_rows(rng, 10, 3)
        ivf = ix.build_ivf(V, np.arange(10), *term_table(range(10)), nlist=2, seed=0)
        out = search(replace(ivf, nprobe=99), V[0], top_k=3)
        assert len(out) == 3
        assert as_tuples(out) == \
            as_tuples(search(replace(ivf, nprobe=2), V[0], 3))

    def test_recall_on_clustered_data(self):
        rng = np.random.default_rng(10)
        n, k, n_clusters = 5000, 16, 50
        centers = random_unit_rows(rng, n_clusters, k)
        assign = rng.integers(0, n_clusters, n)
        V = centers[assign] + 0.05 * rng.normal(size=(n, k))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        ids = np.arange(n, dtype=np.int64)
        flat = ix.build_ivf(V, ids, *term_table(ids), 1, seed=0)
        ivf = ix.build_ivf(V, ids, *term_table(ids), nlist=64, seed=0)
        queries = centers[rng.integers(0, n_clusters, 200)] \
            + 0.05 * rng.normal(size=(200, k))
        hits = 0
        for q in queries:
            truth = search(flat, q, 1)[0].term_id
            approx = search(replace(ivf, nprobe=8), q, top_k=1)
            hits += bool(approx) and approx[0].term_id == truth
        assert hits / len(queries) >= 0.9

    def test_build_deterministic(self):
        rng = np.random.default_rng(11)
        V = random_unit_rows(rng, 100, 6)
        a = ix.build_ivf(V, np.arange(100), *term_table(range(100)), nlist=8, seed=3)
        b = ix.build_ivf(V, np.arange(100), *term_table(range(100)), nlist=8, seed=3)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.offsets, b.offsets)

    def test_nlist_out_of_range(self):
        with pytest.raises(DataError):
            ix.build_ivf(np.ones((3, 2)), [0, 1, 2], *term_table(range(3)), nlist=4,
                         seed=0)

    def test_kmeans_equals_oracle_bitwise(self):
        """On distinct rows the |x|^2 + |c|^2 - 2x.c seeding and the Lloyd
        means over rows sorted by list give the bytes of the per-seed row
        differences and masked means (oracles.kmeans). Normal rows, not
        hypothesis floats: near-duplicate rows may sample other seeds."""
        rng = np.random.default_rng(14)
        shapes = [(3270, 96, 64)]
        while len(shapes) < 300:
            n, k = int(rng.integers(2, 601)), int(rng.integers(1, 97))
            shapes.append((n, k, int(rng.integers(1, min(n, 64) + 1))))
        for seed, (n, k, nlist) in enumerate(shapes):
            V = rng.normal(size=(n, k))
            ids = rng.permutation(n).astype(np.int64)
            cuis, groups = (np.asarray(a) for a in term_table(ids))
            got = ix.build_ivf(V, ids, cuis, groups, nlist, seed=seed)
            rows = ix._unit_rows(V)
            centroids, assign = kmeans(rows, nlist, np.random.default_rng(seed))
            order = np.argsort(assign, kind="stable")
            offsets = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=nlist))))
            want = {"centroids": centroids, "vectors": rows[order], "ids": ids[order],
                    "cuis": cuis[order], "groups": groups[order], "offsets": offsets}
            for name, value in want.items():
                assert getattr(got, name).dtype == value.dtype, (name, n, k, nlist)
                assert getattr(got, name).tobytes() == value.tobytes(), (name, n, k, nlist)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 97), st.integers(0, 2**32 - 1),
           st.booleans(), st.booleans())
    def test_one_list_equals_the_kmeans_oracle_bitwise(self, n, k, seed, zero_row,
                                                        repeats):
        """The one-list index, built without k-means, has the centroid, row,
        id, CUI and group bytes of k-means++ seeding and Lloyd passes over
        one list (oracles.kmeans_expanded), with a zero row or repeated rows
        among the input."""
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(n, k))
        if repeats:
            V = V[rng.integers(0, n, n)]
        if zero_row:
            V[rng.integers(n)] = 0.0
        ids = rng.permutation(n).astype(np.int64)
        cuis, groups = (np.asarray(a) for a in term_table(ids))
        got = ix.build_ivf(V, ids, cuis, groups, 1, seed=seed)
        rows = ix._unit_rows(V)
        centroids, assign = kmeans_expanded(rows, 1, np.random.default_rng(seed))
        order = np.argsort(assign, kind="stable")
        want = {"centroids": centroids, "vectors": rows[order], "ids": ids[order],
                "cuis": cuis[order], "groups": groups[order],
                "offsets": np.array([0, n])}
        for name, value in want.items():
            assert getattr(got, name).dtype == value.dtype, (name, n, k)
            assert getattr(got, name).tobytes() == value.tobytes(), (name, n, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_fewer_distinct_rows_than_lists(self, seed):
        """15 rows, 9 of them distinct, in 14 lists: once every distinct row
        is a seed, the old row differences summed to exactly 0 and the
        expanded form sums to rounding noise, so the seeds may differ from
        oracles.kmeans. The index must still be valid and reproducible."""
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(9, 23))[rng.permutation(np.r_[np.arange(9),
                                                          rng.integers(0, 9, 6)])]
        ids = rng.permutation(15).astype(np.int64) * 3
        cuis, groups = term_table(ids)
        index = ix.build_ivf(V, ids, cuis, groups, 14, seed=seed)
        offsets = index.offsets
        assert len(offsets) == 15 and offsets[0] == 0 and offsets[-1] == 15
        assert np.all(np.diff(offsets) >= 0)
        # each input row's stored position, through its (distinct) term id
        at = dict(zip(index.ids.tolist(), range(15)))
        assert sorted(at) == sorted(ids.tolist())
        pos = np.array([at[i] for i in ids.tolist()])
        rows = ix._unit_rows(V)
        assert index.vectors[pos].tobytes() == rows.tobytes()
        assert index.cuis[pos].tolist() == cuis and index.groups[pos].tolist() == groups
        c = index.centroids
        nearest = np.argmin(np.sum(rows ** 2, axis=1)[:, None] + np.sum(c ** 2, axis=1)
                            - 2.0 * rows @ c.T, axis=1)
        assert np.array_equal(np.searchsorted(offsets, pos, side="right") - 1, nearest)
        again = ix.build_ivf(V, ids, cuis, groups, 14, seed=seed)
        for name in ("centroids", "vectors", "ids", "cuis", "groups", "offsets"):
            assert getattr(again, name).tobytes() == getattr(index, name).tobytes()


def random_transform(rng, d, k):
    """A PCA transform of d-vectors to k orthonormal coordinates."""
    return ix.PcaTransform(mean=rng.normal(size=d),
                           projection=np.linalg.qr(rng.normal(size=(d, k)))[0],
                           explained_variance=np.ones(k))


def block_search(index, transform, block, top_k, real):
    """Project a block of embeddings and search its first ``real`` rows."""
    return ix.search_ivf(index, ix.apply_pca(transform, block), top_k, real)[0]


class TestBlockInvariance:
    """A mention gets the same neighbors, ids and score bits, linked alone
    as at any position of a block among any companions."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.one_of(st.sampled_from([3270, 777]),
                       st.integers(1, 400).filter(lambda n: n % 16)),
           d=st.sampled_from([96, 32, 7]), lists=st.sampled_from([1, 4, 13]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_mention_alone_equals_in_any_block(self, n, d, lists, seed, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, d))
        transform = random_transform(rng, d, k)
        V = rng.normal(size=(n, k))
        V[: n // 4] = V[n // 4: 2 * (n // 4)]  # score ties
        ids = rng.permutation(n).astype(np.int64)
        nlist = min(lists, n)
        index = replace(ix.build_ivf(V, ids, *term_table(ids), nlist, seed=seed),
                        nprobe=max(nlist // 2, 1))
        top_k = data.draw(st.one_of(st.integers(1, 12), st.just(n + 2)))
        mention = rng.normal(size=d)
        alone = np.zeros((ix.LINK_BLOCK, d))
        alone[0] = mention
        [want] = block_search(index, transform, alone, top_k, 1)
        real = data.draw(st.integers(1, ix.LINK_BLOCK))
        pos = data.draw(st.integers(0, real - 1))
        block = rng.normal(size=(ix.LINK_BLOCK, d))
        block[pos] = mention
        got = block_search(index, transform, block, top_k, real)
        assert len(got) == real
        if nlist == 1:
            assert len(want) == min(top_k, n)
        assert same_neighbors(got[pos], want)

    def test_forms_hold_in_blocks_of_twice_the_size(self):
        """The projection and scoring forms keep a row's bits in 16-row
        blocks too. Scoring as Q @ vectors.T would not: there a row in the
        last positions changes bits with its companions at some widths."""
        rng = np.random.default_rng(16)
        size = 2 * ix.LINK_BLOCK
        for _ in range(80):
            n = int(rng.choice([3270, 777, rng.integers(1, 1000)]))
            d = int(rng.choice([96, rng.integers(1, 97)]))
            k = int(rng.integers(1, d + 1))
            transform = random_transform(rng, d, k)
            ids = np.arange(n)
            index = ix.build_ivf(rng.normal(size=(n, k)), ids, *term_table(ids), 1,
                                 seed=0)
            mention = rng.normal(size=d)
            alone = np.zeros((size, d))
            alone[0] = mention
            block = rng.normal(size=(size, d))
            pos = int(rng.integers(size))
            block[pos] = mention
            # every stored row ranked: the edge rows are the ones that vary
            [want] = block_search(index, transform, alone, n, 1)
            got = block_search(index, transform, block, n, size)[pos]
            assert same_neighbors(got, want), (n, d, k, pos)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_under_blas_threads(self, threads):
        """The test above in a fresh interpreter whose BLAS thread count is
        set before numpy loads."""
        run_under_blas_threads(
            "TestBlockInvariance::test_mention_alone_equals_in_any_block", threads)


class TestChunkInvariance:
    """A mention gets the same probes, neighbors and score bits linked alone
    as at any position of a full chunk: the probe screen's bits, and at
    nprobe = nlist the flat screen's (float64 alone, float32 in a chunk),
    may change with the chunk and the BLAS thread count, the results may
    not. A zero query among the companions leaves every row a candidate of
    the flat search."""

    def test_mention_alone_equals_at_every_chunk_position(self):
        rng = np.random.default_rng(21)
        n, d, k, nlist = 1000, 96, 64, 16
        transform = random_transform(rng, d, k)
        ids = rng.permutation(n).astype(np.int64)
        ivf = ix.build_ivf(rng.normal(size=(n, k)), ids, *term_table(ids), nlist,
                           seed=0)
        mention = rng.normal(size=d)
        alone = np.zeros((ix.LINK_BLOCK, d))
        alone[0] = mention
        for nprobe in (1, nlist // 2, nlist - 1, nlist):
            index = replace(ivf, nprobe=nprobe)
            [want] = block_search(index, transform, alone, 10, 1)
            for pos in range(ix.LINK_CHUNK):
                rows = rng.normal(size=(ix.LINK_CHUNK, d))
                rows[(pos + 1) % ix.LINK_CHUNK] = transform.mean  # a zero query
                rows[pos] = mention
                chunk = np.concatenate([ix.apply_pca(transform, rows[b:b + ix.LINK_BLOCK])
                                        for b in range(0, ix.LINK_CHUNK, ix.LINK_BLOCK)])
                got, _ = ix.search_ivf(index, chunk, 10, ix.LINK_CHUNK)
                assert same_neighbors(got[pos], want), (nprobe, pos)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_under_blas_threads(self, threads):
        """The test above in a fresh interpreter whose BLAS thread count is
        set before numpy loads."""
        run_under_blas_threads(
            "TestChunkInvariance::test_mention_alone_equals_at_every_chunk_position",
            threads)


def blas_env(threads):
    """The environment of a fresh interpreter that imports the package and
    the test helpers with the BLAS thread count set before numpy loads."""
    src = os.path.dirname(os.path.dirname(ix.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_under_blas_threads(test, threads):
    """Run one test of this file in a fresh interpreter whose BLAS thread
    count is set before numpy loads."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::{test}"],
        cwd=root, env=blas_env(threads), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert "1 passed" in proc.stdout


class TestSerialization:
    def test_pca_roundtrip(self, tmp_path):
        t = ix.fit_pca(np.random.default_rng(12).normal(size=(10, 5)), 3)
        t.params_sha256 = "ab" * 32
        digest = ix.save_pca(tmp_path / "p.pca", t)
        back = ix.load_pca(tmp_path / "p.pca")
        assert np.array_equal(back.mean, t.mean)
        assert np.array_equal(back.projection, t.projection)
        assert back.params_sha256 == t.params_sha256
        assert back.sha256 == digest

    @staticmethod
    def term_table(n):
        """Per-term CUIs and groups, with a CUI shared by two terms and
        non-ASCII text."""
        cuis = [f"C{i // 2:07d}" for i in range(n)]
        groups = ["DISO", "CHEM", "PROC", "ANAT\u00e9"] * (n // 4) + ["X"] * (n % 4)
        return cuis, groups

    def test_flat_roundtrip_search_equal(self, tmp_path):
        rng = np.random.default_rng(13)
        cuis, groups = self.term_table(25)
        ids = rng.permutation(100)[:25]
        flat = ix.build_ivf(random_unit_rows(rng, 25, 4), ids, cuis, groups, 1, seed=0)
        flat.params_sha256, flat.pca_sha256 = "ab" * 32, "cd" * 32
        ix.save_ivf(tmp_path / "f.idx", flat)
        back = ix.load_ivf(tmp_path / "f.idx")
        q = random_unit_rows(rng, 1, 4)[0]
        assert as_tuples(search(back, q, 7)) == \
            as_tuples(search(flat, q, 7))
        assert back.cuis.tolist() == cuis and back.groups.tolist() == groups
        assert back.ids.tolist() == ids.tolist()
        assert (back.params_sha256, back.pca_sha256) == ("ab" * 32, "cd" * 32)

    def test_ivf_roundtrip_search_equal(self, tmp_path):
        rng = np.random.default_rng(14)
        cuis, groups = self.term_table(40)
        ids = rng.permutation(100)[:40]
        ivf = ix.build_ivf(random_unit_rows(rng, 40, 5), ids, cuis, groups, nlist=6,
                           seed=0)
        ivf.params_sha256, ivf.pca_sha256 = "ab" * 32, "cd" * 32
        ix.save_ivf(tmp_path / "i.idx", ivf)
        back = ix.load_ivf(tmp_path / "i.idx")
        q = random_unit_rows(rng, 1, 5)[0]
        for nprobe in (1, 3, 6):
            assert as_tuples(search(replace(back, nprobe=nprobe), q, 8)) == \
                as_tuples(search(replace(ivf, nprobe=nprobe), q, 8))
        # the term table follows the rows through the list grouping
        row_of = {int(i): n for n, i in enumerate(ids)}
        assert back.cuis.tolist() == [cuis[row_of[i]] for i in back.ids.tolist()]
        assert back.groups.tolist() == [groups[row_of[i]] for i in back.ids.tolist()]
        assert (back.params_sha256, back.pca_sha256) == ("ab" * 32, "cd" * 32)

    def test_saved_index_records_no_nprobe(self, tmp_path):
        rng = np.random.default_rng(15)
        ivf = ix.build_ivf(random_unit_rows(rng, 12, 3), np.arange(12),
                           *term_table(range(12)), nlist=3, seed=0)
        ix.save_ivf(tmp_path / "i.idx", replace(ivf, nprobe=2))
        meta, _arrays, _sha256 = artifacts.load_artifact(tmp_path / "i.idx",
                                                        "ivf-index")
        assert "nprobe" not in meta

    @pytest.mark.parametrize("stored", [1, 4, 0, "x"])
    def test_stored_nprobe_of_older_files_is_ignored(self, tmp_path, stored):
        """A file whose meta records an nprobe loads; the search probes the
        lists its caller sets, whatever the file says."""
        rng = np.random.default_rng(16)
        ivf = ix.build_ivf(random_unit_rows(rng, 30, 4), np.arange(30),
                           *term_table(range(30)), nlist=3, seed=0)
        ivf.params_sha256, ivf.pca_sha256 = "ab" * 32, "cd" * 32
        ix.save_ivf(tmp_path / "i.idx", ivf)
        meta, arrays, _sha256 = artifacts.load_artifact(tmp_path / "i.idx",
                                                       "ivf-index")
        artifacts.save_artifact(tmp_path / "i.idx", "ivf-index",
                                {**meta, "nprobe": stored}, arrays)
        back = ix.load_ivf(tmp_path / "i.idx", verify=True)
        q = random_unit_rows(rng, 1, 4)[0]
        for nprobe in (1, 2, 3):
            assert as_tuples(search(replace(back, nprobe=nprobe), q, 30)) == \
                as_tuples(search(replace(ivf, nprobe=nprobe), q, 30))

    @pytest.mark.parametrize("missing", ["cuis", "groups"])
    def test_index_without_term_table_is_refused(self, tmp_path, missing):
        rng = np.random.default_rng(15)
        ix.save_ivf(tmp_path / "f.idx", ix.build_ivf(
            random_unit_rows(rng, 5, 3), np.arange(5), *term_table(range(5)), 1,
            seed=0))
        meta, arrays, _sha256 = artifacts.load_artifact(tmp_path / "f.idx", "ivf-index")
        del arrays[missing]
        artifacts.save_artifact(tmp_path / "f.idx", "ivf-index", meta, arrays)
        with pytest.raises(ArtifactError, match=f"has no array '{missing}'"):
            ix.load_ivf(tmp_path / "f.idx")

    def test_misaligned_term_table_is_data_error(self):
        with pytest.raises(DataError, match="cui or group count"):
            ix.build_ivf(np.ones((3, 2)), [0, 1, 2], ["C1", "C2"], ["A"] * 3, 1, seed=0)
        with pytest.raises(DataError, match="cui or group count"):
            ix.build_ivf(np.ones((3, 2)), [0, 1, 2], ["C1"] * 3, ["A"], 1, seed=0)


class TestLinkMention:
    def build(self, texts_cuis, pca_k=4):
        params = fresh_params(0, buckets=256, hidden=12, dim=8)
        E = np.vstack([encode(params, t) for t, _ in texts_cuis])
        transform = ix.fit_pca(E, pca_k)
        ids = np.arange(len(texts_cuis))
        cuis = [c for _, c in texts_cuis]
        return params, transform, ix.build_ivf(ix.apply_pca(transform, E), ids,
                                               cuis, ["DISO"] * len(ids), 1, seed=0)

    def test_exact_term_links_to_itself(self):
        terms = [("hartinfarct", "C0000001"), ("griep", "C0000002"),
                 ("suikerziekte", "C0000003"), ("longontsteking", "C0000004"),
                 ("hoofdpijn", "C0000005"), ("koorts", "C0000006")]
        params, t, flat = self.build(terms)
        [(cui, neighbors)], _ = ix.link_mentions(["griep"], params, t, flat, top_k=3)
        assert cui == "C0000002"
        assert neighbors[0].term_id == 1
        assert len(neighbors) == 3

    def test_one_normalization_per_row_and_query(self):
        """The stored rows are the projected term embeddings unit-normalized
        once, and a mention scores, bit for bit, as its projected embedding
        unit-normalized once against them."""
        terms = [("hartinfarct", "C0000001"), ("griep", "C0000002"),
                 ("suikerziekte", "C0000003"), ("longontsteking", "C0000004"),
                 ("hoofdpijn", "C0000005"), ("koorts", "C0000006")]
        params, t, flat = self.build(terms)
        E = np.vstack([encode(params, text) for text, _ in terms])
        assert np.array_equal(flat.vectors, ix._unit_rows(ix.apply_pca(t, E)))
        mentions = ["griep", "hoofd pijn", "longontsteking x", "koortsig"]
        for mention, (cui, got) in zip(mentions, ix.link_mentions(
                mentions, params, t, flat, top_k=4)[0]):
            block = np.zeros((ix.LINK_BLOCK, params.dim))
            block[0] = encode(params, mention)
            q = ix.apply_pca(t, block)[0]
            assert same_neighbors(got, search_flat(flat.vectors, flat.ids,
                                                   flat.cuis, q, 4))
            assert cui == got[0].cui

    @pytest.mark.parametrize("nlist", [1, 2])
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 17])
    def test_each_mention_links_as_alone(self, count, nlist):
        """Any number of mentions, blank ones among them, fills blocks of
        LINK_BLOCK rows; each mention gets the result it gets alone."""
        terms = [(random_word(np.random.default_rng(i)), f"C{i:07d}") for i in range(10)]
        params, t, flat = self.build(terms)
        index = replace(ix.build_ivf(flat.vectors, flat.ids, flat.cuis,
                                     flat.groups, nlist, seed=0), nprobe=1)
        rng = np.random.default_rng(count)
        mentions = [random_word(rng) for _ in range(count)]
        mentions[2::5] = [" "] * len(mentions[2::5])
        results, _ = ix.link_mentions(mentions, params, t, index, top_k=4)
        assert len(results) == count
        for mention, result in zip(mentions, results):
            [alone], _ = ix.link_mentions([mention], params, t, index, top_k=4)
            if isinstance(alone, DataError):
                assert mention == " " and type(result) is type(alone)
            else:
                assert result[0] == alone[0] == result[1][0].cui
                assert same_neighbors(result[1], alone[1])

    def test_unencodable_text_is_its_own_error(self):
        """A lone surrogate has no UTF-8 encoding: that mention gets its own
        DataError and the others in its batch still link."""
        params, t, flat = self.build([("griep", "C0000001"), ("koorts", "C0000002"),
                                      ("hoofdpijn", "C0000003")], pca_k=2)
        (good, bad), _ = ix.link_mentions(["griep", "\ud800"], params, t, flat, top_k=2)
        [alone], _ = ix.link_mentions(["griep"], params, t, flat, top_k=2)
        assert good[0] == alone[0] == "C0000001"
        assert same_neighbors(good[1], alone[1])
        assert isinstance(bad, DataError) and "UTF-8" in str(bad)

    def test_all_encode_errors(self):
        params, t, flat = self.build([("griep", "C0000001"), ("koorts", "C0000002"),
                                      ("hoofdpijn", "C0000003")], pca_k=2)
        results, _ = ix.link_mentions(["", "   ", "\t"], params, t, flat, top_k=10)
        assert len(results) == 3
        assert all(isinstance(r, DataError) and "empty text" in str(r) for r in results)

    def test_empty_index_raises(self):
        params = fresh_params(0, buckets=64, hidden=4, dim=4)
        t = ix.fit_pca(np.random.default_rng(0).normal(size=(6, 4)), 2)
        # two lists, both empty: the probed one yields no candidates
        index = ix.IvfIndex(centroids=np.eye(2), vectors=np.zeros((0, 2)),
                            ids=np.zeros(0, dtype=np.int64),
                            cuis=np.zeros(0, dtype=str), groups=np.zeros(0, dtype=str),
                            offsets=np.zeros(3, dtype=np.int64), nprobe=1)
        [result], _ = ix.link_mentions(["x"], params, t, index, top_k=10)
        assert isinstance(result, DataError)
        assert str(result) == "no candidates: index is empty"

    def test_mention_probing_empty_lists_is_its_own_error(self):
        """An index whose rows all sit in list 1, its list 0 empty and
        centred on one mention's query: that mention probes only list 0 and
        gets a DataError naming the probed lists, while companions nearer
        list 1 link as alone; a block of such mentions only has no
        candidate at all."""
        words = [random_word(np.random.default_rng(i)) for i in range(40)]
        params, t, flat = self.build([(w, f"C{i:07d}")
                                      for i, w in enumerate(words[:10])])
        block = np.zeros((ix.LINK_BLOCK, params.dim))
        queries = []
        for w in words:
            block[0] = encode(params, w)
            queries.append(ix._unit_rows(ix.apply_pca(t, block))[0])
        lonely = words[10]
        side = np.array(queries) @ queries[10]
        near = [w for w, d in zip(words, side) if d < -0.1]
        far = [w for w, d in zip(words, side) if d > 0.1]
        assert len(near) >= 9 and len(far) >= 9
        index = replace(flat, centroids=np.array([queries[10], -queries[10]]),
                        offsets=np.array([0, 0, len(flat.ids)]), nprobe=1)
        results, _ = ix.link_mentions([lonely] + near, params, t, index, top_k=3)
        assert isinstance(results[0], DataError)
        assert str(results[0]) == \
            "no candidates: the lists probed are empty (index.nprobe=1)"
        for mention, result in zip(near, results[1:]):
            [alone], _ = ix.link_mentions([mention], params, t, index, top_k=3)
            assert result[0] == alone[0] and same_neighbors(result[1], alone[1])
            assert len(result[1]) == 3
        results, _ = ix.link_mentions(far[:9], params, t, index, top_k=3)
        assert all(isinstance(r, DataError) and "lists probed" in str(r)
                   for r in results)
