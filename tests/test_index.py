from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belforge import encoder as enc
from belforge import index as ix
from belforge.errors import ArtifactError, DataError
from helpers import encode, random_unit_rows, reconstruct
from oracles import search_flat


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
        back = reconstruct(t, ix.apply_pca_raw(t, X))
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
            back = reconstruct(t, ix.apply_pca_raw(t, X))
            errors.append(np.sum((back - X) ** 2))
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_k_out_of_range(self):
        X = np.zeros((5, 3))
        with pytest.raises(DataError):
            ix.fit_pca(X, 5)
        with pytest.raises(DataError):
            ix.fit_pca(X, 0)

    def test_apply_pca_normalizes(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 6))
        t = ix.fit_pca(X, 4)
        out = ix.apply_pca(t, X[0])
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        # the mean itself projects to zero and passes through unnormalized
        assert np.allclose(ix.apply_pca(t, t.mean), 0.0)

    def test_apply_pca_raw_linearity(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 5))
        t = ix.fit_pca(X, 3)
        a, b = rng.normal(size=5), rng.normal(size=5)
        lhs = ix.apply_pca_raw(t, (a + b) / 2)
        rhs = (ix.apply_pca_raw(t, a) + ix.apply_pca_raw(t, b)) / 2
        assert np.allclose(lhs, rhs)

    def test_dim_mismatch(self):
        t = ix.fit_pca(np.random.default_rng(5).normal(size=(8, 4)), 2)
        with pytest.raises(DataError):
            ix.apply_pca(t, np.zeros(7))


class TestFlat:
    """The flat index: one list, which search_ivf ranks exhaustively."""

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(2, 8))
            V = random_unit_rows(rng, n, k)
            ids = rng.permutation(n).astype(np.int64) * 3
            flat = ix.build_ivf(V, ids, 1)
            q = random_unit_rows(rng, 1, k)[0]
            top_k = int(rng.integers(1, n + 2))
            got = as_tuples(ix.search_ivf(flat, q, top_k))
            want = brute_top_k(V, ids, q, top_k)
            # scores may differ in the last ulp (matrix product vs row dots)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert np.allclose([s for _, s in got], [s for _, s in want],
                               rtol=0, atol=1e-12)

    def test_tie_break_ascending_id(self):
        v = np.array([[1.0, 0.0]])
        V = np.vstack([v, v, v])
        flat = ix.build_ivf(V, [9, 2, 5], 1)
        got = [n.term_id for n in ix.search_ivf(flat, v[0], 3)]
        assert got == [2, 5, 9]

    def test_empty_index(self):
        with pytest.raises(DataError, match="out of range for 0 rows"):
            ix.build_ivf(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 1)

    def test_mismatched_ids(self):
        with pytest.raises(DataError):
            ix.build_ivf(np.ones((2, 2)), [1], 1)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 300), k=st.integers(1, 96), top_k=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_list_equals_flat_oracle_bitwise(self, n, k, top_k, seed):
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(n, k))
        V[: n // 4] = V[n // 4: 2 * (n // 4)]  # score ties
        ids = rng.permutation(n).astype(np.int64)
        q = rng.normal(size=k)
        got = ix.search_ivf(ix.build_ivf(V, ids, 1), q, top_k)
        want = search_flat(ix._unit_rows(V), ids, q, top_k)
        assert [nb.term_id for nb in got] == [nb.term_id for nb in want]
        assert np.array_equal(np.array([nb.score for nb in got]).view(np.int64),
                              np.array([nb.score for nb in want]).view(np.int64))


def lexsort_rank_oracle(scores, ids, top_k):
    """The ranking contract on every row: score descending, then term_id
    ascending (NaN scores last)."""
    order = np.lexsort((ids, -scores))[:top_k]
    return ids[order].tolist(), scores[order]


# few distinct values, so that ties straddle the k-th score; NaN and -0.0
# included
SCORES = st.lists(st.one_of(st.sampled_from([1.0, 0.5, 0.0, -0.0, -0.5, np.nan]),
                            st.floats(-1, 1)), min_size=1, max_size=40)


class TestRank:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(scores=SCORES, data=st.data())
    def test_matches_full_lexsort(self, scores, data):
        scores = np.array(scores)
        n = scores.size
        ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64) * 7
        top_k = data.draw(st.integers(1, n + 3))
        got = ix._rank(scores, ids, top_k)
        want_ids, want_scores = lexsort_rank_oracle(scores, ids, top_k)
        assert [nb.term_id for nb in got] == want_ids
        assert np.array_equal([nb.score for nb in got], want_scores, equal_nan=True)

    def test_ties_at_kth_score_break_by_id(self):
        scores = np.array([0.9, 0.5, 0.5, 0.7, 0.5, 0.5, 0.1])
        ids = np.array([60, 50, 40, 30, 20, 10, 0])
        assert [nb.term_id for nb in ix._rank(scores, ids, 3)] == [60, 30, 10]
        assert [nb.term_id for nb in ix._rank(scores, ids, 5)] == \
            [60, 30, 10, 20, 40]

    def test_top_k_at_least_n_returns_all(self):
        scores = np.array([0.2, 0.8, 0.2])
        ids = np.array([5, 6, 4])
        for top_k in (3, 4, 100):
            assert [nb.term_id for nb in ix._rank(scores, ids, top_k)] == [6, 4, 5]

    def test_top_k_below_one_rejected(self):
        for top_k in (0, -1):
            with pytest.raises(ValueError):
                ix._rank(np.array([0.1, 0.2]), np.array([0, 1]), top_k)


class TestIvf:
    def test_nprobe_equals_nlist_matches_flat(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(20, 80))
            V = random_unit_rows(rng, n, 5)
            # duplicate some rows to force score ties across lists
            V[: n // 4] = V[n // 4: 2 * (n // 4)]
            ids = np.arange(n, dtype=np.int64)
            flat = ix.build_ivf(V, ids, 1)
            nlist = int(rng.integers(1, 9))
            ivf = ix.build_ivf(V, ids, nlist=nlist, seed=trial)
            q = random_unit_rows(rng, 1, 5)[0]
            assert as_tuples(ix.search_ivf(replace(ivf, nprobe=nlist), q,
                                           top_k=10)) == \
                as_tuples(ix.search_ivf(flat, q, top_k=10))

    def test_nprobe_above_nlist_scans_every_list(self):
        rng = np.random.default_rng(9)
        V = random_unit_rows(rng, 10, 3)
        ivf = ix.build_ivf(V, np.arange(10), nlist=2)
        out = ix.search_ivf(replace(ivf, nprobe=99), V[0], top_k=3)
        assert len(out) == 3
        assert as_tuples(out) == \
            as_tuples(ix.search_ivf(replace(ivf, nprobe=2), V[0], 3))

    def test_recall_on_clustered_data(self):
        rng = np.random.default_rng(10)
        n, k, n_clusters = 5000, 16, 50
        centers = random_unit_rows(rng, n_clusters, k)
        assign = rng.integers(0, n_clusters, n)
        V = centers[assign] + 0.05 * rng.normal(size=(n, k))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        ids = np.arange(n, dtype=np.int64)
        flat = ix.build_ivf(V, ids, 1)
        ivf = ix.build_ivf(V, ids, nlist=64, seed=0)
        queries = centers[rng.integers(0, n_clusters, 200)] \
            + 0.05 * rng.normal(size=(200, k))
        hits = 0
        for q in queries:
            truth = ix.search_ivf(flat, q, 1)[0].term_id
            approx = ix.search_ivf(replace(ivf, nprobe=8), q, top_k=1)
            hits += bool(approx) and approx[0].term_id == truth
        assert hits / len(queries) >= 0.9

    def test_build_deterministic(self):
        rng = np.random.default_rng(11)
        V = random_unit_rows(rng, 100, 6)
        a = ix.build_ivf(V, np.arange(100), nlist=8, seed=3)
        b = ix.build_ivf(V, np.arange(100), nlist=8, seed=3)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.offsets, b.offsets)

    def test_nlist_out_of_range(self):
        with pytest.raises(DataError):
            ix.build_ivf(np.ones((3, 2)), [0, 1, 2], nlist=4)


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
        flat = ix.build_ivf(random_unit_rows(rng, 25, 4), ids, 1, cuis=cuis,
                            groups=groups)
        flat.params_sha256, flat.pca_sha256 = "ab" * 32, "cd" * 32
        ix.save_ivf(tmp_path / "f.idx", flat)
        back = ix.load_ivf(tmp_path / "f.idx")
        q = random_unit_rows(rng, 1, 4)[0]
        assert as_tuples(ix.search_ivf(back, q, 7)) == \
            as_tuples(ix.search_ivf(flat, q, 7))
        assert back.cuis.tolist() == cuis and back.groups.tolist() == groups
        assert back.ids.tolist() == ids.tolist()
        assert (back.params_sha256, back.pca_sha256) == ("ab" * 32, "cd" * 32)

    def test_ivf_roundtrip_search_equal(self, tmp_path):
        rng = np.random.default_rng(14)
        cuis, groups = self.term_table(40)
        ids = rng.permutation(100)[:40]
        ivf = ix.build_ivf(random_unit_rows(rng, 40, 5), ids, nlist=6,
                           cuis=cuis, groups=groups)
        ivf.params_sha256, ivf.pca_sha256 = "ab" * 32, "cd" * 32
        ix.save_ivf(tmp_path / "i.idx", ivf)
        back = ix.load_ivf(tmp_path / "i.idx")
        q = random_unit_rows(rng, 1, 5)[0]
        for nprobe in (1, 3, 6):
            assert as_tuples(ix.search_ivf(replace(back, nprobe=nprobe), q, 8)) == \
                as_tuples(ix.search_ivf(replace(ivf, nprobe=nprobe), q, 8))
        # the term table follows the rows through the list grouping
        row_of = {int(i): n for n, i in enumerate(ids)}
        assert back.cuis.tolist() == [cuis[row_of[i]] for i in back.ids.tolist()]
        assert back.groups.tolist() == [groups[row_of[i]] for i in back.ids.tolist()]
        assert (back.params_sha256, back.pca_sha256) == ("ab" * 32, "cd" * 32)

    def test_ivf_nprobe_above_nlist_refused(self, tmp_path):
        rng = np.random.default_rng(15)
        ivf = ix.build_ivf(random_unit_rows(rng, 12, 3), np.arange(12), nlist=3)
        ivf.nprobe = 4
        ix.save_ivf(tmp_path / "i.idx", ivf)
        with pytest.raises(ArtifactError, match="nprobe exceeds nlist 3"):
            ix.load_ivf(tmp_path / "i.idx")

    def test_index_without_term_table_roundtrips(self, tmp_path):
        rng = np.random.default_rng(15)
        flat = ix.build_ivf(random_unit_rows(rng, 5, 3), np.arange(5), 1)
        ix.save_ivf(tmp_path / "f.idx", flat)
        back = ix.load_ivf(tmp_path / "f.idx")
        assert back.cuis is None and back.groups is None
        assert back.params_sha256 is None and back.pca_sha256 is None

    def test_misaligned_term_table_is_data_error(self):
        with pytest.raises(DataError, match="cui or group count"):
            ix.build_ivf(np.ones((3, 2)), [0, 1, 2], 1, cuis=["C1", "C2"],
                         groups=["A"] * 3)
        with pytest.raises(DataError, match="cui or group count"):
            ix.build_ivf(np.ones((3, 2)), [0, 1, 2], 1, cuis=["C1"] * 3,
                         groups=["A"])


class TestLinkMention:
    def build(self, texts_cuis, pca_k=4):
        params = enc.init_params(0, buckets=256, hidden=12, dim=8)
        E = np.vstack([encode(params, t) for t, _ in texts_cuis])
        transform = ix.fit_pca(E, pca_k)
        comp = ix.apply_pca(transform, E)
        ids = np.arange(len(texts_cuis))
        id_to_cui = {i: c for i, (_, c) in enumerate(texts_cuis)}
        return params, transform, ix.build_ivf(comp, ids, 1), id_to_cui

    def test_exact_term_links_to_itself(self):
        terms = [("hartinfarct", "C0000001"), ("griep", "C0000002"),
                 ("suikerziekte", "C0000003"), ("longontsteking", "C0000004"),
                 ("hoofdpijn", "C0000005"), ("koorts", "C0000006")]
        params, t, flat, id_to_cui = self.build(terms)
        [(cui, neighbors)] = ix.link_mentions(["griep"], params, t, flat,
                                              id_to_cui, top_k=3)
        assert cui == "C0000002"
        assert neighbors[0].term_id == 1
        assert len(neighbors) == 3

    def test_empty_index_raises(self):
        params = enc.init_params(0, buckets=64, hidden=4, dim=4)
        t = ix.fit_pca(np.random.default_rng(0).normal(size=(6, 4)), 2)
        # two lists, both empty: the probed one yields no candidates
        index = ix.IvfIndex(centroids=np.eye(2), vectors=np.zeros((0, 2)),
                            ids=np.zeros(0, dtype=np.int64),
                            offsets=np.zeros(3, dtype=np.int64), nprobe=1)
        [result] = ix.link_mentions(["x"], params, t, index, {})
        assert isinstance(result, DataError) and "no candidates" in str(result)
