from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from belforge import encoder as enc
from belforge.errors import UnencodableTextError
from helpers import (encode, encode_backward, featurize_text, fresh_params,
                     random_word)


def small_params(seed=0, **kw):
    return fresh_params(seed, **{"buckets": 64, "hidden": 6, "dim": 4, **kw})


def numeric_grads(params, text, upstream, step=1e-5):
    """Central finite differences of upstream . encode over every parameter."""
    grads = {}
    for name in ("W1", "b1", "W2", "b2"):
        arr = getattr(params, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + step
            hi = float(upstream @ encode(params, text))
            arr[ix] = orig - step
            lo = float(upstream @ encode(params, text))
            arr[ix] = orig
            g[ix] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def assert_close_rel(analytic, numeric, tol=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert np.max(np.abs(analytic - numeric) / denom) < tol


def test_zero_params_give_zero_vector():
    p = small_params()
    p.W1[:] = 0
    p.W2[:] = 0
    out = encode(p, "koorts")
    assert np.all(out == 0.0)


def test_unit_norm_output():
    p = small_params(3)
    out = encode(p, "hartinfarct")
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_encode_deterministic():
    p = small_params(5)
    a = encode(p, "griep")
    b = encode(p, "griep")
    assert np.array_equal(a, b)


def test_init_deterministic_and_bounded():
    a = fresh_params(11, buckets=32, hidden=4, dim=3)
    b = fresh_params(11, buckets=32, hidden=4, dim=3)
    c = fresh_params(12, buckets=32, hidden=4, dim=3)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    assert not np.array_equal(a.W1, c.W1)
    assert np.all(np.abs(a.W1) <= 1.0 / np.sqrt(32))
    assert np.all(np.abs(a.W2) <= 1.0 / np.sqrt(4))
    assert np.all(a.b1 == 0) and np.all(a.b2 == 0)


def test_scaling_invariance_of_direction():
    p = small_params(7)
    out1 = encode(p, "insomnie")
    p.W2 *= 3.7
    p.b2 *= 3.7
    out2 = encode(p, "insomnie")
    assert np.max(np.abs(out1 - out2)) < 1e-9


def _generic_draw(rng, trial):
    """Draw (params, text) away from the relu kinks and the zero-norm
    normalization switch, where the map is not differentiable."""
    for attempt in range(100):
        p = small_params(seed=1000 * trial + attempt)
        p.b1 = rng.normal(scale=0.1, size=p.hidden)
        text = random_word(rng, 3, 9)
        idx, vals = featurize_text(p, text)
        z = p.W1[:, idx] @ vals + p.b1
        e = p.W2 @ np.maximum(z, 0) + p.b2
        if np.min(np.abs(z)) > 1e-2 and np.linalg.norm(e) > 1e-3:
            # rescale so the pre-norm magnitude is 1: conditions the
            # normalization Jacobian without changing the output direction
            scale = 1.0 / np.linalg.norm(e)
            p.W2 *= scale
            p.b2 *= scale
            return p, text
    raise AssertionError("could not find a generic draw")


def test_gradcheck_random_draws():
    rng = np.random.default_rng(0)
    for trial in range(50):
        p, text = _generic_draw(rng, trial)
        upstream = rng.normal(size=p.dim)
        g = encode_backward(p, text, upstream)
        num = numeric_grads(p, text, upstream)
        for name in ("W1", "b1", "W2", "b2"):
            assert_close_rel(g[name], num[name])


def test_backward_batch_equals_sum_of_rows():
    rng = np.random.default_rng(4)
    p = small_params(17, buckets=4096)
    p.b1 = rng.normal(scale=0.1, size=p.hidden)
    dead = "qqqq"
    dead_idx, _ = featurize_text(p, dead)
    # a row whose hidden units are all off has a zero pre-normalization
    # vector: its output skips the normalization Jacobian
    p.W1[:, dead_idx] = -10.0
    words = []
    while len(words) < 9:
        w = random_word(rng, 3, 9)
        if not set(featurize_text(p, w)[0]) & set(dead_idx):
            words.append(w)
    texts = words[:4] + [dead] + words[4:] + [words[0]]
    E, cache = enc.forward_batch(p, [featurize_text(p, t) for t in texts])
    assert np.linalg.norm(E[4]) == 0.0
    dE = rng.normal(size=(len(texts), p.dim))
    got = enc.backward_batch(p, cache, dE)
    for name in ("W1", "b1", "W2", "b2"):
        want = sum(encode_backward(p, t, u)[name] for t, u in zip(texts, dE))
        assert np.allclose(got[name], want, rtol=1e-12, atol=1e-15)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 16), fortran=st.booleans(), dead=st.booleans(),
       hidden=st.sampled_from([1, 7, 64, 192]), dim=st.sampled_from([1, 5, 96]),
       buckets=st.sampled_from([16, 1024]), data=st.data())
# one featureless text alone: its forward takes the lone-row path
@example(seed=0, fortran=False, dead=True, hidden=192, dim=96, buckets=1024,
         data=None)
def test_rows_equal_the_per_row_oracle_in_any_batch(seed, fortran, dead, hidden,
                                                    dim, buckets, data):
    """forward_batch rows, and encode_batch rows however the texts are
    split, ordered and repeated, are the per-row oracle's bits. With n_min 4
    "x" has no n-grams; with ``dead`` its hidden units are all off and b2 is
    zero, so it embeds to a zero-norm row."""
    rng = np.random.default_rng(seed)
    p = fresh_params(seed, n_min=4, n_max=5, buckets=buckets, hidden=hidden,
                     dim=dim)
    p.b1 = -np.abs(rng.normal(size=hidden)) if dead else rng.normal(size=hidden)
    p.b2 = np.zeros(dim) if dead else rng.normal(scale=0.1, size=dim)
    if fortran:
        p.W1 = np.asfortranarray(p.W1)
    pool = ["x"] + [random_word(rng, 1, 24) for _ in range(12)]
    if data is None:
        texts, sub, chunk = ["x"], [0], 1
    else:
        texts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        sub = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1,
                                 max_size=40))
        chunk = data.draw(st.integers(1, 50))
    feats = enc.featurize_texts(p, texts)
    want = [oracles.forward_features(p, *f) for f in feats]

    E, (_, H, cached_E, norms) = enc.forward_batch(p, feats)
    assert cached_E is E
    for k, (out, h, norm) in enumerate(want):
        assert E[k].tobytes() == out.tobytes()
        assert H[k].tobytes() == h.tobytes()
        assert norms[k] == norm
    if dead:
        assert np.all(E[[t == "x" for t in texts]] == 0.0)
    with mock.patch.object(enc, "ENCODE_BATCH", chunk):
        got = enc.encode_batch(p, [texts[i] for i in sub])
    for row, i in zip(got, sub):
        assert row.tobytes() == want[i][0].tobytes()
    for i in sorted(set(sub)):
        assert enc.encode_batch(p, [texts[i]])[0].tobytes() == want[i][0].tobytes()


def test_zero_upstream_zero_grads():
    p = small_params(9)
    g = encode_backward(p, "koorts", np.zeros(p.dim))
    assert all(np.all(w == 0) for w in g.values())


def normalized_upstream(upstream, raw):
    """The closed-form gradient through out = raw/|raw|: (u - (u.out) out)/|raw|."""
    norm = np.sqrt(raw @ raw)
    out = raw / norm
    return (upstream - np.sum(upstream * out) * out) / norm


def test_linear_config_closed_form():
    p = small_params(13)
    p.W1[:] = 0  # relu(b1) with b1=0 -> hidden all zero
    text = "abc"
    upstream = np.array([1.0, -2.0, 0.5, 3.0])
    # e = W2 h + b2 with h = 0 and b2 = 0 is a zero row: it passes through
    # the normalization, so dW2 = 0 and db2 = upstream
    g = encode_backward(p, text, upstream)
    assert np.all(g["W2"] == 0)
    assert np.array_equal(g["b2"], upstream)
    # a dead hidden layer with e = b2 != 0: db2 = (u - (u.e)e)/|b2|
    p.b2 = np.array([3.0, 0.0, -4.0, 0.0])
    g = encode_backward(p, text, upstream)
    assert np.all(g["W2"] == 0) and np.all(g["W1"] == 0) and np.all(g["b1"] == 0)
    assert np.array_equal(g["b2"], normalized_upstream(upstream, p.b2))
    # now a pure-linear hidden path: positive z via bias, so h = 1
    p.b1[:] = 1.0
    idx, vals = featurize_text(p, text)
    g = encode_backward(p, text, upstream)
    ge = normalized_upstream(upstream, p.W2 @ np.ones(p.hidden) + p.b2)
    gh = p.W2.T @ ge
    assert np.allclose(g["b2"], ge)
    assert np.allclose(g["W2"], np.outer(ge, np.ones(p.hidden)))
    assert np.allclose(g["b1"], gh)
    expected_W1 = np.zeros_like(p.W1)
    expected_W1[:, idx] = np.outer(gh, vals)
    assert np.allclose(g["W1"], expected_W1)


def test_unencodable_propagates():
    p = small_params()
    with pytest.raises(UnencodableTextError):
        encode(p, " ")
    with pytest.raises(UnencodableTextError):
        encode_backward(p, "", np.zeros(p.dim))


def test_params_roundtrip(tmp_path):
    p = small_params(21)
    path = tmp_path / "enc.params"
    enc.save_params(path, p)
    q = enc.load_params(path)
    assert q.n_min == p.n_min and q.buckets == p.buckets
    assert np.array_equal(q.W1, p.W1) and np.array_equal(q.b2, p.b2)
