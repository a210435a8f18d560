import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belforge.features as features
from belforge.errors import UnencodableTextError
from helpers import featurize
from pyfeat import fnv1a_64, ngram_hash_counts


def test_two_char_word_trigrams():
    # "^ab$" has trigrams {"^ab", "ab$"}
    idx, vals = featurize("ab", 3, 3, 1 << 16)
    assert len(idx) in (1, 2)
    assert vals.sum() == 2.0


def test_single_char_word_one_trigram():
    idx, vals = featurize("a", 3, 3, 1 << 16)
    assert len(idx) == 1
    assert vals[0] == 1.0


def test_deterministic():
    a = featurize("hartinfarct", 2, 4, 4096)
    b = featurize("hartinfarct", 2, 4, 4096)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_n_max_beyond_the_texts_changes_nothing():
    texts = ["ab", "hartinfarct"]
    want = features.featurize_batch(texts, 2, 20, 4096, False)
    for n_max in (21, 10 ** 20):
        got = features.featurize_batch(texts, 2, n_max, 4096, False)
        assert all(np.array_equal(g[0], w[0]) and np.array_equal(g[1], w[1])
                   for g, w in zip(got, want))
    assert all(idx.size == 0 for idx, _ in
               features.featurize_batch(texts, 10 ** 20, 10 ** 20, 4096, False))


def test_empty_text_rejected():
    with pytest.raises(UnencodableTextError):
        featurize("   ", 2, 4, 4096)


def test_lowercase_flag():
    a = featurize("POS", 2, 3, 1 << 16, lowercase=True)
    b = featurize("pos", 2, 3, 1 << 16)
    assert np.array_equal(a[0], b[0])
    c = featurize("POS", 2, 3, 1 << 16)
    assert not np.array_equal(a[0], c[0])


def test_permutation_sensitive():
    a = featurize("ab", 2, 2, 1 << 16)
    b = featurize("ba", 2, 2, 1 << 16)
    assert not np.array_equal(a[0], b[0])


def test_fnv_reference_value():
    # published FNV-1a 64-bit test vector
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C


def test_counts_accumulate():
    counts = ngram_hash_counts("aaaa", 2, 2, 1 << 20)
    # three identical bigrams "aa"
    assert list(counts.values()) == [3.0]


# any UTF-8 encodable code point, plus a pool that forces multi-byte
# characters next to each other: Latin-1, CJK, combining marks, astral
# symbols, case pairs whose lowercase changes length, and whitespace
CHARS = st.one_of(st.characters(codec="utf-8"),
                  st.sampled_from("aZé漢\u0301\u0308\U0001F642\U0001D538İ \t"))
TEXTS = st.lists(st.text(alphabet=CHARS, max_size=16), max_size=8)
SETTINGS = [(1, 1, 4096), (2, 4, 4096), (3, 5, 1 << 20), (1, 3, 7), (4, 6, 64)]


def oracle(text, n_min, n_max, buckets, lowercase):
    stripped = text.strip().lower() if lowercase else text.strip()
    counts = ngram_hash_counts("^" + stripped + "$", n_min, n_max, buckets)
    indices = np.array(sorted(counts), dtype=np.int64)
    return indices, np.array([counts[i] for i in indices], dtype=np.float64)


def assert_same(got, want):
    assert got[0].dtype == np.int64 and got[1].dtype == np.float64
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(texts=TEXTS, setting=st.sampled_from(SETTINGS), lowercase=st.booleans())
def test_batch_matches_oracle_and_single_calls(texts, setting, lowercase):
    n_min, n_max, buckets = setting
    if any(not t.strip() for t in texts):
        with pytest.raises(UnencodableTextError):
            features.featurize_batch(texts, n_min, n_max, buckets, lowercase)
        texts = [t for t in texts if t.strip()]
    batch = features.featurize_batch(texts, n_min, n_max, buckets, lowercase)
    assert len(batch) == len(texts)
    for text, got in zip(texts, batch):
        assert_same(got, oracle(text, n_min, n_max, buckets, lowercase))
        assert_same(got, featurize(text, n_min, n_max, buckets,
                                            lowercase=lowercase))


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(blank=st.text(alphabet=" \t\n\r\u00a0\u2003\u3000", max_size=6),
       others=TEXTS)
def test_whitespace_only_rejected_in_any_batch(blank, others):
    with pytest.raises(UnencodableTextError):
        featurize(blank, 2, 4, 4096)
    with pytest.raises(UnencodableTextError):
        features.featurize_batch(["ok"] + others + [blank], 2, 4, 4096, False)


def test_empty_batch():
    assert features.featurize_batch([], 2, 4, 4096, False) == []


def test_lone_surrogate_rejected():
    # what a command-line argument holding a non-UTF-8 byte decodes to
    with pytest.raises(UnencodableTextError):
        features.featurize_batch(["griep", "ko\udcffrts"], 2, 4, 4096, False)
