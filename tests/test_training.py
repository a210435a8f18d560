import io
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from belforge import training as tr
from belforge.errors import DataError
from belforge.ontology import OntologyRecord
from helpers import (config, fresh_params, make_synthetic_ontology,
                     mentions_as_slice)
from oracles import Triplet, masks_from_triplets, mine_hard_triplets, ms_loss
from strategies import xml_chars


def brute_force_triplets(embeddings, labels, margin):
    """O(B^3) oracle for the margin-violation triplet set."""
    E = np.asarray(embeddings, dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    n = len(labels)
    out = set()
    for a in range(n):
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            dp = np.linalg.norm(E[a] - E[p])
            for m in range(n):
                if labels[m] == labels[a]:
                    continue
                if dp >= np.linalg.norm(E[a] - E[m]) + margin:
                    out.add((a, p, m))
    return out


def fused_step(E, labels, margin, loss_cfg, rows=None):
    """``tr._ms_step`` on E in a NaN-filled padded-stride workspace sized
    for ``rows`` >= len(E) rows. Returns (loss, dL/dS, positive mask,
    negative mask)."""
    n = len(E)
    work = tr.workspace(rows or n)
    work.fill(np.nan)
    loss, G, pos, neg = tr._ms_step(E, labels, margin, loss_cfg, work)
    pos_mask = np.zeros((n, n), dtype=bool)
    neg_mask = np.zeros((n, n), dtype=bool)
    pos_mask[pos] = True
    neg_mask[neg] = True
    return loss, G, pos_mask, neg_mask


def orec(tid, cui, text):
    return OntologyRecord(term_id=tid, cui=cui, text=text, vocab="V", group="DISO")


class TestPairGeneration:
    def test_three_terms_three_pairs(self):
        onto = [orec(0, "C0000001", "a"), orec(1, "C0000001", "b"),
                orec(2, "C0000001", "c")]
        pairs = tr.generate_pretrain_pairs(onto)
        assert len(pairs) == 3
        assert {(p.term_a, p.term_b) for p in pairs} == {("a", "b"), ("a", "c"),
                                                         ("b", "c")}

    def test_single_term_no_pairs(self):
        assert tr.generate_pretrain_pairs([orec(0, "C0000001", "a")]) == []

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_pair_counts(self, k):
        onto = [orec(i, "C0000001", f"t{i}") for i in range(k)]
        assert len(tr.generate_pretrain_pairs(onto)) == math.comb(k, 2)

    def test_serialized_line_format(self):
        assert tr.serialize_pairs([tr.PositivePair("C0000001", "griep", "influenza")]) \
            == ["C0000001||griep||influenza\n"]

    def test_separator_in_term_dropped(self):
        lines = tr.serialize_pairs(
            [tr.PositivePair("C0000001", "a||b", "c"),
             tr.PositivePair("C0000001", "x", "y")])
        assert len(lines) == 1 and "".join(lines) == "C0000001||x||y\n"

    @pytest.mark.parametrize("term", ["hoge\nkoorts", "hoge\rkoorts", "a\r\nb"])
    def test_line_break_in_term_dropped(self, term, caplog):
        """A term with a line break would split its pair over two lines,
        which read_pairs refuses: the pair is dropped and counted."""
        with caplog.at_level(logging.WARNING):
            lines = tr.serialize_pairs(
                [tr.PositivePair("C0000001", term, "griep"),
                 tr.PositivePair("C0000001", "griep", term),
                 tr.PositivePair("C0000001", "x", "y")])
        assert lines == ["C0000001||x||y\n"]
        assert "dropped 2 pairs" in caplog.text
        assert tr.read_pairs(io.StringIO("".join(lines))) == \
            [tr.PositivePair("C0000001", "x", "y")]

    def test_read_roundtrip(self):
        pairs = [tr.PositivePair("C0000001", "griep", "influenza")]
        text = "".join(tr.serialize_pairs(pairs))
        assert tr.read_pairs(io.StringIO(text)) == pairs

    def test_read_malformed(self):
        with pytest.raises(DataError, match="line 1"):
            tr.read_pairs(io.StringIO("nonsense\n"))

    def test_read_blank_term(self):
        with pytest.raises(DataError, match="line 2: expected CUI"):
            tr.read_pairs(io.StringIO("C0000001||griep||influenza\n"
                                      "C0000001|| \t ||griep\n"))

    @pytest.mark.parametrize("term_a, term_b", [
        (" ", "griep"), ("griep", "\t\u3000"), ("", "griep"),
        # "a|||b" reads back as ("a", "|b")
        ("a|", "b")])
    def test_term_that_would_not_read_back_dropped(self, term_a, term_b, caplog):
        with caplog.at_level(logging.WARNING):
            lines = tr.serialize_pairs([tr.PositivePair("C0000001", term_a, term_b),
                                        tr.PositivePair("C0000001", "x", "y")])
        assert lines == ["C0000001||x||y\n"]
        assert "dropped 1 pairs" in caplog.text


# the pair file's separator and line breaks drawn more often
XML_CHARS = xml_chars("|\n\r\t ")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.text(XML_CHARS, max_size=6),
                          st.text(XML_CHARS, max_size=6)), max_size=8))
def test_pair_file_reads_back_or_counts_the_drop(terms):
    """Every pair either reads back from the pair file, opened as a text
    file is, or is dropped and counted; a pair of non-blank terms without
    '|' or a line break is always kept."""
    pairs = [tr.PositivePair("C0000001", a, b) for a, b in terms]
    lines = tr.serialize_pairs(pairs)
    rest = tr.read_pairs(io.StringIO("".join(lines), newline=None))
    dropped = 0
    for pair in pairs:
        if rest and rest[0] == pair:
            rest.pop(0)
            continue
        dropped += 1
        assert not all(t.strip() and not any(c in t for c in "|\n\r")
                       for t in (pair.term_a, pair.term_b)), pair
    assert rest == [] and dropped == len(pairs) - len(lines)


class TestFinetunePairs:
    def test_mention_paired_with_gold_terms(self):
        onto = [orec(0, "C0000001", "myocard infarct"),
                orec(1, "C0000001", "hartinfarct")]
        sl = mentions_as_slice([("MI", "C0000001")])
        pairs = tr.generate_finetune_pairs(sl, onto, 50)
        assert [(p.term_a, p.term_b) for p in pairs] == [
            ("MI", "myocard infarct"), ("MI", "hartinfarct")]

    def test_self_pair_excluded(self):
        onto = [orec(0, "C0000001", "MI")]
        sl = mentions_as_slice([("MI", "C0000001")])
        assert tr.generate_finetune_pairs(sl, onto, 50) == []

    def test_cap_keeps_lowest_term_ids(self):
        onto = [orec(i, "C0000001", f"term {i}") for i in range(80)]
        sl = mentions_as_slice([("mention", "C0000001")])
        pairs = tr.generate_finetune_pairs(sl, onto, 50)
        assert len(pairs) == 50
        assert pairs[0].term_b == "term 0" and pairs[-1].term_b == "term 49"


class TestMining:
    def test_identical_embeddings_no_triplets(self):
        E = np.ones((4, 3))
        labels = ["a", "a", "b", "b"]
        assert mine_hard_triplets(E, labels, 0.2) == []

    def test_hand_computed_selected(self):
        # 1-D: anchor 0, positive at 1.0, negative at 0.5 -> 1.0 >= 0.5+0.2
        E = np.array([0.0, 1.0, 0.5])
        labels = ["x", "x", "y"]
        triplets = mine_hard_triplets(E, labels, 0.2)
        assert Triplet(0, 1, 2) in triplets

    def test_hand_computed_not_selected(self):
        E = np.array([0.0, 0.6, 0.5])
        labels = ["x", "x", "y"]
        triplets = mine_hard_triplets(E, labels, 0.2)
        assert Triplet(0, 1, 2) not in triplets

    @pytest.mark.parametrize("margin", [0.0, 0.2, 1.0])
    def test_matches_brute_force(self, margin):
        rng = np.random.default_rng(int(margin * 10))
        for _ in range(30):
            n = int(rng.integers(2, 33))
            E = rng.normal(size=(n, 4))
            labels = [str(rng.integers(0, 5)) for _ in range(n)]
            mined = mine_hard_triplets(E, labels, margin)
            got = {(t.anchor_idx, t.positive_idx, t.negative_idx) for t in mined}
            assert got == brute_force_triplets(E, labels, margin)

    @pytest.mark.parametrize("margin", [0.0, 0.2, 1.0])
    def test_masks_match_triplet_enumeration(self, margin):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            E = rng.normal(size=(n, 3))
            labels = [str(rng.integers(0, 4)) for _ in range(n)]
            mined = mine_hard_triplets(E, labels, margin)
            want_pos, want_neg = masks_from_triplets(n, mined)
            _, _, got_pos, got_neg = fused_step(E, labels, margin,
                                                config()["loss"])
            assert np.array_equal(got_pos, want_pos)
            assert np.array_equal(got_neg, want_neg)


class TestMsLoss:
    def cfg(self):
        return config("loss.alpha=2.0", "loss.beta=50.0", "loss.base=0.5")["loss"]

    def test_empty_mined(self):
        S = np.eye(3)
        loss, grad = ms_loss(S, ["a", "a", "b"], [], self.cfg())
        assert loss == 0.0 and np.all(grad == 0)

    def test_hand_value(self):
        # one anchor, one positive S=0.9, one negative S=0.8
        S = np.array([[1.0, 0.9, 0.8],
                      [0.9, 1.0, 0.0],
                      [0.8, 0.0, 1.0]])
        mined = [Triplet(0, 1, 2)]
        loss, _ = ms_loss(S, ["a", "a", "b"], mined, self.cfg())
        expected = (math.log1p(math.exp(-2 * 0.4)) / 2
                    + math.log1p(math.exp(50 * 0.3)) / 50)
        assert abs(loss - 0.4856) < 1e-3
        assert abs(loss - expected) < 1e-12

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(2)
        cfg = self.cfg()
        for _ in range(20):
            n = 6
            E = rng.normal(size=(n, 3))
            E /= np.linalg.norm(E, axis=1, keepdims=True)
            S = E @ E.T
            labels = [str(rng.integers(0, 3)) for _ in range(n)]
            mined = mine_hard_triplets(E, labels, 0.2)
            if not mined:
                continue
            _, grad = ms_loss(S, labels, mined, cfg)
            step = 1e-6
            for i in range(n):
                for j in range(n):
                    P = S.copy()
                    P[i, j] += step
                    hi, _ = ms_loss(P, labels, mined, cfg)
                    P[i, j] -= 2 * step
                    lo, _ = ms_loss(P, labels, mined, cfg)
                    num = (hi - lo) / (2 * step)
                    denom = max(abs(num), abs(grad[i, j]), 1e-4)
                    assert abs(grad[i, j] - num) / denom < 1e-5

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        n = 7
        E = rng.normal(size=(n, 4))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        S = E @ E.T
        labels = [str(rng.integers(0, 3)) for _ in range(n)]
        mined = mine_hard_triplets(E, labels, 0.1)
        loss, grad = ms_loss(S, labels, mined, self.cfg())
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        S_p = S[np.ix_(perm, perm)]
        labels_p = [labels[i] for i in perm]
        mined_p = [Triplet(int(inv[t.anchor_idx]), int(inv[t.positive_idx]),
                              int(inv[t.negative_idx])) for t in mined]
        loss_p, grad_p = ms_loss(S_p, labels_p, mined_p, self.cfg())
        assert abs(loss - loss_p) < 1e-12
        assert np.allclose(grad_p, grad[np.ix_(perm, perm)])

    def test_gradient_signs(self):
        S = np.array([[1.0, 0.7, 0.6],
                      [0.7, 1.0, 0.1],
                      [0.6, 0.1, 1.0]])
        mined = [Triplet(0, 1, 2)]
        _, grad = ms_loss(S, ["a", "a", "b"], mined, self.cfg())
        assert grad[0, 1] < 0  # increasing a positive similarity lowers loss
        assert grad[0, 2] > 0  # increasing a negative similarity raises loss


@st.composite
def step_batches(draw):
    """(E, labels, margin, loss config, workspace rows) of one batch: rows
    plain or unit-normalized (the step reads S = E E^T from its doubled Gram
    product, exactly for any rows that do not overflow), optionally with a
    zero row, one row or entry of NaN, +-inf or 1e200 (whose squares
    overflow, so squared distances read inf or NaN), and a repeated row (one
    text twice in a batch), margins that mine nothing or sit at the edge of
    the doubles included, and a workspace possibly larger than the batch (a
    ragged last batch). A batch fits one row block of the step or spans
    several, its last block ragged or full; then a label group may be made
    to straddle the first block boundary and the special values may be
    confined to a later block."""
    block = tr.STEP_BLOCK
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40) | st.integers(2 * block - 1, 3 * block + 7))
    E = rng.normal(size=(n, draw(st.integers(1, 6))))
    if draw(st.booleans()):
        E /= np.linalg.norm(E, axis=1, keepdims=True)
    groups = st.integers(1, 6) if n <= block else st.integers(1, n // 2)
    labels = [str(v) for v in rng.integers(0, draw(groups), n)]
    if n > block and draw(st.booleans()):
        labels[block] = labels[block - 1]
    if draw(st.booleans()):
        E[int(rng.integers(n))] = 0.0
    special = draw(st.sampled_from([None, np.nan, np.inf, -np.inf, 1e200]))
    if special is not None:
        later = n > block and draw(st.booleans())
        i = int(rng.integers(block if later else 0, n))
        if draw(st.booleans()):
            E[i] = special
        else:
            E[i, int(rng.integers(E.shape[1]))] = special
    if draw(st.booleans()):
        i, j = rng.integers(n, size=2)
        E[j], labels[j] = E[i], labels[i]
    margin = draw(st.sampled_from([0.0, -0.0, 0.2, 1.0, 1e9, 5e-324, 1e-300,
                                   -0.5]) | st.floats(-1, 3))
    loss_cfg = config(f"loss.alpha={draw(st.floats(0.1, 10))!r}",
                      f"loss.beta={draw(st.floats(1, 80))!r}",
                      f"loss.base={draw(st.floats(-1, 1))!r}")["loss"]
    return E, labels, margin, loss_cfg, n + draw(st.integers(0, 5))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(step_batches())
def test_fused_step_matches_dense_oracles_bit_for_bit(batch):
    E, labels, margin, loss_cfg, rows = batch
    loss, G, pos, neg = fused_step(E, labels, margin, loss_cfg, rows)
    # plain and special rows reach squares and similarities that overflow,
    # as the step allows; a NaN loss is compared by its bytes
    with np.errstate(over="ignore", invalid="ignore"):
        want_pos, want_neg = oracles.mining_masks(
            oracles.pairwise_distances(E), labels, margin)
        want_loss, want_G = oracles.ms_loss_masks(E @ E.T, want_pos, want_neg,
                                                  loss_cfg)
    assert np.array_equal(pos, want_pos) and np.array_equal(neg, want_neg)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert G.tobytes() == want_G.tobytes()


def test_fused_step_at_the_benchmark_batch_shape():
    """The fused step and the in-place symmetrized gradient give the oracles'
    bits on the shape of the benchmark's pretraining batches: 1,024 unit
    rows in dim 96 from 512 pairs over about 300 labels, margin 0.2. This is
    large enough for BLAS's blocked kernels and mines a realistic share of
    the entries (about 2 %)."""
    rng = np.random.default_rng(96)
    codes = np.repeat(rng.integers(0, 420, 512), 2)
    E = 0.3 * rng.normal(size=(420, 96))[codes] + rng.normal(size=(1024, 96))
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    labels = [str(v) for v in codes]
    loss_cfg = config()["loss"]
    loss, G, pos, neg = fused_step(E, labels, 0.2, loss_cfg)
    want_pos, want_neg = oracles.mining_masks(oracles.pairwise_distances(E),
                                              labels, 0.2)
    want_loss, want_G = oracles.ms_loss_masks(E @ E.T, want_pos, want_neg,
                                              loss_cfg)
    assert 0.01 < (pos.sum() + neg.sum()) / pos.size < 0.05
    assert np.array_equal(pos, want_pos) and np.array_equal(neg, want_neg)
    assert loss == want_loss
    assert G.tobytes() == want_G.tobytes()
    sym = tr._symmetrize(G, np.nonzero(pos), np.nonzero(neg))
    assert sym.tobytes() == (want_G + want_G.T).tobytes()


def tiny_setup(n_concepts=12, variants=3, seed=0):
    onto, _cores = make_synthetic_ontology(seed=seed, n_concepts=n_concepts,
                                           variants=variants, n_affixes=6)
    pairs = tr.generate_pretrain_pairs(onto)
    params = fresh_params(seed, buckets=512, hidden=16, dim=8)
    return pairs, params


class TestTrainEpoch:
    def cfg(self, lr=0.05, bs=32, seed=0, *overrides):
        return config(f"train.learning_rate={lr}", "train.weight_decay=0.01",
                      f"train.batch_size={bs}", f"seed={seed}",
                      "mining.margin=0.2", *overrides)

    def test_zero_learning_rate_keeps_params(self):
        pairs, params = tiny_setup()
        updated, _ = tr.train_epoch(pairs, params, self.cfg(lr=0.0), 0)
        assert np.array_equal(updated.W1, params.W1)
        assert np.array_equal(updated.b2, params.b2)

    def test_pure_decay_on_zero_triplet_batch(self):
        # identical-label batch with one pair of identical strings after
        # caching: use embeddings that mine nothing (margin too large)
        pairs, params = tiny_setup()
        cfg = self.cfg(0.1, 32, 0, "mining.margin=1e9")
        updated, loss = tr.train_epoch(pairs, params, cfg, 0)
        assert loss == 0.0
        factor = 1.0 - cfg["train"]["learning_rate"] * cfg["train"]["weight_decay"]
        n_batches = -(-len(pairs) // cfg["train"]["batch_size"])
        assert np.allclose(updated.W1, params.W1 * factor ** n_batches,
                           rtol=0, atol=1e-15)

    def test_loss_decreases_over_epochs(self):
        onto, _ = make_synthetic_ontology(seed=1, n_concepts=50, variants=3,
                                          n_affixes=8)
        pairs = tr.generate_pretrain_pairs(onto)
        params = fresh_params(1, buckets=1024, hidden=24, dim=12)
        cfg = self.cfg(lr=0.05, bs=64, seed=1)
        first = None
        for ep in range(3):
            params, mean_loss = tr.train_epoch(pairs, params, cfg, ep)
            if first is None:
                first = mean_loss
        assert mean_loss < first

    def test_deterministic(self):
        pairs, params = tiny_setup()
        a, la = tr.train_epoch(pairs, params, self.cfg(), 0)
        b, lb = tr.train_epoch(pairs, params, self.cfg(), 0)
        assert la == lb
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(bs=st.integers(1, 40), margin=st.sampled_from([0.0, 0.2, 1e9]),
           zero_row=st.booleans(), seed=st.integers(0, 3))
    @example(bs=7, margin=0.2, zero_row=False, seed=0)
    @example(bs=10, margin=1e9, zero_row=False, seed=1)
    # one batch, so the featureless texts still embed to zero when trained
    @example(bs=40, margin=0.2, zero_row=True, seed=2)
    def test_two_epochs_equal_oracle_composition(self, bs, margin, zero_row,
                                                 seed):
        """Two epochs of the fused step and one forward per distinct text
        give the bits of the dense oracles with a forward per row. Every
        text of the synthetic pairs is in two pairs; with n_min 4, "x" and
        "y" have no n-grams and embed to zero under the initial params, and
        their rows take the forward's pass-through gradient."""
        onto, _ = make_synthetic_ontology(seed=seed, n_concepts=12,
                                          variants=3, n_affixes=6)
        pairs = tr.generate_pretrain_pairs(onto)
        if zero_row:
            pairs.append(tr.PositivePair("C9999999", "x", "y"))
        params = fresh_params(seed, n_min=4, n_max=5, buckets=512, hidden=16,
                              dim=8)
        cfg = config("train.learning_rate=0.05", "train.weight_decay=0.01",
                     f"train.batch_size={bs}", f"seed={seed}",
                     f"mining.margin={margin!r}")
        got, want = params, params
        for ep in range(2):
            got, got_loss = tr.train_epoch(pairs, got, cfg, ep)
            want, want_loss = oracles.train_epoch(pairs, want, cfg, ep)
            assert got_loss == want_loss
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_empty_pairs_rejected(self):
        _, params = tiny_setup()
        with pytest.raises(DataError):
            tr.train_epoch([], params, self.cfg(), 0)


class TestRunTraining:
    def test_zero_epochs_identity(self):
        pairs, params = tiny_setup()
        out, log = tr.run_training(params, pairs, config(), 0, None, 0)
        assert log == []
        assert np.array_equal(out.W1, params.W1)

    def test_loss_log_length(self):
        pairs, params = tiny_setup()
        cfg = config("train.learning_rate=0.05", "train.batch_size=32")
        _, log = tr.run_training(params, pairs, cfg, 3, None, 0)
        assert len(log) == 3

    def test_resume_equals_straight(self):
        pairs, params = tiny_setup()
        cfg = config("train.learning_rate=0.05", "train.batch_size=32", "seed=7")
        straight, log_s = tr.run_training(params, pairs, cfg, 5, None, 0)
        mid, log_a = tr.run_training(params, pairs, cfg, 2, None, 0)
        resumed, log_b = tr.run_training(mid, pairs, cfg, 3, None, 2)
        assert log_a + log_b == log_s
        assert np.array_equal(resumed.W1, straight.W1)
        assert np.array_equal(resumed.W2, straight.W2)

    def test_checkpoints_written(self, tmp_path):
        pairs, params = tiny_setup()
        cfg = config("train.learning_rate=0.05", "train.batch_size=32")
        tr.run_training(params, pairs, cfg, 2, str(tmp_path), 0)
        assert (tmp_path / "epoch_000.params").exists()
        assert (tmp_path / "epoch_001.params").exists()
