"""Self-alignment training: positive pair generation, online mining of every
in-batch pair, Multi-Similarity loss with exact gradients, and the epoch loop.
"""

import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from . import encoder as enc
from .errors import DataError

log = logging.getLogger(__name__)


@dataclass
class PositivePair:
    cui: str
    term_a: str
    term_b: str


@dataclass
class MiningConfig:
    margin: float = 0.2


@dataclass
class MsLossConfig:
    alpha: float = 2.0
    beta: float = 50.0
    base: float = 0.5


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    batch_size: int = 512
    epochs: int = 1
    seed: int = 0


def generate_pretrain_pairs(ontology):
    """All C(k,2) synonym pairs per CUI, over its distinct term strings."""
    terms_by_cui = {}
    for rec in ontology:
        bucket = terms_by_cui.setdefault(rec.cui, [])
        if rec.text not in bucket:
            bucket.append(rec.text)
    pairs = []
    for cui, terms in terms_by_cui.items():
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                pairs.append(PositivePair(cui=cui, term_a=terms[i], term_b=terms[j]))
    return pairs


def generate_finetune_pairs(star_slice, ontology, per_mention_cap=50):
    """Pair each weak-corpus mention with the ontology terms of its CUI.

    Terms are taken in ascending term_id up to the cap; a term identical to
    the mention string is skipped.
    """
    terms_by_cui = {}
    for rec in sorted(ontology, key=lambda r: r.term_id):
        terms_by_cui.setdefault(rec.cui, []).append(rec.text)
    pairs = []
    for m in star_slice.mentions:
        n = 0
        for term in terms_by_cui.get(m.cui, ()):
            if n >= per_mention_cap:
                break
            if term == m.anchor:
                continue
            pairs.append(PositivePair(cui=m.cui, term_a=m.anchor, term_b=term))
            n += 1
    return pairs


def serialize_pairs(pairs):
    """The pair file's ``CUI||term 1||term 2`` lines, each ending in a
    newline; pairs with a term containing the separator or a line break,
    which would split its line, are dropped with a warning."""
    lines = [f"{p.cui}||{p.term_a}||{p.term_b}\n" for p in pairs
             if not any(bad in term for term in (p.term_a, p.term_b)
                        for bad in ("||", "\n", "\r"))]
    if len(lines) < len(pairs):
        log.warning("dropped %d pairs containing the '||' separator or a line "
                    "break", len(pairs) - len(lines))
    return lines


def read_pairs(stream):
    pairs = []
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("||")
        if len(parts) != 3 or not parts[1].strip() or not parts[2].strip():
            raise DataError(f"pair file line {lineno}: expected CUI||term 1||term 2")
        pairs.append(PositivePair(cui=parts[0], term_a=parts[1], term_b=parts[2]))
    return pairs


def _symmetrize(G, pos, neg):
    """G + G.T in place, for a G that is +0.0 off the mined entries and
    holds no -0.0: each mined (r, c) adds G[r, c] into G[c, r]. The mined
    entries are distinct and off the diagonal, and the gather on the right
    reads before any write, so entries mined both ways each get the sum."""
    n = G.shape[0]
    r = np.concatenate((pos[0], neg[0]))
    c = np.concatenate((pos[1], neg[1]))
    flat = G.reshape(-1)
    flat[c * n + r] += flat[r * n + c]
    return G


# a diverging loss is reported by run_training, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _ms_step(E, labels, margin, config, work):
    """Online mining and the Multi-Similarity loss of one batch of n unit rows:
    (a, p) is mined iff D[a,p] >= min-negative-distance + margin, (a, n) iff
    max-positive-distance >= D[a,n] + margin, over the Gram-form distances
    D = sqrt(max(D2, 0)) of E. ``work`` holds two buffers of at least n*n
    floats. Returns (loss, dL/dS over S = E E^T as a view of ``work``, mined
    positive (rows, cols), mined negative (rows, cols)), the mined entries in
    row-major order.

    The same-label entries and the diagonal of D are set to +inf, so the
    row min is the nearest negative; a negative test then hits them only
    where max_pos is +inf, and those hits are dropped. S is read at the
    mined entries from the doubled Gram product 2 E E^T the distances use;
    halving it is exact."""
    n = E.shape[0]
    D, G = (w[:n * n].reshape(n, n) for w in work)
    # E @ E.T must keep numpy's `a @ a.T` form, which runs dsyrk: a GEMM on
    # a contiguous transpose is about twice as fast but gives other bits on
    # most shapes
    np.matmul(E, E.T, out=G)
    G *= 2.0
    sq = np.sum(E ** 2, axis=1)
    np.add(sq[:, None], sq[None, :], out=D)
    D -= G
    np.sqrt(np.maximum(D, 0.0, out=D), out=D)

    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    same = codes[:, None] == codes[None, :]
    np.fill_diagonal(same, False)
    rows, cols = np.divmod(np.flatnonzero(same), n)
    d_same = D[rows, cols]
    D[rows, cols] = np.inf
    np.fill_diagonal(D, np.inf)
    keep = d_same >= (D.min(axis=1) + margin)[rows]
    pos = rows[keep], cols[keep]
    max_pos = np.full(n, -np.inf)
    np.maximum.at(max_pos, rows, d_same)
    D += margin
    hit = np.less_equal(D, max_pos[:, None], out=same)
    r, c = np.divmod(np.flatnonzero(hit), n)
    differ = codes[r] != codes[c]
    neg = r[differ], c[differ]

    s_pos, s_neg = G[pos] * 0.5, G[neg] * 0.5
    G.fill(0.0)
    active = np.bincount(np.concatenate((pos[0], neg[0])), minlength=n) > 0
    n_active = int(active.sum())
    if n_active == 0:
        return 0.0, G, pos, neg
    a, b, eps = config.alpha, config.beta, config.base
    pos_exp = np.exp(-a * (s_pos - eps))
    neg_exp = np.exp(b * (s_neg - eps))
    # row sums over zero-filled rows add the mined terms in a dense sum's
    # order; the distances are spent, so their buffer holds the terms
    T = D
    T.fill(0.0)
    T[pos] = pos_exp
    pos_sum = T.sum(axis=1)
    T[pos] = 0.0
    T[neg] = neg_exp
    neg_sum = T.sum(axis=1)
    per_anchor = np.log1p(pos_sum) / a + np.log1p(neg_sum) / b
    loss = float(per_anchor[active].sum() / n_active)

    scale = active.astype(float) / n_active
    G[pos] += (-pos_exp / (1.0 + pos_sum)[pos[0]]) * scale[pos[0]]
    G[neg] += (neg_exp / (1.0 + neg_sum)[neg[0]]) * scale[neg[0]]
    return loss, G, pos, neg


def train_epoch(pairs, params, train_cfg, mining_cfg, loss_cfg,
                epoch_index=0, feature_cache=None):
    """One pass over the positive pairs. Returns (updated params, mean loss).

    Pairs are shuffled deterministically from (seed, epoch_index); within
    each batch both pair elements are encoded, every in-batch pair that
    violates the margin is mined online, and the Multi-Similarity loss over
    cosine similarities S = E E^T of the encoder's unit rows is
    backpropagated, dL/dE = (G + G^T) E, with decoupled weight decay. A
    zero-norm row (a featureless text) gets its pass-through gradient.
    """
    if not pairs:
        raise DataError("cannot train on an empty pair list")
    params = params.copy()
    cache = feature_cache if feature_cache is not None else {}
    rng = np.random.default_rng([train_cfg.seed, epoch_index])
    order = rng.permutation(len(pairs))
    bs = train_cfg.batch_size
    lr, wd = train_cfg.learning_rate, train_cfg.weight_decay
    work = np.empty((2, (2 * min(bs, len(pairs))) ** 2))

    losses = []
    mined_any = False
    for start in range(0, len(order), bs):
        batch = [pairs[i] for i in order[start:start + bs]]
        texts = [t for p in batch for t in (p.term_a, p.term_b)]
        labels = [p.cui for p in batch for _ in range(2)]
        slot = {t: k for k, t in enumerate(dict.fromkeys(texts))}
        missing = [t for t in slot if t not in cache]
        cache.update(zip(missing, enc.featurize_texts(params, missing)))
        # a row's forward does not depend on the batch, so repeats share one
        E, (feats, H, _, norms) = enc.forward_batch(params, [cache[t] for t in slot])
        row = [slot[t] for t in texts]
        E = E[row]

        loss, G, pos, neg = _ms_step(E, labels, mining_cfg.margin, loss_cfg, work)
        losses.append(loss)
        mined_any = mined_any or pos[0].size > 0 or neg[0].size > 0

        dE = _symmetrize(G, pos, neg) @ E
        grads = enc.backward_batch(
            params, ([feats[r] for r in row], H[row], E, norms[row]), dE)
        # a batch that mined nothing has zero gradients: a pure decay step
        for name in ("W1", "b1", "W2", "b2"):
            w = getattr(params, name)
            w -= lr * (getattr(grads, name) + wd * w)

    if not mined_any:
        log.warning("epoch %d: no batch produced any mined pairs", epoch_index)
    return params, float(np.mean(losses)) if losses else 0.0


def run_training(params, pairs, train_cfg, mining_cfg, loss_cfg,
                 checkpoint_dir=None, start_epoch=0):
    """Run ``train_cfg.epochs`` training epochs, checkpointing per epoch.

    Zero epochs return the input params unchanged (the 0-epoch baseline).
    Returns (params, loss_log) with one mean-loss entry per epoch.
    """
    loss_log = []
    cache = {}
    for ep in range(start_epoch, start_epoch + train_cfg.epochs):
        params, mean_loss = train_epoch(pairs, params, train_cfg, mining_cfg,
                                        loss_cfg, epoch_index=ep,
                                        feature_cache=cache)
        if not np.isfinite(mean_loss):
            raise DataError(f"epoch {ep}: mean loss {mean_loss} is not finite")
        loss_log.append(mean_loss)
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
            enc.save_params(os.path.join(checkpoint_dir, f"epoch_{ep:03d}.params"),
                            replace(params, epoch=ep))
    return params, loss_log
