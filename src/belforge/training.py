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


def generate_finetune_pairs(star_slice, ontology, per_mention_cap):
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
    newline. A pair whose line ``read_pairs`` would not read back as this
    pair (a line break, a blank term, or a '|' that joins the separator) is
    dropped with a warning."""
    lines = []
    for p in pairs:
        fields = [p.cui, p.term_a, p.term_b]
        line = "||".join(fields)
        if ("\n" not in line and "\r" not in line and line.split("||") == fields
                and p.term_a.strip() and p.term_b.strip()):
            lines.append(line + "\n")
    if len(lines) < len(pairs):
        log.warning("dropped %d pairs whose line would not read back: a line "
                    "break, a blank term or a '|' joining the '||' separator",
                    len(pairs) - len(lines))
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


# rows of a batch whose distances, mining and loss row sums _ms_step runs
# together: a block of distances stays in cache
STEP_BLOCK = 64
# the Gram product's row stride is the batch size plus this pad: dsyrk runs
# at half speed into rows a power of two apart, which alias in cache
GRAM_PAD = 8


def workspace(rows):
    """The buffer _ms_step works in, for batches of up to ``rows`` rows: a
    batch of n rows takes an n x n Gram product of row stride n + GRAM_PAD
    and one STEP_BLOCK x n block."""
    return np.empty(rows * (rows + GRAM_PAD + STEP_BLOCK))


def _symmetrize(G, pos, neg):
    """G + G.T in place, for a G that is +0.0 off the mined entries and
    holds no -0.0: each mined (r, c) adds G[r, c] into G[c, r]. The mined
    entries are distinct and off the diagonal, and the gather on the right
    reads before any write, so entries mined both ways each get the sum.
    G may be a strided view: it is indexed in two dimensions, since a
    flattening reshape of such a view would copy."""
    r = np.concatenate((pos[0], neg[0]))
    c = np.concatenate((pos[1], neg[1]))
    G[c, r] += G[r, c]
    return G


def _same_label(codes):
    """The (rows, cols) of every off-diagonal entry whose row and column
    share a label code, in row-major order, listed from the sorted codes."""
    order = np.argsort(codes, kind="stable")
    sizes = np.bincount(codes)
    k = sizes[codes]  # each row's group, itself included
    rows = np.repeat(np.arange(codes.size), k)
    # the j-th entry of row i is the j-th member of its group, in row order
    at = np.arange(rows.size) - np.repeat(np.cumsum(k) - k, k)
    cols = order[np.repeat((np.cumsum(sizes) - sizes)[codes], k) + at]
    keep = rows != cols
    return rows[keep], cols[keep]


# a diverging loss is reported by run_training, not by numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _ms_step(E, labels, margin, loss_cfg, work):
    """Online mining and the Multi-Similarity loss of one batch of n unit rows:
    (a, p) is mined iff D[a,p] >= min-negative-distance + margin, (a, n) iff
    max-positive-distance >= D[a,n] + margin, over the Gram-form distances
    D = sqrt(max(D2, 0)) of E. ``work`` is a ``workspace`` for at least n
    rows. Returns (loss, dL/dS over S = E E^T as an n x n view of ``work``,
    mined positive (rows, cols), mined negative (rows, cols)), the mined
    entries in row-major order.

    Mining and the loss's row terms of an anchor read only its own row, so
    both run over blocks of STEP_BLOCK rows, and every elementwise step,
    row min and row sum reads what a whole-matrix pass would. Within a
    block, the same-label entries and the diagonal of D are set to +inf, so
    the row min is the nearest negative; a negative test then hits them
    only where max_pos is +inf, and those hits are dropped. S is read at
    the mined entries from the doubled Gram product 2 E E^T the distances
    use; halving it is exact."""
    n = E.shape[0]
    G = work[:n * (n + GRAM_PAD)].reshape(n, -1)[:, :n]
    block = work[n * (n + GRAM_PAD):n * (n + GRAM_PAD + STEP_BLOCK)].reshape(-1, n)
    # E @ E.T keeps numpy's `a @ a.T` form, which runs dsyrk (a GEMM on a
    # contiguous transpose gives other bits on most shapes); the padded row
    # stride lets it run at full speed
    np.matmul(E, E.T, out=G)
    sq = np.sum(E ** 2, axis=1)
    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    same_r, same_c = _same_label(codes)
    cuts = np.searchsorted(same_r, np.arange(0, n + STEP_BLOCK, STEP_BLOCK))
    a, b, eps = loss_cfg["alpha"], loss_cfg["beta"], loss_cfg["base"]

    parts = []  # per block: pos rows, cols, exps; neg rows, cols, exps
    pos_sum, neg_sum = np.empty(n), np.empty(n)
    for k, r0 in enumerate(range(0, n, STEP_BLOCK)):
        # the block's rows of G and D; mined entries hold block row numbers
        Gb = G[r0:r0 + STEP_BLOCK]
        D = block[:Gb.shape[0]]
        Gb *= 2.0
        np.add(sq[r0:r0 + STEP_BLOCK, None], sq[None, :], out=D)
        D -= Gb
        np.sqrt(np.maximum(D, 0.0, out=D), out=D)

        rows, cols = same_r[cuts[k]:cuts[k + 1]] - r0, same_c[cuts[k]:cuts[k + 1]]
        d_same = D[rows, cols]
        D[rows, cols] = np.inf
        np.fill_diagonal(D[:, r0:], np.inf)
        keep = d_same >= (D.min(axis=1) + margin)[rows]
        pos = rows[keep], cols[keep]
        max_pos = np.full(D.shape[0], -np.inf)
        np.maximum.at(max_pos, rows, d_same)
        D += margin
        r, c = np.divmod(np.flatnonzero(D <= max_pos[:, None]), n)
        differ = codes[r + r0] != codes[c]
        neg = r[differ], c[differ]

        pos_exp = np.exp(-a * (Gb[pos] * 0.5 - eps))
        neg_exp = np.exp(b * (Gb[neg] * 0.5 - eps))
        Gb.fill(0.0)
        # row sums over zero-filled rows add the mined terms in a dense
        # sum's order; the distances are spent, so their block holds the terms
        D.fill(0.0)
        D[pos] = pos_exp
        pos_sum[r0:r0 + STEP_BLOCK] = D.sum(axis=1)
        D[pos] = 0.0
        D[neg] = neg_exp
        neg_sum[r0:r0 + STEP_BLOCK] = D.sum(axis=1)
        parts.append((pos[0] + r0, pos[1], pos_exp, neg[0] + r0, neg[1], neg_exp))

    pos_r, pos_c, pos_exp, neg_r, neg_c, neg_exp = (
        np.concatenate(p) for p in zip(*parts))
    pos, neg = (pos_r, pos_c), (neg_r, neg_c)
    active = np.bincount(np.concatenate((pos_r, neg_r)), minlength=n) > 0
    n_active = int(active.sum())
    if n_active == 0:
        return 0.0, G, pos, neg
    per_anchor = np.log1p(pos_sum) / a + np.log1p(neg_sum) / b
    loss = float(per_anchor[active].sum() / n_active)

    scale = active.astype(float) / n_active
    G[pos] += (-pos_exp / (1.0 + pos_sum)[pos_r]) * scale[pos_r]
    G[neg] += (neg_exp / (1.0 + neg_sum)[neg_r]) * scale[neg_r]
    return loss, G, pos, neg


def train_epoch(pairs, params, cfg, epoch_index, feature_cache=None):
    """One pass over the positive pairs under the checked config ``cfg``
    (its seed, train, mining.margin and loss settings). Returns (updated
    params, mean loss).

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
    rng = np.random.default_rng([cfg["seed"], epoch_index])
    order = rng.permutation(len(pairs))
    train = cfg["train"]
    bs, lr, wd = train["batch_size"], train["learning_rate"], train["weight_decay"]
    work = workspace(2 * min(bs, len(pairs)))

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

        loss, G, pos, neg = _ms_step(E, labels, cfg["mining"]["margin"],
                                     cfg["loss"], work)
        losses.append(loss)
        mined_any = mined_any or pos[0].size > 0 or neg[0].size > 0

        dE = _symmetrize(G, pos, neg) @ E
        grads = enc.backward_batch(
            params, ([feats[r] for r in row], H[row], E, norms[row]), dE)
        # a batch that mined nothing has zero gradients: a pure decay step
        for name in ("W1", "b1", "W2", "b2"):
            w = getattr(params, name)
            w -= lr * (grads[name] + wd * w)

    if not mined_any:
        log.warning("epoch %d: no batch produced any mined pairs", epoch_index)
    return params, float(np.mean(losses)) if losses else 0.0


def run_training(params, pairs, cfg, epochs, checkpoint_dir, start_epoch):
    """Run ``epochs`` training epochs from ``start_epoch`` under the checked
    config ``cfg``, checkpointing per epoch into ``checkpoint_dir`` if set.

    Zero epochs return the input params unchanged (the 0-epoch baseline).
    Returns (params, loss_log) with one mean-loss entry per epoch.
    """
    loss_log = []
    cache = {}
    for ep in range(start_epoch, start_epoch + epochs):
        params, mean_loss = train_epoch(pairs, params, cfg, ep, feature_cache=cache)
        if not np.isfinite(mean_loss):
            raise DataError(f"epoch {ep}: mean loss {mean_loss} is not finite")
        loss_log.append(mean_loss)
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
            enc.save_params(os.path.join(checkpoint_dir, f"epoch_{ep:03d}.params"),
                            replace(params, epoch=ep))
    return params, loss_log
