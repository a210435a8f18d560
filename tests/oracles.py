"""Reference implementations the tests compare the training path against:
explicit triplet enumeration, its projection onto participation masks, and
the Multi-Similarity loss over an enumerated triplet list."""

from dataclasses import dataclass

import numpy as np

from belforge.training import _ms_loss_masks, _pairwise_distances


@dataclass(frozen=True)
class Triplet:
    anchor_idx: int
    positive_idx: int
    negative_idx: int


def mine_hard_triplets(embeddings, labels, config):
    """Enumerate triplets violating the margin condition: every (anchor,
    positive, negative) with anchor/positive sharing a label, negative not,
    and distance(a, p) >= distance(a, n) + margin.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim == 1:
        embeddings = embeddings[:, None]
    n = embeddings.shape[0]
    labels = list(labels)
    dist = _pairwise_distances(embeddings)

    triplets = []
    for a in range(n):
        pos = [p for p in range(n) if p != a and labels[p] == labels[a]]
        neg = [m for m in range(n) if labels[m] != labels[a]]
        if not pos or not neg:
            continue
        dp = dist[a, pos]
        dn = dist[a, neg]
        viol = dp[:, None] >= dn[None, :] + config.margin
        for pi, ni in zip(*np.nonzero(viol)):
            triplets.append(Triplet(a, pos[pi], neg[ni]))
    return triplets


def masks_from_triplets(n, triplets):
    pos_mask = np.zeros((n, n), dtype=bool)
    neg_mask = np.zeros((n, n), dtype=bool)
    for t in triplets:
        pos_mask[t.anchor_idx, t.positive_idx] = True
        neg_mask[t.anchor_idx, t.negative_idx] = True
    return pos_mask, neg_mask


def ms_loss(similarities, labels, mined, config):
    """Loss over the positives/negatives appearing in mined triplets.

    Returns (loss, dL/dS). The loss is averaged over anchors with at least
    one mined pair; an empty mined set yields (0, zero matrix).
    """
    S = np.asarray(similarities, dtype=float)
    pos_mask, neg_mask = masks_from_triplets(S.shape[0], mined)
    return _ms_loss_masks(S, pos_mask, neg_mask, config)
