"""Reference implementations the tests compare production paths against:
explicit triplet enumeration, its projection onto participation masks, the
dense mask miner and Multi-Similarity loss, the per-row encoder forward
pass, and the training epoch composed from them with one forward per row;
the character-at-a-time wikitext cleanup and sentence splitter, corpus
compilation that filters every link against every sentence span, one
parse loop per pipe-delimited ontology source file, the ontology parse with
one json.loads per line, the per-query ranking, the flat nearest-neighbour
search, the IVF search one query at a time, k-means with per-seed row
differences and masked list means, and k-means in index._kmeans' distance
form with no one-list shortcut."""

import json
from dataclasses import dataclass

import numpy as np

from belforge import encoder as enc
from belforge import index
from belforge import wikitext
from belforge.config import DEFAULTS
from belforge.errors import DataError
from belforge.corpus import MentionAnnotation, SentenceRecord, normalize_title
from belforge.ontology import (CUI_RE, TUI_RE, CrosswalkRow, OntologyRecord,
                               RelationRow, SemanticTypeRow, TermRecord)
from belforge.wikitext import DEFAULT_DROP_PREFIXES, LinkSpan

ABBREVIATIONS = DEFAULTS["corpus"]["abbreviations"]


@dataclass(frozen=True)
class Triplet:
    anchor_idx: int
    positive_idx: int
    negative_idx: int


def pairwise_distances(embeddings):
    sq = np.sum(embeddings ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embeddings @ embeddings.T)
    return np.sqrt(np.maximum(d2, 0.0))


def mining_masks(distances, labels, margin):
    """Boolean masks of the positives/negatives participating in violating
    triplets, without materializing the O(B^3) enumeration.

    (a, p) is an active positive iff some negative n of a satisfies
    D[a,p] >= D[a,n] + margin, i.e. D[a,p] >= min-negative-distance + margin;
    symmetrically (a, n) is active iff max-positive-distance >= D[a,n] + margin.
    """
    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    diff = codes[:, None] != codes[None, :]
    same = ~diff
    np.fill_diagonal(same, False)

    min_neg = np.where(diff, distances, np.inf).min(axis=1)
    max_pos = np.where(same, distances, -np.inf).max(axis=1)
    pos_mask = same & (distances >= min_neg[:, None] + margin)
    neg_mask = diff & (max_pos[:, None] >= distances + margin)
    return pos_mask, neg_mask


def ms_loss_masks(similarities, pos_mask, neg_mask, loss_cfg):
    """Multi-Similarity loss and its exact gradient w.r.t. the similarity
    matrix, given per-anchor positive/negative participation masks and the
    ``loss`` config section, with every term evaluated densely."""
    S = np.asarray(similarities, dtype=float)
    active = pos_mask.any(axis=1) | neg_mask.any(axis=1)
    n_active = int(active.sum())
    grad = np.zeros_like(S)
    if n_active == 0:
        return 0.0, grad

    a, b, eps = loss_cfg["alpha"], loss_cfg["beta"], loss_cfg["base"]
    pos_exp = np.where(pos_mask, np.exp(-a * (S - eps)), 0.0)
    neg_exp = np.where(neg_mask, np.exp(b * (S - eps)), 0.0)
    pos_sum = pos_exp.sum(axis=1)
    neg_sum = neg_exp.sum(axis=1)
    per_anchor = (np.log1p(pos_sum) / a + np.log1p(neg_sum) / b)
    loss = float(per_anchor[active].sum() / n_active)

    scale = active.astype(float) / n_active
    grad += (-pos_exp / (1.0 + pos_sum)[:, None]) * scale[:, None]
    grad += (neg_exp / (1.0 + neg_sum)[:, None]) * scale[:, None]
    return loss, grad


def forward_features(params, indices, values):
    """The forward pass of one sparse feature vector, with numpy choosing
    the layout of its column gather. Returns (output, hidden activations,
    pre-normalization norm)."""
    z = params.W1[:, indices] @ values + params.b1
    h = np.maximum(z, 0.0)
    e = params.W2 @ h + params.b2
    norm = float(np.linalg.norm(e))
    if norm >= enc.NORM_EPS:
        return e / norm, h, norm
    return e, h, norm


def train_epoch(pairs, params, cfg, epoch_index, feature_cache=None):
    """``training.train_epoch`` composed from the dense oracles above, with
    a forward pass for every row of the batch, repeated texts included."""
    params = params.copy()
    cache = feature_cache if feature_cache is not None else {}
    rng = np.random.default_rng([cfg["seed"], epoch_index])
    order = rng.permutation(len(pairs))
    train = cfg["train"]
    bs, lr, wd = train["batch_size"], train["learning_rate"], train["weight_decay"]
    losses = []
    for start in range(0, len(order), bs):
        batch = [pairs[i] for i in order[start:start + bs]]
        texts = [t for p in batch for t in (p.term_a, p.term_b)]
        labels = [p.cui for p in batch for _ in range(2)]
        missing = [t for t in dict.fromkeys(texts) if t not in cache]
        cache.update(zip(missing, enc.featurize_texts(params, missing)))
        feats = [cache[t] for t in texts]
        outs, hidden, fwd_norms = zip(*(forward_features(params, *f)
                                        for f in feats))
        E = np.vstack(outs)
        pos_mask, neg_mask = mining_masks(pairwise_distances(E), labels,
                                          cfg["mining"]["margin"])
        loss, G = ms_loss_masks(E @ E.T, pos_mask, neg_mask, cfg["loss"])
        losses.append(loss)
        dE = (G + G.T) @ E
        grads = enc.backward_batch(
            params, (feats, np.vstack(hidden), E, np.array(fwd_norms)), dE)
        for name in ("W1", "b1", "W2", "b2"):
            w = getattr(params, name)
            w -= lr * (grads[name] + wd * w)
    return params, float(np.mean(losses))


def mine_hard_triplets(embeddings, labels, margin):
    """Enumerate triplets violating the margin condition: every (anchor,
    positive, negative) with anchor/positive sharing a label, negative not,
    and distance(a, p) >= distance(a, n) + margin.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim == 1:
        embeddings = embeddings[:, None]
    n = embeddings.shape[0]
    labels = list(labels)
    dist = pairwise_distances(embeddings)

    triplets = []
    for a in range(n):
        pos = [p for p in range(n) if p != a and labels[p] == labels[a]]
        neg = [m for m in range(n) if labels[m] != labels[a]]
        if not pos or not neg:
            continue
        dp = dist[a, pos]
        dn = dist[a, neg]
        viol = dp[:, None] >= dn[None, :] + margin
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


def ms_loss(similarities, labels, mined, loss_cfg):
    """Loss over the positives/negatives appearing in mined triplets.

    Returns (loss, dL/dS). The loss is averaged over anchors with at least
    one mined pair; an empty mined set yields (0, zero matrix).
    """
    S = np.asarray(similarities, dtype=float)
    pos_mask, neg_mask = masks_from_triplets(S.shape[0], mined)
    return ms_loss_masks(S, pos_mask, neg_mask, loss_cfg)


def drop_templates(markup):
    """Remove balanced {{...}} regions (nested). An unbalanced opener drops
    the remainder of the region and counts one warning."""
    out = []
    i = 0
    depth = 0
    n = len(markup)
    while i < n:
        if markup.startswith("{{", i):
            depth += 1
            i += 2
        elif depth and markup.startswith("}}", i):
            depth -= 1
            i += 2
        elif depth:
            i += 1
        else:
            out.append(markup[i])
            i += 1
    return "".join(out), (1 if depth else 0)


def resolve_links(markup, drop_prefixes):
    """Convert [[T|a]] / [[T]] to anchor text, its whitespace runs folded,
    recording offsets into the cleaned string of the anchor without its
    edge spaces; an anchor of whitespace only makes no link. Each opener
    rescans to its closer, or to the end of the text when it has none."""
    pieces = []
    links = []
    pos = 0  # length of cleaned output so far
    i = 0
    n = len(markup)
    while i < n:
        if markup.startswith("[[", i):
            j = i + 2
            depth = 1
            nested = False
            while j < n:
                if markup.startswith("[[", j):
                    depth += 1
                    nested = True
                    j += 2
                elif markup.startswith("]]", j):
                    depth -= 1
                    j += 2
                    if depth == 0:
                        break
                else:
                    j += 1
            if depth != 0:
                # unbalanced opener: treat the brackets as plain text removal
                i += 2
                continue
            inner = markup[i + 2:j - 2]
            parts = inner.split("|")
            target = parts[0].strip()
            prefix = target.split(":", 1)[0].strip().lower() if ":" in target else ""
            if nested or len(parts) > 2 or not target or prefix in drop_prefixes:
                i = j
                continue
            # each whitespace run of the anchor folded to one space
            folded = []
            for c in parts[1] if len(parts) == 2 else target:
                if not c.isspace():
                    folded.append(c)
                elif not folded or folded[-1] != " ":
                    folded.append(" ")
            anchor = "".join(folded)
            # section anchors link to the page itself
            page = target.split("#", 1)[0].strip() or target
            # the link leaves out the anchor's edge spaces
            lead = 0
            while lead < len(anchor) and anchor[lead] == " ":
                lead += 1
            trail = len(anchor)
            while trail > lead and anchor[trail - 1] == " ":
                trail -= 1
            if trail > lead:
                links.append(LinkSpan(pos + lead, pos + trail, anchor[lead:trail],
                                      page))
            pieces.append(anchor)
            pos += len(anchor)
            i = j
        else:
            pieces.append(markup[i])
            pos += 1
            i += 1
    return "".join(pieces), links


def strip_wikitext(markup, drop_prefixes=DEFAULT_DROP_PREFIXES):
    """``wikitext.strip_wikitext`` with the character-loop template and link
    passes."""
    s = wikitext._COMMENT_RE.sub("", markup)
    s = wikitext._REF_RE.sub("", s)
    s, warnings = drop_templates(s)
    s = wikitext._HEADING_RE.sub(r"\2", s)
    s = wikitext._QUOTES_RE.sub("", s)
    clean, links = resolve_links(s, drop_prefixes)
    return clean, links, warnings


def split_sentences(text, abbreviations=ABBREVIATIONS):
    """Split plain text into (start, end) sentence spans, one character at a
    time."""
    abbrevs = {a.lower() for a in abbreviations}
    spans = []
    n = len(text)
    i = 0
    # skip leading whitespace
    while i < n and text[i].isspace():
        i += 1
    start = i
    while i < n:
        c = text[i]
        if c in ".!?":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j > i + 1 and j < n and (text[j].isupper() or text[j].isdigit()):
                # token ending at the punctuation, for the abbreviation check
                k = i
                while k > 0 and not text[k - 1].isspace():
                    k -= 1
                token = text[k:i + 1].lower()
                if not (c == "." and token in abbrevs):
                    spans.append((start, i + 1))
                    start = j
                    i = j
                    continue
        i += 1
    # trailing sentence: trim trailing whitespace
    end = n
    while end > start and text[end - 1].isspace():
        end -= 1
    if end > start:
        spans.append((start, end))
    return spans


def compile_corpus(pages, article_map, abbreviations=ABBREVIATIONS,
                   drop_prefixes=DEFAULT_DROP_PREFIXES):
    """(sentences, mentions) of ``corpus.compile_corpus``, through the oracle
    cleanup and splitter, testing every link against every sentence span."""
    sentences = []
    mentions = []
    for page in pages:
        clean, links, _warn = strip_wikitext(page.wikitext, drop_prefixes)
        for s_start, s_end in split_sentences(clean, abbreviations):
            in_span = [
                lk for lk in links
                if lk.start >= s_start and lk.end <= s_end
                and normalize_title(lk.target) in article_map.entries
            ]
            if not in_span:
                continue
            sid = len(sentences)
            sentences.append(SentenceRecord(
                sentence_id=sid, page_title=page.title, text=clean[s_start:s_end]))
            for lk in in_span:
                qid, cui = article_map.entries[normalize_title(lk.target)]
                mentions.append(MentionAnnotation(
                    sentence_id=sid, start=lk.start - s_start,
                    end=lk.end - s_start, anchor=lk.anchor,
                    target_title=lk.target, cui=cui, qid=qid))
    return sentences, mentions


def split_line(line):
    # UMLS-style rows end with a trailing pipe; a trailing empty field is noise
    fields = line.rstrip("\n").split("|")
    if fields and fields[-1] == "":
        fields = fields[:-1]
    return fields


def parse_concepts(stream, column_map):
    """Parse concept lines into TermRecords.

    column_map names the field index for cui, vocab, source_code and
    text. Malformed lines (too few fields, bad CUI, empty text) are
    skipped and counted, not fatal. Returns (records, malformed_count).
    """
    needed = max(column_map.values()) + 1
    records = []
    malformed = 0
    for line in stream:
        if not line.strip():
            continue
        fields = split_line(line)
        if len(fields) < needed:
            malformed += 1
            continue
        cui = fields[column_map["cui"]].strip()
        text = fields[column_map["text"]].strip()
        if not CUI_RE.match(cui) or not text:
            malformed += 1
            continue
        records.append(TermRecord(
            cui=cui,
            vocab=fields[column_map["vocab"]].strip(),
            source_code=fields[column_map["source_code"]].strip(),
            text=text,
        ))
    return records, malformed


def parse_semantic_types(stream, column_map=None):
    """Parse cui|tui|type_name rows; malformed rows skipped and counted."""
    cm = column_map or {"cui": 0, "tui": 1, "type_name": 2}
    needed = max(cm.values()) + 1
    rows = []
    malformed = 0
    for line in stream:
        if not line.strip():
            continue
        fields = split_line(line)
        if len(fields) < needed:
            malformed += 1
            continue
        cui = fields[cm["cui"]].strip()
        tui = fields[cm["tui"]].strip()
        if not CUI_RE.match(cui) or not TUI_RE.match(tui):
            malformed += 1
            continue
        rows.append(SemanticTypeRow(cui=cui, tui=tui))
    return rows, malformed


def parse_relations(stream, column_map=None):
    """Parse cui1|rel|cui2|vocab rows; a self-loop is a row."""
    cm = column_map or {"cui1": 0, "rel": 1, "cui2": 2, "vocab": 3}
    needed = max(cm.values()) + 1
    rows = []
    malformed = 0
    for line in stream:
        if not line.strip():
            continue
        fields = split_line(line)
        if len(fields) < needed:
            malformed += 1
            continue
        cui1 = fields[cm["cui1"]].strip()
        cui2 = fields[cm["cui2"]].strip()
        if not CUI_RE.match(cui1) or not CUI_RE.match(cui2):
            malformed += 1
            continue
        rows.append(RelationRow(cui1=cui1, cui2=cui2))
    return rows, malformed


def parse_crosswalk(stream, column_map=None):
    """Parse sctid|text rows from the external terminology."""
    cm = column_map or {"sctid": 0, "text": 1}
    needed = max(cm.values()) + 1
    rows = []
    malformed = 0
    for line in stream:
        if not line.strip():
            continue
        fields = split_line(line)
        if len(fields) < needed:
            malformed += 1
            continue
        code = fields[cm["sctid"]].strip()
        if not (code.isascii() and code.isdigit()):
            malformed += 1
            continue
        sctid = int(code)
        text = fields[cm["text"]].strip()
        if sctid <= 0 or not text:
            malformed += 1
            continue
        rows.append(CrosswalkRow(sctid=sctid, text=text))
    return rows, malformed


def parse_ontology(stream):
    """ontology.parse_ontology with one json.loads per line: the same
    records, or a DataError with the same message."""
    records, seen = [], {}
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            record = OntologyRecord(
                term_id=obj["term_id"], cui=obj["cui"], text=obj["text"],
                vocab=obj["vocab"], group=obj["group"])
        except (ValueError, KeyError, TypeError) as e:
            raise DataError(f"ontology line {lineno}: {e}") from e
        if type(record.term_id) is not int or not all(
                isinstance(v, str) for v in (record.cui, record.text,
                                             record.vocab, record.group)):
            raise DataError(f"ontology line {lineno}: term_id must be an int and "
                            "cui, text, vocab and group strings")
        if not record.text.strip():
            raise DataError(f"ontology line {lineno}: text is blank")
        if record.term_id in seen:
            raise DataError(f"ontology line {lineno}: term_id {record.term_id} "
                            f"repeats line {seen[record.term_id]}")
        seen[record.term_id] = lineno
        records.append(record)
    return records


def rank(scores, ids, cuis, top_k):
    """One query's top_k rows by score descending, ties by ascending id,
    each with the term id and CUI of its row; only the rows scoring at or
    above the k-th score go through the lexsort. The per-query ranking
    ``index._rank`` must reproduce on every row of a block."""
    if top_k < 1:
        raise ValueError(f"top_k={top_k} must be at least 1")
    neg = -scores
    if top_k < neg.size:
        kth = np.partition(neg, top_k - 1)[top_k - 1]
        # a NaN kth keeps every row, as the full lexsort would rank them
        keep = np.flatnonzero(~(neg > kth))
        neg, ids, cuis, scores = neg[keep], ids[keep], cuis[keep], scores[keep]
    order = np.lexsort((ids, neg))[:top_k]
    return [index.Neighbor(term_id=int(ids[i]), cui=str(cuis[i]), score=float(scores[i]))
            for i in order]


def exact_scores(vectors, query):
    """Every stored row's score, one row at a time, by the per-pair form
    ``np.sum(v * q)``: the brute-force scan the flat search must reproduce
    bit for bit, whichever rows its screen rescores. A corrupt row may
    overflow or be NaN: it scores as such."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([np.sum(v * query) for v in vectors], dtype=float)


def search_flat(vectors, ids, cuis, query, top_k):
    """Exact top-k of one query over every row, with no screen: the query
    zero-padded to a LINK_BLOCK block and unit-normalized, every row scored
    by ``exact_scores`` and ranked by ``rank``: the search a one-list index
    must reproduce bit for bit."""
    block = np.zeros((index.LINK_BLOCK, len(query)))
    block[0] = query
    return rank(exact_scores(vectors, index._unit_rows(block)[0]), ids, cuis, top_k)


def search_ivf_per_query(ivf, chunk, top_k, real, screen=None):
    """The search of ``index.search_ivf`` one query at a time: when nprobe
    is at least nlist, every stored row scored by ``exact_scores``, with no
    screen (``screen``, the flat search's state, is not read); otherwise
    each query's distance to every centroid summed as
    ``np.sum((c - q) ** 2)``, its nprobe nearest lists taken by a stable
    argsort and concatenated as positions, one ``np.arange`` per list, its
    rows gathered and scored in a product of its own. Each query is ranked
    by ``rank``. Returns the neighbor lists and the number of stored rows
    scored. ``index.search_ivf`` must give the same neighbours and score
    bits for every real row at every nprobe, whichever rows its screens
    hand to the exact forms."""
    Q = index._unit_rows(chunk)
    nlist = ivf.centroids.shape[0]
    if ivf.nprobe >= nlist:
        return ([rank(exact_scores(ivf.vectors, q), ivf.ids, ivf.cuis, top_k)
                 for q in Q[:real]], real * len(ivf.ids))
    found, scored = [], 0
    for q in Q[:real]:
        # stable: of equal distances the lower list is probed first
        probes = np.argsort(np.sum((ivf.centroids - q) ** 2, axis=1),
                            kind="stable")[:ivf.nprobe]
        # the query's probed lists as positions into the stored rows
        rows = np.concatenate([np.arange(ivf.offsets[c], ivf.offsets[c + 1])
                               for c in probes])
        found.append(rank(np.take(ivf.vectors, rows, axis=0) @ q,
                          ivf.ids[rows], ivf.cuis[rows], top_k))
        scored += len(rows)
    return found, scored


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


def kmeans(rows, nlist, rng):
    """k-means++ seeding with each seed's distances as a sum of squared row
    differences, then Lloyd passes over masked list means: the centroids and
    each row's list. ``index._kmeans`` must give the same bytes on distinct
    rows."""
    centroids = _kmeans_pp_init(rows, nlist, rng)
    assign = _assign(rows, centroids)
    for _ in range(index.KMEANS_ITERS):
        for c in range(nlist):
            members = rows[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        new_assign = _assign(rows, centroids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids, assign


def kmeans_expanded(rows, nlist, rng):
    """k-means++ seeds, then Lloyd passes until no row moves, every squared
    distance |x|^2 + |c|^2 - 2x.c and each list's mean over its rows sorted
    by list, for every nlist: index._kmeans without its one-list shortcut,
    whose one list must have these bytes."""
    n = rows.shape[0]
    sq = np.sum(rows ** 2, axis=1)
    twice = 2.0 * rows
    centroids = np.empty((nlist, rows.shape[1]))
    d2 = np.full(n, np.inf)
    idx = int(rng.integers(n))
    for c in range(nlist):
        centroids[c] = rows[idx]
        np.minimum(d2, np.maximum(sq + sq[idx] - twice @ rows[idx], 0.0), out=d2)
        total = d2.sum()
        idx = (int(rng.integers(n)) if total <= 0 else
               min(int(np.searchsorted(np.cumsum(d2 / total), rng.random())), n - 1))

    def nearest():
        return np.argmin(sq[:, None] + np.sum(centroids ** 2, axis=1)
                         - twice @ centroids.T, axis=1)

    labels = nearest()
    for _ in range(index.KMEANS_ITERS):
        ends = np.cumsum(np.bincount(labels, minlength=nlist)).tolist()
        members = rows[np.argsort(labels, kind="stable")]
        for c, (a, b) in enumerate(zip([0] + ends, ends)):
            if b > a:
                centroids[c] = members[a:b].mean(axis=0)
        new_labels = nearest()
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels
