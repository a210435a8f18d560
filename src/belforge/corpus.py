"""Weakly labeled corpus compilation: join a knowledge-graph article->CUI
mapping with a MediaWiki XML dump, extract sentences whose hyperlink
anchors point at concept-linked articles, and build the deduplicated,
ontology-filtered star subset.
"""

import hashlib
import json
import os
import re
import urllib.parse
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_atomic
from .errors import DataError, NetworkError
from .wikitext import DEFAULT_ABBREVIATIONS, split_sentences, strip_wikitext

QID_RE = re.compile(r"^Q[0-9]+$")

SPARQL_QUERY_TEMPLATE = """\
SELECT ?concept ?conceptLabel ?cui ?article  WHERE {{
  ?concept wdt:{property_id} ?cui .
  ?article schema:about ?concept .
  ?article schema:isPartOf
        <{site_url}>.

  SERVICE wikibase:label {{
    bd:serviceParam wikibase:language "{language}"
  }}
}}
"""


@dataclass
class ArticleCuiMap:
    entries: dict = field(default_factory=dict)  # normalized title -> (qid, cui)
    duplicates: int = 0
    skipped: int = 0

    def add(self, qid, cui, title):
        """Map the normalized title to (qid, cui), the first binding of a
        title winning; an empty key or CUI or a malformed QID is skipped."""
        key = normalize_title(title)
        if not key or not cui or not QID_RE.match(qid):
            self.skipped += 1
        elif key in self.entries:
            self.duplicates += 1
        else:
            self.entries[key] = (qid, cui)


@dataclass
class WikiPage:
    page_id: int
    title: str
    namespace: int
    wikitext: str


@dataclass
class SentenceRecord:
    sentence_id: int
    page_title: str
    text: str


@dataclass
class MentionAnnotation:
    sentence_id: int
    start: int
    end: int
    anchor: str
    target_title: str
    cui: str
    qid: str


@dataclass
class CorpusStats:
    sentences: int = 0
    mentions: int = 0
    unique_mentions: int = 0
    unseen_mentions: int = 0
    cuis: int = 0
    unique_cuis: int = 0
    unlinkable_cuis: int = 0
    avg_tokens_per_sentence: float = 0.0


@dataclass
class CorpusSlice:
    sentences: list = field(default_factory=list)
    mentions: list = field(default_factory=list)


def normalize_title(title):
    """Underscores to spaces, collapse whitespace, case-fold the first char."""
    t = " ".join(title.replace("_", " ").split())
    return t[:1].casefold() + t[1:] if t else t


def load_article_map_tsv(stream):
    """Parse offline mapping rows ``qid<TAB>cui<TAB>article_title``."""
    amap = ArticleCuiMap()
    for line in stream:
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 3:
            amap.skipped += 1
        else:
            amap.add(parts[0].strip(), parts[1].strip(), parts[2])
    return amap


def build_sparql_query(site_url, property_id="P2892", language="nl"):
    return SPARQL_QUERY_TEMPLATE.format(
        property_id=property_id, site_url=site_url, language=language)


def _default_fetcher(url):
    import urllib.request  # with http, ssl and email: only a fetch needs it

    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            if resp.status >= 400:
                raise NetworkError(f"SPARQL endpoint returned HTTP {resp.status}")
            return resp.read()
    except NetworkError:
        raise
    except OSError as e:
        raise NetworkError(f"SPARQL endpoint unreachable: {e}") from e
    except ValueError as e:
        endpoint = url.split("?", 1)[0]
        raise NetworkError(f"SPARQL endpoint {endpoint!r} is not a URL") from e


def load_article_map_sparql(endpoint, site_url, property_id="P2892",
                            language="nl", fetcher=None, cache_dir=None):
    """Query the knowledge graph for article -> CUI bindings.

    Responses are standard SPARQL-JSON. An article's title is the unquoted
    rest of its IRI after the site's ``wiki/`` path, ``/`` included; a
    binding that lacks a value, has one that is not a string, or names an
    article of another site is skipped with a counter. Results may be
    cached on disk (``cache_dir`` or the BELFORGE_CACHE_DIR environment
    variable); a fetched response is cached only once it parses.
    """
    query = build_sparql_query(site_url, property_id, language)
    url = endpoint + "?" + urllib.parse.urlencode({"query": query, "format": "json"})
    cache_dir = cache_dir or os.environ.get("BELFORGE_CACHE_DIR")
    cache_path = raw = None
    if cache_dir:
        digest = hashlib.sha256(url.encode("utf-8")).hexdigest()
        cache_path = os.path.join(cache_dir, digest + ".json")
        if os.path.exists(cache_path):
            with open(cache_path, "rb") as f:
                raw = f.read()
    fetched = raw is None
    if fetched:
        raw = (fetcher or _default_fetcher)(url)

    try:
        bindings = json.loads(raw)["results"]["bindings"]
        if not isinstance(bindings, list):
            raise TypeError(f"bindings is a {type(bindings).__name__}, not a list")
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"malformed SPARQL response: {e}") from e
    if fetched and cache_path:
        write_atomic(cache_path, raw)

    amap = ArticleCuiMap()
    prefix = site_url.rstrip("/") + "/wiki/"
    for b in bindings:
        try:
            concept, cui, article = (b[k]["value"]
                                     for k in ("concept", "cui", "article"))
        except (KeyError, TypeError):
            concept = cui = article = None
        if not all(isinstance(v, str) for v in (concept, cui, article)) or \
           not article.startswith(prefix):
            amap.skipped += 1
            continue
        amap.add(concept.rstrip("/").rsplit("/", 1)[-1], cui,
                 urllib.parse.unquote(article[len(prefix):]))
    return amap


def _page_number(text, element, title):
    """A page's <ns> or <id> as an int; an empty or missing one reads 0."""
    try:
        return int(text or 0)
    except ValueError:
        raise DataError(f"dump page {title!r}: <{element}> is not an integer: "
                        f"{text!r}") from None


def parse_dump(stream):
    """Stream namespace-0 pages from MediaWiki-export XML in document order.

    Memory is bounded by one page: each page read is cleared and dropped
    from the root. Pages without a <text> element are skipped. Malformed
    XML, or an <ns> or <id> that is not an integer, raises DataError.
    """
    def localname(tag):
        return tag.rsplit("}", 1)[-1]

    try:
        context = ET.iterparse(stream, events=("start", "end"))
        _event, root = next(context)
        for event, elem in context:
            if event == "start" or localname(elem.tag) != "page":
                continue
            title = ns = page_id = text = None
            have_text = False
            for child in elem.iter():
                ln = localname(child.tag)
                if ln == "title" and title is None:
                    title = child.text or ""
                elif ln == "ns" and ns is None:
                    ns = (child.text or "").strip()
                elif ln == "id" and page_id is None:
                    page_id = (child.text or "").strip()
                elif ln == "text" and not have_text:
                    text = child.text or ""
                    have_text = True
            title = title or ""
            ns = _page_number(ns, "ns", title)
            page_id = _page_number(page_id, "id", title)
            if ns == 0 and have_text:
                yield WikiPage(page_id=page_id, title=title, namespace=0,
                               wikitext=text)
            elem.clear()
            root.clear()
    except ET.ParseError as e:
        raise DataError(f"malformed dump XML at {e.position}: {e}") from e


def compile_corpus(pages, article_map, abbreviations=DEFAULT_ABBREVIATIONS,
                   ontology=None):
    """Select sentences containing at least one mapped hyperlink.

    Returns (sentences, mentions, stats, unbalanced_templates), the last
    being the number of pages whose template region was left unbalanced.
    Stats fields that require an ontology (unseen mentions, unlinkable CUIs)
    are computed only when one is supplied.
    """
    sentences = []
    mentions = []
    unbalanced = 0
    for page in pages:
        clean, links, warn = strip_wikitext(page.wikitext)
        unbalanced += warn
        mapped = [(lk, entry) for lk in links
                  if (entry := article_map.entries.get(normalize_title(lk.target)))]
        # links and spans are both ordered and disjoint: one merge assigns
        # each link to the span holding it, if any
        li = 0
        for s_start, s_end in split_sentences(clean, abbreviations):
            while li < len(mapped) and mapped[li][0].start < s_start:
                li += 1
            first = li
            while li < len(mapped) and mapped[li][0].end <= s_end:
                li += 1
            if first == li:
                continue
            sid = len(sentences)
            sentences.append(SentenceRecord(sentence_id=sid, page_title=page.title,
                                            text=clean[s_start:s_end]))
            for lk, (qid, cui) in mapped[first:li]:
                mentions.append(MentionAnnotation(
                    sentence_id=sid, start=lk.start - s_start,
                    end=lk.end - s_start, anchor=lk.anchor,
                    target_title=lk.target, cui=cui, qid=qid))
    stats = compute_stats(sentences, mentions, ontology)
    return sentences, mentions, stats, unbalanced


def compute_stats(sentences, mentions, ontology=None):
    stats = CorpusStats(
        sentences=len(sentences),
        mentions=len(mentions),
        unique_mentions=len({m.anchor for m in mentions}),
        cuis=len(mentions),
        unique_cuis=len({m.cui for m in mentions}),
    )
    if sentences:
        stats.avg_tokens_per_sentence = float(
            np.mean([len(s.text.split()) for s in sentences]))
    if ontology is not None:
        terms = {r.text for r in ontology}
        known_cuis = {r.cui for r in ontology}
        stats.unseen_mentions = sum(1 for m in mentions if m.anchor not in terms)
        stats.unlinkable_cuis = sum(1 for m in mentions if m.cui not in known_cuis)
    return stats


def build_star_subset(sentences, mentions, ontology, split_ratio=0.8, seed=0):
    """Deduplicated, ontology-filtered subset split into train/validation.

    Keeps the first occurrence of each unique mention string (exact,
    case-sensitive), drops mentions whose CUI is absent from the ontology,
    then partitions mentions randomly by seed at split_ratio, in (0, 1).
    """
    known_cuis = {r.cui for r in ontology}
    seen = set()
    kept = []
    for m in sorted(mentions, key=lambda m: (m.sentence_id, m.start)):
        if m.anchor in seen:
            continue
        seen.add(m.anchor)
        if m.cui in known_cuis:
            kept.append(m)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(kept))
    n_train = int(len(kept) * split_ratio)
    train_ids = set(perm[:n_train].tolist())
    by_id = {s.sentence_id: s for s in sentences}

    def make_slice(idxs):
        ms = sorted((kept[i] for i in idxs), key=lambda m: (m.sentence_id, m.start))
        sids = sorted({m.sentence_id for m in ms})
        return CorpusSlice(sentences=[by_id[s] for s in sids], mentions=ms)

    return (make_slice([i for i in range(len(kept)) if i in train_ids]),
            make_slice([i for i in range(len(kept)) if i not in train_ids]))


# xml.sax.saxutils.escape and quoteattr, written out: importing saxutils
# imports urllib.request, with http, ssl and email, into every process that
# writes a corpus. Text content also writes CR as a character reference:
# XML end-of-line handling would read a raw one back as a line feed.
def _escape(text):
    return (text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace("\r", "&#13;"))


def _quoteattr(value):
    value = _escape(value).replace("\n", "&#10;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


def serialize_corpus(corpus_slice):
    """A corpus slice as XML text with inline mention elements."""
    ms_by_sid = {}
    for m in corpus_slice.mentions:
        ms_by_sid.setdefault(m.sentence_id, []).append(m)
    lines = ["<corpus>"]
    for s in corpus_slice.sentences:
        parts = [f"<sentence id={_quoteattr(str(s.sentence_id))} "
                 f"page={_quoteattr(s.page_title)}>"]
        pos = 0
        for m in sorted(ms_by_sid.get(s.sentence_id, []), key=lambda m: m.start):
            parts.append(_escape(s.text[pos:m.start]))
            parts.append(
                f"<mention cui={_quoteattr(m.cui)} qid={_quoteattr(m.qid)} "
                f"start={_quoteattr(str(m.start))} end={_quoteattr(str(m.end))} "
                f"target={_quoteattr(m.target_title)}>{_escape(m.anchor)}</mention>")
            pos = m.end
        parts.append(_escape(s.text[pos:]))
        parts.append("</sentence>")
        lines.append("".join(parts))
    lines.append("</corpus>")
    return "\n".join(lines) + "\n"


def _int_attr(node, name, where):
    value = node.get(name)
    if value is None:
        raise DataError(f"{where}: attribute {name!r} is missing")
    try:
        return int(value)
    except ValueError:
        raise DataError(f"{where}: attribute {name!r} is not an integer: "
                        f"{value!r}") from None


def parse_corpus(stream):
    """Parse the corpus XML schema back into a CorpusSlice. A sentence id or
    mention offset that is not an integer, or a mention without a CUI,
    raises DataError."""
    try:
        tree = ET.parse(stream)
    except ET.ParseError as e:
        raise DataError(f"corpus XML parse error at {e.position}: {e}") from e
    root = tree.getroot()
    if root.tag != "corpus":
        raise DataError(f"expected <corpus> root, found <{root.tag}>")
    out = CorpusSlice()
    for k, sent in enumerate(root):
        if sent.tag != "sentence":
            raise DataError(f"unexpected element <{sent.tag}> under <corpus>")
        sid = _int_attr(sent, "id", f"sentence #{k + 1} of the corpus")
        pieces = [sent.text or ""]
        pending = []
        for node in sent:
            if node.tag != "mention":
                raise DataError(f"unexpected element <{node.tag}> in sentence {sid}")
            anchor = node.text or ""
            start = len("".join(pieces))
            pending.append((node, anchor, start))
            pieces.append(anchor)
            pieces.append(node.tail or "")
        out.sentences.append(SentenceRecord(
            sentence_id=sid, page_title=sent.get("page", ""), text="".join(pieces)))
        for node, anchor, start in pending:
            where = f"sentence {sid}: mention {anchor!r}"
            declared_start = _int_attr(node, "start", where)
            declared_end = _int_attr(node, "end", where)
            if not node.get("cui"):
                raise DataError(f"{where}: attribute 'cui' is missing or empty")
            if declared_start != start or declared_end != start + len(anchor):
                raise DataError(
                    f"sentence {sid}: mention offsets {declared_start}:{declared_end} "
                    f"do not match reconstructed text position {start}")
            out.mentions.append(MentionAnnotation(
                sentence_id=sid, start=start, end=start + len(anchor),
                anchor=anchor, target_title=node.get("target", ""),
                cui=node.get("cui"), qid=node.get("qid", "")))
    return out
