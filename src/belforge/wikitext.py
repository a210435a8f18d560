"""Wikitext cleanup with link offset tracking, plus the rule-based
sentence splitter used for corpus compilation.
"""

import re
from dataclasses import dataclass

# namespace prefixes whose links are dropped wholesale (media/category links)
DEFAULT_DROP_PREFIXES = frozenset({
    "file", "image", "category", "bestand", "afbeelding", "categorie",
})

_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_REF_RE = re.compile(r"<ref\b[^>/]*/>|<ref\b[^>]*>.*?</ref>", re.S | re.I)
_HEADING_RE = re.compile(r"^(={1,6})\s*(.*?)\s*\1\s*$", re.M)
_QUOTES_RE = re.compile(r"'{2,}")
_BRACES_RE = re.compile(r"\{\{|\}\}")
_BRACKETS_RE = re.compile(r"\[\[|\]\]")
# '\s' and str.isspace() agree on every code point
_BOUNDARY_RE = re.compile(r"[.!?]\s+")
_SPACES_RE = re.compile(r"\s+")


@dataclass
class LinkSpan:
    start: int
    end: int
    anchor: str
    target: str


def _drop_templates(markup):
    """Remove balanced {{...}} regions (nested). A '}}' at depth 0 stays
    text; an unbalanced opener drops the remainder and counts one warning."""
    out = []
    depth = kept = 0  # kept: start of the depth-0 text not yet copied
    for m in _BRACES_RE.finditer(markup):
        if m.group() == "{{":
            if not depth:
                out.append(markup[kept:m.start()])
            depth += 1
        elif depth:
            depth -= 1
            kept = m.end()
    if depth:
        return "".join(out), 1
    out.append(markup[kept:])
    return "".join(out), 0


def _resolve_links(markup):
    """Convert [[T|a]] / [[T]] to anchor text, recording offsets into the
    cleaned string. Media/category links and nested-bracket constructs are
    dropped entirely so pipes never leak into the output; an opener without
    a matching ']]' is dropped, its text kept. Each whitespace run in an
    anchor is folded to one space, as a rendered page shows it, and the
    link's offsets and anchor leave out a space at its edges; an anchor that
    is only whitespace stays text but makes no link."""
    # one stack pass pairs every '[[' with its ']]': [start, end, nested]
    openers, stack = [], []
    for m in _BRACKETS_RE.finditer(markup):
        if m.group() == "[[":
            if stack:
                stack[-1][2] = True
            stack.append([m.start(), None, False])
            openers.append(stack[-1])
        elif stack:
            stack.pop()[1] = m.end()
    pieces = []
    links = []
    pos = i = 0  # pos: length of cleaned output so far
    for start, end, nested in openers:
        if start < i:  # inside a link already consumed
            continue
        pieces.append(markup[i:start])
        pos += start - i
        if end is None:
            i = start + 2
            continue
        i = end
        parts = markup[start + 2:end - 2].split("|")
        target = parts[0].strip()
        prefix = target.split(":", 1)[0].strip().lower() if ":" in target else ""
        if nested or len(parts) > 2 or not target or prefix in DEFAULT_DROP_PREFIXES:
            continue
        anchor = parts[1] if len(parts) == 2 else target
        # every whitespace character but ' ' is unprintable: a plain anchor
        # skips the regex
        if "  " in anchor or not anchor.isprintable():
            anchor = _SPACES_RE.sub(" ", anchor)
        # section anchors link to the page itself
        page = target.split("#", 1)[0].strip() or target
        # the link covers the anchor without its edge spaces, which stay text
        core = anchor.strip()
        if core:
            lead = len(anchor) - len(anchor.lstrip())
            links.append(LinkSpan(pos + lead, pos + lead + len(core), core, page))
        pieces.append(anchor)
        pos += len(anchor)
    pieces.append(markup[i:])
    return "".join(pieces), links


def strip_wikitext(markup):
    """Clean wikitext to plain text, returning (clean_text, links, warnings).

    Removes comments, refs, templates, heading markers and quote runs,
    then resolves internal links while tracking their char offsets into
    the cleaned text.
    """
    s = _COMMENT_RE.sub("", markup)
    s = _REF_RE.sub("", s)
    s, warnings = _drop_templates(s)
    s = _HEADING_RE.sub(r"\2", s)
    s = _QUOTES_RE.sub("", s)
    clean, links = _resolve_links(s)
    return clean, links, warnings


def split_sentences(text, abbreviations):
    """Split plain text into (start, end) sentence spans.

    A boundary is a '.', '!' or '?' followed by whitespace and an uppercase
    letter or digit, unless it is a '.' ending a token that is one of
    ``abbreviations``, compared lower-cased. Spans are disjoint, ordered,
    and cover every non-whitespace character.
    """
    abbrevs = {a.lower() for a in abbreviations}
    spans = []
    start = len(text) - len(text.lstrip())
    for m in _BOUNDARY_RE.finditer(text, start):
        i, j = m.start(), m.end()
        if j == len(text) or not (text[j].isupper() or text[j].isdigit()):
            continue
        if text[i] == ".":
            # token ending at the punctuation, for the abbreviation check
            k = i
            while k > 0 and not text[k - 1].isspace():
                k -= 1
            if text[k:i + 1].lower() in abbrevs:
                continue
        spans.append((start, i + 1))
        start = j
    end = len(text.rstrip())
    if end > start:
        spans.append((start, end))
    return spans
