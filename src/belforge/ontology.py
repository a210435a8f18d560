"""Ontology construction: parse pipe-delimited source files and run the
multi-step filter / crosswalk / enrichment pipeline down to a cleaned
term list with per-step statistics.
"""

import itertools
import json
import re
from dataclasses import dataclass

from .errors import DataError

CUI_RE = re.compile(r"^C[0-9]{7}$")
TUI_RE = re.compile(r"^T[0-9]{3}$")
# crosswalk rows join the ontology through the bridge vocabulary's source
# codes and enter it as terms of the target vocabulary
SNOMEDCT_US = "SNOMEDCT_US"
SNOMEDCT_NL = "SNOMEDCT_NL"


@dataclass
class TermRecord:
    term_id: int
    cui: str
    vocab: str
    source_code: str
    text: str


@dataclass
class SemanticTypeRow:
    cui: str
    tui: str
    type_name: str


@dataclass
class RelationRow:
    cui1: str
    rel: str
    cui2: str
    vocab: str


@dataclass
class CrosswalkRow:
    sctid: int
    text: str


@dataclass
class OntologyRecord:
    term_id: int
    cui: str
    text: str
    vocab: str
    group: str


def _parse_rows(stream, needed, make):
    """The records of a pipe-delimited file. Blank lines are skipped; a line
    with fewer than ``needed`` fields, or one for which ``make(fields)``
    returns None, is counted as malformed. Returns (records, malformed)."""
    records = []
    malformed = 0
    for line in stream:
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("|")
        # UMLS-style rows end with a trailing pipe; a trailing empty field is noise
        if fields[-1] == "":
            fields.pop()
        record = make(fields) if len(fields) >= needed else None
        if record is None:
            malformed += 1
        else:
            records.append(record)
    return records, malformed


def parse_concepts(stream, column_map):
    """Parse concept lines into TermRecords with sequential term_ids.

    column_map names the field index for cui, vocab, source_code and text.
    Malformed lines (too few fields, bad CUI, empty text) are skipped and
    counted, not fatal. Returns (records, malformed_count).
    """
    c_cui, c_vocab, c_code, c_text = (
        column_map[k] for k in ("cui", "vocab", "source_code", "text"))
    term_ids = itertools.count()

    def make(fields):
        cui = fields[c_cui].strip()
        text = fields[c_text].strip()
        if not CUI_RE.match(cui) or not text:
            return None
        return TermRecord(term_id=next(term_ids), cui=cui,
                          vocab=fields[c_vocab].strip(),
                          source_code=fields[c_code].strip(), text=text)
    return _parse_rows(stream, max(column_map.values()) + 1, make)


def parse_semantic_types(stream):
    """Parse cui|tui|type_name rows; malformed rows skipped and counted."""
    def make(fields):
        cui, tui = fields[0].strip(), fields[1].strip()
        if not CUI_RE.match(cui) or not TUI_RE.match(tui):
            return None
        return SemanticTypeRow(cui=cui, tui=tui, type_name=fields[2].strip())
    return _parse_rows(stream, 3, make)


def parse_relations(stream):
    """Parse cui1|rel|cui2|vocab rows. Self-loops are dropped at parse and
    are not malformed."""
    def make(fields):
        cui1, cui2 = fields[0].strip(), fields[2].strip()
        if not CUI_RE.match(cui1) or not CUI_RE.match(cui2):
            return None
        return RelationRow(cui1=cui1, rel=fields[1].strip(), cui2=cui2,
                           vocab=fields[3].strip())
    rows, malformed = _parse_rows(stream, 4, make)
    return [r for r in rows if r.cui1 != r.cui2], malformed


def parse_crosswalk(stream):
    """Parse sctid|text rows from the external terminology. An id is ASCII
    digits: int() would also take '1_0', '+5' and other scripts' digits."""
    def make(fields):
        code = fields[0].strip()
        if not (code.isascii() and code.isdigit()):
            return None
        sctid = int(code)
        text = fields[1].strip()
        return CrosswalkRow(sctid=sctid, text=text) if sctid > 0 and text else None
    return _parse_rows(stream, 2, make)


def crosswalk_terms(targets, bridge):
    """Map external-terminology rows to CUIs through the bridge vocabulary.

    Bridge records carry the external id as their source_code. Rows whose
    id matches exactly one distinct CUI yield a new TermRecord, numbered
    from 0; ambiguous (>=2 CUIs) and unmatched ids are dropped.
    """
    by_sctid = {}
    for rec in bridge:
        by_sctid.setdefault(rec.source_code, set()).add(rec.cui)
    out = []
    for row in targets:
        cuis = by_sctid.get(str(row.sctid))
        if cuis and len(cuis) == 1:
            out.append(TermRecord(
                term_id=len(out), cui=next(iter(cuis)), vocab=SNOMEDCT_NL,
                source_code=str(row.sctid), text=row.text))
    return out


def build_ontology(concepts, sty, groups, crosswalk, config):
    """Run the full filter/enrichment pipeline under the checked
    ``ontology`` config section, whose column_map it does not read.

    Steps, in order: (1) drop configured vocabularies, (2) strip descriptive
    subterm substrings, (3) dedupe on (cui, text), (4) add crosswalked
    terms, (5) drop configured semantic types, (6) add drug-vocabulary
    records (set aside from the input regardless of language), (7) resolve
    semantic groups. Steps 3, 4 and 6 keep the first record of each (cui,
    text), the text case-folded when dedupe_case_insensitive is set.
    ``groups`` maps a semantic type to its group code; an unmapped type's
    group is OTHER. Returns (records, [(step, records remaining)]).
    """
    steps = []
    drug_vocabs, drop_vocabs, drop_tuis = (
        frozenset(config[k]) for k in ("drug_vocabs", "drop_vocabs", "drop_tuis"))
    # entries {"pattern": literal substring, "vocabs": vocabs it applies to}
    subterms = [(e["pattern"], frozenset(e["vocabs"]))
                for e in config["descriptive_subterms"]]
    drug_pool = [r for r in concepts if r.vocab in drug_vocabs]
    kept = [r for r in concepts if r.vocab not in drug_vocabs]
    fold = str.lower if config["dedupe_case_insensitive"] else str
    seen = set()

    def unseen(records):
        out = []
        for rec in records:
            key = (rec.cui, fold(rec.text))
            if key not in seen:
                seen.add(key)
                out.append(rec)
        return out

    # 1. vocabulary filter
    kept = [r for r in kept if r.vocab not in drop_vocabs]
    steps.append(("drop_vocabs", len(kept)))

    # 2. descriptive subterm removal (literal substrings, per-vocab)
    out = []
    for rec in kept:
        text = rec.text
        for pattern, vocabs in subterms:
            if rec.vocab in vocabs and pattern in text:
                text = " ".join(text.replace(pattern, " ").split())
        if text:
            if text != rec.text:
                rec = TermRecord(rec.term_id, rec.cui, rec.vocab, rec.source_code,
                                 text)
            out.append(rec)
    kept = out
    steps.append(("strip_descriptive_subterms", len(kept)))

    # 3. dedupe, first occurrence wins
    kept = unseen(kept)
    steps.append(("dedupe", len(kept)))

    # 4. crosswalk additions (bridged through SNOMEDCT_US)
    bridge = [r for r in kept if r.vocab == SNOMEDCT_US]
    kept += unseen(crosswalk_terms(crosswalk, bridge))
    steps.append(("crosswalk_add", len(kept)))

    # 5. semantic type filter
    cui_tuis = {}
    for row in sty:
        cui_tuis.setdefault(row.cui, []).append(row.tui)
    kept = [r for r in kept
            if not any(t in drop_tuis for t in cui_tuis.get(r.cui, ()))]
    steps.append(("drop_semantic_types", len(kept)))

    # 6. drug-name additions, regardless of language
    kept += unseen(drug_pool)
    steps.append(("drug_vocab_add", len(kept)))

    # 7. group resolution: first semantic-type row per cui in input order
    records = [
        OntologyRecord(term_id=i, cui=r.cui, text=r.text, vocab=r.vocab,
                       group=groups.get(cui_tuis.get(r.cui, ("",))[0], "OTHER"))
        for i, r in enumerate(kept)
    ]
    steps.append(("assign_groups", len(records)))
    return records, steps


def serialize_ontology(records):
    """The ontology JSONL text: one JSON object per line, ordered by
    term_id, non-ASCII text kept as it is."""
    return "".join(json.dumps(
        {"term_id": rec.term_id, "cui": rec.cui, "text": rec.text,
         "vocab": rec.vocab, "group": rec.group},
        ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n"
        for rec in sorted(records, key=lambda r: r.term_id))


def parse_ontology(stream):
    records = []
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
        if type(record.term_id) is not int or not (
                isinstance(record.cui, str) and isinstance(record.text, str)
                and isinstance(record.vocab, str) and isinstance(record.group, str)):
            raise DataError(f"ontology line {lineno}: term_id must be an int and "
                            "cui, text, vocab and group strings")
        if not record.text.strip():
            raise DataError(f"ontology line {lineno}: text is blank")
        records.append(record)
    return records
