import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from belforge import ontology as onto
from belforge.errors import DataError
from helpers import SEMANTIC_GROUPS, config, ontology_as_terms
from strategies import xml_chars


IDENTITY_MAP = {"cui": 0, "vocab": 2, "source_code": 3, "text": 4}


def rec(cui, text, vocab="MDRDUT", code="0", tid=0):
    return onto.TermRecord(term_id=tid, cui=cui, vocab=vocab,
                           source_code=code, text=text)


class TestParseConcepts:
    def test_single_line(self):
        records, malformed = onto.parse_concepts(
            io.StringIO("C0000001|DUT|MDRDUT|10001|koorts\n"), IDENTITY_MAP)
        assert malformed == 0
        r = records[0]
        assert (r.term_id, r.cui, r.vocab, r.text) == (
            0, "C0000001", "MDRDUT", "koorts")

    def test_empty_stream(self):
        records, malformed = onto.parse_concepts(io.StringIO(""), IDENTITY_MAP)
        assert records == [] and malformed == 0

    def test_short_line_is_malformed(self):
        records, malformed = onto.parse_concepts(
            io.StringIO("C0000001|DUT|x\n"), IDENTITY_MAP)
        assert records == [] and malformed == 1

    def test_bad_cui_is_malformed(self):
        records, malformed = onto.parse_concepts(
            io.StringIO("X123|DUT|MDRDUT|1|koorts\n"), IDENTITY_MAP)
        assert records == [] and malformed == 1

    def test_term_ids_sequential(self):
        text = "C0000001|DUT|A|1|a\nC0000002|DUT|A|2|b\n"
        records, _ = onto.parse_concepts(io.StringIO(text), IDENTITY_MAP)
        assert [r.term_id for r in records] == [0, 1]

    def test_trailing_pipe_tolerated(self):
        records, malformed = onto.parse_concepts(
            io.StringIO("C0000001|DUT|MDRDUT|1|koorts|\n"), IDENTITY_MAP)
        assert malformed == 0 and records[0].text == "koorts"


class TestCrosswalk:
    def test_single_match(self):
        bridge = [rec("C0000002", "fever", vocab="SNOMEDCT_US", code="123")]
        out = onto.crosswalk_terms(
            [onto.CrosswalkRow(sctid=123, text="koorts")], bridge)
        assert len(out) == 1 and out[0].cui == "C0000002"
        assert out[0].text == "koorts"

    def test_ambiguous_dropped(self):
        bridge = [rec("C0000002", "a", vocab="SNOMEDCT_US", code="456"),
                  rec("C0000003", "b", vocab="SNOMEDCT_US", code="456")]
        out = onto.crosswalk_terms(
            [onto.CrosswalkRow(sctid=456, text="x")], bridge)
        assert out == []

    def test_no_match_dropped(self):
        out = onto.crosswalk_terms([onto.CrosswalkRow(sctid=9, text="x")], [])
        assert out == []

    def test_empty_targets(self):
        assert onto.crosswalk_terms([], [rec("C0000002", "a")]) == []


def pipeline_fixture():
    concepts = [
        rec("C0000001", "koorts", tid=0),
        rec("C0000001", "Koorts", tid=1),
        rec("C0000001", "koorts x", vocab="BADVOC", tid=2),
        rec("C0000002", "hartinfarct, niet gespecificeerd", tid=3),
        rec("C0000002", "niet gespecificeerd", vocab="ICD10DUT", tid=4),
        rec("C0000003", "influenza", vocab="SNOMEDCT_US", code="111", tid=5),
        rec("C0000004", "diabetes", vocab="SNOMEDCT_US", code="222", tid=6),
        rec("C0000005", "diabetes type", vocab="SNOMEDCT_US", code="222", tid=7),
        rec("C0000006", "vogel", tid=8),
        rec("C0000007", "paracetamol", vocab="ATC", tid=9),
    ]
    sty = [
        onto.SemanticTypeRow("C0000001", "T047", "Disease or Syndrome"),
        onto.SemanticTypeRow("C0000002", "T047", "Disease or Syndrome"),
        onto.SemanticTypeRow("C0000003", "T047", "Disease or Syndrome"),
        onto.SemanticTypeRow("C0000006", "T012", "Bird"),
        onto.SemanticTypeRow("C0000007", "T121", "Pharmacologic Substance"),
    ]
    groups = {"T047": "DISO", "T121": "CHEM"}
    crosswalk = [
        onto.CrosswalkRow(sctid=111, text="griep"),
        onto.CrosswalkRow(sctid=222, text="suikerziekte"),
        onto.CrosswalkRow(sctid=333, text="onbekend"),
    ]
    subterms = [
        {"pattern": ", niet gespecificeerd", "vocabs": ["MDRDUT", "ICD10DUT"]},
        {"pattern": "niet gespecificeerd", "vocabs": ["ICD10DUT"]},
    ]
    filters = config('ontology.drop_vocabs=["BADVOC"]',
                     f"ontology.descriptive_subterms={json.dumps(subterms)}",
                     'ontology.drop_tuis=["T012"]',
                     'ontology.drug_vocabs=["ATC"]')["ontology"]
    return concepts, sty, groups, crosswalk, filters


class TestBuildOntology:
    def test_hand_simulated_steps(self):
        concepts, sty, groups, crosswalk, filters = pipeline_fixture()
        records, steps = onto.build_ontology(concepts, sty, groups, crosswalk,
                                             filters)
        # hand simulation: 9 non-drug records; -1 vocab, -1 emptied subterm,
        # -1 case dup, +1 crosswalk (1 ambiguous, 1 unmatched), -1 bird tui,
        # +1 drug name
        assert steps == [
            ("drop_vocabs", 8),
            ("strip_descriptive_subterms", 7),
            ("dedupe", 6),
            ("crosswalk_add", 7),
            ("drop_semantic_types", 6),
            ("drug_vocab_add", 7),
            ("assign_groups", 7),
        ]
        texts = {r.text for r in records}
        assert "hartinfarct" in texts  # subterm stripped
        assert "griep" in texts  # crosswalk addition
        assert "vogel" not in texts and "suikerziekte" not in texts
        by_text = {r.text: r for r in records}
        assert by_text["koorts"].group == "DISO"
        assert by_text["paracetamol"].group == "CHEM"
        assert [r.term_id for r in records] == list(range(7))

    def test_drop_all(self):
        filters = config('ontology.drop_vocabs=["MDRDUT"]')["ontology"]
        records, steps = onto.build_ontology(
            [rec("C0000001", "a")], [], {}, [], filters)
        assert records == []
        assert steps[0] == ("drop_vocabs", 0)

    def test_case_insensitive_dedupe(self):
        records, _ = onto.build_ontology(
            [rec("C0000001", "Koorts", tid=0), rec("C0000001", "koorts", tid=1)],
            [], {}, [], config()["ontology"])
        assert len(records) == 1 and records[0].text == "Koorts"

    def test_case_sensitive_dedupe_keeps_both(self):
        filters = config("ontology.dedupe_case_insensitive=false")["ontology"]
        records, _ = onto.build_ontology(
            [rec("C0000001", "Koorts", tid=0), rec("C0000001", "koorts", tid=1)],
            [], {}, [], filters)
        assert len(records) == 2

    def test_idempotent_on_own_output(self):
        concepts, sty, groups, crosswalk, filters = pipeline_fixture()
        records, _ = onto.build_ontology(concepts, sty, groups, crosswalk, filters)
        again, _ = onto.build_ontology(ontology_as_terms(records), sty, groups,
                                       [], filters)
        assert again == records

    def test_step_monotonicity_random(self):
        rng = np.random.default_rng(4)
        vocabs = ["A", "B", "C", "ATC"]
        for _ in range(20):
            concepts = [
                rec(f"C{int(rng.integers(1, 6)):07d}",
                    "t" + str(int(rng.integers(0, 8))),
                    vocab=vocabs[int(rng.integers(0, 4))], tid=i)
                for i in range(int(rng.integers(1, 30)))
            ]
            filters = config('ontology.drop_vocabs=["B"]',
                             'ontology.drug_vocabs=["ATC"]',
                             'ontology.drop_tuis=["T999"]')["ontology"]
            sty = [onto.SemanticTypeRow("C0000001", "T999", "x")]
            _, steps = onto.build_ontology(concepts, sty, {}, [], filters)
            counts = [c for _, c in steps]
            filter_steps = {1, 2, 4}  # 0-based indexes of pure-filter steps
            for k in range(1, len(counts)):
                if k in filter_steps:
                    assert counts[k] <= counts[k - 1]
                else:
                    assert counts[k] >= counts[k - 1]

    def test_other_group_count(self):
        concepts, sty, groups, crosswalk, filters = pipeline_fixture()
        records, _ = onto.build_ontology(concepts, sty, groups, crosswalk, filters)
        unmapped = {r.cui for r in records
                    if not any(s.cui == r.cui and s.tui in groups
                               for s in sty)}
        assert sum(1 for r in records if r.group == "OTHER") == \
            sum(1 for r in records if r.cui in unmapped)
        assert all(r.group in SEMANTIC_GROUPS for r in records)


# an ontology field: JSON's escapes, line breaks and the line separators
# JSON leaves raw drawn more often
ONTOLOGY_FIELD = st.text(xml_chars('"\\\n\r\t \x85\u2028'), max_size=8)


class TestSerialization:
    def roundtrip(self, records):
        return onto.parse_ontology(io.StringIO(onto.serialize_ontology(records)))

    def test_roundtrip_small(self):
        records = [
            onto.OntologyRecord(0, "C0000001", "koorts", "MDRDUT", "DISO"),
            onto.OntologyRecord(1, "C0000002", "café", "MDRDUT", "OTHER"),
            onto.OntologyRecord(2, "C0000003", 'a|b"c', "ATC", "CHEM"),
        ]
        assert self.roundtrip(records) == records

    def test_roundtrip_empty(self):
        assert self.roundtrip([]) == []

    def test_roundtrip_random_unicode(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            records = []
            for i in range(int(rng.integers(0, 12))):
                text = "".join(chr(int(c)) for c in rng.integers(33, 0x2500, 6))
                records.append(onto.OntologyRecord(
                    i, f"C{int(rng.integers(0, 10**7)):07d}", text, "V", "DISO"))
            assert self.roundtrip(records) == records

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(ONTOLOGY_FIELD, ONTOLOGY_FIELD.filter(str.strip),
                              ONTOLOGY_FIELD, ONTOLOGY_FIELD),
                    max_size=6))
    def test_roundtrip_over_xml_chars(self, fields):
        """Every record whose text is not blank reads back from the
        ontology file, opened as a text file is."""
        records = [onto.OntologyRecord(i, cui, text, vocab, group)
                   for i, (cui, text, vocab, group) in enumerate(fields)]
        text = onto.serialize_ontology(records)
        assert onto.parse_ontology(io.StringIO(text, newline=None)) == records

    def test_malformed_line_fatal_with_lineno(self):
        with pytest.raises(DataError, match="line 2"):
            onto.parse_ontology(io.StringIO(
                '{"term_id":0,"cui":"C0000001","text":"a","vocab":"V","group":"DISO"}\n'
                "not json\n"))

    @pytest.mark.parametrize("field, value", [
        ("term_id", "0"), ("term_id", 0.0), ("term_id", True), ("cui", None),
        ("text", 5), ("vocab", ["V"]), ("group", {"g": "DISO"})])
    def test_field_of_another_type_fatal_with_lineno(self, field, value):
        record = {"term_id": 0, "cui": "C0000001", "text": "a", "vocab": "V",
                  "group": "DISO"}
        with pytest.raises(DataError, match="^ontology line 2: term_id must be"):
            onto.parse_ontology(io.StringIO(
                json.dumps(record) + "\n" + json.dumps({**record, field: value})))


class TestParseOtherFiles:
    def test_semantic_types(self):
        rows, malformed = onto.parse_semantic_types(
            io.StringIO("C0000001|T047|Disease\nbad\n"))
        assert len(rows) == 1 and rows[0].tui == "T047" and malformed == 1

    def test_relations_drop_self_loops(self):
        rows, _ = onto.parse_relations(
            io.StringIO("C0000001|RN|C0000002|V\nC0000001|RO|C0000001|V\n"))
        assert len(rows) == 1 and rows[0].rel == "RN"

    def test_crosswalk_rows(self):
        rows, malformed = onto.parse_crosswalk(
            io.StringIO("123|griep\n-5|x\nabc|y\n"))
        assert len(rows) == 1 and rows[0].sctid == 123 and malformed == 2

    def test_crosswalk_ids_are_ascii_digits(self):
        rows, malformed = onto.parse_crosswalk(io.StringIO(
            "1_0|a\n+5|b\n\u0661\u0662|c\n\u00b2|d\n7|e\n"))
        assert rows == [onto.CrosswalkRow(sctid=7, text="e")] and malformed == 4


# field values that hit every branch of the four row parsers: valid and bad
# CUIs and TUIs, ids that int() and str.isdigit judge differently, blanks
FIELDS = ["C0000001", "C0000002", " C0000003 ", "C123", "c0000001", "T047",
          "T1", "123", "+5", "\u00b2", "\u0661\u0662", "-5", "0", "1_0",
          "abc", "griep", " koorts ", "", " ", "MDRDUT", "RN"]
LINES = st.one_of(
    st.sampled_from(["", " ", "\t", "\r"]),
    st.builds(lambda fields, tail: "|".join(fields) + tail,
              st.lists(st.sampled_from(FIELDS), max_size=6),
              st.sampled_from(["", "|", "||", "\r"])))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(LINES, max_size=12), st.booleans(),
       st.lists(st.integers(0, 5), min_size=4, max_size=4))
@example(["C0000001|RN|C0000001|V|", "123|griep", "+5|x", "\u00b2|y",
          "\u0661\u0662|z", "", "C0000001|T047|Disease|", "C0000001|DUT",
          "C0000001|T047|", "C0000001|RN|C0000002|"],
         True, [0, 2, 3, 4])
def test_row_parsers_match_the_per_file_loops(lines, final_newline, columns):
    """Each parser gives the records and malformed count of its old
    stand-alone loop: blank, short and trailing-pipe lines, bad CUIs, TUIs
    and ids, and relation self-loops dropped without counting as malformed."""
    text = "\n".join(lines) + ("\n" if final_newline else "")
    column_map = dict(zip(("cui", "vocab", "source_code", "text"), columns))
    assert onto.parse_concepts(io.StringIO(text), column_map) == \
        oracles.parse_concepts(io.StringIO(text), column_map)
    for name in ("parse_semantic_types", "parse_relations", "parse_crosswalk"):
        assert getattr(onto, name)(io.StringIO(text)) == \
            getattr(oracles, name)(io.StringIO(text)), name
