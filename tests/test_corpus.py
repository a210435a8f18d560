import io
import json
import os
import tracemalloc
import urllib.parse
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from belforge import corpus
from belforge.errors import DataError, NetworkError
from belforge.ontology import OntologyRecord

DUMP_HEADER = '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">'


def make_dump(pages):
    parts = [DUMP_HEADER]
    for pid, title, ns, text in pages:
        body = "" if text is None else f"<text>{text}</text>"
        parts.append(
            f"<page><title>{title}</title><ns>{ns}</ns><id>{pid}</id>"
            f"<revision><id>{pid * 100}</id>{body}</revision></page>")
    parts.append("</mediawiki>")
    return io.BytesIO("".join(parts).encode("utf-8"))


def simple_map(entries):
    amap = corpus.ArticleCuiMap()
    for title, qid, cui in entries:
        amap.entries[corpus.normalize_title(title)] = (qid, cui)
    return amap


class TestArticleMapTsv:
    def test_normalization(self):
        amap = corpus.load_article_map_tsv(
            io.StringIO("Q42\tC0000001\tHartinfarct\n"))
        assert amap.entries == {"hartinfarct": ("Q42", "C0000001")}

    def test_underscores_to_spaces(self):
        amap = corpus.load_article_map_tsv(
            io.StringIO("Q1\tC0000002\tZiekte_van_Crohn\n"))
        assert "ziekte van Crohn" in amap.entries

    def test_empty(self):
        amap = corpus.load_article_map_tsv(io.StringIO(""))
        assert amap.entries == {}

    def test_first_wins_on_duplicate_title(self):
        amap = corpus.load_article_map_tsv(io.StringIO(
            "Q1\tC0000001\tGriep\nQ2\tC0000002\tGriep\n"))
        assert amap.entries["griep"] == ("Q1", "C0000001")
        assert amap.duplicates == 1

    def test_malformed_rows_skipped(self):
        amap = corpus.load_article_map_tsv(io.StringIO(
            "onzin\nQ1\tC0000001\tGriep\nniet\tgenoeg\n"))
        assert len(amap.entries) == 1 and amap.skipped == 2


class TestSparql:
    def test_query_template(self):
        q = corpus.build_sparql_query("https://nl.wikipedia.org/", "P2892", "nl")
        assert "wdt:P2892" in q
        assert "<https://nl.wikipedia.org/>" in q
        assert 'wikibase:language "nl"' in q

    def test_parses_bindings(self):
        payload = {"results": {"bindings": [
            {"concept": {"value": "http://www.wikidata.org/entity/Q42"},
             "cui": {"value": "C0000001"},
             "article": {"value": "https://nl.wikipedia.org/wiki/Hartinfarct"}},
            {"broken": {}},
        ]}}
        amap = corpus.load_article_map_sparql(
            "https://example.org/sparql", "https://nl.wikipedia.org/",
            fetcher=lambda url: json.dumps(payload).encode())
        assert amap.entries == {"hartinfarct": ("Q42", "C0000001")}
        assert amap.skipped == 1

    @staticmethod
    def load(bindings):
        payload = {"results": {"bindings": bindings}}
        return corpus.load_article_map_sparql(
            "https://example.org/sparql", "https://nl.wikipedia.org/",
            fetcher=lambda url: json.dumps(payload).encode())

    def test_binding_values_that_are_not_strings_are_skipped(self):
        """A number, null or list as the concept, CUI or article value skips
        and counts the binding; a numeric CUI is not stored."""
        good = {"concept": {"value": "http://www.wikidata.org/entity/Q42"},
                "cui": {"value": "C0000001"},
                "article": {"value": "https://nl.wikipedia.org/wiki/Hartinfarct"}}
        bad = [{**good, field: {"value": value}}
               for field in ("concept", "cui", "article")
               for value in (5, None, ["Q1"])]
        amap = self.load(bad + [good])
        assert amap.entries == {"hartinfarct": ("Q42", "C0000001")}
        assert (amap.skipped, amap.duplicates) == (9, 0)

    def test_title_is_the_whole_path_after_wiki(self):
        """A title keeps its '/', raw or quoted as %2F; an article IRI of
        another site is skipped and counted."""
        def binding(qid, article):
            return {"concept": {"value": f"http://www.wikidata.org/entity/{qid}"},
                    "cui": {"value": f"C000000{qid[1:]}"},
                    "article": {"value": article}}

        amap = self.load([
            binding("Q1", "https://nl.wikipedia.org/wiki/HIV/aids"),
            binding("Q2", "https://nl.wikipedia.org/wiki/Aids%2FHIV-remmer"),
            binding("Q3", "https://de.wikipedia.org/wiki/Grippe"),
            binding("Q4", "https://nl.wikipedia.org/Koorts")])
        assert amap.entries == {"hIV/aids": ("Q1", "C0000001"),
                                "aids/HIV-remmer": ("Q2", "C0000002")}
        assert amap.skipped == 2

    def test_caches_response(self, tmp_path):
        payload = json.dumps({"results": {"bindings": []}}).encode()
        calls = []

        def fetcher(url):
            calls.append(url)
            return payload

        for _ in range(2):
            corpus.load_article_map_sparql(
                "https://example.org/sparql", "https://nl.wikipedia.org/",
                fetcher=fetcher, cache_dir=str(tmp_path))
        assert len(calls) == 1

    def test_failed_cache_write_leaves_no_entry(self, tmp_path, monkeypatch):
        payload = json.dumps({"results": {"bindings": []}}).encode()
        real_fdopen = os.fdopen

        class HalfWriter:
            """A file whose write stores half the data, then fails."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                self.f.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fdopen",
                            lambda fd, mode: HalfWriter(real_fdopen(fd, mode)))
        with pytest.raises(OSError):
            corpus.load_article_map_sparql(
                "https://example.org/sparql", "https://nl.wikipedia.org/",
                fetcher=lambda url: payload, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []
        monkeypatch.undo()
        amap = corpus.load_article_map_sparql(
            "https://example.org/sparql", "https://nl.wikipedia.org/",
            fetcher=lambda url: payload, cache_dir=str(tmp_path))
        assert amap.entries == {} and len(os.listdir(tmp_path)) == 1

    def test_malformed_response_is_not_cached(self, tmp_path):
        """A response that does not parse is refused before it is cached, so
        the next call fetches again."""
        good = json.dumps({"results": {"bindings": []}}).encode()
        calls = []

        def fetcher(response):
            def fetch(url):
                calls.append(url)
                return response
            return fetch

        for bad in (b"<html>rate limited</html>",
                    json.dumps({"results": {"bindings": 5}}).encode()):
            with pytest.raises(DataError, match="malformed SPARQL response"):
                corpus.load_article_map_sparql(
                    "https://example.org/sparql", "https://nl.wikipedia.org/",
                    fetcher=fetcher(bad), cache_dir=str(tmp_path))
            assert os.listdir(tmp_path) == []
        for _ in range(2):
            amap = corpus.load_article_map_sparql(
                "https://example.org/sparql", "https://nl.wikipedia.org/",
                fetcher=fetcher(good), cache_dir=str(tmp_path))
            assert amap.entries == {}
        assert len(calls) == 3 and len(os.listdir(tmp_path)) == 1

    def test_network_error(self):
        def fetcher(url):
            raise NetworkError("HTTP 503")

        with pytest.raises(NetworkError):
            corpus.load_article_map_sparql(
                "https://example.org/sparql", "https://nl.wikipedia.org/",
                fetcher=fetcher)


def test_both_loaders_apply_one_insert_rule():
    """The TSV and SPARQL loaders skip, count duplicates and insert alike:
    a malformed QID, an empty CUI and a blank title are skipped, and the
    second of two titles that normalize alike is a duplicate."""
    rows = [("Q1", "C0000001", "Griep"), ("X2", "C0000002", "Koorts"),
            ("Q3", "", "Hartinfarct"), ("Q4", "C0000004", " "),
            ("Q5", "C0000005", "Ziekte_van_Crohn"),
            ("Q6", "C0000006", "ziekte van  Crohn"),
            ("Q7", "C0000007", "Suikerziekte")]
    tsv = corpus.load_article_map_tsv(
        io.StringIO("".join(f"{q}\t{c}\t{t}\n" for q, c, t in rows)))
    payload = {"results": {"bindings": [
        {"concept": {"value": f"http://www.wikidata.org/entity/{q}"},
         "cui": {"value": c},
         "article": {"value": "https://nl.wikipedia.org/wiki/"
                              + urllib.parse.quote(t, safe="")}}
        for q, c, t in rows]}}
    sparql = corpus.load_article_map_sparql(
        "https://example.org/sparql", "https://nl.wikipedia.org/",
        fetcher=lambda url: json.dumps(payload).encode())
    assert tsv.entries == sparql.entries == {
        "griep": ("Q1", "C0000001"), "ziekte van Crohn": ("Q5", "C0000005"),
        "suikerziekte": ("Q7", "C0000007")}
    assert (tsv.duplicates, tsv.skipped) == (sparql.duplicates,
                                             sparql.skipped) == (1, 3)


class TestParseDump:
    def test_namespace_filter(self):
        pages = list(corpus.parse_dump(make_dump([
            (1, "Artikel", 0, "tekst"),
            (2, "Categorie:X", 14, "weg"),
        ])))
        assert [p.title for p in pages] == ["Artikel"]
        assert pages[0].page_id == 1 and pages[0].namespace == 0

    def test_empty_text_kept(self):
        pages = list(corpus.parse_dump(make_dump([(1, "Leeg", 0, "")])))
        assert pages[0].wikitext == ""

    def test_missing_text_skipped(self):
        pages = list(corpus.parse_dump(make_dump([
            (1, "Zonder", 0, None), (2, "Met", 0, "x")])))
        assert [p.title for p in pages] == ["Met"]

    def test_document_order(self):
        pages = list(corpus.parse_dump(make_dump([
            (5, "B", 0, "x"), (3, "A", 0, "y")])))
        assert [p.title for p in pages] == ["B", "A"]

    def test_malformed_xml_fatal(self):
        with pytest.raises(DataError):
            list(corpus.parse_dump(io.BytesIO(b"<mediawiki><page>")))

    @staticmethod
    def _peak_bytes(dump):
        tracemalloc.start()
        try:
            for _page in corpus.parse_dump(dump):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_the_dump(self):
        """Read pages are dropped: the peak over 4N pages stays within a
        small slack of the peak over N. A cleared page kept under the root
        costs some 80 bytes, about 470 KiB over the 6,000 extra pages."""
        def dump(n):
            return make_dump([(i, f"P{i}", 0, f"tekst {i}") for i in range(1, n + 1)])
        self._peak_bytes(dump(10))  # first-use allocations
        small, large = self._peak_bytes(dump(2000)), self._peak_bytes(dump(8000))
        assert large <= small + 64 * 1024, (small, large)


class TestCompileCorpus:
    def test_link_in_second_sentence_only(self):
        pages = [corpus.WikiPage(1, "Pagina", 0,
                                 "Eerste zin hier. Dit noemt [[Hartinfarct|MI]] nu.")]
        amap = simple_map([("Hartinfarct", "Q42", "C0000001")])
        sentences, mentions, stats, _ = corpus.compile_corpus(iter(pages), amap)
        assert len(sentences) == 1 and len(mentions) == 1
        s, m = sentences[0], mentions[0]
        assert s.text == "Dit noemt MI nu."
        assert s.text[m.start:m.end] == m.anchor == "MI"
        assert m.cui == "C0000001" and m.qid == "Q42"
        assert stats.sentences == 1 and stats.mentions == 1

    def test_unmapped_target_not_selected(self):
        pages = [corpus.WikiPage(1, "P", 0, "Zie [[Onbekend artikel]] hier.")]
        sentences, mentions, _, _ = corpus.compile_corpus(
            iter(pages), simple_map([("Iets anders", "Q1", "C0000001")]))
        assert sentences == [] and mentions == []

    def test_anchor_matches_span_everywhere(self):
        pages = [
            corpus.WikiPage(1, "A", 0,
                            "[[Griep]] en [[Koorts|koorts]] samen. Nog een [[Griep|griepje]]."),
            corpus.WikiPage(2, "B", 0, "{{infobox}}Over [[Diabetes]]. Zonder link."),
        ]
        amap = simple_map([("Griep", "Q1", "C0000001"),
                           ("Koorts", "Q2", "C0000002"),
                           ("Diabetes", "Q3", "C0000003")])
        sentences, mentions, stats, _ = corpus.compile_corpus(iter(pages), amap)
        by_id = {s.sentence_id: s for s in sentences}
        for m in mentions:
            assert by_id[m.sentence_id].text[m.start:m.end] == m.anchor
        assert stats.mentions == 4
        assert stats.unique_mentions == 4
        assert stats.unique_cuis == 3

    def test_stats_against_ontology(self):
        pages = [corpus.WikiPage(1, "A", 0, "Over [[Griep]] en [[Koorts]].")]
        amap = simple_map([("Griep", "Q1", "C0000001"),
                           ("Koorts", "Q2", "C0000999")])
        ontology = [OntologyRecord(0, "C0000001", "Griep", "V", "DISO")]
        _, _, stats, _ = corpus.compile_corpus(iter(pages), amap, ontology=ontology)
        assert stats.unlinkable_cuis == 1  # C0000999 absent
        assert stats.unseen_mentions == 1  # "Koorts" not an ontology term

    def test_unbalanced_templates_counted_per_page(self):
        pages = [corpus.WikiPage(1, "A", 0, "{{a {{b}} [[Griep]]. {{c"),
                 corpus.WikiPage(2, "B", 0, "[[Griep]] }} {{x}}."),
                 corpus.WikiPage(3, "C", 0, "{{")]
        amap = simple_map([("Griep", "Q1", "C0000001")])
        sentences, _, _, unbalanced = corpus.compile_corpus(iter(pages), amap)
        assert unbalanced == 2
        assert [s.text for s in sentences] == ["Griep }} ."]


# pieces of pages whose links fall inside, across and between sentences
PAGE_PIECES = ["Zin", "een", "5", " ", "\u00a0", ". ", "! ", "? ", "ca. ", ".",
               "[[Griep]]", "[[Koorts|hoge koorts]]", "[[griep|a. B]]",
               "[[Griep| ]]", "[[Griep|x.]]", "[[Onbekend]]", "[[Bestand:Griep]]",
               "{{sjabloon}}", "{{", "}}", "[[", "]]", "|"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.lists(st.sampled_from(PAGE_PIECES), max_size=30).map("".join),
                max_size=4))
def test_compile_equals_oracle(texts):
    pages = [corpus.WikiPage(i, f"P{i}", 0, t) for i, t in enumerate(texts)]
    amap = simple_map([("Griep", "Q1", "C0000001"), ("Koorts", "Q2", "C0000002")])
    sentences, mentions, _, _ = corpus.compile_corpus(iter(pages), amap)
    assert (sentences, mentions) == oracles.compile_corpus(pages, amap)


def star_fixture():
    sentences = [
        corpus.SentenceRecord(0, "A", "MS is erg."),
        corpus.SentenceRecord(1, "B", "Over MS en griep."),
    ]
    mentions = [
        corpus.MentionAnnotation(0, 0, 2, "MS", "Multiple sclerose", "C0000001", "Q1"),
        corpus.MentionAnnotation(1, 5, 7, "MS", "Multiple sclerose", "C0000001", "Q1"),
        corpus.MentionAnnotation(1, 11, 16, "griep", "Griep", "C0000002", "Q2"),
        corpus.MentionAnnotation(1, 11, 16, "koorts", "Koorts", "C0000999", "Q3"),
    ]
    ontology = [OntologyRecord(0, "C0000001", "multiple sclerose", "V", "DISO"),
                OntologyRecord(1, "C0000002", "influenza", "V", "DISO")]
    return sentences, mentions, ontology


class TestStarSubset:
    def test_duplicates_dropped(self):
        sentences, mentions, ontology = star_fixture()
        train, val = corpus.build_star_subset(sentences, mentions, ontology,
                                              split_ratio=0.5, seed=0)
        kept = train.mentions + val.mentions
        assert sorted(m.anchor for m in kept) == ["MS", "griep"]
        # first occurrence of MS is in sentence 0
        assert [m.sentence_id for m in kept if m.anchor == "MS"] == [0]

    def test_unknown_cui_excluded(self):
        sentences, mentions, ontology = star_fixture()
        train, val = corpus.build_star_subset(sentences, mentions, ontology,
                                              split_ratio=0.5, seed=0)
        assert all(m.cui != "C0000999" for m in train.mentions + val.mentions)

    def test_split_deterministic_and_ratio(self):
        rng = np.random.default_rng(3)
        sentences = [corpus.SentenceRecord(i, "P", f"zin {i} nummer")
                     for i in range(10)]
        mentions = [corpus.MentionAnnotation(i, 0, 3, f"m{i:02d}", "T",
                                             "C0000001", "Q1")
                    for i in range(10)]
        ontology = [OntologyRecord(0, "C0000001", "term", "V", "DISO")]
        t1, v1 = corpus.build_star_subset(sentences, mentions, ontology, 0.8, 42)
        t2, v2 = corpus.build_star_subset(sentences, mentions, ontology, 0.8, 42)
        assert len(t1.mentions) == 8 and len(v1.mentions) == 2
        assert t1 == t2 and v1 == v2
        anchors = {m.anchor for m in t1.mentions} | {m.anchor for m in v1.mentions}
        assert len(anchors) == 10  # partition, no overlap or loss


class TestCorpusXml:
    def roundtrip(self, sl):
        text = corpus.serialize_corpus(sl)
        return text, corpus.parse_corpus(io.StringIO(text))

    def test_roundtrip_identity(self):
        sentences, mentions, _ = star_fixture()
        sl = corpus.CorpusSlice(sentences=sentences[:1], mentions=mentions[:1])
        text, back = self.roundtrip(sl)
        assert back == sl
        assert "<mention" in text

    def test_roundtrip_escaping(self):
        sl = corpus.CorpusSlice(
            sentences=[corpus.SentenceRecord(0, 'P "q" & <r>', "a < b & c.")],
            mentions=[corpus.MentionAnnotation(0, 0, 5, "a < b", "T&T",
                                               "C0000001", "Q1")])
        _text, back = self.roundtrip(sl)
        assert back == sl

    @settings(max_examples=200, derandomize=True, database=None)
    @given(text=st.text(st.sampled_from("\r\n\t&<> a"), min_size=1, max_size=12),
           data=st.data())
    def test_roundtrip_keeps_line_breaks_tabs_and_markup(self, text, data):
        """Sentence text, anchors, titles and targets holding CR, LF, tab,
        &, < and > read back as written: a raw CR in text content would
        come back as LF."""
        start = data.draw(st.integers(0, len(text) - 1))
        end = data.draw(st.integers(start + 1, len(text)))
        sl = corpus.CorpusSlice(
            sentences=[corpus.SentenceRecord(0, "P\r\n\t&<>" + text, text)],
            mentions=[corpus.MentionAnnotation(0, start, end, text[start:end],
                                               text + "\r", "C0000001", "Q1")])
        assert self.roundtrip(sl)[1] == sl

    def test_carriage_return_in_an_anchor_survives(self):
        sl = corpus.CorpusSlice(
            sentences=[corpus.SentenceRecord(0, "Griep", "hoge\rkoorts is griep")],
            mentions=[corpus.MentionAnnotation(0, 0, 11, "hoge\rkoorts", "Koorts",
                                               "C0000003", "Q3")])
        text, back = self.roundtrip(sl)
        assert back == sl and "hoge&#13;koorts" in text

    @settings(max_examples=300, derandomize=True, database=None)
    @given(st.text(st.sampled_from("&<>\"'\n\r\t ;#a\u00e9\u4e2d")
                   | st.characters(), max_size=12))
    def test_escapes_match_saxutils(self, text):
        """The serializer's escapes give saxutils's bytes for any text, but
        for a CR in text content, written as a character reference."""
        assert corpus._escape(text) == saxutils.escape(text, {"\r": "&#13;"})
        assert corpus._quoteattr(text) == saxutils.quoteattr(text)

    def test_empty_slice(self):
        text, back = self.roundtrip(corpus.CorpusSlice())
        assert back == corpus.CorpusSlice()
        assert text == "<corpus>\n</corpus>\n"

    def test_serialization_stable_after_normalization(self):
        sentences, mentions, _ = star_fixture()
        sl = corpus.CorpusSlice(sentences=sentences, mentions=mentions[:3])
        once, back = self.roundtrip(sl)
        twice, _ = self.roundtrip(back)
        assert once == twice

    @pytest.mark.parametrize("sentence, mention, fragment", [
        ('<sentence page="P">', 'cui="C0000001" start="2" end="4"',
         "sentence #1 of the corpus: attribute 'id' is missing"),
        ('<sentence id="x" page="P">', 'cui="C0000001" start="2" end="4"',
         "sentence #1 of the corpus: attribute 'id' is not an integer: 'x'"),
        ('<sentence id="0" page="P">', 'cui="C0000001" end="4"',
         "sentence 0: mention 'cd': attribute 'start' is missing"),
        ('<sentence id="0" page="P">', 'cui="C0000001" start="z" end="4"',
         "sentence 0: mention 'cd': attribute 'start' is not an integer"),
        ('<sentence id="0" page="P">', 'cui="C0000001" start="2" end=""',
         "sentence 0: mention 'cd': attribute 'end' is not an integer"),
        ('<sentence id="0" page="P">', 'start="2" end="4"',
         "sentence 0: mention 'cd': attribute 'cui' is missing"),
    ], ids=["no_id", "id_x", "no_start", "start_z", "empty_end", "no_cui"])
    def test_malformed_attributes_are_data_errors(self, sentence, mention,
                                                  fragment):
        xml = (f"<corpus>\n{sentence}ab<mention {mention} qid=\"Q1\" "
               'target="T">cd</mention></sentence>\n</corpus>')
        with pytest.raises(DataError) as err:
            corpus.parse_corpus(io.StringIO(xml))
        assert fragment in str(err.value)

    def test_bad_offsets_fatal(self):
        xml = ('<corpus>\n<sentence id="0" page="P">ab'
               '<mention cui="C0000001" qid="Q1" start="9" end="11" target="T">cd'
               "</mention></sentence>\n</corpus>")
        with pytest.raises(DataError, match="sentence 0"):
            corpus.parse_corpus(io.StringIO(xml))
