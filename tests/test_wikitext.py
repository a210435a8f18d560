import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from belforge import wikitext
from belforge.wikitext import DEFAULT_DROP_PREFIXES, split_sentences, strip_wikitext
from oracles import ABBREVIATIONS

# bracket- and punctuation-heavy pieces of wikitext: template and link
# brackets in runs of one to three, a stray pipe, media prefixes, section
# anchors, abbreviations, capitals, digits, non-ASCII whitespace and an
# unprintable character that is not whitespace
PIECES = ["{{", "}}", "{{{", "}}}", "{", "}", "[[", "]]", "[[[", "]]]", "[", "]",
          "|", "File:", "Bestand:", "categorie:", "#", ":", "a", "Zin", "é", "İ",
          "5", "²", " ", "\u00a0", "\u2003", "\u2028", "\u200b", "\t", "\n",
          ".", "!", "?", "ca.", "e.g.", "Dr.", "<!--", "-->", "<ref>", "</ref>",
          "''", "==", "x|y"]
wikitexts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)


class TestStripWikitext:
    def test_piped_link_offsets(self):
        clean, links, warn = strip_wikitext("Een [[hartinfarct|MI]] is ernstig.")
        assert clean == "Een MI is ernstig."
        assert warn == 0
        assert len(links) == 1
        lk = links[0]
        assert (lk.start, lk.end, lk.anchor, lk.target) == (4, 6, "MI", "hartinfarct")

    def test_plain_link_anchor_defaults_to_target(self):
        clean, links, _ = strip_wikitext("[[Insomnie]]")
        assert clean == "Insomnie"
        assert (links[0].start, links[0].end) == (0, 8)
        assert links[0].anchor == "Insomnie" and links[0].target == "Insomnie"

    def test_nested_template_dropped(self):
        clean, links, warn = strip_wikitext("{{Infobox|a={{b}}}}Tekst")
        assert clean == "Tekst" and links == [] and warn == 0

    def test_unbalanced_template_drops_remainder(self):
        clean, links, warn = strip_wikitext("Voor {{oops rest [[x]]")
        assert clean == "Voor " and links == [] and warn == 1

    def test_refs_and_comments_removed(self):
        clean, _, _ = strip_wikitext(
            'A<ref name="x">bron</ref>B<!-- weg -->C<ref name="y" />D')
        assert clean == "ABCD"

    def test_file_and_category_links_dropped(self):
        clean, links, _ = strip_wikitext(
            "[[Bestand:foo.jpg|thumb|Een [[hart]]]]Tekst[[Categorie:Ziekte]]")
        assert clean == "Tekst" and links == []

    def test_section_anchor_targets_page(self):
        _clean, links, _ = strip_wikitext("[[Hart#Anatomie|het hart]]")
        assert links[0].target == "Hart" and links[0].anchor == "het hart"

    def test_headings_and_quotes(self):
        clean, _, _ = strip_wikitext("== Kop ==\n'''vet''' en ''schuin''")
        assert clean == "Kop\nvet en schuin"

    def test_offsets_property_random_grammar(self):
        rng = np.random.default_rng(5)
        words = ["aa", "bb", "cc", "dd lange tekst", "x.y"]
        for _ in range(200):
            parts = []
            for _ in range(int(rng.integers(1, 12))):
                choice = rng.integers(0, 5)
                w = words[int(rng.integers(0, len(words)))]
                if choice == 0:
                    parts.append(w + " ")
                elif choice == 1:
                    parts.append(f"[[{w.capitalize()}]]")
                elif choice == 2:
                    parts.append(f"[[{w.capitalize()}|{w}]]")
                elif choice == 3:
                    parts.append("{{tmpl|" + w + "}}")
                else:
                    parts.append("{{a|{{b|" + w + "}}}}")
            clean, links, warn = strip_wikitext("".join(parts))
            assert warn == 0
            assert "|" not in clean and "{" not in clean and "}" not in clean
            for lk in links:
                assert clean[lk.start:lk.end] == lk.anchor


    def test_anchor_whitespace_runs_fold_to_one_space(self):
        clean, links, _ = strip_wikitext(
            "Vaak [[Griep|hoge\n \tkoorts]] en [[Koorts|a\u00a0\u2003b ]].")
        assert clean == "Vaak hoge koorts en a b ."
        assert [(lk.start, lk.end, lk.anchor) for lk in links] == [
            (5, 16, "hoge koorts"), (20, 23, "a b")]

    def test_blank_anchor_stays_text_without_a_link(self):
        clean, links, _ = strip_wikitext("a [[Griep| \n ]] b [[Koorts|]] c")
        assert clean == "a   b  c" and links == []

    def test_depth_zero_closer_stays_literal(self):
        clean, _, warn = strip_wikitext("a}} {{b}}c}}}")
        assert clean == "a}} c}}}" and warn == 0

    def test_unmatched_link_opener_is_dropped(self):
        clean, links, _ = strip_wikitext("a [[b [[C]] d")
        assert clean == "a b C d"
        assert [(lk.start, lk.end, lk.target) for lk in links] == [(4, 5, "C")]


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(wikitexts)
def test_strip_wikitext_equals_oracle(markup):
    assert strip_wikitext(markup) == oracles.strip_wikitext(markup)
    assert wikitext._drop_templates(markup) == oracles.drop_templates(markup)
    assert (wikitext._resolve_links(markup)
            == oracles.resolve_links(markup, DEFAULT_DROP_PREFIXES))


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(wikitexts, st.sampled_from([ABBREVIATIONS, {"ca.", "e.g."},
                                   {"zin.", "!", "a?", "a!"}, set()]))
def test_split_sentences_equals_oracle(text, abbreviations):
    assert (split_sentences(text, abbreviations)
            == oracles.split_sentences(text, abbreviations))
    clean = strip_wikitext(text)[0]
    assert (split_sentences(clean, abbreviations)
            == oracles.split_sentences(clean, abbreviations))


@pytest.mark.parametrize("piece", ["[[a ", "{{"])
def test_pathological_page_is_linear(piece):
    small = piece * 2000
    assert strip_wikitext(small) == oracles.strip_wikitext(small)
    page = piece * 50_000
    start = time.perf_counter()
    strip_wikitext(page)
    assert time.perf_counter() - start < 2.0


class TestSplitSentences:
    def test_two_sentences(self):
        text = "Dit is zin één. Dit is zin twee."
        spans = split_sentences(text, ABBREVIATIONS)
        assert len(spans) == 2
        assert text[spans[0][0]:spans[0][1]] == "Dit is zin één."
        assert text[spans[1][0]:spans[1][1]] == "Dit is zin twee."

    def test_abbreviation_no_split(self):
        spans = split_sentences("Neem ca. 5 mg per dag.", abbreviations={"ca."})
        assert len(spans) == 1

    def test_abbreviation_check_applies_to_periods_only(self):
        text = "Ja! Nee. Zo"
        assert split_sentences(text, abbreviations={"ja!", "nee."}) == [(0, 3), (4, 11)]

    def test_empty(self):
        assert split_sentences("", ABBREVIATIONS) == []

    def test_no_split_before_lowercase(self):
        assert len(split_sentences("Het is b.v. waar dat geldt.", ABBREVIATIONS)) == 1

    def test_split_before_digit(self):
        assert len(split_sentences("Eerste zin! 2 is een getal.", ABBREVIATIONS)) == 2

    def test_spans_cover_non_whitespace(self):
        rng = np.random.default_rng(6)
        tokens = ["Zin", "twee.", "Drie!", "ca.", "5", "woord?", "Ja", "nee."]
        for _ in range(200):
            text = " ".join(tokens[int(i)] for i in
                            rng.integers(0, len(tokens), rng.integers(0, 15)))
            spans = split_sentences(text, ABBREVIATIONS)
            prev_end = -1
            covered = set()
            for start, end in spans:
                assert start > prev_end
                assert start < end
                prev_end = end
                covered.update(range(start, end))
            for i, c in enumerate(text):
                if not c.isspace():
                    assert i in covered
