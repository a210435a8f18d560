"""Hypothesis strategies shared by the round-trip tests of the line and
XML formats."""

from hypothesis import strategies as st


def xml_chars(often):
    """XML 1.0 ``Char``, which is what a dump can carry, with the characters
    of ``often`` drawn more often."""
    return st.one_of(
        st.sampled_from(often),
        st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
        st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
        st.characters(min_codepoint=0x10000))
