"""Hypothesis strategies for the tests that map character spans onto
tokens: boundary vectors, BILOU encoding, corpus statistics and the rule
baseline."""

from hypothesis import strategies as st

from legal_sbd.corpus import SentenceSpan

# texts at the edges of the span-to-token mapping: none, a CRLF pair,
# whitespace-only runs, blank lines, a colon before a line break, astral
# characters and lone surrogates
EDGE_TEXTS = st.sampled_from([
    "", "\r\n", " ", "\t \u00a0", " \n \n", "\n\n", "\n\n\n", ":\n", "a:\nb", "a: \nB",
    "Un. Deux.\n\nTrois:\n- quatre", "\U0001d400. \U0001d401.", "\ud800", "a\udfffb. \ud800\udc00",
])
# characters the rules and the trimming are about, and arbitrary ones
SPLIT_CHARACTERS = st.sampled_from(
    [" ", "\t", "\n", "\r", "\u00a0", "\u2028", ".", "!", "?", ":", ";", "a", "B", "1", "«",
     '"', "\u0301", "\U0001d400", "\ud800"]
) | st.characters()
TEXTS = EDGE_TEXTS | st.text(alphabet=SPLIT_CHARACTERS, max_size=60) | st.text(max_size=60)


def spans_over(text: str):
    """Lists of spans with offsets a little outside *text* too, empty and
    inverted spans among them, in any order."""
    offset = st.integers(-2, len(text) + 2)
    return st.lists(st.builds(SentenceSpan, offset, offset), max_size=8)


def sorted_spans_over(text: str):
    """Sorted, non-overlapping spans inside *text*, some of them cutting
    tokens and some touching."""
    cuts = st.lists(st.integers(0, len(text)), max_size=10, unique=True).map(sorted)
    return cuts.map(lambda c: [SentenceSpan(a, b) for a, b in zip(c[::2], c[1::2])])
