"""Lossless aggressive tokenizer.

Splits text into words, numbers, whitespace runs, newlines, and
single special characters while keeping exact character offsets, so the
original text can always be reconstructed from the token stream.  Nothing
is dropped: whitespace and line breaks become tokens of their own because
both carry sentence-boundary signal downstream.

Rules:

* maximal runs of letters (Unicode category L*, with combining marks Mn
  attached) form one ``word`` token;
* maximal runs of decimal digits (Nd) form one ``number`` token;
* every newline character is its own ``newline`` token -- consecutive
  line breaks never merge;
* maximal runs of any other whitespace form one ``whitespace`` token;
* every remaining character is a single ``other`` token.

The rules are one regular expression.  Each character maps to a class
code -- ``l`` newline (``\\n`` or ``\\r``), ``s`` other whitespace, ``w``
letter, ``n`` decimal digit, ``m`` combining mark (Mn), ``o`` anything
else, checked in that order -- and the tokens are the matches of
``w[wm]*|n+|s+|.`` over the codes, left to right.  A token's kind comes
from its first code; a mark that starts a token is ``other``.  The codes
are one ``str.translate`` through a process-wide :class:`CharTable`,
which classifies a code point the first time any text meets it.

A lone carriage return is treated as a newline token; the corpus loader
normalizes ``\\r\\n`` to ``\\n`` before text reaches the tokenizer.

A document's tokens are a plain ``list[Token]``.  :func:`token_ranges` is
the one place that maps character spans onto token indices; BILOU
encoding, boundary evaluation and corpus statistics all go through it.

:class:`Token` is a :class:`~typing.NamedTuple`, so :func:`tokenize`
builds a text's tokens from column lists with one ``map`` of
``tuple.__new__`` over their zip, and no Python-level call per token; a
long judgment has tens of thousands of tokens, and building them as
frozen dataclasses was most of the tokenizer's time.  Being a tuple, a
``Token`` equals the plain tuple ``(text, start, end, kind)``.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate
from typing import NamedTuple

WORD = "word"
NUMBER = "number"
WHITESPACE = "whitespace"
NEWLINE = "newline"
OTHER = "other"

SPACE_KINDS = (WHITESPACE, NEWLINE)  # the kinds predicted spans are trimmed of


def _classify(ch: str) -> str:
    if ch in "\n\r":
        return "l"
    if ch.isspace():
        return "s"
    if ch.isalpha():
        return "w"
    if ch.isdecimal():
        return "n"
    if unicodedata.category(ch) == "Mn":
        return "m"
    return "o"


class CharTable(dict):
    """A ``str.translate`` table from each code point to ``rule(chr(code))``,
    filled in as ``translate`` meets code points it has not seen."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, code: int) -> str:
        self[code] = value = self.rule(chr(code))
        return value


_CLASSES = CharTable(_classify)
_RUN = re.compile(r"w[wm]*|n+|s+|.")
_KIND = {"w": WORD, "n": NUMBER, "s": WHITESPACE, "l": NEWLINE, "m": OTHER, "o": OTHER}


class Token(NamedTuple):
    """A slice of document text: ``document[start:end] == text``.

    A named tuple rather than a dataclass so that :func:`tokenize` can
    build its tokens without a Python-level call for each: it is
    immutable, hashable and read by field name, and it also unpacks, has
    ``len`` 4 and compares equal to the plain tuple of its fields."""

    text: str
    start: int
    end: int
    kind: str


# a Token from the tuple of its four fields in one C call; ``Token._make``
# and ``Token(...)`` are Python-level calls
_new_token = partial(tuple.__new__, Token)


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens covering every character exactly once.

    Total function: any string (including ``""``) tokenizes without error,
    and ``detokenize(tokenize(text)) == text`` always holds.
    """
    runs = _RUN.findall(text.translate(_CLASSES))
    ends = list(accumulate(map(len, runs)))
    starts = [0, *ends]  # one too many; zip stops at the last end
    texts = [text[i:j] for i, j in zip(starts, ends)]
    kinds = [_KIND[run[0]] for run in runs]
    return list(map(_new_token, zip(texts, starts, ends, kinds)))


def detokenize(tokens: list[Token]) -> str:
    """Reassemble the exact original text from its tokens."""
    return "".join(tok.text for tok in tokens)


def token_ranges(tokens: list[Token], spans) -> list[tuple[int, int]]:
    """(first, last) indices of the tokens whose character range intersects
    each of *spans*; first > last for a span that intersects none."""
    starts = [tok.start for tok in tokens]
    ends = [tok.end for tok in tokens]
    return [(bisect_right(ends, s.start), bisect_left(starts, s.end) - 1) for s in spans]
