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
from its first code; a mark that starts a token is ``other``.  A
process-wide :class:`CharTable` classifies a code point the first time
any text meets it, and a text's codes are one gather of its code points
from a byte array that mirrors the table (:func:`_class_codes`).

A lone carriage return is treated as a newline token; the corpus loader
normalizes ``\\r\\n`` to ``\\n`` before text reaches the tokenizer.

A document's tokens are a plain ``list[Token]``.  :func:`token_ranges` is
the one place that maps character spans onto token indices; BILOU
encoding, boundary evaluation and corpus statistics all go through it.

Prediction reads no ``Token``: it takes a text's tokens as columns
(:class:`TokenColumns` -- the token texts, their end offsets and each
token's first class code), which :func:`_token_columns` builds from the
runs with a few C-level passes and no Python object per token beyond its
text and end offset.  A token's kind follows from its first character's class, so
:func:`token_kind` gives it from the text alone.  :func:`tokenize` is
the same builder plus one :class:`Token` per token, made by
:func:`_column_tokens`: a :class:`~typing.NamedTuple` built with one
``map`` of ``tuple.__new__`` over the columns' zip, and no Python-level
call per token.  Being a tuple, a ``Token`` equals the plain tuple
``(text, start, end, kind)``.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

import numpy as np

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
# byte k is the code _CLASSES holds for code point k, as ASCII, or 0 while
# no text has held that code point
_CLASS_BYTES = np.zeros(sys.maxunicode + 1, dtype=np.uint8)
_RUN = re.compile(r"w[wm]*|n+|s+|.")
_KIND = {"w": WORD, "n": NUMBER, "s": WHITESPACE, "l": NEWLINE, "m": OTHER, "o": OTHER}
SPACE_CODES = "".join(code for code, kind in _KIND.items() if kind in SPACE_KINDS)


class Token(NamedTuple):
    """A slice of document text: ``document[start:end] == text``.

    A named tuple rather than a dataclass so that :func:`_column_tokens`
    can build tokens without a Python-level call for each: it is
    immutable, hashable and read by field name, and it also unpacks, has
    ``len`` 4 and compares equal to the plain tuple of its fields."""

    text: str
    start: int
    end: int
    kind: str


# a Token from the tuple of its four fields in one C call; ``Token._make``
# and ``Token(...)`` are Python-level calls
_new_token = partial(tuple.__new__, Token)


class TokenColumns(NamedTuple):
    """A text's tokens as columns: token i is ``texts[i]``, ends at
    character offset ``ends[i]`` and starts where token i - 1 ends (at 0
    for the first); ``codes[i]`` is the class code of its first character,
    which decides its kind."""

    texts: list[str]
    ends: list[int]
    codes: str


def _class_codes(text: str) -> str:
    """``text.translate(_CLASSES)``: the class code of every character of
    *text*, gathered from ``_CLASS_BYTES`` by code point.  Code points
    that no text has held are classified through ``_CLASSES`` first.  A
    translate looks each character up in a dict; the gather is a few
    array operations, whatever the length of *text*."""
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    codes = _CLASS_BYTES[points]
    if not codes.all():
        new = np.unique(points[codes == 0]).tolist()
        _CLASS_BYTES[new] = [ord(_CLASSES[point]) for point in new]
        codes = _CLASS_BYTES[points]
    return codes.tobytes().decode("ascii")


def _token_columns(text: str) -> TokenColumns:
    """The tokens of *text* as :class:`TokenColumns`, by the rules of
    :func:`tokenize`, which builds its tokens from them."""
    runs = _RUN.findall(_class_codes(text))
    ends = list(accumulate(map(len, runs)))
    texts = [text[i:j] for i, j in zip([0, *ends], ends)]
    return TokenColumns(texts, ends, "".join(map(itemgetter(0), runs)))


def _column_tokens(columns: TokenColumns) -> list[Token]:
    """One :class:`Token` per token of *columns*."""
    texts, ends, codes = columns
    # [0, *ends] has one start too many; zip stops at the last end
    return list(map(_new_token, zip(texts, [0, *ends], ends, map(_KIND.__getitem__, codes))))


def token_kind(text: str) -> str:
    """The kind of a token whose text is *text*: that of its first
    character's class."""
    return _KIND[_CLASSES[ord(text[0])]]


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens covering every character exactly once.

    Total function: any string (including ``""``) tokenizes without error,
    and ``detokenize(tokenize(text)) == text`` always holds.
    """
    return _column_tokens(_token_columns(text))


def detokenize(tokens: list[Token]) -> str:
    """Reassemble the exact original text from its tokens."""
    return "".join(tok.text for tok in tokens)


def token_ranges(tokens: list[Token], spans) -> list[tuple[int, int]]:
    """(first, last) indices of the tokens whose character range intersects
    each of *spans*; first > last for a span that intersects none."""
    starts = [tok.start for tok in tokens]
    ends = [tok.end for tok in tokens]
    return [(bisect_right(ends, s.start), bisect_left(starts, s.end) - 1) for s in spans]
