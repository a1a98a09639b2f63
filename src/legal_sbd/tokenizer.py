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

A lone carriage return is treated as a newline token; the corpus loader
normalizes ``\\r\\n`` to ``\\n`` before text reaches the tokenizer.

A document's tokens are a plain ``list[Token]``.  :func:`token_ranges` is
the one place that maps character spans onto token indices; BILOU
encoding, boundary evaluation and corpus statistics all go through it.
"""

from __future__ import annotations

import unicodedata
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

WORD = "word"
NUMBER = "number"
WHITESPACE = "whitespace"
NEWLINE = "newline"
OTHER = "other"

KINDS = (WORD, NUMBER, WHITESPACE, NEWLINE, OTHER)
SPACE_KINDS = (WHITESPACE, NEWLINE)  # the kinds predicted spans are trimmed of

_NEWLINE_CHARS = ("\n", "\r")

# Combining marks extend a word run but cannot start one.
_MARK = "mark"


def _classify(ch: str) -> str:
    if ch in _NEWLINE_CHARS:
        return NEWLINE
    if ch.isspace():
        return WHITESPACE
    if ch.isalpha():
        return WORD
    if ch.isdecimal():
        return NUMBER
    if unicodedata.category(ch) == "Mn":
        return _MARK
    return OTHER


@dataclass(frozen=True)
class Token:
    """A slice of document text: ``document[start:end] == text``."""

    text: str
    start: int
    end: int
    kind: str


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens covering every character exactly once.

    Total function: any string (including ``""``) tokenizes without error,
    and ``detokenize(tokenize(text)) == text`` always holds.
    """
    tokens: list[Token] = []
    append = tokens.append
    cache: dict[str, str] = {}
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        kind = cache.get(ch)
        if kind is None:
            kind = cache[ch] = _classify(ch)
        if kind == NEWLINE:
            append(Token(ch, i, i + 1, NEWLINE))
            i += 1
            continue
        j = i + 1
        if kind == WORD:
            while j < n:
                ch = text[j]
                k = cache.get(ch)
                if k is None:
                    k = cache[ch] = _classify(ch)
                if k != WORD and k != _MARK:
                    break
                j += 1
        elif kind in (NUMBER, WHITESPACE):
            while j < n:
                ch = text[j]
                k = cache.get(ch)
                if k is None:
                    k = cache[ch] = _classify(ch)
                if k != kind:
                    break
                j += 1
        else:
            # single special character (a stray combining mark counts too)
            kind = OTHER
        append(Token(text[i:j], i, j, kind))
        i = j
    return tokens


def detokenize(tokens: list[Token]) -> str:
    """Reassemble the exact original text from its tokens."""
    return "".join(tok.text for tok in tokens)


def token_ranges(tokens: list[Token], spans) -> list[tuple[int, int]]:
    """(first, last) indices of the tokens whose character range intersects
    each of *spans*; first > last for a span that intersects none."""
    starts = [tok.start for tok in tokens]
    ends = [tok.end for tok in tokens]
    return [(bisect_right(ends, s.start), bisect_left(starts, s.end) - 1) for s in spans]
