"""Conversion between character-offset sentence spans and BILOU labels.

One label per token: B(egin), I(nside), L(ast), O(utside), U(nit, a
single-token sentence).  Only one span class exists, so labels carry no
type suffix.

Encoding: a token belongs to a span iff its character range intersects
it (:func:`legal_sbd.tokenizer.token_ranges`), so interior whitespace
tokens are labeled I while whitespace between sentences stays O.

Decoding is lenient so that ill-formed model output still yields spans:
every maximal run of non-O labels becomes one span, trimmed to start and
end on non-whitespace tokens.  There is one decode, over a text's
``tokenizer.TokenColumns`` and its labels (:func:`_decode_columns`),
which prediction calls; :func:`decode_bilou` checks a label list and
decodes a token list through it.  The decode makes one mask byte per
token, which says whether its label is O and whether it is whitespace,
and every trimmed run is one match of a regular expression over the
mask, so no Python code runs per token or per run beyond building the
span.  Because runs are maximal, two sentences that touch with no
O-labeled token between them decode as one span; gold corpora separate
sentences with whitespace, so well-formed encoder output round-trips
exactly.  :func:`trimmed_span` trims one token range as the decode
does; the rule baseline builds its spans with it.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import accumulate, repeat

from .corpus import SentenceSpan
from .errors import DataError
from .tokenizer import SPACE_CODES, SPACE_KINDS, Token, TokenColumns, token_ranges

LABELS = ("B", "I", "L", "O", "U")


# a token's mask byte is 2 if its label is not O, plus 1 if it is not
# whitespace: the flags of the labels' joined text and of the tokens'
# class codes, each one translate, ORed as two big integers
_INSIDE = bytes(2 * (chr(byte) in LABELS and chr(byte) != "O") for byte in range(256))
_SOLID = bytes(chr(byte) not in SPACE_CODES for byte in range(256))
# a run of non-O tokens from its first to its last non-whitespace token;
# split() keeps the runs between the gaps around them
_TRIMMED_RUN = re.compile(rb"(\x03(?:[\x02\x03]*\x03)?)")
# a SentenceSpan from the tuple of its three fields in one C call
_new_span = partial(tuple.__new__, SentenceSpan)


def encode_bilou(tokens: list[Token], spans) -> list[str]:
    """Label every one of *tokens* against character-offset *spans*.

    Spans must be sorted and non-overlapping (document invariants); a span
    that covers no token raises :class:`DataError`.
    """
    labels = ["O"] * len(tokens)
    next_free = 0  # first token index not claimed by an earlier span
    for span, (first, last) in zip(spans, token_ranges(tokens, spans)):
        first = max(first, next_free)
        if first > last:
            raise DataError(
                f"span ({span.start}, {span.end}) intersects no unclaimed token"
            )
        if first == last:
            labels[first] = "U"
        else:
            labels[first] = "B"
            for i in range(first + 1, last):
                labels[i] = "I"
            labels[last] = "L"
        next_free = last + 1
    return labels


def trimmed_span(tokens: list[Token], a: int, b: int) -> SentenceSpan | None:
    """The span of tokens *a* through *b*, trimmed to start and end on
    non-whitespace tokens; None if all of them are whitespace."""
    while a <= b and tokens[a].kind in SPACE_KINDS:
        a += 1
    while b >= a and tokens[b].kind in SPACE_KINDS:
        b -= 1
    return SentenceSpan(tokens[a].start, tokens[b].end) if a <= b else None


def _decode(starts: list[int], stops: list[int], codes: str, labels: list[str]) -> list[SentenceSpan]:
    """The spans of *labels*, one label of ``LABELS`` per token, with the
    tokens whose class code is in ``SPACE_CODES`` trimmed off each run:
    tokens a to b - 1 give the span ``(starts[a], stops[b])``, where token
    a starts and token b - 1 ends."""
    inside = int.from_bytes("".join(labels).encode().translate(_INSIDE), "big")
    solid = int.from_bytes(codes.encode().translate(_SOLID), "big")
    pieces = _TRIMMED_RUN.split((inside | solid).to_bytes(len(labels), "big"))
    # the pieces are gaps and runs in turn, so their ends are alternately
    # a run's first token and the token after its last
    cuts = list(accumulate(map(len, pieces)))
    firsts, afters = map(starts.__getitem__, cuts[0:-1:2]), map(stops.__getitem__, cuts[1::2])
    return list(map(_new_span, zip(firsts, afters, repeat("Sentence"))))


def _decode_columns(columns: TokenColumns, labels: list[str]) -> list[SentenceSpan]:
    """The spans of *labels*, one label of ``LABELS`` per token of
    *columns*, as :func:`decode_bilou` gives them."""
    bounds = [0, *columns.ends]  # where each token starts, then the text's end
    return _decode(bounds, bounds, columns.codes, labels)


def decode_bilou(tokens: list[Token], labels: list[str]) -> list[SentenceSpan]:
    """Turn a label sequence back into sorted, disjoint sentence spans.

    Accepts ill-formed input: any maximal run of non-O labels is one span.
    Runs are trimmed so spans start and end on non-whitespace tokens; a
    run consisting only of whitespace tokens yields nothing.  A label
    outside ``LABELS`` raises :class:`DataError`.
    """
    if len(labels) != len(tokens):
        raise DataError(
            f"label/token length mismatch: {len(labels)} labels, {len(tokens)} tokens"
        )
    unknown = set(labels).difference(LABELS)
    if unknown:
        raise DataError(f"unknown labels {sorted(map(repr, unknown))}; expected {LABELS}")
    return _decode(
        [tok.start for tok in tokens],
        [0, *(tok.end for tok in tokens)],
        "".join(["s" if tok.kind in SPACE_KINDS else "o" for tok in tokens]),
        labels,
    )
