"""Conversion between character-offset sentence spans and BILOU labels.

One label per token: B(egin), I(nside), L(ast), O(utside), U(nit, a
single-token sentence).  Only one span class exists, so labels carry no
type suffix.

Encoding: a token belongs to a span iff its character range intersects
it (:func:`legal_sbd.tokenizer.token_ranges`), so interior whitespace
tokens are labeled I while whitespace between sentences stays O.

Decoding is lenient so that ill-formed model output still yields spans:
every maximal run of non-O labels becomes one span, trimmed to start and
end on non-whitespace tokens by :func:`trimmed_span`, which the rule
baseline uses for its spans too.  The runs are the matches of one
regular expression over the joined labels, so a label outside ``LABELS``
is refused.  Because runs are maximal, two sentences that touch with no
O-labeled token between them decode as one span; gold corpora separate
sentences with whitespace, so well-formed encoder output round-trips
exactly.
"""

from __future__ import annotations

import re

from .corpus import SentenceSpan
from .errors import DataError
from .tokenizer import SPACE_KINDS, Token, token_ranges

LABELS = ("B", "I", "L", "O", "U")
_RUNS = re.compile("[^O]+")  # maximal runs of non-O labels


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
    # every label is one character, so match offsets are token indices
    runs = _RUNS.finditer("".join(labels))
    return [span for run in runs if (span := trimmed_span(tokens, run.start(), run.end() - 1))]
