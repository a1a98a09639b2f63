"""Rule-based sentence splitter.

A deterministic baseline encoding the usual annotation conventions for
legal text:

* a sentence ends after a terminator (``.``, ``!``, ``?``) that is
  followed by whitespace and then an uppercase letter, a digit, an
  opening quote, or the end of the text;
* a colon immediately followed by a line break ends a sentence (it
  introduces a list or block quote);
* a blank line (two consecutive newline characters) always ends the
  current sentence, so headlines without terminators still close.

Abbreviation handling is intentionally absent: "art. 12" splits wrongly
here, which is exactly the gap a trained sequence model closes.

The rules read a text's token columns (``tokenizer.TokenColumns``).  A
token a sentence ends after is followed by whitespace or by the text's
end, so the spans are the column decode (``spans._decode_columns``) of
labels that are O on the token after each cut and I on every other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count

from .corpus import SentenceSpan, check_int
from .errors import DataError
from .spans import _decode_columns
from .tokenizer import NUMBER, OTHER, SPACE_CODES, WORD, _token_columns, token_kind

OPENING_QUOTES = frozenset({'"', "'", "«", "“", "‘", "„"})

_SPACE_RUN = re.compile(f"[{SPACE_CODES}]*")
_BLANK_LINE = re.compile("l(?=l)")  # a newline token (class code l) before another


@dataclass(frozen=True)
class RuleConfig:
    """Rule knobs, checked when made: a terminator, and ``min_sentence_chars >= 0``."""

    terminators: frozenset[str] = frozenset({".", "!", "?"})
    colon_newline_rule: bool = True
    min_sentence_chars: int = 1

    def __post_init__(self) -> None:
        if not self.terminators:
            raise DataError("rule config needs at least one terminator")
        check_int("min_sentence_chars", self.min_sentence_chars, 0)


DEFAULT_RULES = RuleConfig()


def _starts_sentence(text: str) -> bool:
    kind = token_kind(text)
    return kind == NUMBER or (text[0].isupper() if kind == WORD else text in OPENING_QUOTES)


def _cuts(texts: list[str], codes: str, config: RuleConfig):
    """The indices of the tokens a sentence ends after, in no set order."""
    n = len(texts)
    # a colon that is a terminator follows the terminator rule alone
    colon_rule = config.colon_newline_rule and ":" not in config.terminators
    marks = config.terminators | {":"} if colon_rule else config.terminators
    for i in compress(count(), map(marks.__contains__, texts)):
        if colon_rule and texts[i] == ":":
            if codes.startswith("l", i + 1):
                yield i
        elif token_kind(texts[i]) == OTHER:
            j = _SPACE_RUN.match(codes, i + 1).end()
            if j >= n or (j > i + 1 and _starts_sentence(texts[j])):
                yield i
    for blank in _BLANK_LINE.finditer(codes):
        yield blank.start()


def rule_split(text: str, config: RuleConfig = DEFAULT_RULES) -> list[SentenceSpan]:
    """Split *text* into sorted, disjoint, whitespace-trimmed sentence spans."""
    columns = _token_columns(text)
    n = len(columns.texts)
    labels = ["I"] * n
    for cut in _cuts(columns.texts, columns.codes, config):
        if cut + 1 < n:
            labels[cut + 1] = "O"
    spans = _decode_columns(columns, labels)
    return [span for span in spans if span.end - span.start >= config.min_sentence_chars]
