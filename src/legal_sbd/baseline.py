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
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import SentenceSpan
from .errors import DataError
from .spans import trimmed_span
from .tokenizer import NEWLINE, NUMBER, OTHER, SPACE_KINDS, WORD, tokenize

OPENING_QUOTES = frozenset({'"', "'", "«", "“", "‘", "„"})


@dataclass(frozen=True)
class RuleConfig:
    terminators: frozenset[str] = frozenset({".", "!", "?"})
    colon_newline_rule: bool = True
    min_sentence_chars: int = 1


DEFAULT_RULES = RuleConfig()


def _starts_sentence(token) -> bool:
    if token.kind == NUMBER:
        return True
    if token.kind == WORD:
        return token.text[0].isupper()
    return token.text in OPENING_QUOTES


def rule_split(text: str, config: RuleConfig = DEFAULT_RULES) -> list[SentenceSpan]:
    """Split *text* into sorted, disjoint, whitespace-trimmed sentence spans."""
    if not config.terminators:
        raise DataError("rule config needs at least one terminator")
    tokens = tokenize(text)
    n = len(tokens)
    cuts = []  # sentence ends after tokens[i]
    for i, tok in enumerate(tokens):
        if tok.kind == OTHER and tok.text in config.terminators:
            j = i + 1
            while j < n and tokens[j].kind in SPACE_KINDS:
                j += 1
            if j >= n:
                cuts.append(i)
            elif j > i + 1 and _starts_sentence(tokens[j]):
                cuts.append(i)
        elif (
            config.colon_newline_rule
            and tok.kind == OTHER
            and tok.text == ":"
            and i + 1 < n
            and tokens[i + 1].kind == NEWLINE
        ):
            cuts.append(i)
        elif tok.kind == NEWLINE and i + 1 < n and tokens[i + 1].kind == NEWLINE:
            cuts.append(i)
    spans: list[SentenceSpan] = []
    begin = 0
    for cut in cuts + [n - 1]:
        if cut < begin:
            continue
        _emit(tokens, begin, cut, config, spans)
        begin = cut + 1
    return spans


def _emit(tokens, a: int, b: int, config: RuleConfig, out: list[SentenceSpan]) -> None:
    span = trimmed_span(tokens, a, b)
    if span is not None and span.end - span.start >= config.min_sentence_chars:
        out.append(span)
