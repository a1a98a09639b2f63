import unicodedata
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legal_sbd import tokenizer
from legal_sbd.tokenizer import (
    NEWLINE,
    NUMBER,
    OTHER,
    WHITESPACE,
    WORD,
    CharTable,
    Token,
    _classify,
    detokenize,
    token_kind,
    tokenize,
)


def kinds_of(text):
    return [(t.text, t.kind) for t in tokenize(text)]


def test_published_example_tokens():
    seq = tokenize("D._ est entré à l'école le 16 juillet 1979.")
    nonws = [t.text for t in seq if t.kind not in (WHITESPACE, NEWLINE)]
    assert nonws == [
        "D", ".", "_", "est", "entré", "à", "l", "'", "école",
        "le", "16", "juillet", "1979", ".",
    ]


def test_empty_text():
    assert tokenize("") == []
    assert detokenize(tokenize("")) == ""


def test_newlines_never_merge():
    assert kinds_of("a\n\nb") == [
        ("a", WORD), ("\n", NEWLINE), ("\n", NEWLINE), ("b", WORD),
    ]


def test_whitespace_runs_merge():
    assert kinds_of("a  \t b") == [
        ("a", WORD), ("  \t ", WHITESPACE), ("b", WORD),
    ]


def test_digit_runs():
    assert kinds_of("1979ab12") == [("1979", NUMBER), ("ab", WORD), ("12", NUMBER)]


def test_special_characters_split_individually():
    assert kinds_of("((x))") == [
        ("(", OTHER), ("(", OTHER), ("x", WORD), (")", OTHER), (")", OTHER),
    ]


def test_carriage_return_is_newline_token():
    assert kinds_of("a\rb") == [("a", WORD), ("\r", NEWLINE), ("b", WORD)]


def test_nonbreaking_space_is_whitespace():
    assert kinds_of("a b") == [("a", WORD), (" ", WHITESPACE), ("b", WORD)]


def test_combining_marks_stay_inside_words():
    # e + COMBINING ACUTE ACCENT (NFD form of é)
    decomposed = unicodedata.normalize("NFD", "établi")
    seq = tokenize(decomposed)
    assert [t.text for t in seq] == [decomposed]
    assert seq[0].kind == WORD


def test_offsets_are_contiguous():
    text = "Au 2°, les mots: « foo ».\n1° fin."
    seq = tokenize(text)
    assert seq[0].start == 0
    assert seq[-1].end == len(text)
    for a, b in zip(seq, seq[1:]):
        assert a.end == b.start
    for tok in seq:
        assert text[tok.start : tok.end] == tok.text


def test_tokens_are_named_tuples_of_four_fields():
    seq = tokenize("Art. 12")
    assert all(type(tok) is Token for tok in seq)
    tok = seq[0]
    assert Token._fields == ("text", "start", "end", "kind")
    assert (tok.text, tok.start, tok.end, tok.kind) == ("Art", 0, 3, WORD)
    text, start, end, kind = tok
    assert (text, start, end, kind) == tuple(tok) == ("Art", 0, 3, WORD)
    # a tuple: equal to the plain tuple of its fields, of length 4
    assert tok == ("Art", 0, 3, WORD)
    assert len(tok) == 4
    assert tok == Token("Art", 0, 3, WORD)


def test_tokens_are_immutable_and_hashable():
    tok = tokenize("Art")[0]
    for field in Token._fields:
        with pytest.raises(AttributeError):
            setattr(tok, field, None)
    assert hash(tok) == hash(Token("Art", 0, 3, WORD))
    assert len({tok, Token("Art", 0, 3, WORD), tokenize("Art")[0]}) == 1


def is_mark(ch):
    return unicodedata.category(ch) == "Mn"


# Hypothesis's own characters, plus the ones the rules are about: combining
# marks (Mn, and Me, which is not one) next to letters, digits and the text's
# start, digits that are not decimal, a lone surrogate, and line breaks that
# are only whitespace (U+0085, U+2028) beside the ones that are newlines.
EDGE_CHARACTERS = st.sampled_from([
    "\u0301", "\u0301", "\u0488", "a", "é", "1", "٣", "²", "½", "Ⅷ",
    "\ud800", "\x85", "\u2028", "\r", "\n", " ", "\u00a0",
])


@given(st.text(alphabet=EDGE_CHARACTERS | st.characters(), max_size=60))
@settings(max_examples=400, deadline=None)
def test_kind_predicates_are_exclusive(text):
    """Every token meets its kind's predicate and no two neighbours could
    merge; together these admit exactly one tokenization of any text."""
    seq = tokenize(text)
    assert detokenize(seq) == text
    for tok in seq:
        if tok.kind == WORD:
            assert tok.text[0].isalpha()
            assert all(ch.isalpha() or is_mark(ch) for ch in tok.text)
        elif tok.kind == NUMBER:
            assert tok.text.isdecimal()
        elif tok.kind == NEWLINE:
            assert tok.text in ("\n", "\r")
        elif tok.kind == WHITESPACE:
            assert tok.text.isspace() and not any(c in "\n\r" for c in tok.text)
        else:
            assert tok.kind == OTHER
            assert len(tok.text) == 1
            ch = tok.text
            assert not (ch.isspace() or ch.isalpha() or ch.isdecimal())
    for a, b in zip(seq, seq[1:]):
        assert not (a.kind == b.kind and a.kind in (WORD, NUMBER, WHITESPACE))
        assert not (a.kind == WORD and b.kind == OTHER and is_mark(b.text))


@given(
    st.text(alphabet=EDGE_CHARACTERS | st.characters(), max_size=40),
    st.text(alphabet=EDGE_CHARACTERS | st.characters(), max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_a_token_kind_follows_from_its_text(first, second):
    """Tokens with the same text have the same kind, within one text and
    across texts, which lets feature layouts intern on the text alone;
    and a token's text tokenizes alone to that one token."""
    kinds = {}
    for tok in tokenize(first) + tokenize(second):
        assert kinds.setdefault(tok.text, tok.kind) == tok.kind, tok
        assert tokenize(tok.text) == [(tok.text, 0, len(tok.text), tok.kind)]


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_round_trip_any_unicode(text):
    seq = tokenize(text)
    assert detokenize(seq) == text
    pos = 0
    for tok in seq:
        assert tok.start == pos
        assert tok.end - tok.start == len(tok.text)
        pos = tok.end
    assert pos == len(text)


# any code point: Hypothesis's characters, lone surrogates, astral
# characters and marks of every kind, beside the rules' edge cases
ANY_CHARACTER = (
    EDGE_CHARACTERS
    | st.characters()
    | st.integers(0xD800, 0xDFFF).map(chr)
    | st.characters(min_codepoint=0x10000)
    | st.characters(categories=["Mn", "Mc", "Me"])
)


@given(st.text(alphabet=ANY_CHARACTER, max_size=60))
@settings(max_examples=300, deadline=None)
def test_class_codes_are_the_per_character_rule(text):
    codes = text.translate(tokenizer._CLASSES)
    assert codes == "".join(map(_classify, text))
    assert text.translate(CharTable(_classify)) == codes  # a fresh table agrees
    assert tokenizer._class_codes(text) == codes  # and so does the gather


@given(st.text(alphabet=ANY_CHARACTER, max_size=40), st.text(alphabet=ANY_CHARACTER, max_size=40))
@settings(max_examples=200, deadline=None)
def test_tokens_do_not_depend_on_what_was_tokenized_before(first, second):
    # fresh, empty tables, so that *first* fills entries *second* reads
    fresh_bytes = np.zeros_like(tokenizer._CLASS_BYTES)
    with mock.patch.object(tokenizer, "_CLASSES", CharTable(_classify)), \
            mock.patch.object(tokenizer, "_CLASS_BYTES", fresh_bytes):
        before = tokenize(second)
        tokenize(first)
        assert tokenize(second) == before
    assert tokenize(second) == before


# texts at the column builder's edges: none, a CRLF pair, combining marks
# that start a token, astral characters and lone surrogates
COLUMN_EDGES = st.sampled_from([
    "", "\r\n", "\u0301", "\u0301a\u0301 \u0301\u0301.", "1\u0301", "\U0001d400\U0001d401 \U0001f600x",
    "\ud800", "a\udfffb \ud800\udc00", "\r\n\r\n \n",
])


@given(COLUMN_EDGES | st.text(alphabet=ANY_CHARACTER, max_size=60))
@settings(max_examples=300, deadline=None)
def test_columns_are_the_token_fields(text):
    tokens = tokenize(text)
    texts, ends, codes = tokenizer._token_columns(text)
    assert texts == [tok.text for tok in tokens]
    assert ends == [tok.end for tok in tokens]
    assert len(codes) == len(tokens)
    # a code is the class of the token's first character, and gives its kind
    assert codes == "".join(_classify(tok.text[0]) for tok in tokens)
    assert [tokenizer._KIND[code] for code in codes] == [tok.kind for tok in tokens]
    assert [token_kind(tok.text) for tok in tokens] == [tok.kind for tok in tokens]
