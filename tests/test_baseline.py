import random
import re

import numpy as np
import pytest

from legal_sbd.baseline import RuleConfig, rule_split
from legal_sbd.corpus import SentenceSpan
from legal_sbd.errors import DataError
from legal_sbd.synthetic import make_corpus
from oracles import loop_rule_split
from strategies import TEXTS


def texts_of(text, spans):
    return [text[s.start : s.end] for s in spans]


def test_standard_sentence_stays_whole():
    text = "Il s'est établi comme ingénieur indépendant."
    assert rule_split(text) == [SentenceSpan(0, len(text))]


def test_terminator_then_uppercase_splits():
    text = "Premier point. Deuxième point."
    assert texts_of(text, rule_split(text)) == ["Premier point.", "Deuxième point."]


def test_terminator_then_digit_splits():
    text = "Fin du premier. 2 suit ici."
    assert texts_of(text, rule_split(text)) == ["Fin du premier.", "2 suit ici."]


def test_terminator_then_opening_quote_splits():
    text = "Il a dit. «Oui»."
    assert texts_of(text, rule_split(text)) == ["Il a dit.", "«Oui»."]


def test_terminator_then_lowercase_does_not_split():
    text = "Voir p. ex. la suite."
    assert rule_split(text) == [SentenceSpan(0, len(text))]


def test_terminator_without_whitespace_does_not_split():
    text = "A.B. reste entier."
    assert rule_split(text) == [SentenceSpan(0, len(text))]


def test_colon_newline_rule():
    text = "suivantes:\n1° Répondre aux convocations."
    got = rule_split(text)
    assert texts_of(text, got)[0] == "suivantes:"
    assert len(got) == 2


def test_colon_without_newline_does_not_split():
    text = "suivantes: voire plus."
    assert rule_split(text) == [SentenceSpan(0, len(text))]


def test_colon_rule_can_be_disabled():
    text = "suivantes:\n1° Répondre."
    config = RuleConfig(colon_newline_rule=False)
    assert len(rule_split(text, config)) < len(rule_split(text))


def test_blank_line_ends_headline():
    text = "PAR CES MOTIFS\n\nLa cour statue."
    got = rule_split(text)
    assert texts_of(text, got) == ["PAR CES MOTIFS", "La cour statue."]


def test_empty_text():
    assert rule_split("") == []
    assert rule_split("   \n\n  ") == []


def test_ellipsis_stays_inside():
    text = "La faute... reste entière."
    assert rule_split(text) == [SentenceSpan(0, len(text))]


def test_abbreviation_trap_splits_wrongly_by_design():
    text = "Voir art. 12 pour la suite."
    assert len(rule_split(text)) == 2


def test_spans_sorted_disjoint_nonwhitespace():
    docs = make_corpus(40, seed=13, abbreviation_rate=0.4, newline_rate=0.3)
    for doc in docs:
        spans = rule_split(doc.text)
        for span in spans:
            assert not doc.text[span.start : span.end].isspace()
            assert doc.text[span.start] not in " \t\n"
            assert doc.text[span.end - 1] not in " \t\n"
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start


def test_idempotent_on_own_output():
    docs = make_corpus(30, seed=14, abbreviation_rate=0.3, newline_rate=0.2)
    for doc in docs:
        for span in rule_split(doc.text):
            piece = doc.text[span.start : span.end]
            again = rule_split(piece)
            assert again == [SentenceSpan(0, len(piece))]


def test_disabling_colon_rule_never_increases_span_count():
    rng = random.Random(3)
    docs = make_corpus(25, seed=15, newline_rate=0.4)
    no_colon = RuleConfig(colon_newline_rule=False)
    for doc in docs:
        text = doc.text.replace(".", ":", rng.randint(0, 3))
        assert len(rule_split(text, no_colon)) <= len(rule_split(text))


def test_min_sentence_chars_filters_short_spans():
    text = "A. Puis une vraie phrase."
    config = RuleConfig(min_sentence_chars=5)
    got = rule_split(text, config)
    assert texts_of(text, got) == ["Puis une vraie phrase."]


def test_custom_terminators():
    text = "Premier point; Deuxième point."
    config = RuleConfig(terminators=frozenset({".", ";", "!", "?"}))
    assert len(rule_split(text, config)) == 2
    assert len(rule_split(text)) == 1


def test_empty_terminators_rejected():
    with pytest.raises(DataError):
        rule_split("x", RuleConfig(terminators=frozenset()))


def test_empty_terminators_fail_when_the_config_is_made():
    with pytest.raises(DataError, match="^rule config needs at least one terminator$"):
        RuleConfig(terminators=frozenset())


@pytest.mark.parametrize("value", [True, 2.5, np.int64(5), "7", None, -1])
def test_min_sentence_chars_must_be_an_int_of_at_least_0(value):
    message = f"min_sentence_chars must be an integer >= 0, got {value!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        RuleConfig(min_sentence_chars=value)


from hypothesis import example, given, settings
from hypothesis import strategies as st


@given(TEXTS | st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_rule_split_invariants_on_arbitrary_text(text):
    spans = rule_split(text)
    prev_end = 0
    for span in spans:
        assert 0 <= span.start < span.end <= len(text)
        assert span.start >= prev_end
        assert not text[span.start : span.end].isspace()
        assert not text[span.start].isspace()
        assert not text[span.end - 1].isspace()
        prev_end = span.end


# terminators of every kind: the usual ones, a colon (which then follows
# the terminator rule alone), a line break, a space, a letter, a combining
# mark and one longer than any token a terminator can match
RULE_CONFIGS = st.builds(
    RuleConfig,
    terminators=st.frozensets(
        st.sampled_from([".", "!", "?", ":", ";", "\n", " ", "a", "\u0301", ".."]), min_size=1
    ),
    colon_newline_rule=st.booleans(),
    min_sentence_chars=st.integers(0, 6),
)


@given(TEXTS, st.just(RuleConfig()) | RULE_CONFIGS)
@example("a:\nb", RuleConfig(terminators=frozenset({".", ":"})))
@settings(max_examples=500, deadline=None)
def test_rule_split_matches_the_token_walk(text, config):
    assert rule_split(text, config) == loop_rule_split(text, config)


def test_rule_split_matches_the_token_walk_on_corpora():
    docs = make_corpus(60, seed=16, abbreviation_rate=0.4, newline_rate=0.4)
    configs = [RuleConfig(), RuleConfig(frozenset({".", ":", ";"}), False, 12)]
    for doc in docs:
        for config in configs:
            assert rule_split(doc.text, config) == loop_rule_split(doc.text, config)
