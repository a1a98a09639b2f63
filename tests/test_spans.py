import random
import re

import pytest

from legal_sbd.corpus import SentenceSpan
from legal_sbd.errors import DataError
from legal_sbd.spans import LABELS, _decode_columns, decode_bilou, encode_bilou
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import NEWLINE, WHITESPACE, _token_columns, tokenize
from oracles import loop_decode_bilou

WELL_FORMED = re.compile(r"^(O|U|BI*L)*$")


def test_two_short_sentences():
    seq = tokenize("A. B.")
    labels = encode_bilou(seq, [SentenceSpan(0, 2), SentenceSpan(3, 5)])
    assert labels == ["B", "L", "O", "B", "L"]
    assert decode_bilou(seq, labels) == [SentenceSpan(0, 2), SentenceSpan(3, 5)]


def test_single_token_span_is_unit():
    seq = tokenize("Mot")
    assert encode_bilou(seq, [SentenceSpan(0, 3)]) == ["U"]
    assert decode_bilou(seq, ["U"]) == [SentenceSpan(0, 3)]


def test_published_sentence_whitespace_is_inside():
    text = "D._ est entré à l'école le 16 juillet 1979."
    seq = tokenize(text)
    labels = encode_bilou(seq, [SentenceSpan(0, len(text))])
    assert labels[0] == "B"
    assert labels[-1] == "L"
    assert "O" not in labels  # interior whitespace intersects the span
    for tok, label in zip(seq, labels):
        if tok.kind in (WHITESPACE, NEWLINE):
            assert label == "I"
    # 22 tokens total: B + 20 interior + L
    assert labels.count("I") == len(seq) - 2


def test_whitespace_between_sentences_is_outside():
    seq = tokenize("Un. Deux.")
    labels = encode_bilou(seq, [SentenceSpan(0, 3), SentenceSpan(4, 9)])
    ws_positions = [i for i, t in enumerate(seq) if t.kind == WHITESPACE]
    assert [labels[i] for i in ws_positions] == ["O"]


def test_encoder_output_is_well_formed(rng):
    docs = make_corpus(30, seed=77, newline_rate=0.2)
    for doc in docs:
        labels = encode_bilou(tokenize(doc.text), doc.spans)
        assert WELL_FORMED.match("".join(labels))


def test_lenient_decode_of_ill_formed_runs():
    seq = tokenize("A.")
    assert decode_bilou(seq, ["I", "I"]) == [SentenceSpan(0, 2)]
    assert decode_bilou(seq, ["B", "B"]) == [SentenceSpan(0, 2)]
    assert decode_bilou(seq, ["L", "U"]) == [SentenceSpan(0, 2)]
    # the same through the column decode that prediction uses, with
    # whitespace inside and at the edges of runs: [a][ ][b][.][ ][\n][ ][c]
    text = "a b. \n c"
    for labels, want in [
        (["I", "I", "I", "I", "I", "I", "I", "I"], [SentenceSpan(0, 8)]),
        (["L", "U", "B", "B", "O", "I", "I", "U"], [SentenceSpan(0, 4), SentenceSpan(7, 8)]),
        (["O", "I", "O", "I", "I", "I", "O", "O"], [SentenceSpan(3, 4)]),
        (["O", "B", "O", "O", "B", "I", "L", "O"], []),
    ]:
        assert _decode_columns(_token_columns(text), labels) == want
        assert decode_bilou(tokenize(text), labels) == want


def test_all_outside_decodes_to_nothing():
    seq = tokenize("a b c")
    assert decode_bilou(seq, ["O"] * len(seq)) == []


def test_decode_trims_whitespace_edges():
    seq = tokenize("a b")  # [a][ ][b]
    assert decode_bilou(seq, ["O", "I", "L"]) == [SentenceSpan(2, 3)]
    assert decode_bilou(seq, ["B", "I", "O"]) == [SentenceSpan(0, 1)]
    assert decode_bilou(seq, ["O", "I", "O"]) == []


def test_length_mismatch_rejected():
    seq = tokenize("a b")
    with pytest.raises(DataError, match="mismatch"):
        decode_bilou(seq, ["O"])


@pytest.mark.parametrize("bad", ["X", "", "BI", "o", None])
def test_label_outside_the_label_set_rejected(bad):
    # the decoder joins the labels into one string, one character per token
    seq = tokenize("a b c")
    with pytest.raises(DataError, match="unknown labels"):
        decode_bilou(seq, ["B", bad, "I", "I", "L"])


def test_span_covering_no_token_rejected():
    seq = tokenize("ab")
    with pytest.raises(DataError, match="no unclaimed token"):
        # second span hides entirely inside the token claimed by the first
        encode_bilou(seq, [SentenceSpan(0, 1), SentenceSpan(1, 2)])


def random_token_aligned_spans(seq, rng):
    """Non-overlapping spans that start and end on non-whitespace tokens,
    separated by at least one unlabeled token."""
    spans = []
    n = len(seq)
    i = 0
    while i < n:
        if seq[i].kind in (WHITESPACE, NEWLINE) or rng.random() < 0.6:
            i += 1
            continue
        ends = [
            j for j in range(i, min(n, i + 6))
            if seq[j].kind not in (WHITESPACE, NEWLINE)
        ]
        j = rng.choice(ends)
        spans.append(SentenceSpan(seq[i].start, seq[j].end))
        i = j + 2  # leave at least one token unlabeled between spans
    return spans


def test_round_trip_random_spans():
    rng = random.Random(2024)
    docs = make_corpus(200, seed=55, newline_rate=0.2, abbreviation_rate=0.2)
    for doc in docs:
        seq = tokenize(doc.text)
        spans = random_token_aligned_spans(seq, rng)
        labels = encode_bilou(seq, spans)
        decoded = decode_bilou(seq, labels)
        assert decoded == spans
        # decoded spans are sorted and disjoint
        for a, b in zip(decoded, decoded[1:]):
            assert a.end <= b.start


def test_round_trip_gold_sentences():
    docs = make_corpus(100, seed=66, newline_rate=0.3)
    for doc in docs:
        seq = tokenize(doc.text)
        assert decode_bilou(seq, encode_bilou(seq, doc.spans)) == list(doc.spans)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.text(min_size=1, max_size=60),
    st.lists(st.sampled_from("BILOU"), min_size=1, max_size=200),
)
@settings(max_examples=200, deadline=None)
def test_decode_invariants_on_arbitrary_labels(text, raw_labels):
    seq = tokenize(text)
    if len(seq) == 0:
        return
    labels = (raw_labels * (len(seq) // len(raw_labels) + 1))[: len(seq)]
    spans = decode_bilou(seq, labels)
    prev_end = 0
    for span in spans:
        assert 0 <= span.start < span.end <= len(text)
        assert span.start >= prev_end
        assert not text[span.start : span.end].isspace()
        prev_end = span.end


# texts whose tokens are mostly whitespace, line breaks or nothing at all,
# beside arbitrary ones: the runs the decoder trims away
SPACEY_TEXTS = st.text(alphabet=st.sampled_from(" \t\n\r\u00a0\u2028a.1"), max_size=40)


@given(st.data(), st.sampled_from(["", "\r\n", " ", " \n \n"]) | SPACEY_TEXTS | st.text(max_size=60))
@settings(max_examples=400, deadline=None)
def test_decode_matches_the_loop_on_arbitrary_labels(data, text):
    seq = tokenize(text)
    labels = data.draw(st.lists(st.sampled_from(LABELS), min_size=len(seq), max_size=len(seq)))
    assert decode_bilou(seq, labels) == loop_decode_bilou(seq, labels)
    # and the column decode that prediction calls
    assert _decode_columns(_token_columns(text), labels) == loop_decode_bilou(seq, labels)
