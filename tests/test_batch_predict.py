"""Batched prediction against one text at a time and the reference path.

``pipeline.predicted_labels`` scores the tokens of all texts of a call in
one padded unary matrix and decodes them with one packed Viterbi.  Each
text's labels must be the ones it gets alone, and the ones the reference
path gives its feature maps, ties included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legal_sbd import crf, pipeline, tokenizer
from legal_sbd.corpus import Document
from legal_sbd.crf import CrfModel, indicators, viterbi
from legal_sbd.features import MAX_RADIUS, sequence_features
from legal_sbd.spans import LABELS, decode_bilou
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import tokenize
from oracles import brute_viterbi, random_features, random_model

L = len(LABELS)
# every BOS / EOS indicator the feature set emits, at every offset
EDGES = tuple(
    f"{d:+d}:{flag}={value}" if d else f"0:{flag}={value}"
    for d in range(-MAX_RADIUS, MAX_RADIUS + 1)
    for flag in ("BOS", "EOS")
    if (flag == "BOS" and d <= 0) or (flag == "EOS" and d >= 0)
    for value in ("true", "false")
)
WORDS = ("Art.", "5", "Abs.", "(1)", "Die", "la", "loi", "ZGB", ";", ":", "’", "\n")
TEXT = st.one_of(
    st.just(""),
    st.text(alphabet=" \t\n\r  ", min_size=1, max_size=6),  # whitespace only
    st.sampled_from(WORDS),  # one token
    st.text(min_size=1, max_size=1),
    st.text(alphabet="aZé1.;:=()[]'’ \n", max_size=40),
    # more than 2 * MAX_RADIUS tokens: words with spaces between
    st.lists(st.sampled_from(WORDS), min_size=2 * MAX_RADIUS + 1, max_size=40).map(" ".join),
    st.text(max_size=120),
)


def draw_model(data, texts, integer: bool | None = None) -> CrfModel:
    """Random weights on every edge indicator and on some of the texts'
    own indicators; integer weights (drawn, unless *integer* is given)
    make exact ties common."""
    own = sorted({
        ind
        for text in texts
        for fv in sequence_features(tokenize(text))
        for ind, _ in indicators(fv)
    } - set(EDGES))
    picked = list(EDGES)
    if own:
        picked += data.draw(st.lists(st.sampled_from(own), max_size=60, unique=True), label="own")
    if integer is None:
        integer = data.draw(st.booleans(), label="integer")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def draw(*shape):
        return rng.integers(-1, 2, size=shape).astype(float) if integer else rng.normal(size=shape)

    return CrfModel({ind: draw(L) for ind in picked}, draw(L, L), draw(L), draw(L))


@given(texts=st.lists(TEXT, max_size=7), data=st.data())
@settings(max_examples=200, deadline=None)
def test_batch_matches_each_text_alone_and_the_reference(texts, data):
    model = draw_model(data, texts)
    batch = pipeline.predicted_labels(model, texts)
    assert batch == [pipeline.predicted_labels(model, [text])[0] for text in texts]
    for text, (tokens, labels) in zip(texts, batch):
        assert tokens == tokenize(text)
        assert labels == (viterbi(model, sequence_features(tokens)) if tokens else [])


@given(texts=st.lists(TEXT, max_size=7), data=st.data())
@settings(max_examples=200, deadline=None)
def test_blocked_decoding_matches_the_unblocked_loop(texts, data):
    # blocks of 2 steps for every text of more than 2 tokens, so the drawn
    # texts span many blocks, against one step per position for every
    # text; integer weights make every sum exact, so the labels are the
    # loop's, ties included
    model = draw_model(data, texts, integer=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crf, "_block_lengths", lambda lengths: lengths)
        unblocked = pipeline.predicted_labels(model, texts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crf, "_block_lengths", lambda lengths: np.minimum(lengths, 2))
        blocked = pipeline.predicted_labels(model, texts)
        assert blocked == [pipeline.predicted_labels(model, [text])[0] for text in texts]
    assert blocked == unblocked
    assert pipeline.predicted_labels(model, texts) == unblocked


def test_zero_model_labels_every_token_b():
    model = CrfModel({}, np.zeros((L, L)), np.zeros(L), np.zeros(L))
    texts = ["", "Art. 5 Abs. 1 gilt.", "   ", "x", "a. " * 3 * MAX_RADIUS]
    for tokens, labels in pipeline.predicted_labels(model, texts):
        assert labels == ["B"] * len(tokens)


def test_integer_ties_break_like_the_oracle(rng):
    # I, L and U tie at every position, and the edge flags and transitions
    # add integer amounts, so many paths share the best score
    texts = ["", "a b.", "Art. 5", "x", " ", "(1) a"]
    for _ in range(30):
        weights = {"bias": np.array([0.0, 1.0, 1.0, 0.0, 1.0])}
        for ind in EDGES:
            weights[ind] = rng.integers(-1, 2, size=L).astype(float)
        model = CrfModel(
            weights,
            rng.integers(-1, 2, size=(L, L)).astype(float),
            rng.integers(0, 2, size=L).astype(float),
            rng.integers(0, 2, size=L).astype(float),
        )
        for tokens, labels in pipeline.predicted_labels(model, texts):
            want = brute_viterbi(model, sequence_features(tokens)) if tokens else []
            assert labels == want


def test_packed_viterbi_matches_enumeration(rng):
    for trial in range(40):
        integer = trial % 2 == 1  # integer weights force exact ties
        model = random_model(rng, integer=integer)
        lengths = rng.integers(1, 6, size=int(rng.integers(1, 6))).tolist()
        sequences = [random_features(rng, n, integer=integer) for n in lengths]
        flat = [fv for seq in sequences for fv in seq]
        want = [label for seq in sequences for label in brute_viterbi(model, seq)]
        assert viterbi(model, flat, lengths) == want


# the last two are not integers: np.array would read them as [2, 1] and [1, 2]
@pytest.mark.parametrize("lengths", [[], [0, 3], [2, 2], [4], [2.7, 1.3], [True, 2]])
def test_lengths_must_split_the_positions(lengths):
    with pytest.raises(ValueError):
        viterbi(random_model(np.random.default_rng(0)), [{"f0": 1.0}] * 3, lengths)


@pytest.mark.parametrize("lengths", [[2, 1], np.array([2, 1]), np.array([2, 1], dtype=np.int32)])
def test_integer_lengths_are_accepted(lengths):
    model = random_model(np.random.default_rng(0))
    flat = [{"f0": 1.0}] * 3
    assert viterbi(model, flat, lengths) == viterbi(model, flat[:2]) + viterbi(model, flat[2:])


def test_one_decode_per_call(small_model, monkeypatch):
    calls = {"viterbi": 0, "_unary_matrix": 0, "compile_model": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(pipeline, "viterbi")
    counting(crf, "_unary_matrix")
    counting(pipeline, "compile_model")
    texts = [doc.text for doc in make_corpus(8, seed=811)] + ["", "  "]
    labeled = pipeline.predicted_labels(small_model, texts)
    assert [tokens for tokens, _ in labeled] == [tokenize(text) for text in texts]
    assert calls == {"viterbi": 1, "_unary_matrix": 1, "compile_model": 1}


@given(texts=st.lists(TEXT, max_size=7), data=st.data())
@settings(max_examples=150, deadline=None)
def test_columnar_spans_are_the_token_decode(texts, data):
    # predict_documents and predict_text decode columns; their spans must
    # be those of decoding predicted_labels' tokens, batched and alone
    model = draw_model(data, texts)
    docs = [Document(f"doc-{i}", "fr", "judgment", text) for i, text in enumerate(texts)]
    want = [decode_bilou(*pair) for pair in pipeline.predicted_labels(model, texts)]
    assert [list(doc.spans) for doc in pipeline.predict_documents(model, docs)] == want
    for doc, spans in zip(docs, want):
        assert [list(out.spans) for out in pipeline.predict_documents(model, [doc])] == [spans]
        assert pipeline.predict_text(model, doc.text) == spans


def test_columnar_prediction_builds_no_token(small_model, monkeypatch):
    docs = make_corpus(5, seed=814, newline_rate=0.3)
    n_tokens = len(tokenize(docs[0].text))
    built = []
    real = tokenizer._new_token
    monkeypatch.setattr(tokenizer, "_new_token", lambda fields: built.append(fields) or real(fields))
    predicted = pipeline.predict_documents(small_model, docs)
    assert pipeline.predict_text(small_model, docs[0].text) == list(predicted[0].spans)
    assert built == []
    # the count sees the tokens that predicted_labels returns
    pipeline.predicted_labels(small_model, [docs[0].text])
    assert len(built) == n_tokens
