import json
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legal_sbd.crf import TrainingConfig, load_model, save_model
from legal_sbd.errors import DataError
from legal_sbd.features import FEATURE_FINGERPRINT
from legal_sbd.pipeline import (
    chunk_token_indices,
    filter_documents,
    label_document,
    label_document_chunked,
    predict_documents,
    predict_text,
    train_on_documents,
)
from legal_sbd.spans import encode_bilou
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import SPACE_KINDS, tokenize
from strategies import TEXTS


def test_label_document_alignment():
    (doc,) = make_corpus(1, seed=61)
    labeled = label_document(doc)
    seq = tokenize(doc.text)
    assert len(labeled.features) == len(labeled.labels) == len(seq)
    assert labeled.labels == encode_bilou(seq, doc.spans)


def test_chunking_never_severs_sentences():
    docs = make_corpus(10, seed=62, sentences_per_doc=(8, 12), newline_rate=0.3)
    for doc in docs:
        seq = tokenize(doc.text)
        labels = encode_bilou(seq, doc.spans)
        texts = [tok.text for tok in seq]
        ranges = chunk_token_indices(texts, labels, max_length=40)
        # ranges partition the tokens
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(seq)
        for (_, a_end), (b_start, _) in zip(ranges, ranges[1:]):
            assert a_end == b_start
        # every cut lands after an O-labeled whitespace token
        for _, end in ranges[:-1]:
            assert labels[end - 1] == "O"
            assert texts[end - 1].isspace()
        # chunk labels concatenate to the original labeling
        rebuilt = []
        for a, b in ranges:
            rebuilt.extend(labels[a:b])
        assert rebuilt == labels


# every whitespace character, then each before a combining mark, which
# starts a token of its own there
SPACES = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())


@given(TEXTS)
@example(SPACES + "\u0301".join(SPACES))
@settings(max_examples=300, deadline=None)
def test_chunk_cut_rule_is_the_space_kind_rule(text):
    # chunking cuts after a text that isspace(); that is the kind rule of
    # the predicted spans' trimming
    for tok in tokenize(text):
        assert tok.text.isspace() == (tok.kind in SPACE_KINDS)


def test_chunked_sequences_stay_below_limit_when_cuttable():
    docs = make_corpus(5, seed=63, sentences_per_doc=(10, 14))
    for doc in docs:
        chunks = label_document_chunked(doc, max_sequence_length=50)
        assert len(chunks) > 1
        # sentences are ~7-19 tokens, so every chunk should respect the cap
        for chunk in chunks:
            assert len(chunk.labels) <= 50


def test_chunk_limit_validation():
    (doc,) = make_corpus(1, seed=64)
    texts = [tok.text for tok in tokenize(doc.text)]
    with pytest.raises(DataError):
        chunk_token_indices(texts, ["O"] * len(texts), 0)


@pytest.mark.parametrize("max_length", [True, 2.5, np.int64(30), "7"])
def test_chunk_limit_must_be_an_int(max_length):
    # True would cut as if the limit were 1
    texts = ["A", ".", " ", "B", "."]
    with pytest.raises(DataError, match=re.escape(f"max_length must be an integer >= 1, got {max_length!r}")):
        chunk_token_indices(texts, ["B", "L", "O", "B", "L"], max_length)


def test_training_with_chunking_still_learns():
    docs = make_corpus(20, seed=65)
    model = train_on_documents(
        docs, TrainingConfig(max_iterations=40), max_sequence_length=30
    )
    held = make_corpus(5, seed=66, id_prefix="h")
    for doc in held:
        assert predict_documents(model, [doc])[0].spans == doc.spans


def test_model_records_the_chunk_length_it_was_trained_with():
    docs = make_corpus(4, seed=67)
    config = TrainingConfig(max_iterations=3)
    chunked = train_on_documents(docs, config, max_sequence_length=30)
    assert chunked.metadata["max_sequence_length"] == 30
    whole = train_on_documents(docs, config)
    assert "max_sequence_length" not in whole.metadata
    assert set(chunked.metadata) - set(whole.metadata) == {"max_sequence_length"}


def test_model_records_the_features_it_was_trained_on(tmp_path):
    model = train_on_documents(make_corpus(4, seed=67), TrainingConfig(max_iterations=3))
    assert model.metadata["feature_fingerprint"] == FEATURE_FINGERPRINT
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    save_model(load_model(path), path)
    assert path.read_text(encoding="utf-8") == text
    # a file saved before models recorded the fingerprint loads as it is
    obj = json.loads(text)
    del obj["metadata"]["feature_fingerprint"]
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert "feature_fingerprint" not in load_model(path).metadata
    # a model trained on other features does not load
    obj["metadata"]["feature_fingerprint"] = "0" * 16
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(DataError, match="feature fingerprint"):
        load_model(path)


@pytest.fixture
def labeling_calls(monkeypatch):
    """Names of the pipeline's labeling and tokenizing functions, once per call."""
    import legal_sbd.pipeline as pipeline

    calls = []
    for name in ("label_document", "label_document_chunked", "tokenize"):
        original = getattr(pipeline, name)
        monkeypatch.setattr(
            pipeline, name,
            lambda *args, _name=name, _original=original: calls.append(_name) or _original(*args),
        )
    return calls


def test_bad_config_fails_before_any_document_is_labeled(labeling_calls):
    with pytest.raises(DataError, match="c1"):
        train_on_documents(make_corpus(5, seed=70), TrainingConfig(c1=float("nan")))
    assert labeling_calls == []


def test_empty_training_set_rejected():
    with pytest.raises(DataError, match="empty training set"):
        train_on_documents([])


@pytest.mark.parametrize("max_sequence_length", [0, -3, True, 2.5, np.int64(30), "7"])
def test_bad_chunk_length_fails_before_any_document_is_labeled(
    labeling_calls, max_sequence_length
):
    # True would train with a limit of 1, 2.5 and np.int64 be written to
    # the model file as 2.5 and 30.0, and "7" fail with a bare TypeError
    message = re.escape(f"max_sequence_length must be an integer >= 1, got {max_sequence_length!r}")
    with pytest.raises(DataError, match=message):
        train_on_documents(make_corpus(5, seed=70), max_sequence_length=max_sequence_length)
    assert labeling_calls == []


def test_chunked_training_labels_each_document_once(labeling_calls):
    docs = make_corpus(3, seed=71, sentences_per_doc=(8, 12))
    expected = []  # the chunks of tokenizing and encoding each document afresh
    for doc in docs:
        tokens = tokenize(doc.text)
        labels = encode_bilou(tokens, doc.spans)
        texts = [t.text for t in tokens]
        ranges = chunk_token_indices(texts, labels, 30)
        expected += [[[t.text for t in tokens[a:b]], labels[a:b]] for a, b in ranges]
    labeling_calls.clear()
    train_on_documents(docs, TrainingConfig(max_iterations=2), max_sequence_length=30)
    per_document = ["label_document_chunked", "label_document", "tokenize"]
    assert labeling_calls == per_document * len(docs)
    chunks = [chunk for doc in docs for chunk in label_document_chunked(doc, 30)]
    assert len(chunks) > len(docs)
    assert [[list(c.features.texts), c.labels] for c in chunks] == expected


def test_filter_documents():
    docs = make_corpus(4, seed=67) + make_corpus(
        3, seed=68, doc_type="law", language="de", id_prefix="de"
    )
    assert len(filter_documents(docs, subset="judgments")) == 4
    assert len(filter_documents(docs, subset="laws")) == 3
    assert len(filter_documents(docs, languages={"de"})) == 3
    assert len(filter_documents(docs, ids={docs[0].id})) == 1
    with pytest.raises(DataError):
        filter_documents(docs, subset="statutes")


def test_predict_text_empty():
    docs = make_corpus(6, seed=69)
    model = train_on_documents(docs, TrainingConfig(max_iterations=20))
    assert predict_text(model, "") == []


@given(st.text())
@settings(max_examples=150, deadline=None)
def test_predict_text_invariants_on_arbitrary_text(small_model, text):
    prev_end = 0
    for span in predict_text(small_model, text):
        assert 0 <= span.start < span.end <= len(text)
        assert span.start >= prev_end
        assert not text[span.start].isspace()
        assert not text[span.end - 1].isspace()
        prev_end = span.end
