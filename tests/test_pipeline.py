import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legal_sbd.crf import TrainingConfig
from legal_sbd.errors import DataError
from legal_sbd.pipeline import (
    chunk_token_indices,
    filter_documents,
    label_document,
    label_document_chunked,
    predict_document,
    predict_text,
    train_on_documents,
)
from legal_sbd.spans import encode_bilou
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import tokenize


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
        ranges = chunk_token_indices(seq, labels, max_length=40)
        # ranges partition the tokens
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(seq)
        for (_, a_end), (b_start, _) in zip(ranges, ranges[1:]):
            assert a_end == b_start
        # every cut lands after an O-labeled whitespace token
        for _, end in ranges[:-1]:
            assert labels[end - 1] == "O"
        # chunk labels concatenate to the original labeling
        rebuilt = []
        for a, b in ranges:
            rebuilt.extend(labels[a:b])
        assert rebuilt == labels


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
    seq = tokenize(doc.text)
    with pytest.raises(DataError):
        chunk_token_indices(seq, ["O"] * len(seq), 0)


def test_training_with_chunking_still_learns():
    docs = make_corpus(20, seed=65)
    model = train_on_documents(
        docs, TrainingConfig(max_iterations=40), max_sequence_length=30
    )
    held = make_corpus(5, seed=66, id_prefix="h")
    for doc in held:
        assert predict_document(model, doc).spans == doc.spans


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
