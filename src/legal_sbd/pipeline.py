"""Document-level glue: corpus in, labeled sequences or predicted spans out.

Everything here is deterministic and runs in the calling thread.
"""

from __future__ import annotations

from dataclasses import replace

from .corpus import Document, SentenceSpan, corpus_fingerprint
from .crf import CrfModel, LabeledSequence, TrainingConfig, train, viterbi
from .errors import DataError
from .features import sequence_features
from .spans import decode_bilou, encode_bilou
from .tokenizer import NEWLINE, WHITESPACE, TokenSequence, tokenize


def label_document(doc: Document) -> LabeledSequence:
    """Tokenize one gold document into features plus BILOU labels."""
    seq = tokenize(doc.text, doc.id)
    return LabeledSequence(
        features=sequence_features(seq),
        labels=encode_bilou(seq, doc.spans),
    )


def chunk_token_indices(seq, labels: list[str], max_length: int) -> list[tuple[int, int]]:
    """Half-open token ranges of at most ~*max_length* tokens.

    Cuts happen only after O-labeled whitespace tokens, so no sentence is
    ever severed; a run without such a cut point may exceed the limit.
    """
    if max_length < 1:
        raise DataError(f"max_length must be >= 1, got {max_length}")
    ranges = []
    begin = 0
    last_cut = -1  # token index after which a cut is safe
    for i, (tok, label) in enumerate(zip(seq.tokens, labels)):
        if i - begin + 1 > max_length and last_cut >= begin:
            ranges.append((begin, last_cut + 1))
            begin = last_cut + 1
        if label == "O" and tok.kind in (WHITESPACE, NEWLINE):
            last_cut = i
    if begin < len(seq):
        ranges.append((begin, len(seq)))
    return ranges


def label_document_chunked(doc: Document, max_sequence_length: int) -> list[LabeledSequence]:
    """Like :func:`label_document`, but long documents become several
    training sequences split at sentence-external whitespace."""
    seq = tokenize(doc.text, doc.id)
    labels = encode_bilou(seq, doc.spans)
    out = []
    for a, b in chunk_token_indices(seq, labels, max_sequence_length):
        chunk = TokenSequence(seq.tokens[a:b], doc.id)
        out.append(LabeledSequence(features=sequence_features(chunk), labels=labels[a:b]))
    return out


def filter_documents(
    docs: list[Document],
    *,
    ids: set[str] | None = None,
    languages: set[str] | None = None,
    subset: str = "both",
) -> list[Document]:
    """Restrict a corpus by id list, language list, and document type."""
    if subset not in ("judgments", "laws", "both"):
        raise DataError(f"unknown subset {subset!r} (expected judgments, laws, or both)")
    doc_type = {"judgments": "judgment", "laws": "law"}.get(subset)
    out = []
    for doc in docs:
        if ids is not None and doc.id not in ids:
            continue
        if languages is not None and doc.language not in languages:
            continue
        if doc_type is not None and doc.doc_type != doc_type:
            continue
        out.append(doc)
    return out


def train_on_documents(
    docs: list[Document],
    config: TrainingConfig | None = None,
    extra_metadata: dict | None = None,
    max_sequence_length: int | None = None,
) -> CrfModel:
    """Train a CRF on gold documents.

    By default each document is one training sequence; with
    *max_sequence_length* set, very long documents are split at
    sentence-external whitespace first.
    """
    if not docs:
        raise DataError("empty training set")
    sequences: list[LabeledSequence] = []
    for doc in docs:
        if max_sequence_length is None:
            sequences.append(label_document(doc))
        else:
            sequences.extend(label_document_chunked(doc, max_sequence_length))
    metadata = {"corpus_fingerprint": corpus_fingerprint(docs)}
    if extra_metadata:
        metadata.update(extra_metadata)
    return train(sequences, config, extra_metadata=metadata)


def predicted_labels(model: CrfModel, text: str) -> tuple[TokenSequence, list[str]]:
    """Tokens of *text* and their Viterbi labels; every prediction
    function decodes its spans from these."""
    seq = tokenize(text)
    if not len(seq):
        return seq, []
    return seq, viterbi(model, sequence_features(seq))


def predict_text(model: CrfModel, text: str) -> list[SentenceSpan]:
    """Predict sentence spans for raw text."""
    return decode_bilou(*predicted_labels(model, text))


def predict_document(model: CrfModel, doc: Document) -> Document:
    """Copy of *doc* whose spans are the model's predictions."""
    return replace(doc, spans=tuple(predict_text(model, doc.text)))


def predict_documents(model: CrfModel, docs: list[Document], threads: int = 1) -> list[Document]:
    """Predict spans for every document, in order, one after another.

    *threads* is ignored.  It is accepted only because the benchmark in
    ``perfbench/`` still passes it; a thread pool behind it was removed
    after it lost to one thread on every one of 10 alternating pairs on
    the 60-document benchmark input (2 cores: 0.556 s median serial,
    0.772 s with two threads).
    """
    return [predict_document(model, doc) for doc in docs]
