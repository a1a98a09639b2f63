"""Document-level glue: corpus in, labeled sequences or predicted spans out.

Prediction runs on columns: each text's ``tokenizer.TokenColumns`` go
through compiled scoring, Viterbi and the column decode of
``spans._decode_columns`` with no ``Token`` built; only
:func:`predicted_labels`, which returns tokens, and training, which
labels tokens, make them.  Everything here is deterministic and runs in
the calling thread.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain

from .corpus import Document, SentenceSpan, corpus_fingerprint
from .crf import CrfModel, LabeledSequence, TrainingConfig, compile_model, train, viterbi
from .errors import DataError
from .features import FEATURE_FINGERPRINT, sequence_features
from .spans import encode_bilou
from .tokenizer import SPACE_KINDS, Token, TokenColumns, _column_tokens

# the column builder and decode keep these names: perfbench/tracer.py times the stages by them
from .spans import _decode_columns as decode_bilou
from .tokenizer import _token_columns as tokenize


def label_document(doc: Document) -> LabeledSequence:
    """Tokenize one gold document into features plus BILOU labels; the
    features are a ``features.SequenceFeatures`` over the tokens, whose
    maps training never builds."""
    tokens = _column_tokens(tokenize(doc.text))
    return LabeledSequence(
        features=sequence_features(tokens),
        labels=encode_bilou(tokens, doc.spans),
    )


def chunk_token_indices(tokens, labels: list[str], max_length: int) -> list[tuple[int, int]]:
    """Half-open token ranges of at most ~*max_length* tokens.

    Cuts happen only after O-labeled whitespace tokens, so no sentence is
    ever severed; a run without such a cut point may exceed the limit.
    """
    if max_length < 1:
        raise DataError(f"max_length must be >= 1, got {max_length}")
    ranges = []
    begin = 0
    last_cut = -1  # token index after which a cut is safe
    for i, (tok, label) in enumerate(zip(tokens, labels)):
        if i - begin + 1 > max_length and last_cut >= begin:
            ranges.append((begin, last_cut + 1))
            begin = last_cut + 1
        if label == "O" and tok.kind in SPACE_KINDS:
            last_cut = i
    if begin < len(tokens):
        ranges.append((begin, len(tokens)))
    return ranges


def label_document_chunked(doc: Document, max_sequence_length: int) -> list[LabeledSequence]:
    """:func:`label_document`'s sequence, cut into several training
    sequences at sentence-external whitespace if it is long."""
    whole = label_document(doc)
    tokens, labels = whole.features.tokens, whole.labels
    return [
        LabeledSequence(features=sequence_features(tokens[a:b]), labels=labels[a:b])
        for a, b in chunk_token_indices(tokens, labels, max_sequence_length)
    ]


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
    sentence-external whitespace first, and the model's metadata records
    the limit.
    """
    if not docs:
        raise DataError("empty training set")
    config = config or TrainingConfig()
    config.validate()  # this check and the next run before any document is tokenized
    if max_sequence_length is not None and max_sequence_length < 1:
        raise DataError(f"max_sequence_length must be >= 1, got {max_sequence_length}")
    sequences: list[LabeledSequence] = []
    for doc in docs:
        if max_sequence_length is None:
            sequences.append(label_document(doc))
        else:
            sequences.extend(label_document_chunked(doc, max_sequence_length))
    metadata = {
        "corpus_fingerprint": corpus_fingerprint(docs),
        "feature_fingerprint": FEATURE_FINGERPRINT,
    }
    if max_sequence_length is not None:
        metadata["max_sequence_length"] = max_sequence_length
    if extra_metadata:
        metadata.update(extra_metadata)
    return train(sequences, config, extra_metadata=metadata)


def _predicted_columns(model: CrfModel, texts: list[str]) -> list[tuple[TokenColumns, list[str]]]:
    """The token columns of each of *texts* and their Viterbi labels: the
    one prediction run, which every prediction function calls once.

    The model is compiled once per call and scores token texts directly;
    no feature maps are built.  A call on a model whose state weights are
    byte for byte those of the model compiled last reuses that parse (see
    :func:`~legal_sbd.crf.compile_model`), and a changed model is parsed
    anew, so it predicts with its new weights.  The tokens of all
    non-empty texts are scored and decoded as one batch, by one
    :func:`~legal_sbd.crf.viterbi` call, and each text's labels are the
    ones it would get alone; an empty text gets no labels."""
    compiled = compile_model(model)
    columns = [tokenize(text) for text in texts]
    lengths = [len(cols.texts) for cols in columns if cols.texts]
    flat = list(chain.from_iterable(cols.texts for cols in columns))
    labels = viterbi(compiled, flat, lengths) if flat else []
    labeled = []
    pos = 0
    for cols in columns:
        labeled.append((cols, labels[pos : pos + len(cols.texts)]))
        pos += len(cols.texts)
    return labeled


def predicted_labels(model: CrfModel, texts: list[str]) -> list[tuple[list[Token], list[str]]]:
    """Tokens of each of *texts* and their Viterbi labels, from one
    prediction run (see :func:`_predicted_columns`); an empty text gets
    ``([], [])``."""
    return [(_column_tokens(cols), labels) for cols, labels in _predicted_columns(model, texts)]


def predict_text(model: CrfModel, text: str) -> list[SentenceSpan]:
    """Predict sentence spans for raw text."""
    return decode_bilou(*_predicted_columns(model, [text])[0])


def predict_documents(model: CrfModel, docs: list[Document], threads: int = 1) -> list[Document]:
    """Copies of *docs*, in order, whose spans are the model's predictions.

    *threads* is ignored; it is accepted only because the benchmark in
    ``perfbench/`` passes it."""
    labeled = _predicted_columns(model, [doc.text for doc in docs])
    return [replace(doc, spans=tuple(decode_bilou(*pair))) for doc, pair in zip(docs, labeled)]
