"""Corpus ingestion, validation, splitting, and summary statistics.

The on-disk corpus format is UTF-8 JSONL, one document per line::

    {"id": str, "language": str, "type": "judgment"|"law", "text": str,
     "spans": [{"start": int, "end": int, "label": "Sentence"}, ...]}

Span offsets count Unicode code points of ``text``, start inclusive, end
exclusive.  Spans must be sorted, non-overlapping, in bounds, and contain
at least one non-whitespace character.

The package parses JSON only here: :func:`read_json_object` reads split
and model files, :func:`read_json_lines` corpora and predictions, and
both raise :class:`DataError` naming the file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import DataError
from .tokenizer import SPACE_KINDS, token_ranges, tokenize

DOC_TYPES = ("judgment", "law")


class SentenceSpan(NamedTuple):
    """Characters ``start`` to ``end`` (exclusive) of a document text.

    A named tuple, as ``tokenizer.Token`` is, so that decoding can build a
    long text's spans without a Python-level call for each: it is
    immutable, hashable and read by field name, and it equals the plain
    tuple ``(start, end, label)``."""

    start: int
    end: int
    label: str = "Sentence"


@dataclass(frozen=True)
class Document:
    id: str
    language: str
    doc_type: str
    text: str
    spans: tuple[SentenceSpan, ...] = ()


@dataclass(frozen=True)
class CorpusSplit:
    """Document-id partition into train/validation/test."""

    seed: int
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]


def validate_document(doc: Document) -> None:
    """Raise :class:`DataError` if *doc* violates a corpus invariant."""
    where = f"document {doc.id!r}"
    if not doc.id:
        raise DataError("document with empty id")
    if not doc.text:
        raise DataError(f"{where}: empty text")
    if doc.doc_type not in DOC_TYPES:
        raise DataError(
            f"{where}: unknown type {doc.doc_type!r} (expected one of {DOC_TYPES})"
        )
    if not (len(doc.language) == 2 and doc.language.isalpha() and doc.language.islower()):
        raise DataError(
            f"{where}: language {doc.language!r} is not a two-letter lowercase code"
        )
    n = len(doc.text)
    prev_end = 0
    for span in doc.spans:
        if not (0 <= span.start < span.end <= n):
            raise DataError(
                f"{where}: span out of range ({span.start}, {span.end}) for text of length {n}"
            )
        if span.start < prev_end:
            raise DataError(
                f"{where}: overlapping or unsorted span at ({span.start}, {span.end})"
            )
        if doc.text[span.start : span.end].isspace():
            raise DataError(
                f"{where}: span ({span.start}, {span.end}) contains only whitespace"
            )
        prev_end = span.end


def json_int(value) -> int:
    """*value* if JSON read it as an integer; ``TypeError`` otherwise.

    ``int()`` would turn ``1.7``, ``"2"`` and ``true`` into 1, 2 and 1, and
    the readers of span offsets and split seeds take none of them."""
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError(f"{value!r} is not an integer")
    return value


def json_number(value) -> float:
    """*value* as a float if JSON read it as a number; ``TypeError`` for
    ``"0.5"`` or ``true``, which ``float()`` would read as 0.5 and 1.0."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object that file *path* holds; :class:`DataError`
    ``"{path}: {what}: ..."`` if it holds anything else."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
            raise DataError(f"{path}: {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {what}: not a JSON object")
    return obj


def read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for every non-blank line of the JSONL file
    *path*; :class:`DataError` naming the line if one is not a JSON object."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise DataError(f"{path}: malformed JSON on line {lineno}: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}: line {lineno} is not a JSON object")
            yield lineno, obj


def parse_span(record) -> SentenceSpan:
    """A span record ``{"start": int, "end": int, "label": str}``, label
    ``"Sentence"`` if absent; ``TypeError`` or ``KeyError`` if malformed."""
    return SentenceSpan(json_int(record["start"]), json_int(record["end"]),
                        record.get("label", "Sentence"))


def _normalize_newlines(text: str, spans: list[SentenceSpan]):
    """Replace CRLF with LF and shift span offsets accordingly."""
    if "\r\n" not in text:
        return text, spans
    removed = []  # indices of '\r' characters that get dropped
    pos = text.find("\r\n")
    while pos != -1:
        removed.append(pos)
        pos = text.find("\r\n", pos + 2)

    def shift(offset: int) -> int:
        return offset - bisect_left(removed, offset)  # removed positions below offset

    new_text = text.replace("\r\n", "\n")
    new_spans = [SentenceSpan(shift(s.start), shift(s.end), s.label) for s in spans]
    return new_text, new_spans


def _parse_document(obj: dict, path: str | Path, lineno: int) -> Document:
    for key in ("id", "language", "type", "text"):
        if key not in obj:
            raise DataError(f"{path}: line {lineno}: missing field {key!r}")
    raw_spans = obj.get("spans", [])
    if not isinstance(raw_spans, list):
        raise DataError(f"{path}: line {lineno}: 'spans' must be a list")
    try:
        spans = [parse_span(s) for s in raw_spans]
    except (TypeError, KeyError) as exc:
        raise DataError(f"{path}: line {lineno}: malformed span in document "
                        f"{obj.get('id')!r}: {exc}") from exc
    text, spans = _normalize_newlines(str(obj["text"]), spans)
    return Document(
        id=str(obj["id"]),
        language=str(obj["language"]),
        doc_type=str(obj["type"]),
        text=text,
        spans=tuple(spans),
    )


def load_corpus(path: str | Path) -> list[Document]:
    """Load and validate a JSONL corpus.

    Aborts with a diagnostic naming the line number (for JSON problems) or
    the offending document id (for span problems).
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, obj in read_json_lines(path):
        doc = _parse_document(obj, path, lineno)
        validate_document(doc)
        if doc.id in seen:
            raise DataError(f"{path}: duplicate document id {doc.id!r} on line {lineno}")
        seen.add(doc.id)
        docs.append(doc)
    return docs


def document_to_json(doc: Document) -> str:
    obj = {
        "id": doc.id,
        "language": doc.language,
        "type": doc.doc_type,
        "text": doc.text,
        "spans": [
            {"start": s.start, "end": s.end, "label": s.label} for s in doc.spans
        ],
    }
    return json.dumps(obj, ensure_ascii=False)


def save_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write *docs* to *path* as JSONL, every line encoded before the file
    is opened: a document UTF-8 cannot encode (a lone surrogate) raises
    :class:`DataError` naming it, and an existing file stays."""
    lines = []
    for doc in docs:
        try:
            lines.append(document_to_json(doc).encode("utf-8") + b"\n")
        except UnicodeEncodeError as exc:
            bad = exc.object[exc.start]
            raise DataError(f"{path}: document {doc.id!r} holds {bad!r}, which UTF-8 cannot encode") from exc
    Path(path).write_bytes(b"".join(lines))


def corpus_fingerprint(docs: Iterable[Document]) -> str:
    """Content hash identifying a corpus in model metadata: every
    document's JSON line (id, text and spans included), in id order."""
    h = hashlib.sha256()
    for doc in sorted(docs, key=lambda d: d.id):
        h.update(document_to_json(doc).encode("utf-8", "surrogatepass") + b"\n")
    return h.hexdigest()[:16]


def _fifth(n: int) -> int:
    # round-half-up of 0.2 * n in exact integer arithmetic
    return (2 * n + 5) // 10


def split_corpus(docs: list[Document], seed: int) -> CorpusSplit:
    """Randomly partition document ids into 60/20/20 train/validation/test.

    Sampling is stratified per language so every language contributes 20%
    of its documents (round half up) to validation and to test.  The
    partition is a pure function of the document ids, their languages, and
    the seed.
    """
    if len(docs) < 5:
        raise DataError(f"corpus too small to split: {len(docs)} documents (need >= 5)")
    by_language: dict[str, list[str]] = {}
    for doc in docs:
        by_language.setdefault(doc.language, []).append(doc.id)
    rng = random.Random(seed)
    train: list[str] = []
    validation: list[str] = []
    test: list[str] = []
    for language in sorted(by_language):
        ids = sorted(by_language[language])
        rng.shuffle(ids)
        n_test = _fifth(len(ids))
        n_val = _fifth(len(ids))
        test.extend(ids[:n_test])
        validation.extend(ids[n_test : n_test + n_val])
        train.extend(ids[n_test + n_val :])
    if not validation or not test:
        raise DataError("corpus too small to yield non-empty validation/test splits")
    return CorpusSplit(
        seed=seed,
        train=tuple(sorted(train)),
        validation=tuple(sorted(validation)),
        test=tuple(sorted(test)),
    )


def save_split(split: CorpusSplit, path: str | Path) -> None:
    obj = {
        "seed": split.seed,
        "train": list(split.train),
        "validation": list(split.validation),
        "test": list(split.test),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_split(path: str | Path) -> CorpusSplit:
    obj = read_json_object(path, "malformed split file")
    try:
        seed = json_int(obj.get("seed", 0))
        ids = [obj["train"], obj["validation"], obj["test"]]
    except KeyError as exc:
        raise DataError(f"{path}: split file missing field {exc}") from exc
    except TypeError as exc:
        raise DataError(f"{path}: split seed {obj['seed']!r} is not an integer") from exc
    if not all(isinstance(x, list) and all(isinstance(i, str) for i in x) for x in ids):
        raise DataError(f"{path}: train, validation and test must be lists of id strings")
    return CorpusSplit(seed, *(tuple(x) for x in ids))


@dataclass
class StatsRow:
    language: str
    doc_type: str
    documents: int = 0
    sentences: int = 0
    tokens: int = 0  # non-whitespace tokens inside sentence spans
    tokens_with_whitespace: int = 0  # all tokens inside sentence spans


def corpus_stats(docs: Iterable[Document]) -> list[StatsRow]:
    """Per-(language, type) document/sentence/token counts.

    Token columns count tokens whose character range intersects a sentence
    span; ``tokens`` excludes whitespace and newline tokens while
    ``tokens_with_whitespace`` keeps them, so either counting convention
    can be reconciled from the output.
    """
    rows: dict[tuple[str, str], StatsRow] = {}
    for doc in docs:
        row = rows.setdefault(
            (doc.language, doc.doc_type), StatsRow(doc.language, doc.doc_type)
        )
        row.documents += 1
        row.sentences += len(doc.spans)
        for nonws, total in _sentence_token_counts(tokenize(doc.text), doc.spans):
            row.tokens += nonws
            row.tokens_with_whitespace += total
    return [rows[key] for key in sorted(rows)]


def _sentence_token_counts(tokens, spans) -> list[tuple[int, int]]:
    """(non-whitespace, total) token counts per sentence span."""
    counts = []
    for first, last in token_ranges(tokens, spans):
        run = tokens[first : last + 1]
        counts.append((sum(tok.kind not in SPACE_KINDS for tok in run), len(run)))
    return counts


def stats_to_csv(rows: list[StatsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["language", "type", "documents", "sentences", "tokens", "tokens_with_whitespace"]
    )
    for row in rows:
        writer.writerow(
            [row.language, row.doc_type, row.documents, row.sentences,
             row.tokens, row.tokens_with_whitespace]
        )
    if rows:
        writer.writerow(
            ["total", "all",
             sum(r.documents for r in rows),
             sum(r.sentences for r in rows),
             sum(r.tokens for r in rows),
             sum(r.tokens_with_whitespace for r in rows)]
        )
    return buf.getvalue()


@dataclass
class LengthHistogram:
    doc_type: str
    bin_size: int
    cutoff: int
    bins: list[tuple[int, int, int, float]] = field(default_factory=list)
    # each bin is (low, high, count, relative frequency)
    included: int = 0
    excluded: int = 0  # sentences with more than `cutoff` tokens


def length_histogram(
    docs: Iterable[Document], bin_size: int = 5, cutoff: int = 101
) -> list[LengthHistogram]:
    """Sentence-length distribution in non-whitespace tokens per doc type.

    Lengths are bucketed into [1..bin_size], [bin_size+1..2*bin_size], ...
    and normalized within each document type.  Sentences longer than
    *cutoff* are excluded from the bins; their count is reported in
    ``excluded``.
    """
    if bin_size < 1:
        raise DataError(f"bin_size must be >= 1, got {bin_size}")
    counts: dict[str, dict[int, int]] = {}
    excluded: dict[str, int] = {}
    for doc in docs:
        per_type = counts.setdefault(doc.doc_type, {})
        for nonws, _ in _sentence_token_counts(tokenize(doc.text), doc.spans):
            if nonws > cutoff:
                excluded[doc.doc_type] = excluded.get(doc.doc_type, 0) + 1
                continue
            idx = (nonws - 1) // bin_size if nonws > 0 else 0
            per_type[idx] = per_type.get(idx, 0) + 1
    result = []
    for doc_type in sorted(counts):
        per_type = counts[doc_type]
        hist = LengthHistogram(doc_type, bin_size, cutoff)
        hist.included = sum(per_type.values())
        hist.excluded = excluded.get(doc_type, 0)
        top = max(per_type) if per_type else -1
        for idx in range(top + 1):
            c = per_type.get(idx, 0)
            freq = c / hist.included if hist.included else 0.0
            hist.bins.append((idx * bin_size + 1, (idx + 1) * bin_size, c, freq))
        result.append(hist)
    return result


def histograms_to_csv(hists: list[LengthHistogram]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["type", "bin_start", "bin_end", "count", "frequency"])
    for hist in hists:
        for lo, hi, count, freq in hist.bins:
            writer.writerow([hist.doc_type, lo, hi, count, f"{freq:.6f}"])
    return buf.getvalue()
