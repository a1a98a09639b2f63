"""Corpus ingestion, validation, splitting, and summary statistics.

The on-disk corpus format is UTF-8 JSONL, one document per line::

    {"id": str, "language": str, "type": "judgment"|"law", "text": str,
     "spans": [{"start": int, "end": int, "label": "Sentence"}, ...]}

Span offsets count Unicode code points of ``text``, start inclusive, end
exclusive.  Spans must be sorted, non-overlapping, in bounds, and contain
at least one non-whitespace character.

The package parses JSON only here: :func:`read_json_object` reads split
and model files, :func:`read_json_lines` corpora and predictions, and
both raise :class:`DataError` naming the file.  It writes every file,
model, corpus, split and CLI output alike, through :func:`write_file`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DataError
from .tokenizer import SOLID_FLAGS, _token_columns, token_ranges

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
    if not all(type(v) is str for v in (doc.id, doc.language, doc.doc_type, doc.text)):
        raise DataError(f"{where}: id, language, type and text must be strings")
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
        if not (type(span.start) is type(span.end) is int and type(span.label) is str):
            raise DataError(f"{where}: span {tuple(span)!r} is not (int, int, str)")
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


def check_int(name: str, value, least: int | None = None) -> None:
    """:class:`DataError` naming *name* unless *value* is an ``int`` (by :func:`json_int`'s
    rule: no bool, no numpy integer) of at least *least*; the package's one integer check."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise DataError(f"{name} must be an integer{bound}, got {value!r}")


def json_str(value) -> str:
    """*value* if JSON read it as a string; ``TypeError`` otherwise."""
    if type(value) is not str:
        raise TypeError(f"{value!r} is not a string")
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


def write_file(path: str | Path, text: str, culprit: Callable[[str], str]) -> None:
    """Write *text* to *path* as UTF-8, the package's one way to write a
    file.  The whole text is encoded before the file is opened: a text
    UTF-8 cannot encode (one holding a lone surrogate) raises
    :class:`DataError` ``"{path}: {culprit(bad)} holds {bad!r}, which
    UTF-8 cannot encode"``, and an existing file stays as it was."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = text[exc.start]
        raise DataError(f"{path}: {culprit(bad)} holds {bad!r}, which UTF-8 cannot encode") from exc
    Path(path).write_bytes(data)


def parse_span(record) -> SentenceSpan:
    """A span record ``{"start": int, "end": int, "label": str}``, label
    ``"Sentence"`` if absent; ``TypeError`` or ``KeyError`` if malformed."""
    return SentenceSpan(json_int(record["start"]), json_int(record["end"]),
                        json_str(record.get("label", "Sentence")))


def _normalize_newlines(text: str, spans: list[SentenceSpan]):
    """Replace CRLF with LF and shift span offsets accordingly."""
    if "\r\n" not in text:
        return text, spans
    removed = np.array([m.start() for m in re.finditer("\r\n", text)])  # dropped '\r's

    def shift(offset: int) -> int:
        return offset - int(np.searchsorted(removed, offset))  # removed positions below offset

    spans = [SentenceSpan(shift(s.start), shift(s.end), s.label) for s in spans]
    return text.replace("\r\n", "\n"), spans


def _parse_document(obj: dict, path: str | Path, lineno: int) -> Document:
    try:
        for key in ("id", "language", "type", "text"):
            json_str(obj[key])
    except KeyError as exc:
        raise DataError(f"{path}: line {lineno}: missing field {key!r}") from exc
    except TypeError as exc:
        raise DataError(f"{path}: line {lineno}: field {key!r} is not a string: {obj[key]!r}") from exc
    raw_spans = obj.get("spans", [])
    if not isinstance(raw_spans, list):
        raise DataError(f"{path}: line {lineno}: 'spans' must be a list")
    try:
        spans = [parse_span(s) for s in raw_spans]
    except (TypeError, KeyError) as exc:
        raise DataError(f"{path}: line {lineno}: malformed span in document "
                        f"{obj.get('id')!r}: {exc}") from exc
    text, spans = _normalize_newlines(obj["text"], spans)
    return Document(
        id=obj["id"],
        language=obj["language"],
        doc_type=obj["type"],
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


def _unique(ids: Iterable[str], where: str) -> None:
    """:class:`DataError` ``"{where} lists document id ... more than once"``
    if one of *ids* repeats."""
    repeated = [i for i, n in Counter(ids).items() if n > 1]
    if repeated:
        raise DataError(f"{where} lists document id {repeated[0]!r} more than once")


def save_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write *docs* to *path* as JSONL through :func:`write_file`, after
    the checks :func:`load_corpus` applies: a document that breaks a rule
    of :func:`validate_document`, an id listed twice, or a document UTF-8
    cannot encode (a lone surrogate) raises :class:`DataError` naming it,
    before the file is opened, so an existing file stays."""
    docs = list(docs)
    for doc in docs:
        validate_document(doc)
    _unique((doc.id for doc in docs), f"{path}: corpus")
    lines = [document_to_json(doc) + "\n" for doc in docs]
    write_file(path, "".join(lines), lambda bad: next(
        f"document {doc.id!r}" for doc, line in zip(docs, lines) if bad in line))


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
    the seed, an ``int`` (:func:`check_int`): the only seed that :func:`save_split`
    writes and :func:`load_split` reads back.  An id listed twice is a :class:`DataError`.
    """
    check_int("split seed", seed)
    _unique((doc.id for doc in docs), "corpus")
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


def _checked_split(seed, lists, path: str | Path) -> CorpusSplit:
    """The split of *seed* and the (train, validation, test) *lists* under
    the rules of a split file: :class:`DataError` naming *path* if the seed
    is not an ``int`` (:func:`check_int`), an id is not a string, or an id
    is listed twice."""
    check_int(f"{path}: split seed", seed)
    try:
        ids = [tuple(map(json_str, x)) for x in lists]
    except TypeError as exc:
        raise DataError(f"{path}: train, validation and test must be lists of id strings") from exc
    _unique((i for x in ids for i in x), f"{path}: split")
    return CorpusSplit(seed, *ids)


def save_split(split: CorpusSplit, path: str | Path) -> None:
    """Write *split* to *path* as JSON through :func:`write_file`, after
    the checks :func:`load_split` applies: a seed, an id or a repeated id
    it would reject raises :class:`DataError` naming the split before the
    file is opened, so an existing file stays."""
    split = _checked_split(split.seed, (split.train, split.validation, split.test), path)
    obj = {
        "seed": split.seed,
        "train": list(split.train),
        "validation": list(split.validation),
        "test": list(split.test),
    }
    # json.dumps escapes every non-ASCII character, so the text always encodes
    write_file(path, json.dumps(obj, indent=2, sort_keys=True) + "\n", lambda bad: "split")


def load_split(path: str | Path) -> CorpusSplit:
    """The split in file *path*; :class:`DataError` if a field is missing or breaks a rule."""
    obj = read_json_object(path, "malformed split file")
    try:
        seed, lists = obj["seed"], [obj["train"], obj["validation"], obj["test"]]
    except KeyError as exc:
        raise DataError(f"{path}: split file missing field {exc}") from exc
    if not all(isinstance(x, list) for x in lists):
        raise DataError(f"{path}: train, validation and test must be lists of id strings")
    return _checked_split(seed, lists, path)


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
        nonws, totals = _sentence_token_counts(doc.text, doc.spans)
        row.tokens += sum(nonws)
        row.tokens_with_whitespace += sum(totals)
    return [rows[key] for key in sorted(rows)]


def _sentence_token_counts(text: str, spans) -> tuple[list[int], list[int]]:
    """The non-whitespace and the total token counts of each span of *text*."""
    columns = _token_columns(text)
    firsts, lasts = token_ranges(columns.ends, spans)
    solid = np.frombuffer(columns.codes.encode().translate(SOLID_FLAGS), np.bool_)
    before = np.concatenate(([0], np.cumsum(solid)))  # non-whitespace tokens before token i
    nonws = np.maximum(before[lasts + 1] - before[firsts], 0)
    return nonws.tolist(), np.maximum(lasts + 1 - firsts, 0).tolist()


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
    and normalized within each document type.  Sentences longer than *cutoff*
    are excluded from the bins; their count is reported in ``excluded``.
    :func:`check_int` checks ``bin_size >= 1`` and ``cutoff >= 0`` first.
    """
    check_int("bin_size", bin_size, 1)
    check_int("cutoff", cutoff, 0)
    counts: dict[str, dict[int, int]] = {}
    excluded: dict[str, int] = {}
    for doc in docs:
        per_type = counts.setdefault(doc.doc_type, {})
        for nonws in _sentence_token_counts(doc.text, doc.spans)[0]:
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
