"""Token-level binary evaluation of predicted sentence spans.

Predicted spans, whether from this package or any external splitter, are mapped
onto the reference tokenization: a reference token is a positive iff it
is the first or the last token intersecting some predicted span.  Scoring
the resulting boolean vectors with binary precision/recall/F1 decouples
the comparison from whichever tokenizer the predicting system used, since
any span edge falling inside a reference token designates that same
token.

Reports carry per-document scores plus per-(language, type) aggregates:
macro (unweighted mean over documents) and micro (pooled counts), because
either averaging convention may be wanted downstream.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Document, SentenceSpan
from .errors import DataError
from .tokenizer import TokenSequence, tokenize

BOUNDARY_MODES = ("both", "start", "end")


def boundary_vector(
    reference: TokenSequence, spans, mode: str = "both"
) -> np.ndarray:
    """Mark boundary tokens of *reference* for the given spans.

    ``mode`` selects which span edges count: sentence starts, sentence
    ends, or both (the default).  Spans may overlap token edges arbitrarily;
    a span outside the text raises :class:`DataError`.
    """
    if mode not in BOUNDARY_MODES:
        raise DataError(f"unknown boundary mode {mode!r} (expected one of {BOUNDARY_MODES})")
    bits = np.zeros(len(reference), dtype=bool)
    if not len(reference):
        if spans:
            raise DataError("spans supplied for empty reference text")
        return bits
    starts = [tok.start for tok in reference.tokens]
    ends = [tok.end for tok in reference.tokens]
    text_len = ends[-1]
    for span in spans:
        if not (0 <= span.start < span.end <= text_len):
            raise DataError(
                f"span ({span.start}, {span.end}) outside text of length {text_len}"
            )
        first = bisect_right(ends, span.start)
        last = bisect_left(starts, span.end) - 1
        if mode in ("both", "start"):
            bits[first] = True
        if mode in ("both", "end"):
            bits[last] = True
    return bits


def prf(gold: np.ndarray, pred: np.ndarray) -> tuple[float, float, float]:
    """Binary precision/recall/F1 on the positive class.

    Degenerate cases follow the usual conventions: a score with an empty
    denominator is 0.
    """
    if len(gold) != len(pred):
        raise DataError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    return _prf_from_counts(*_counts(gold, pred))


def _counts(gold: np.ndarray, pred: np.ndarray) -> tuple[int, int, int]:
    """True positives, false positives and false negatives."""
    gold = np.asarray(gold, dtype=bool)
    pred = np.asarray(pred, dtype=bool)
    return (
        int(np.count_nonzero(gold & pred)),
        int(np.count_nonzero(~gold & pred)),
        int(np.count_nonzero(gold & ~pred)),
    )


def _prf_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass
class DocScore:
    doc_id: str
    precision: float
    recall: float
    f1: float
    support: int  # gold boundary tokens


@dataclass
class SubsetScore:
    language: str
    doc_type: str
    macro_p: float
    macro_r: float
    macro_f1: float
    micro_f1: float
    n_docs: int


@dataclass
class EvalReport:
    boundary_mode: str
    per_document: list[DocScore] = field(default_factory=list)
    per_subset: dict[tuple[str, str], SubsetScore] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "boundary_mode": self.boundary_mode,
            "per_document": [vars(d).copy() for d in self.per_document],
            "per_subset": [vars(s).copy() for s in self.per_subset.values()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["language,type,n_docs,macro_p,macro_r,macro_f1,micro_f1"]
        for key in sorted(self.per_subset):
            s = self.per_subset[key]
            lines.append(
                f"{s.language},{s.doc_type},{s.n_docs},"
                f"{s.macro_p:.6f},{s.macro_r:.6f},{s.macro_f1:.6f},{s.micro_f1:.6f}"
            )
        return "\n".join(lines) + "\n"


def evaluate(
    gold_docs: list[Document],
    predictions: dict[str, list[SentenceSpan]],
    *,
    mode: str = "both",
    allow_missing: bool = False,
) -> EvalReport:
    """Score predicted spans against gold annotations.

    Every gold document needs an entry in *predictions* (possibly empty)
    unless *allow_missing* treats absent entries as empty predictions;
    predictions for unknown document ids are always an error.  Zero-shot
    evaluation is this same function pointed at documents of a language
    the model never saw.
    """
    known = {doc.id for doc in gold_docs}
    unknown = set(predictions) - known
    if unknown:
        raise DataError(f"predictions for unknown document ids: {sorted(unknown)[:5]}")
    report = EvalReport(boundary_mode=mode)
    pooled: dict[tuple[str, str], tuple[int, int, int]] = {}
    grouped: dict[tuple[str, str], list[DocScore]] = {}
    for doc in gold_docs:
        if doc.id not in predictions and not allow_missing:
            raise DataError(f"missing prediction for document {doc.id!r}")
        pred_spans = predictions.get(doc.id, [])
        reference = tokenize(doc.text, doc.id)
        gold_bits = boundary_vector(reference, doc.spans, mode)
        pred_bits = boundary_vector(reference, pred_spans, mode)
        counts = _counts(gold_bits, pred_bits)
        doc_score = DocScore(doc.id, *_prf_from_counts(*counts), int(gold_bits.sum()))
        report.per_document.append(doc_score)
        key = (doc.language, doc.doc_type)
        grouped.setdefault(key, []).append(doc_score)
        pooled[key] = tuple(a + b for a, b in zip(pooled.get(key, (0, 0, 0)), counts))
    for key, scores in grouped.items():
        micro_f1 = _prf_from_counts(*pooled[key])[2]
        report.per_subset[key] = SubsetScore(
            language=key[0],
            doc_type=key[1],
            macro_p=float(np.mean([s.precision for s in scores])),
            macro_r=float(np.mean([s.recall for s in scores])),
            macro_f1=float(np.mean([s.f1 for s in scores])),
            micro_f1=micro_f1,
            n_docs=len(scores),
        )
    return report


def clip_overlaps(spans: list[SentenceSpan]) -> list[SentenceSpan]:
    """Resolve overlapping spans by clipping each start to the previous end.

    Spans emptied by clipping are dropped.  Deterministic and order
    preserving (spans are first sorted by offsets).
    """
    out: list[SentenceSpan] = []
    prev_end = 0
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        start = max(span.start, prev_end)
        if start >= span.end:
            continue
        out.append(SentenceSpan(start, span.end, span.label))
        prev_end = span.end
    return out


def import_foreign_predictions(path: str | Path) -> dict[str, list[SentenceSpan]]:
    """Read predicted spans from a corpus-format JSONL file.

    Permissive on purpose: external systems may emit overlapping spans or
    spans swallowing separator whitespace; overlaps are clipped, nothing
    else is normalized.  Only ``id`` and ``spans`` are consulted.
    """
    predictions: dict[str, list[SentenceSpan]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                doc_id = str(obj["id"])
                spans = [
                    SentenceSpan(int(s["start"]), int(s["end"]), s.get("label", "Sentence"))
                    for s in obj.get("spans", [])
                ]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}: malformed prediction line {lineno}: {exc}") from exc
            if any(s.start >= s.end for s in spans):
                raise DataError(
                    f"{path}: line {lineno}: empty or inverted span in document {doc_id!r}"
                )
            if doc_id in predictions:
                raise DataError(f"{path}: duplicate prediction for document {doc_id!r}")
            predictions[doc_id] = clip_overlaps(spans)
    return predictions
