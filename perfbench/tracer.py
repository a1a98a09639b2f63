"""Spans and counts recorded from outside the package.

:func:`install` replaces module-level functions of ``legal_sbd`` with
timing wrappers, in the namespaces through which the pipeline calls them
(``pipeline.tokenize``, ``crf._forward``, ...), and puts the originals
back on exit.  No file of the package changes.  Each wrapper records one
span -- name, start, end, parent, phase -- and the span's self time is
its length minus that of the union of its children's intervals.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

from legal_sbd import baseline, crf, evaluation, pipeline

# (module, attribute, span name).  The span name's prefix is the layer.
TRACE_POINTS = (
    (pipeline, "predict_documents", "pipeline.predict_documents"),
    (pipeline, "train_on_documents", "pipeline.train_on_documents"),
    (pipeline, "label_document", "pipeline.label_document"),
    (pipeline, "tokenize", "tokenizer.tokenize"),
    (pipeline, "sequence_features", "features.sequence_features"),
    (pipeline, "viterbi", "crf.viterbi"),
    (crf, "_unary_matrix", "crf.unary"),
    (pipeline, "decode_bilou", "spans.decode_bilou"),
    (crf, "_collect_vocabulary", "crf.vocabulary"),
    (crf, "_encode_sequences", "crf.encode"),
    (crf, "_batch_objective", "crf.objective"),
    (crf, "_forward", "crf.forward"),
    (crf, "_backward", "crf.backward"),
    (crf, "minimize_lbfgs", "optim.minimize"),
    (baseline, "rule_split", "baseline.rule_split"),
    (evaluation, "evaluate", "evaluation.evaluate"),
)


class Tracer:
    """In-memory span store.  Spans are tuples
    ``(id, name, start, end, parent, phase)``; the phase is a label the
    benchmark sets around each unit of work (one predict pass, one
    training) so that layer totals can be taken per unit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # outermost open span of the main thread

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        main = threading.main_thread()

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            # a pool worker's first span hangs under the main thread's root
            parent = stack[-1] if stack else self._root
            top = not stack and threading.current_thread() is main
            if top:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if top:
                    self._root = None
                self.spans.append((sid, name, start, end, parent, self.phase))

        return traced

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({
                    "run_id": self.run_id, "id": sid, "name": name, "start": start,
                    "end": end, "parent": parent, "phase": phase,
                }) + "\n")

    def totals(self, seconds) -> dict[str, dict[str, dict[str, float]]]:
        """``{phase: {span name: {"total", "self", "calls"}}}``, with
        lengths measured by ``seconds(start, end)``."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append(span)
        out: dict = defaultdict(lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0}))
        for sid, name, start, end, _, phase in self.spans:
            entry = out[phase][name]
            total = seconds(start, end)
            covered = sum(seconds(a, b) for a, b in _union(start, end, children.get(sid, ())))
            entry["total"] += total
            entry["self"] += total - covered
            entry["calls"] += 1
        return out


def _union(start: float, end: float, kids) -> list[tuple[float, float]]:
    """The union of the kids' intervals within [start, end], as disjoint
    pieces; pool workers' spans overlap one another."""
    pieces: list[list[float]] = []
    for _, _, a, b, _, _ in sorted(kids, key=lambda s: s[2]):
        a, b = max(a, start), min(b, end)
        if pieces and a <= pieces[-1][1]:
            pieces[-1][1] = max(pieces[-1][1], b)
        elif b > a:
            pieces.append([a, b])
    return [(a, b) for a, b in pieces]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Route every trace point through *tracer* until the block exits."""
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACE_POINTS]
    try:
        for mod, attr, name in TRACE_POINTS:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
