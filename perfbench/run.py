"""Benchmark of legal-sbd: end-to-end prediction and training, plus a
traced mode that splits the time by layer.

    python3 perfbench/run.py --workload predict_short_docs --seed 5150 \\
        --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``predict_short_docs``,
``predict_long_doc`` and ``train_acceptance``.  Each is a closed loop with
one caller.  The benchmark imports the package from ``src/`` of the
checkout it sits in and calls only its public entry points; ``--trace 1``
adds the timing wrappers of ``tracer.py``.  Times are read on the
speed-normalized clock of ``clock.py``; the raw wall-clock figures are
printed too.

Standard output ends with an ``info`` JSON line (input sizes and hashes,
versions, git SHA, seeds, raw figures) and then the result line
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from legal_sbd import baseline, crf, evaluation, features, pipeline  # noqa: E402
from legal_sbd.crf import TrainingConfig  # noqa: E402
from legal_sbd.tokenizer import detokenize, tokenize  # noqa: E402

import tracer as tracing  # noqa: E402
from clock import NominalClock  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_MODEL_ITERATIONS,
    SETUP_MODEL_SEED,
    TRAINING,
    DEFAULT_SEEDS,
    describe,
    setup_model_corpus,
    workload_inputs,
)

POOL_THREADS = 2  # what the CLI's --threads 0 gives on a 2-core machine
SETUP_REPEATS = {"predict_short_docs": 2, "predict_long_doc": 2, "train_acceptance": 20}
# predict passes per run, however short --seconds is; the training
# workload's passes come after a training that outlasts --seconds
MIN_PASSES = {"predict_short_docs": 3, "predict_long_doc": 1, "train_acceptance": 5}
F1_FLOOR = 0.95  # below this the model's output counts as wrong
CHILD_TIMEOUT_S = 120


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def span_problem(doc, spans) -> str | None:
    """Why a predicted span list is invalid, or None: spans must be sorted,
    disjoint, in bounds and not blank, and a non-blank document gets one."""
    prev_end = 0
    for s in spans:
        if not (prev_end <= s.start < s.end <= len(doc.text)):
            return f"span ({s.start}, {s.end}) unsorted, overlapping or out of bounds"
        if doc.text[s.start : s.end].isspace():
            return f"span ({s.start}, {s.end}) is blank"
        prev_end = s.end
    if not spans and doc.text.strip():
        return "no sentence predicted"
    return None


def check_prediction(doc, spans, expected, tally: Tally, how: str) -> None:
    """Count one prediction; it fails if invalid or if it differs from the
    run's first prediction of the same document."""
    problem = span_problem(doc, spans)
    if problem is None and expected and spans != expected.get(doc.id, spans):
        problem = "differs from the first serial prediction"
    tally.check(problem is None, f"{doc.id} ({how}): {problem}")


def serial_pass(model, docs, tally: Tally, expected: dict | None):
    """Predict every document alone.  Returns (wall interval per predicted
    document, predictions by id)."""
    intervals, got = [], {}
    for doc in docs:
        t0 = time.perf_counter()
        try:
            (out,) = pipeline.predict_documents(model, [doc])
        except Exception as exc:  # a failing document is counted, not fatal
            tally.check(False, f"{doc.id}: {exc!r}")
            continue
        intervals.append((t0, time.perf_counter()))
        got[doc.id] = list(out.spans)
        check_prediction(doc, got[doc.id], expected, tally, "serial")
    return intervals, got


def pool_pass(model, docs, tally: Tally, expected: dict, clock: NominalClock):
    """Predict all documents in one call through the thread pool; returns
    its wall interval."""
    with clock.threaded():
        t0 = time.perf_counter()
        try:
            pooled = pipeline.predict_documents(model, docs, threads=POOL_THREADS)
        except Exception as exc:
            pooled = None
            error = repr(exc)
        t1 = time.perf_counter()
    if pooled is None:
        for doc in docs:
            tally.check(False, f"{doc.id} (pool): {error}")
    else:
        for doc, out in zip(docs, pooled):
            check_prediction(doc, list(out.spans), expected, tally, "pool")
    return t0, t1


def predict_loop(model, docs, tally: Tally, clock: NominalClock, deadline: float, min_passes: int):
    """Serial and pool passes until *deadline*, at least *min_passes*.
    Returns (per-pass lists of per-document intervals, per-pass pool
    intervals, first-pass predictions)."""
    serial, pool = [], []
    expected = None
    while len(serial) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        intervals, got = serial_pass(model, docs, tally, expected)
        expected = expected or got
        serial.append(intervals)
        pool.append(pool_pass(model, docs, tally, expected, clock))
    return serial, pool, expected


def micro_f1(docs, predictions) -> float:
    """Boundary micro-F1 of *predictions* against the gold spans."""
    (subset,) = evaluation.evaluate(docs, predictions).per_subset.values()
    return subset.micro_f1


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile, at most the 99th,
    that leaves at least ten samples beyond it; the maximum when that
    percentile would not even reach the median."""
    ordered = sorted(samples)
    n = len(ordered)
    k = min(int(0.99 * n), n - 11)
    if k < n // 2:
        k = n - 1
    return ordered[k], 100.0 * (k + 1) / n


def train_setup_model(tiny: bool):
    config = TrainingConfig(max_iterations=SETUP_MODEL_ITERATIONS)
    return pipeline.train_on_documents(setup_model_corpus(tiny), config)


def set_up(name: str, seed: int, tiny: bool, repeats: int):
    """Build the inputs and, for the predict workloads, the model, *repeats*
    times.  Returns (inputs, model or None, setup intervals, training
    intervals)."""
    setups, trainings = [], []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload_inputs(name, seed, tiny)
        model = None
        if name != TRAINING:
            t1 = time.perf_counter()
            model = train_setup_model(tiny)
            trainings.append((t1, time.perf_counter()))
        setups.append((t0, time.perf_counter()))
    return inputs, model, setups, trainings


def check_inputs(inputs, tally: Tally) -> None:
    for docs in inputs.values():
        for doc in docs:
            tally.check(detokenize(tokenize(doc.text)) == doc.text, f"{doc.id}: tokenize round trip")


def train_once(docs, tally: Tally, reference: list):
    """Train on *docs*; every training in a run must give the same model.
    Returns (model or None, wall interval)."""
    t0 = time.perf_counter()
    try:
        model = pipeline.train_on_documents(docs)
    except Exception as exc:
        tally.check(False, f"training: {exc!r}")
        return None, (t0, time.perf_counter())
    interval = (t0, time.perf_counter())
    text = crf.model_to_json(model)
    if not reference:
        reference.append((model, text))
    tally.check(text == reference[0][1], "training is not deterministic")
    return reference[0][0], interval


def peak_memory_mb(name: str, seed: int, tiny: bool, model) -> float:
    """Peak resident set of a fresh process that predicts the workload's
    documents once with *model* (a pass apart from the timed ones)."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        path = Path(tmp) / "model.json"
        crf.save_model(model, path)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--memory-probe", str(path)] + (["--tiny"] if tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
    return json.loads(done.stdout.splitlines()[-1])["peak_rss_mb"]


def memory_probe(name: str, seed: int, tiny: bool, model_path: str) -> None:
    model = crf.load_model(model_path)
    for doc in workload_inputs(name, seed, tiny)["predict"]:
        pipeline.predict_documents(model, [doc])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}))


def run_untraced(name, seed, seconds, tiny, tally: Tally, info: dict):
    """End-to-end metrics, tracing off.  Returns (metrics, f1)."""
    clock = NominalClock()
    with clock.running():
        inputs, model, setups, trainings = set_up(
            name, seed, tiny, 1 if tiny else SETUP_REPEATS[name]
        )
        check_inputs(inputs, tally)
        docs = inputs["predict"]
        deadline = time.perf_counter() + seconds
        if name == TRAINING:
            reference: list = []
            trainings = []
            while not trainings or time.perf_counter() < deadline:
                gc.collect()
                model, interval = train_once(inputs["train"], tally, reference)
                if model is None:
                    return {}, 0.0
                trainings.append(interval)
        serial, pool, predicted = predict_loop(
            model, docs, tally, clock, deadline, MIN_PASSES[name]
        )

    def wall(t0, t1):
        return t1 - t0

    def median_s(intervals, measure=clock.seconds):
        return statistics.median(measure(*iv) for iv in intervals)

    def mean_s(intervals, measure=clock.seconds):
        return statistics.fmean(measure(*iv) for iv in intervals)

    def pass_s(measure):
        return statistics.fmean(sum(measure(*iv) for iv in p) for p in serial)

    tokens = info["inputs"]["predict"]["tokens"]
    latencies = [clock.seconds(*iv) for intervals in serial for iv in intervals]
    p99, percentile = tail_latency(latencies)
    f1 = micro_f1(docs, predicted)
    info["passes"] = len(serial)
    info["doc_latency_p99_ms"] = {"percentile": round(percentile, 2), "samples": len(latencies)}
    info["clock"] = {"probes": len(clock.probes), "median_probe_ms": clock.probe_ms()}
    info["wall_clock"] = {
        "tokens_per_s": tokens / pass_s(wall),
        "pool_tokens_per_s": tokens / mean_s(pool, wall),
        "train_s": median_s(trainings, wall),
        "setup_s": median_s(setups, wall),
    }
    return {
        "tokens_per_s": (tokens / pass_s(clock.seconds), "tokens/s"),
        "pool_tokens_per_s": (tokens / mean_s(pool), "tokens/s"),
        "doc_latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "doc_latency_p99_ms": (1000.0 * p99, "ms"),
        "peak_mem_mb": (peak_memory_mb(name, seed, tiny, model), "MB"),
        "train_s": (median_s(trainings), "s"),
        "f1": (f1, "1"),
        "setup_s": (median_s(setups), "s"),
    }, f1


def count_pass(model, docs) -> dict:
    """Feature entries and weight lookups of one pass, counted untimed
    with ``crf.indicators`` exactly as the unary scorer looks them up."""
    tokens = entries = lookups = hits = 0
    weights = model.state_weights
    for doc in docs:
        seq = tokenize(doc.text)
        tokens += len(seq)
        for fv in features.sequence_features(seq):
            entries += len(fv)
            for ind, _ in crf.indicators(fv):
                lookups += 1
                hits += ind in weights
    return {"tokens": tokens, "entries": entries, "lookups": lookups, "hits": hits}


def run_traced(name, seed, seconds, tiny, tally: Tally, info: dict, spans_path: Path):
    """Per-layer metrics.  Each unit of work -- one training on the
    training workload, one predict pass (serial, then pool) otherwise --
    runs once untraced and once traced; layer metrics are medians over
    the traced units, and the tracing overhead compares the two.  Returns
    (metrics, f1)."""
    trace = tracing.Tracer(f"{name}-{seed}-{uuid.uuid4().hex[:8]}")
    clock = NominalClock()
    plain, traced = [], []  # wall intervals of units with tracing off / on

    def unit(work, phase):
        gc.collect()
        if phase is None:
            t0 = time.perf_counter()
            result = work(None)
            plain.append((t0, time.perf_counter()))
        else:
            with tracing.install(trace):
                t0 = time.perf_counter()
                result = work(phase)
                traced.append((t0, time.perf_counter()))
        return result

    def pair(work, phase):
        """The unit untraced and traced, alternating which goes first."""
        order = (None, phase) if len(traced) % 2 == 0 else (phase, None)
        return [unit(work, p) for p in order][-1]

    inputs = workload_inputs(name, seed, tiny)
    check_inputs(inputs, tally)
    docs = inputs["predict"]
    train_phases, pass_phases = [], []
    with clock.running():
        deadline = time.perf_counter() + seconds
        if name == TRAINING:
            reference: list = []

            def training(phase):
                trace.phase = phase or ""
                return train_once(inputs["train"], tally, reference)[0]

            while not train_phases or time.perf_counter() < deadline:
                train_phases.append(f"train-{len(train_phases)}")
                model = pair(training, train_phases[-1])
                if model is None:
                    return {}, 0.0
            units = (list(plain), list(traced))
        else:
            with tracing.install(trace):
                trace.phase = "train-0"
                model = train_setup_model(tiny)
            train_phases.append(trace.phase)
        predicted: dict = {}  # the run's first serial predictions

        def predict(phase):
            trace.phase = f"serial-{phase}" if phase else ""
            got = serial_pass(model, docs, tally, predicted)[1]
            if not predicted:
                predicted.update(got)
            trace.phase = f"pool-{phase}" if phase else ""
            pool_pass(model, docs, tally, predicted, clock)

        plain.clear()
        traced.clear()
        while len(pass_phases) < MIN_PASSES[name] or time.perf_counter() < deadline:
            pass_phases.append(str(len(pass_phases)))
            pair(predict, pass_phases[-1])
        if name != TRAINING:
            units = (plain, traced)
        with tracing.install(trace):
            trace.phase = "score"
            f1 = micro_f1(docs, predicted)
            trace.phase = "baseline"
            baseline_f1 = micro_f1(docs, {doc.id: baseline.rule_split(doc.text) for doc in docs})

    tot = trace.totals(clock.seconds)
    trace.write(spans_path)
    info["spans_file"] = os.path.relpath(spans_path, ROOT)
    info["spans"] = len(trace.spans)
    info["clock"] = {"probes": len(clock.probes), "median_probe_ms": clock.probe_ms()}

    def med(phases, span, key="total"):
        return statistics.median(tot[p][span][key] for p in phases)

    serial = [f"serial-{p}" for p in pass_phases]
    pool = [f"pool-{p}" for p in pass_phases]
    evals = med(train_phases, "crf.objective", "calls")
    iterations = model.metadata["iterations_run"]
    counts = count_pass(model, docs)
    untraced_s, traced_s = (statistics.median(clock.seconds(*iv) for iv in u) for u in units)
    return {
        "tokenizer.tokenize_s": (med(serial, "tokenizer.tokenize"), "s"),
        "tokenizer.tokens": (counts["tokens"], "count"),
        "features.sequence_features_s": (med(serial, "features.sequence_features"), "s"),
        "features.entries_per_token": (counts["entries"] / counts["tokens"], "count"),
        "crf.unary_s": (med(serial, "crf.unary"), "s"),
        "crf.indicator_hit_ratio": (counts["hits"] / counts["lookups"], "1"),
        "crf.viterbi_self_s": (med(serial, "crf.viterbi", "self"), "s"),
        "spans.decode_bilou_s": (med(serial, "spans.decode_bilou"), "s"),
        "pipeline.self_s": (med(pool, "pipeline.predict_documents", "self"), "s"),
        "baseline.rule_split_s": (tot["baseline"]["baseline.rule_split"]["total"], "s"),
        "baseline.f1": (baseline_f1, "1"),
        "evaluation.evaluate_s": (tot["score"]["evaluation.evaluate"]["total"], "s"),
        "pipeline.label_document_s": (med(train_phases, "pipeline.label_document"), "s"),
        "crf.vocabulary_s": (med(train_phases, "crf.vocabulary"), "s"),
        "crf.encode_s": (med(train_phases, "crf.encode"), "s"),
        "crf.objective_s": (med(train_phases, "crf.objective"), "s"),
        "crf.objective_evals": (evals, "count"),
        "crf.ms_per_objective_eval": (1000.0 * med(train_phases, "crf.objective") / evals, "ms"),
        "crf.forward_s": (med(train_phases, "crf.forward"), "s"),
        "crf.backward_s": (med(train_phases, "crf.backward"), "s"),
        "crf.objective_self_s": (med(train_phases, "crf.objective", "self"), "s"),
        "optim.self_s": (med(train_phases, "optim.minimize", "self"), "s"),
        "optim.iterations": (iterations, "count"),
        "optim.evals_per_iteration": (evals / iterations, "1"),
        "crf.live_indicators": (len(model.state_weights), "count"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    }, f1


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_info(name: str, seed: int, tiny: bool) -> dict:
    seeds = {"workload": seed}
    if name == TRAINING:
        seeds["held_out"] = seed + 1
    else:
        seeds["setup_model"] = SETUP_MODEL_SEED
    return {
        "workload": name,
        "tiny": tiny,
        "seeds": seeds,
        "inputs": {kind: describe(docs) for kind, docs in workload_inputs(name, seed, tiny).items()},
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (self-test)")
    parser.add_argument("--memory-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if Path(pipeline.__file__).resolve().parent != ROOT / "src" / "legal_sbd":
        sys.exit(f"legal_sbd was not imported from {ROOT / 'src'}")
    name = args.workload
    seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
    if args.memory_probe:
        memory_probe(name, seed, args.tiny, args.memory_probe)
        return 0

    info = run_info(name, seed, args.tiny)
    for kind, d in info["inputs"].items():
        print(f"{name} {kind} (seed {seed}): {d['docs']} docs, {d['tokens']} tokens, "
              f"{d['sentences']} sentences, sha256 {d['sha256']}")
    tally = Tally()
    if args.trace:
        spans_path = HERE / "out" / f"spans-{name}-{seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        metrics, f1 = run_traced(name, seed, args.seconds, args.tiny, tally, info, spans_path)
    else:
        metrics, f1 = run_untraced(name, seed, args.seconds, args.tiny, tally, info)
    info["f1"] = f1
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if f1 < F1_FLOOR:
        print(f"FAILED f1 {f1:.4f} is below {F1_FLOOR}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:14.6g} {unit}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not tally.failures and f1 >= F1_FLOOR,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
