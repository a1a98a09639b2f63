"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that the generator still gives the pinned default inputs, that
every workload emits exactly the metrics ``BENCHMARK.json`` names (with
tracing off and on, each with its unit), that a corrupted prediction is
counted as a failed operation, and that the benchmark refuses to run
without the package source next to it.  Exits non-zero at the first
check that fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from legal_sbd import pipeline
from workloads import DEFAULT_SEEDS, describe, workload_inputs

# (docs, tokens, sentences, sha256 prefix) of each default input
PINNED = {
    ("predict_short_docs", "predict"): (60, 6304, 397, "c95def657805224d"),
    ("predict_long_doc", "predict"): (1, 23839, 1500, "6139a8e8098f3e96"),
    ("train_acceptance", "train"): (50, 4802, 334, "cdad23b9b407c8e6"),
    ("train_acceptance", "predict"): (1, 4323, 300, "c13d7f34c41a3735"),
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def result_of(argv: list[str]) -> dict:
    """The result line of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    expect(code == 0, f"{argv} exited with {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def check_pinned_inputs() -> None:
    for (name, kind), pinned in PINNED.items():
        d = describe(workload_inputs(name, DEFAULT_SEEDS[name])[kind])
        got = (d["docs"], d["tokens"], d["sentences"], d["sha256"])
        expect(got == pinned, f"{name} {kind} inputs changed: {got} != {pinned}")


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(DEFAULT_SEEDS), "workload names differ")
    for name in DEFAULT_SEEDS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(["--workload", name, "--tiny", "--seconds", "0",
                             "--trace", str(trace)])
            where = f"{name} --trace {trace}"
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{where}: {res['failed']} of {res['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {key: m["unit"] for key, m in res["metrics"].items()}
            expect(got == want, f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            for key, m in res["metrics"].items():
                expect(math.isfinite(m["value"]), f"{where}: {key} is not finite")
                expect(trace or m["value"] != 0, f"{where}: {key} is 0")
        spans = run.HERE / "out" / f"spans-{name}-{DEFAULT_SEEDS[name]}.jsonl"
        expect(spans.stat().st_size > 0, f"{name}: no spans written")


def check_corruption_counts() -> None:
    """Reversing one document's spans must fail that document's checks."""
    original = pipeline.predict_documents
    target = workload_inputs("predict_short_docs", 0, tiny=True)["predict"][0].id

    def corrupted(model, docs, *args, **kwargs):
        out = original(model, docs, *args, **kwargs)
        return [dataclasses.replace(d, spans=d.spans[::-1]) if d.id == target else d for d in out]

    pipeline.predict_documents = corrupted
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # the expected failure lines
            res = result_of(["--workload", "predict_short_docs", "--seed", "0", "--tiny",
                             "--seconds", "0"])
    finally:
        pipeline.predict_documents = original
    expect(not res["correct"], "a corrupted prediction left the run correct")
    expect(0 < res["failed"] < res["attempted"], f"failed {res['failed']} of {res['attempted']}")


def check_refuses_without_source(tmp: Path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run must fail without printing a result."""
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "predict_short_docs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S,
    )
    expect(done.returncode != 0, "ran without the package source")
    expect('"correct"' not in done.stdout, "printed a result without the package source")


def main() -> int:
    check_pinned_inputs()
    (run.HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.HERE / "out") as tmp:
        check_metrics()
        check_corruption_counts()
        check_refuses_without_source(Path(tmp))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
