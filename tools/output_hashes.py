"""Print hashes of what the benchmark's workloads predict and train.

Run from anywhere::

    python3 tools/output_hashes.py
    python3 tools/output_hashes.py --check BENCH_34.json

It prints one JSON object.  ``setup_model`` holds the ``model_to_json``
hash of the model the predict workloads score with; then, for each
workload at its default seed and at 7777 (``<workload>-<seed>``), the
hashes of its predict documents' labels and spans and, for the training
workload, of the model trained on its ``train`` documents.  Each hash is
the first 16 hex digits of a sha256: labels are each document's BILOU
labels joined by spaces, documents joined by newlines; spans are
``id\\0start:end,...`` per document, joined by newlines; every document
is predicted alone.  The inputs come from ``perfbench/workloads.py``, so
two commits that print the same object predict and train the same bits
on the benchmark's inputs.

Each workload's documents are also predicted all in one call.  If any
document's labels differ from its labels alone, the script names the
workload on stderr and exits with status 1, printing no object.

With ``--check FILE`` it then compares the object with the
``hashes.change`` object of a committed ``BENCH_*.json``, names on
stderr each key whose hash differs or that only one side holds, and
exits with status 1 if any does (2 if FILE holds no such object).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from legal_sbd import crf, pipeline  # noqa: E402
from legal_sbd.crf import TrainingConfig  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEEDS,
    SETUP_MODEL_ITERATIONS,
    TRAINING,
    setup_model_corpus,
    workload_inputs,
)

OTHER_SEED = 7777  # every workload is hashed at this seed too


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class BatchMismatch(Exception):
    """A workload whose documents, predicted in one call, get labels other
    than their own alone; the message is the workload's key."""


def prediction_hashes(model, docs, key: str) -> dict[str, str]:
    """Hashes of the labels and spans of *docs*, each predicted alone;
    raises ``BatchMismatch(key)`` if predicting them all in one call
    changes a label."""
    labels, spans = [], []
    for doc in docs:
        ((_, doc_labels),) = pipeline.predicted_labels(model, [doc.text])
        labels.append(" ".join(doc_labels))
        (predicted,) = pipeline.predict_documents(model, [doc])
        spans.append(doc.id + "\0" + ",".join(f"{s.start}:{s.end}" for s in predicted.spans))
    together = pipeline.predicted_labels(model, [doc.text for doc in docs])
    if [" ".join(doc_labels) for _, doc_labels in together] != labels:
        raise BatchMismatch(key)
    return {"labels": digest("\n".join(labels)), "spans": digest("\n".join(spans))}


def output_hashes(tiny: bool = False) -> dict[str, dict[str, str]]:
    """The printed object; *tiny* shrinks every input as ``run.py --tiny``
    does.  Raises ``BatchMismatch`` at the first workload whose batched
    labels differ from its lone ones."""
    config = TrainingConfig(max_iterations=SETUP_MODEL_ITERATIONS)
    setup_model = pipeline.train_on_documents(setup_model_corpus(tiny), config)
    hashes = {"setup_model": {"model_to_json": digest(crf.model_to_json(setup_model))}}
    for name, default_seed in DEFAULT_SEEDS.items():
        for seed in (default_seed, OTHER_SEED):
            inputs, key = workload_inputs(name, seed, tiny), f"{name}-{seed}"
            if name == TRAINING:
                model = pipeline.train_on_documents(inputs["train"])
                hashes[key] = {
                    **prediction_hashes(model, inputs["predict"], key),
                    "model_to_json": digest(crf.model_to_json(model)),
                }
            else:
                hashes[key] = prediction_hashes(setup_model, inputs["predict"], key)
    return hashes


def differing_keys(hashes: dict, recorded: dict) -> list[str]:
    """The ``<entry>.<kind>`` keys whose hash differs between *hashes* and
    *recorded*, or that only one of them holds."""
    def flat(side: dict) -> dict[str, str]:
        return {f"{entry}.{kind}": value for entry, kinds in side.items() for kind, value in kinds.items()}

    got, want = flat(hashes), flat(recorded)
    return sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))


def main(argv: list[str]) -> int:
    if argv and (len(argv) != 2 or argv[0] != "--check"):
        print("usage: output_hashes.py [--check BENCH_<n>.json]", file=sys.stderr)
        return 2
    try:
        hashes = output_hashes()
    except BatchMismatch as mismatch:
        print(f"batched labels differ from lone labels: {mismatch}", file=sys.stderr)
        return 1
    print(json.dumps(hashes, indent=1))
    if not argv:
        return 0
    try:
        recorded = json.loads(Path(argv[1]).read_text(encoding="utf-8"))["hashes"]["change"]
    except KeyError:
        print(f"{argv[1]} holds no hashes.change object", file=sys.stderr)
        return 2
    differing = differing_keys(hashes, recorded)
    for key in differing:
        print(f"differs from {argv[1]}: {key}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
