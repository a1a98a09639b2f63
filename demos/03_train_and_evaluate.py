"""Train a CRF on a synthetic corpus and score it on held-out documents.

The corpus generator produces annotated documents whose sentences end
with a terminator followed by whitespace and an uppercase start, so a
sequence model can learn the boundary pattern exactly.  The trained
model is saved, reloaded, and evaluated with the token-level harness.
"""

import tempfile
from pathlib import Path

from legal_sbd import (
    LABELS,
    TrainingConfig,
    evaluate,
    load_model,
    save_model,
)
from legal_sbd.corpus import split_corpus
from legal_sbd.pipeline import filter_documents, predict_documents, train_on_documents
from legal_sbd.synthetic import make_corpus

docs = make_corpus(40, seed=11, newline_rate=0.2)
split = split_corpus(docs, seed=42)
train_docs = filter_documents(docs, ids=set(split.train))
test_docs = filter_documents(docs, ids=set(split.test))
print(f"{len(train_docs)} training documents, {len(test_docs)} test documents")

config = TrainingConfig(c1=1.0, c2=1e-3, max_iterations=60)
model = train_on_documents(train_docs, config)
print(
    f"trained in {model.metadata['iterations_run']} iterations "
    f"({model.metadata['stop_reason']}); "
    f"{len(model.state_weights)} indicators kept a nonzero weight"
)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    print(f"model file: {path.stat().st_size} bytes")
    model = load_model(path)

predictions = {d.id: list(d.spans) for d in predict_documents(model, test_docs)}
report = evaluate(test_docs, predictions)
for (language, doc_type), subset in sorted(report.per_subset.items()):
    print(
        f"{language}/{doc_type}: macro P {subset.macro_p:.3f} "
        f"R {subset.macro_r:.3f} F1 {subset.macro_f1:.3f} "
        f"(micro F1 {subset.micro_f1:.3f}, {subset.n_docs} docs)"
    )

# the strongest learned indicators, for a peek at what the model uses
import numpy as np

by_weight = sorted(
    model.state_weights.items(), key=lambda kv: -np.max(np.abs(kv[1]))
)
print("\nstrongest indicators:")
for ind, row in by_weight[:8]:
    label = LABELS[int(np.argmax(np.abs(row)))]
    weight = row[int(np.argmax(np.abs(row)))]
    print(f"  {ind!r:<28} {label} {weight:+.2f}")
