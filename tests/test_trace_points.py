"""The benchmark's per-layer metrics come from wrappers that
``perfbench/tracer.py`` installs on named package functions.  A refactor
that stops calling one of those names through its module would zero a
layer metric without any error; this test makes it fail instead."""

import importlib.util
from pathlib import Path

from legal_sbd import baseline, evaluation, pipeline
from legal_sbd.crf import TrainingConfig
from legal_sbd.synthetic import make_corpus

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_records_a_span():
    tracing = load_tracer()
    docs = make_corpus(3, seed=7)
    tracer = tracing.Tracer("tier1")
    with tracing.install(tracer):
        model = pipeline.train_on_documents(docs, TrainingConfig(max_iterations=3))
        tracer.phase = "predict"
        predicted = pipeline.predict_documents(model, docs)
        tracer.phase = ""
        evaluation.evaluate(docs, {d.id: list(d.spans) for d in predicted})
        baseline.rule_split(docs[0].text)
    recorded = {span[1] for span in tracer.spans}
    expected = {name for _, _, name in tracing.TRACE_POINTS}
    assert expected - recorded == set()
    # training tokenizes too, so the prediction stages are checked on the
    # prediction's own spans: a predict path that bypassed one of these
    # names would zero its layer metric on every predict phase
    predicting = {span[1] for span in tracer.spans if span[5] == "predict"}
    stages = {"tokenizer.tokenize", "crf.unary", "crf.viterbi", "spans.decode_bilou"}
    assert stages - predicting == set()
