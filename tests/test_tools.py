"""Smoke test of the scripts under ``tools/``, on the benchmark's tiny
inputs."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool("output_hashes")


@pytest.fixture(scope="module")
def tiny_hashes(tool):
    return tool.output_hashes(tiny=True)


def test_output_hashes_cover_every_workload_at_both_seeds(tool, tiny_hashes):
    hashes = tiny_hashes
    workloads = [f"{name}-{seed}" for name, default in tool.DEFAULT_SEEDS.items()
                 for seed in (default, tool.OTHER_SEED)]
    assert list(hashes) == ["setup_model", *workloads]
    assert list(hashes["setup_model"]) == ["model_to_json"]
    for key in workloads:
        kinds = ["labels", "spans"] + (["model_to_json"] if key.startswith(tool.TRAINING) else [])
        assert list(hashes[key]) == kinds
    values = [value for entry in hashes.values() for value in entry.values()]
    assert all(re.fullmatch(r"[0-9a-f]{16}", value) for value in values)
    assert json.loads(json.dumps(hashes)) == hashes


def test_check_passes_on_its_own_output_and_names_an_altered_hash(
    tool, tiny_hashes, monkeypatch, capsys, tmp_path
):
    monkeypatch.setattr(tool, "output_hashes", lambda: tiny_hashes)
    assert tool.main([]) == 0
    printed = json.loads(capsys.readouterr().out)
    bench = tmp_path / "BENCH_0.json"
    bench.write_text(json.dumps({"hashes": {"parent": {}, "change": printed}}), encoding="utf-8")
    assert tool.main(["--check", str(bench)]) == 0
    assert capsys.readouterr().err == ""

    altered = json.loads(json.dumps(printed))
    key = next(iter(altered))
    kind = next(iter(altered[key]))
    altered[key][kind] = "0" * 16
    bench.write_text(json.dumps({"hashes": {"change": altered}}), encoding="utf-8")
    assert tool.main(["--check", str(bench)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"differs from {bench}: {key}.{kind}"]


def test_labels_that_depend_on_batch_mates_fail_the_run(tool, monkeypatch, capsys):
    # a decoder that changes a label whenever a call holds more than one text
    decode, hashes = tool.pipeline.viterbi, tool.output_hashes

    def meddling(model, features, lengths):
        labels = decode(model, features, lengths)
        if len(lengths) > 1:
            labels[0] = "O" if labels[0] != "O" else "B"
        return labels

    monkeypatch.setattr(tool.pipeline, "viterbi", meddling)
    monkeypatch.setattr(tool, "output_hashes", lambda: hashes(tiny=True))
    assert tool.main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    workload = f"predict_short_docs-{tool.DEFAULT_SEEDS['predict_short_docs']}"
    assert captured.err.splitlines() == [f"batched labels differ from lone labels: {workload}"]
