"""Smoke test of the scripts under ``tools/``, on the benchmark's tiny
inputs."""

import importlib.util
import json
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hashes_cover_every_workload_at_both_seeds():
    tool = load_tool("output_hashes")
    hashes = tool.output_hashes(tiny=True)
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
