"""The demos run to completion against the package in ``src/``.

Demo 04 trains two models and takes several seconds, so it is left out
here; demo 03 trains one small model in about 3 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_tokenization.py",
        "02_labels_and_features.py",
        "03_train_and_evaluate.py",
        "05_corpus_statistics.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
