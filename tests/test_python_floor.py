"""Every Python file of the repository parses under the grammar of the
oldest Python that ``requires-python`` in ``pyproject.toml`` admits, the
floor the CI matrix also runs, so syntax newer than the floor fails here
without an interpreter of that version."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_at_the_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
