"""Every module-level import in the package, the tests and the demos is
read by the module that makes it; no linter runs in CI, so this test is
the check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "legal_sbd"
# __init__.py imports names to re-export them, not to read them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of *source* (``__future__``
    aside) that no expression in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import xml.dom\n"
        "from json import dumps, loads as parse\n"
        "def f(x: dumps) -> None:\n"
        "    import sys\n"
        "    return xml.dom\n"
    )
    assert unused_imports(source) == ["os", "osp", "parse"]


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=lambda path: path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}",
)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
