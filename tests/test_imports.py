"""Every module-level import in the package, the tests, the demos and the
tools is read by the module that makes it, every private module-level
function, class or assigned name of the package is referenced by the
package, and the package writes files through ``corpus.write_file``
alone; no linter runs in CI, so these tests are the check."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "legal_sbd"
# __init__.py imports names to re-export them, not to read them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(ROOT / "tools").glob("*.py")])


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


def referenced_names(tree: ast.AST):
    """Every name that *tree* reads, loads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def defined_names(node: ast.stmt) -> list[str]:
    """The names that the module-level statement *node* defines: a
    function's or class's, or those an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)]
    return []


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function, class or assigned
    name of *sources* (module name -> source) named with one leading
    underscore that no module references outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in referenced_names(tree))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        and everywhere[name] == Counter(referenced_names(node))[name]
    ]


def test_the_check_finds_unreferenced_private_definitions():
    sources = {
        "a": (
            "from .b import _imported\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "def _called(): pass\n"
            "class _Unused: pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _called() + _SIZE + _second\n"
            "_SIZE = 4096\n"
            "_TABLE = {'k': _SIZE}\n"
            "_first, (_second, _third) = 1, (2, 3)\n"
            "_hint: int = 0\n"
            "__all__ = ['public']\n"
        ),
        "b": "import a\ndef _imported(): pass\ndef _read(): pass\nx = a._read\n",
    }
    assert unreferenced_private_definitions(sources) == [
        "a._recursive", "a._Unused", "a._TABLE", "a._first", "a._third", "a._hint",
    ]


def test_no_unreferenced_private_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def file_writers(source: str) -> list[str]:
    """The function of *source* that makes each call in it that writes a
    file (``<module>`` outside every function): ``write_bytes``,
    ``write_text``, or an ``open`` whose mode holds ``w``, ``a``, ``x`` or
    ``+``, or is not a string literal.  The mode is the ``mode`` keyword,
    else the second argument of a plain ``open(...)`` call and the first
    of a method's, as in ``Path.open``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "open":
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                modes += node.args[isinstance(func, ast.Name):][:1]
                mode = modes[0] if modes else ast.Constant("r")
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                    found.append(where)
            elif name in ("write_bytes", "write_text"):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_finds_file_writers():
    source = (
        "import io\n"
        "from pathlib import Path\n"
        "def reads(path):\n"
        "    with open(path, encoding='utf-8') as fh, Path(path).open('rb') as raw:\n"
        "        return fh.read(), raw.read(), open(path, mode='r')\n"
        "def writes(path):\n"
        "    Path(path).write_bytes(b'')\n"
        "def appends(path):\n"
        "    open(path, 'a').close()\n"
        "def updates(path):\n"
        "    return io.open(path, mode='r+b')\n"
        "def creates(path):\n"
        "    def inner():\n"
        "        return Path(path).open('x')\n"
        "    return inner\n"
        "def dumps(path, mode):\n"
        "    Path(path).write_text('')\n"
        "    return open(path, mode)\n"
        "open('log.txt', 'w')\n"
    )
    assert file_writers(source) == [
        "writes", "appends", "updates", "inner", "dumps", "dumps", "<module>",
    ]


def test_one_function_writes_files():
    found = [f"{path.stem}.{where}" for path in sorted(PACKAGE.glob("*.py"))
             for where in file_writers(path.read_text(encoding="utf-8"))]
    assert found == ["corpus.write_file"]
