"""Every module of the package, except its re-exporting __init__.py, and
every test module use each name they import, and every private helper of
the package is used somewhere.  No linter ships with the toolchain, so
these are stdlib ``ast`` checks."""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "plent"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, ast.FunctionDef):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in `source` that nothing reads,
    counting names inside quoted annotations as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_sees_unused_and_quoted_names():
    source = (
        "from typing import Callable, Optional\n"
        "import math\n"
        "from .relation import PLRelation\n"
        "def f(x: Optional[int]) -> 'list[PLRelation]':\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["Callable (line 1)", "math (line 2)"]


@pytest.mark.parametrize(
    "path",
    [
        *sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
        *sorted(TESTS.glob("*.py")),
    ],
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _names_read(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes, and private methods,
    that nothing outside their own body reads in any of `sources`."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, ast.FunctionDef)]
            defs.append(node)
        for node in defs:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _is_private(node.name):
                continue
            if read[node.name] - _names_read(node)[node.name] <= 0:
                dead.append(f"{module}:{node.name}")
    return dead


def test_dead_helper_checker_sees_unread_and_self_only_names():
    sources = {
        "a.py": (
            "def _used(x):\n    return x\n"
            "def _unused():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Box:\n    def _method(self):\n        return 0\n"
            "    def __repr__(self):\n        return ''\n"
        ),
        "b.py": "from .a import _used\ny = _used(_Box())\n",
    }
    assert dead_private_helpers(sources) == ["a.py:_unused", "a.py:_recursive", "a.py:_method"]


def test_every_private_helper_is_used():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_helpers(sources) == []
