"""Every module of the package, except its re-exporting __init__.py, uses
each name it imports.  No linter ships with the toolchain, so this is a
stdlib ``ast`` check."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "plent"


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
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
