"""Every name a package module imports is used in that module.

A name counts as used when the module reads it (a bare name or the root of
an attribute chain, annotations included) or lists it in ``__all__``, which
is how ``__init__`` re-exports.  A refactor that stops calling a helper
must drop its import too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "reebsplit"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_a_leftover_import():
    source = ("from .treeaut import TreeCut, tree_isomorphic, walk\n"
              "import numpy as np\n"
              "__all__ = ['walk']\n"
              "def f(cut: 'TreeCut') -> None:\n"
              "    np.zeros(1)\n")
    assert unused_imports(source) == ["TreeCut (line 1)", "tree_isomorphic (line 1)"]
