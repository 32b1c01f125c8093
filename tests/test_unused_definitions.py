"""Every top-level function and class of the package is read somewhere.

A definition counts as read when code in ``src/`` or ``perfbench/`` reads
its name (a bare name, or an attribute such as ``treeaut.walk``) or an
``__all__`` lists it.  Tests do not count: a helper that only tests call,
or an exception class nothing raises or catches, is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reebsplit"


def definitions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def read_names(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {e.value for e in node.value.elts}
    return names


def unused_definitions(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each definition in ``package`` (module name ->
    source) that no source in ``readers`` reads."""
    read = set().union(*map(read_names, readers))
    return [f"{module}.{name}" for module, source in sorted(package.items())
            for name in definitions(source) if name not in read]


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    package = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "perfbench").glob("*.py")
             if not path.name.startswith("test_")]
    assert unused_definitions(package, list(package.values()) + bench) == []


def test_guard_sees_a_leftover_definition():
    package = {"m": ("from .errors import Used\n"
                     "__all__ = ['listed']\n"
                     "class Dead(Exception):\n    pass\n"
                     "def listed():\n    pass\n"
                     "def called():\n    pass\n"
                     "def dead():\n    return Used\n"
                     "x = called() or m.attr\n"
                     "def attr():\n    pass\n")}
    assert unused_definitions(package, list(package.values())) == ["m.Dead", "m.dead"]
