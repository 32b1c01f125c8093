"""Every definition and every setting of the package is used somewhere.

A definition, a module's function or class or a class's method or
property other than a dunder one, counts as read when code in ``src/`` or
``perfbench/`` reads its name (a bare name, or an attribute such as
``treeaut.walk`` or ``group.order``) or an ``__all__`` lists it.  Tests do
not count: a helper that only tests call, or an exception class nothing
raises or catches, is dead code.

The same readers must use each setting, matched by name:

- every parameter with a default is passed by some call (a call of a class
  passes its ``__init__``'s, ``import ... as`` aliases are resolved, and a
  call that unpacks ``*`` or ``**`` passes everything);
- every dataclass field is read as an attribute, unless the class
  serializes itself through ``vars(self)``;
- every class is used other than as a base class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reebsplit"


def definitions(source: str) -> list[str]:
    """The module's functions and classes, and ``Class.member`` for each
    method and property of its classes other than the dunder ones."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    return found


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
            for name in definitions(source) if name.split(".")[-1] not in read]


def scopes(node, prefix=""):
    """(dotted name, node, whether a method) of each class and function
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            method = isinstance(node, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list)
            yield prefix + child.name, child, method
            yield from scopes(child, f"{prefix}{child.name}.")
        else:
            yield from scopes(child, prefix)


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def unused_settings(package: dict[str, str], readers: list[str]) -> list[str]:
    """Each setting of ``package`` (module name -> source) that no source in
    ``readers`` uses: ``module.function(parameter=)``, ``module.Class.field``
    or ``module.Class``."""
    trees = [ast.parse(source) for source in readers]
    aliases = {a.asname: a.name for t in trees for node in ast.walk(t)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.asname}
    calls, fields, uses = {}, set(), set()
    for t in trees:
        bases = {id(b) for node in ast.walk(t) if isinstance(node, ast.ClassDef)
                 for b in node.bases}
        for node in ast.walk(t):
            if isinstance(node, ast.Call):
                callee = _name(node.func)
                calls.setdefault(aliases.get(callee, callee), []).append(node)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                fields.add(node.attr)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in bases:
                uses.add(_name(node))
            if isinstance(node, ast.Assign) and any(
                    _name(x) == "__all__" for x in node.targets):
                uses |= {e.value for e in node.value.elts}

    def passed(call, name, index) -> bool:
        return (any(k.arg in (name, None) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or index is not None and index < len(call.args))

    found = []
    for module, source in sorted(package.items()):
        for qualname, node, method in scopes(ast.parse(source)):
            where = f"{module}.{qualname}"
            if isinstance(node, ast.ClassDef):
                if node.name not in uses:
                    found.append(where)
                serialized = "vars(self)" in ast.unparse(node)
                if _is_dataclass(node) and not serialized:
                    found += [f"{where}.{s.target.id}" for s in node.body
                              if isinstance(s, ast.AnnAssign)
                              and s.target.id not in fields]
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            callee = qualname.split(".")[-2] if node.name == "__init__" else node.name
            shift = int(method)
            defaulted = [(a.arg, i - shift) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found += [f"{where}({name}=)" for name, index in defaulted
                      if not any(passed(c, name, index) for c in calls.get(callee, []))]
    return found


def _sources():
    package = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    bench = [path.read_text() for path in (ROOT / "perfbench").glob("*.py")
             if not path.name.startswith("test_")]
    return package, list(package.values()) + bench


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    package, readers = _sources()
    assert unused_definitions(package, readers) == []


def test_every_setting_is_used_by_the_package_or_the_benchmark():
    package, readers = _sources()
    assert unused_settings(package, readers) == []


def test_guard_sees_a_leftover_definition():
    package = {"m": ("from .errors import Used\n"
                     "__all__ = ['listed']\n"
                     "class Dead(Exception):\n    pass\n"
                     "def listed():\n    pass\n"
                     "def called():\n    pass\n"
                     "def dead():\n    return Used\n"
                     "x = called() or m.attr\n"
                     "def attr():\n    pass\n"
                     "class Box:\n"
                     "    def __init__(self):\n        pass\n"
                     "    def used(self):\n        pass\n"
                     "    def unread(self):\n        pass\n"
                     "    @property\n"
                     "    def size(self):\n        return self.used()\n"
                     "y = Box().size\n")}
    assert unused_definitions(package, list(package.values())) == [
        "m.Dead", "m.dead", "m.Box.unread"]


def test_guard_sees_a_leftover_setting():
    package = {"m": ("from dataclasses import dataclass\n"
                     "from .m import g as alias\n"
                     "class Base(Exception):\n    pass\n"
                     "class Leaf(Base):\n    pass\n"
                     "@dataclass(frozen=True)\n"
                     "class Kept:\n    read: int\n    unread: int\n"
                     "@dataclass\n"
                     "class Dumped:\n    unread: int\n"
                     "    def to_dict(self):\n        return vars(self)\n"
                     "class Box:\n"
                     "    def __init__(self, a, b=0, c=0):\n        pass\n"
                     "    def put(self, x, y=1):\n        pass\n"
                     "def f(a, b=1, *, c=2, d=3):\n    pass\n"
                     "def g(a=1):\n    pass\n"
                     "def h(a=1):\n    pass\n"
                     "def run(args, kw):\n"
                     "    Box(1, c=2).put(1, 2)\n"
                     "    f(1, 2, d=4)\n"
                     "    alias(5)\n"
                     "    h(*args)\n"
                     "    raise Leaf(Kept(1, 2).read, Dumped(3))\n")}
    assert unused_settings(package, list(package.values())) == [
        "m.Base", "m.Kept.unread", "m.Box.__init__(b=)", "m.f(c=)"]
