"""Spans around calls into the program's public functions, installed from
outside the program.

``Tracer.install`` replaces each target function by a wrapper wherever a
``reebsplit`` module holds a reference to it (``split.build_reeb``,
``treeaut.verify_group_axioms``, ``kernels.merge_forest`` ...), and wraps
``TriangleMesh.__init__`` for mesh construction.  The per-vertex
``classify_vertex`` stays unwrapped: its cost is part of
``classify_field``'s self time.  Spans are kept in memory and summarized or
written out once the traced phase ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _mesh_key(mesh):
    return ("mesh", np.asarray(mesh.vertices).tobytes(),
            np.asarray(mesh.triangles, dtype=np.int64).tobytes())


def _field_key(field):
    return ("field", np.asarray(field.values).tobytes())


def _tree_key(tree):
    return ("tree", tree.labels, tree.edges, tree.marked)


def _mesh_field_args(args, kwargs):
    return (_mesh_key(args[0]), _field_key(args[1]))


# metric prefix, module, attribute, size of one call (args, result) or None,
# content key of the arguments for repeat counting or None
TARGETS = [
    ("mesh.TriangleMesh", "mesh", "TriangleMesh.__init__",
     lambda a, r: a[0].n_vertices, None),
    ("mesh.validate_surface", "mesh", "validate_surface", None,
     lambda a, k: _mesh_key(a[0])),
    ("mesh.cut_along_cycle", "mesh", "cut_along_cycle", None, None),
    ("field.classify_field", "field", "classify_field", None, _mesh_field_args),
    ("field.flat_contract", "field", "flat_contract", None, None),
    ("reeb.build_reeb", "reeb", "build_reeb", None, _mesh_field_args),
    ("reeb.choose_cut_value", "reeb", "choose_cut_value", None, None),
    ("reeb.level_cycle", "reeb", "level_cycle", None, None),
    ("kernels.merge_forest", "kernels", "merge_forest", lambda a, r: len(a[0]), None),
    ("treeaut.enumerate_aut", "treeaut", "enumerate_aut", lambda a, r: r.order,
     lambda a, k: (_tree_key(a[0]),) + a[1:] + tuple(sorted(k.items()))),
    ("treeaut.fixed_set", "treeaut", "fixed_set", None, None),
    ("treeaut.verify_group_axioms", "treeaut", "verify_group_axioms", None, None),
    ("treeaut.cut_tree_at", "treeaut", "cut_tree_at", None, None),
    ("treeaut.tree_isomorphic", "treeaut", "tree_isomorphic", None, None),
    ("treeaut.verify_isomorphism", "treeaut", "verify_isomorphism",
     lambda a, r: a[1].order ** 2 + a[2].order * a[3].order, None),
    ("split.verify_all_fixed_edges", "split", "verify_all_fixed_edges", None, None),
    ("split.verify_theorem", "split", "verify_theorem", None, None),
    ("split.check_subtree_group_gap", "split", "check_subtree_group_gap", None, None),
    ("io.mesh_field_from_dict", "io", "mesh_field_from_dict", None, None),
    ("io.dumps_canonical", "io", "dumps_canonical", None, None),
    ("gen.realize_tree", "gen", "realize_tree", None, None),
]

OP = "bench.op"            # span of one whole benchmark operation
SETUP = "bench.setup"      # span of one whole input set-up

# per-layer metrics: name -> (unit, better); see README.md for what each
# should move
PER_LAYER = {
    "reeb.build_reeb.calls": ("count", "lower"),
    "reeb.build_reeb.repeat_calls": ("count", "lower"),
    "reeb.build_reeb.self_s": ("s", "lower"),
    "field.classify_field.repeat_calls": ("count", "lower"),
    "field.classify_field.self_s": ("s", "lower"),
    "mesh.validate_surface.repeat_calls": ("count", "lower"),
    "mesh.validate_surface.self_s": ("s", "lower"),
    "treeaut.enumerate_aut.repeat_calls": ("count", "lower"),
    "treeaut.enumerate_aut.self_s": ("s", "lower"),
    "treeaut.enumerate_aut.elements": ("count", "lower"),
    "treeaut.enumerate_aut.failed": ("count", "lower"),
    "mesh.TriangleMesh.self_s": ("s", "lower"),
    "mesh.TriangleMesh.calls": ("count", "lower"),
    "mesh.TriangleMesh.vertices": ("count", "lower"),
    "mesh.cut_along_cycle.self_s": ("s", "lower"),
    "reeb.level_cycle.self_s": ("s", "lower"),
    "reeb.choose_cut_value.self_s": ("s", "lower"),
    "field.flat_contract.self_s": ("s", "lower"),
    "field.flat_contract.calls": ("count", "lower"),
    "kernels.merge_forest.self_s": ("s", "lower"),
    "kernels.merge_forest.calls": ("count", "lower"),
    "kernels.merge_forest.nodes": ("count", "lower"),
    "treeaut.verify_isomorphism.self_s": ("s", "lower"),
    "treeaut.verify_isomorphism.pairs": ("count", "lower"),
    "treeaut.verify_group_axioms.self_s": ("s", "lower"),
    "treeaut.verify_group_axioms.calls": ("count", "lower"),
    "treeaut.fixed_set.self_s": ("s", "lower"),
    "treeaut.tree_isomorphic.self_s": ("s", "lower"),
    "treeaut.cut_tree_at.self_s": ("s", "lower"),
    "split.verify_all_fixed_edges.self_s": ("s", "lower"),
    "split.verify_theorem.self_s": ("s", "lower"),
    "split.verify_theorem.calls": ("count", "lower"),
    "split.check_subtree_group_gap.self_s": ("s", "lower"),
    "io.mesh_field_from_dict.self_s": ("s", "lower"),
    "io.dumps_canonical.self_s": ("s", "lower"),
    "bench.op.self_s": ("s", "lower"),
    "gen.realize_tree.self_s": ("s", "lower"),
    "trace.overhead": ("%", "lower"),
}


class Tracer:
    """Records one span per wrapped call: name, operation, parent span,
    start, end, size, whether its arguments repeat, whether it raised."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._seen: set = set()
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for name, modname, attr, size, key in TARGETS:
            module = sys.modules[f"reebsplit.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, size, key))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, size, key)
            for modkey, mod in list(sys.modules.items()):
                if modkey != "reebsplit" and not modkey.startswith("reebsplit."):
                    continue
                for ref, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, ref, original))
                        setattr(mod, ref, wrapper)

    def uninstall(self) -> None:
        for owner, ref, original in reversed(self._saved):
            setattr(owner, ref, original)
        self._saved.clear()

    def _wrap(self, name, fn, size, key):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            repeat = False
            if key is not None:
                k = (name, key(args, kwargs))
                repeat = k in self._seen
                self._seen.add(k)
            span = [name, self._op, stack[-1] if stack else -1,
                    perf_counter(), 0.0, 0, repeat, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[4] = perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return wrapper

    # -- benchmark-level spans -----------------------------------------

    def run(self, name: str, op: int, fn, *args):
        """Run ``fn`` inside a top-level span; its arguments-repeat memory
        is per operation."""
        self._op = op
        self._seen = set()
        return self._wrap(name, fn, None, None)(*args)

    # -- summary --------------------------------------------------------

    def totals(self, start: int, end: int) -> dict[str, dict[str, float]]:
        """Per name: calls, self seconds, size, repeat calls and failed calls
        over spans ``start`` to ``end`` (the spans of whole operations)."""
        child = defaultdict(float)
        for s in self.spans[start:end]:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: dict(calls=0, self_s=0.0, size=0, repeat_calls=0, failed=0))
        for i, s in enumerate(self.spans[start:end], start=start):
            t = out[s[0]]
            t["calls"] += 1
            t["self_s"] += (s[4] - s[3]) - child[i]
            t["size"] += s[5]
            t["repeat_calls"] += s[6]
            t["failed"] += s[7]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON row per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["name", "op", "parent", "start",
                                             "end", "size", "repeat",
                                             "failed"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


SIZE_METRICS = {
    "mesh.TriangleMesh.vertices": "mesh.TriangleMesh",
    "kernels.merge_forest.nodes": "kernels.merge_forest",
    "treeaut.enumerate_aut.elements": "treeaut.enumerate_aut",
    "treeaut.verify_isomorphism.pairs": "treeaut.verify_isomorphism",
}


def per_layer(timed: dict, rounds: int, setup: dict,
              overhead_pct: float) -> dict[str, float]:
    """Per-layer metric values: timed-phase totals per round, except
    ``gen.*`` which come from one traced set-up."""
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead":
            out[metric] = overhead_pct
            continue
        if metric in SIZE_METRICS:
            name, field = SIZE_METRICS[metric], "size"
        else:
            name, field = metric.rsplit(".", 1)
        if name.startswith("gen."):
            out[metric] = setup.get(name, {}).get(field, 0)
        else:
            out[metric] = timed.get(name, {}).get(field, 0) / rounds
    return out
