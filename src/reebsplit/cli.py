"""Command-line front end.

Exit codes: 0 success (including a clean hypothesis failure), 1 invalid
input, 2 verification failure, 3 internal inconsistency.  All canonical
output (stdout text and JSON files) is deterministic for fixed inputs,
flags and seeds, except for the timings that ``selftest`` prints, which
its JSON file leaves out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import io as rio
from .errors import InternalInconsistency, ReebSplitError
from .field import classify_field
from .gen import octahedron_height, random_field, random_realizable_tree, realize_tree
from .mesh import validate_surface
from .reeb import build_reeb, export_dot
from .split import verify_all_fixed_edges, verify_theorem
from .treeaut import AutGroup, element_order_histogram, enumerate_aut

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_INTERNAL = 3


def _write_json(path: str, obj) -> None:
    Path(path).write_text(rio.dumps_canonical(obj) + "\n")


def _load(args):
    return rio.load_mesh_field(args.input, getattr(args, "values", None))


def cmd_validate(args) -> int:
    mesh, field = _load(args)
    report = validate_surface(mesh)
    fclass = classify_field(mesh, field)
    print("surface:", rio.dumps_canonical(report.to_dict()))
    print("field:", rio.dumps_canonical(fclass.to_dict()))
    if args.json:
        _write_json(args.json, {"schema": rio.SCHEMA,
                                "surface": report.to_dict(),
                                "field": fclass.to_dict()})
    return EXIT_OK if fclass.valid else EXIT_INVALID


def cmd_reeb(args) -> int:
    mesh, field = _load(args)
    graph = build_reeb(mesh, field)
    print(f"reeb: {graph.n_vertices} vertices, {graph.n_edges} edges")
    for v in graph.vertices:
        print(f"  v{v.id} {v.kind} @ {v.label!r} mult={v.multiplicity}")
    for e in graph.edges:
        print(f"  e{e.id}: {e.lower} -> {e.upper}")
    if args.dot:
        Path(args.dot).write_text(export_dot(graph))
    if args.json:
        _write_json(args.json, graph.to_dict())
    return EXIT_OK


def cmd_aut(args) -> int:
    mesh, field = _load(args)
    graph = build_reeb(mesh, field)
    group = enumerate_aut(graph.tree)
    hist = element_order_histogram(group)
    print(f"group order: {group.order}")
    print("element-order histogram:",
          rio.dumps_canonical({str(k): v for k, v in sorted(hist.items())}))
    for p in group.elements:
        print("  " + " ".join(map(str, p)))
    if args.json:
        _write_json(args.json, group.to_dict())
    return EXIT_OK


def _load_replay(path: str) -> AutGroup:
    """The element list of a group dump; its other keys are not read.
    ``verify_theorem`` checks that each element permutes the tree's
    vertices."""
    data = rio.load_json(path)
    elems = data.get("elements") if isinstance(data, dict) else None
    if not isinstance(elems, list) or not elems:
        raise ValueError("--replay-group needs a JSON object whose "
                         "\"elements\" is a non-empty list")
    for i, p in enumerate(elems):
        if not (isinstance(p, list) and all(type(x) is int for x in p)):
            raise ValueError(f"replayed element {i} is not a list of integers")
    return AutGroup(tuple(tuple(p) for p in elems))


def cmd_split(args) -> int:
    mesh, field = _load(args)
    replay = None
    if args.replay_group:
        if args.all_edges:
            raise ValueError("--replay-group audits a single cut; "
                             "drop --all-edges")
        replay = _load_replay(args.replay_group)
    if args.all_edges:
        # one report per fixed edge, or the one saying there is none
        reports = verify_all_fixed_edges(mesh, field)
    else:
        reports = [verify_theorem(mesh, field, replay_group=replay)]
    for r in reports:
        print(r.summary())
    if args.json:
        payload = [r.to_dict() for r in reports]
        _write_json(args.json, payload if args.all_edges else payload[0])
    failed = any(r.hypothesis_holds and not r.passed for r in reports)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_gen(args) -> int:
    out = Path(args.out)
    if args.kind == "octahedron":
        mesh, field = octahedron_height()
        rio.save_mesh_field(out, mesh, field)
    elif args.kind == "bumps":
        n = args.n
        if n < 0:
            raise ValueError("--n must not be negative")
        labels = [0.0, 1.0] + [2.0] * n
        edges = [(0, 1)] + [(1, 2 + i) for i in range(n)]
        from .treeaut import LabeledTree

        mesh, field = realize_tree(LabeledTree(labels, edges), args.resolution)
        rio.save_mesh_field(out, mesh, field)
    elif args.kind == "tree":
        tree = random_realizable_tree(args.n, symmetry=args.symmetry,
                                      seed=args.seed)
        mesh, field = realize_tree(tree, args.resolution)
        rio.save_mesh_field(out, mesh, field)
    elif args.kind == "random-field":
        if args.input is None:
            raise ValueError("gen random-field needs --input")
        mesh, _ = rio.load_mesh_field(args.input)
        rio.save_mesh_field(out, mesh, random_field(mesh, args.seed))
    elif args.kind == "corpus":
        if args.size < 0:
            raise ValueError("--size must not be negative")
        out.mkdir(parents=True, exist_ok=True)
        manifest = []
        for i in range(args.size):
            seed = args.seed + i
            n = 2 + seed % 11
            symmetry = (1, 1, 2, 3)[seed % 4]
            tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
            mesh, field = realize_tree(tree, args.resolution)
            name = f"corpus_{i:04d}.json"
            rio.save_mesh_field(out / name, mesh, field)
            manifest.append({"file": name, "seed": seed, "n": n,
                             "symmetry": symmetry,
                             "resolution": args.resolution})
        _write_json(out / "manifest.json",
                    {"schema": rio.SCHEMA, "items": manifest})
    else:
        raise ValueError(f"unknown kind {args.kind}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    t0 = time.perf_counter()
    results = run_all(quick=args.quick)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail} [{r.seconds:.1f}s]")
        ok = ok and r.passed
    print(f"selftest {'passed' if ok else 'FAILED'} "
          f"in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    if args.json:
        _write_json(args.json, {
            "schema": rio.SCHEMA,
            "results": [{"name": r.name, "passed": r.passed,
                         "detail": r.detail} for r in results],
        })
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reebsplit",
        description="Level-set trees on triangulated spheres, their "
                    "automorphism groups, and product splittings across cuts.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="mesh+field JSON (or OFF)")
        p.add_argument("--values", help="sidecar value file for OFF input")
        p.add_argument("--json", help="write a machine-readable report here")

    p = sub.add_parser("validate", help="check surface and field admissibility")
    add_input(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reeb", help="build the level-set tree")
    add_input(p)
    p.add_argument("--dot", help="write DOT text here")
    p.set_defaults(func=cmd_reeb)

    p = sub.add_parser("aut", help="enumerate the label-preserving group")
    add_input(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("split", help="verify the product splitting")
    add_input(p)
    p.add_argument("--all-edges", action="store_true",
                   help="verify every fixed edge, not just the first")
    p.add_argument("--replay-group",
                   help="JSON group dump replacing the enumerated group")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("gen", help="emit fixtures and corpora")
    p.add_argument("kind", choices=["octahedron", "bumps", "tree",
                                    "random-field", "corpus"])
    p.add_argument("--out", required=True)
    p.add_argument("--input", help="source mesh for random-field")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--symmetry", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--resolution", type=int, default=4)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--quick", action="store_true",
                   help="smaller corpora, a few seconds total")
    p.add_argument("--json")
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ReebSplitError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
