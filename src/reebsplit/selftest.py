"""Acceptance checks, runnable from the CLI (``reebsplit selftest``) and
wrapped by the pytest acceptance module.

Each criterion reports one pass/fail line.  Independent oracles (all-
permutations filtering, explicit lower-link component counting) live here so
both entry points exercise identical code.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from itertools import permutations

from .errors import GroupTooLarge
from .field import classify_field, euler_identity_holds
from .gen import octahedron_height, random_realizable_tree, realize_tree
from .reeb import build_reeb
from .split import analyze_sphere, verify_all_fixed_edges
from .treeaut import (
    LabeledTree,
    close_under_composition,
    element_order_histogram,
    enumerate_aut,
    enumerate_general_aut,
    fixed_set,
    tree_isomorphic,
    walk,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# ----------------------------------------------------------------------
# oracles and corpus helpers

def brute_force_aut(tree: LabeledTree) -> list[tuple[int, ...]]:
    """All-permutations filtering; the independent oracle for enumeration."""
    n = tree.n
    edge_set = {frozenset(e) for e in tree.edges}
    labels = tree.labels
    out = []
    for p in permutations(range(n)):
        if any(labels[p[i]] != labels[i] for i in range(n)):
            continue
        if tree.marked is not None and p[tree.marked] != tree.marked:
            continue
        if all(frozenset((p[u], p[v])) in edge_set for u, v in tree.edges):
            out.append(p)
    return sorted(out)


def _prufer_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _depth_labels(n: int, edges) -> list[float]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent = walk(adj, 0)
    depth = [0.0] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1.0
    return depth


def star_tree(k: int) -> LabeledTree:
    """Center with one minimum leaf and k identical maximum leaves."""
    labels = [1.0, 0.0] + [2.0] * k
    edges = [(0, 1)] + [(0, 2 + i) for i in range(k)]
    return LabeledTree(labels, edges)


def double_fork_tree() -> LabeledTree:
    labels = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0, 7.0]
    edges = [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    return LabeledTree(labels, edges)


def oracle_corpus(count: int) -> list[LabeledTree]:
    """Deterministic corpus of labeled trees with at most nine vertices."""
    trees = [star_tree(k) for k in (2, 3, 4, 5)] + [double_fork_tree()]
    seed = 0
    while len(trees) < count:
        rng = random.Random(seed)
        n = 2 + seed % 8
        edges = _prufer_edges(n, rng)
        kind = seed % 3
        if kind == 0:
            labels = rng.sample(range(100), n)
            labels = [float(x) for x in labels]
        elif kind == 1:
            labels = _depth_labels(n, edges)
        else:
            labels = [float(rng.randrange(4)) for _ in range(n)]
            # repair equal-label adjacency until none is left, since a
            # repaired label can meet a neighbour checked earlier; repairs
            # only raise labels, and below a bound, so this ends
            while any(labels[u] == labels[v] for u, v in edges):
                for u, v in edges:
                    if labels[u] == labels[v]:
                        labels[v] = labels[u] + 10.0 + v
        trees.append(LabeledTree(labels, edges))
        seed += 1
    return trees[:count]


def split_corpus_seeds(wanted: int):
    """Seeds of generated sphere fields whose fixed set contains an edge."""
    seed = 0
    found = 0
    while found < wanted:
        n = 2 + seed % 9
        symmetry = (1, 1, 2, 3)[seed % 4]
        tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
        group = enumerate_aut(tree)
        fixed = fixed_set(group, tree)
        if fixed.has_edge:
            found += 1
            yield seed, n, symmetry
        seed += 1


# ----------------------------------------------------------------------
# criteria

def criterion_round_trip(quick: bool, ctx: dict) -> CriterionResult:
    t0 = time.perf_counter()
    count = 50 if quick else 500
    budget = 60.0
    bad = []
    euler_ok = True
    for seed in range(count):
        n = 2 + seed % 17
        symmetry = (1, 1, 1, 2, 3)[seed % 5] if n <= 9 else 1
        tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
        if tree.n > 20:  # grafts on top of the base budget stay inside the cap
            tree = random_realizable_tree(n, symmetry=1, seed=seed)
        mesh, field = realize_tree(tree, 4)
        fclass = classify_field(mesh, field)
        if not (fclass.valid and euler_identity_holds(fclass)):
            euler_ok = False
        graph = build_reeb(mesh, field, fclass=fclass)
        if not tree_isomorphic(tree, graph.tree):
            bad.append(seed)
    ctx["round_trip_euler_ok"] = euler_ok
    dt = time.perf_counter() - t0
    passed = not bad and euler_ok and dt < budget
    return CriterionResult(
        "round-trip oracle",
        passed,
        f"{count - len(bad)}/{count} trees reproduced; {dt:.1f}s (budget {budget:.0f}s)",
        dt,
    )


def criterion_aut_oracle(quick: bool, ctx: dict) -> CriterionResult:
    t0 = time.perf_counter()
    count = 40 if quick else 210
    corpus = oracle_corpus(count)
    mismatches = 0
    groups = ctx.setdefault("groups", [])
    for tree in corpus:
        group = enumerate_aut(tree)
        if list(group.elements) != brute_force_aut(tree):
            mismatches += 1
        groups.append((tree, group))
    dt = time.perf_counter() - t0
    return CriterionResult(
        "automorphism oracle equivalence",
        mismatches == 0,
        f"{count - mismatches}/{count} trees agree with all-permutations filtering",
        dt,
    )


def criterion_canonical_orders(quick: bool, ctx: dict) -> CriterionResult:
    t0 = time.perf_counter()
    expected = {2: 2, 3: 6, 4: 24, 5: 120}
    problems = []
    groups = ctx.setdefault("groups", [])
    for k, want in expected.items():
        tree = star_tree(k)
        group = enumerate_aut(tree)
        groups.append((tree, group))
        if group.order != want:
            problems.append(f"star {k}: {group.order} != {want}")
        if list(group.elements) != brute_force_aut(tree):
            problems.append(f"star {k}: oracle disagrees")
    df = double_fork_tree()
    group = enumerate_aut(df)
    groups.append((df, group))
    hist = element_order_histogram(group)
    if group.order != 4 or hist != {1: 1, 2: 3}:
        problems.append(f"double-fork: order {group.order}, histogram {hist}")
    dt = time.perf_counter() - t0
    return CriterionResult(
        "canonical group orders",
        not problems,
        "; ".join(problems) or "stars 2,6,24,120 and double-fork 4 {1:1,2:3}",
        dt,
    )


def criterion_fixed_sets(quick: bool, ctx: dict) -> CriterionResult:
    t0 = time.perf_counter()
    count = 100 if quick else 1000
    midpoints = 0
    subtrees = 0
    failures = 0
    label_midpoints = 0
    done = 0
    seed = 0
    while done < count:
        rng = random.Random(10_000 + seed)
        seed += 1
        n = 3 + rng.randrange(8)
        edges = _prufer_edges(n, rng)
        labels = [float(x) for x in rng.sample(range(100), n)]
        tree = LabeledTree(labels, edges)
        try:
            general = enumerate_general_aut(tree, max_order=5040)
        except GroupTooLarge:
            continue
        gens = [general.elements[rng.randrange(general.order)]
                for _ in range(1 + rng.randrange(2))]
        subgroup = close_under_composition(gens, n)
        try:
            fx = fixed_set(subgroup, tree)
        except Exception:
            failures += 1
            done += 1
            continue
        if fx.variant == "subtree":
            subtrees += 1
            if not fx.vertices:
                failures += 1
        else:
            midpoints += 1
            u, v = tree.edges[fx.midpoint_edge]
            w = fx.flip_witness
            if not (w[u] == v and w[v] == u):
                failures += 1
        # label-preserving groups never pin a midpoint
        sym_tree = random_realizable_tree(2 + seed % 9,
                                          symmetry=(1, 2, 3)[seed % 3],
                                          seed=seed)
        lp = enumerate_aut(sym_tree)
        fx2 = fixed_set(lp, sym_tree)
        if fx2.variant != "subtree":
            label_midpoints += 1
        done += 1
    dt = time.perf_counter() - t0
    passed = failures == 0 and label_midpoints == 0
    return CriterionResult(
        "fixed-set structure",
        passed,
        f"{done} random subgroups: {subtrees} subtrees, {midpoints} midpoints, "
        f"{failures} failures; label-preserving midpoints: {label_midpoints}",
        dt,
    )


def criterion_splitting(quick: bool, ctx: dict) -> CriterionResult:
    t0 = time.perf_counter()
    count = 20 if quick else 200
    budget = 120.0
    bad = []
    euler_ok = True
    chi_ok = True
    groups = ctx.setdefault("groups", [])
    reports = 0
    for seed, n, symmetry in split_corpus_seeds(count):
        tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
        mesh, field = realize_tree(tree, 4)
        sphere = analyze_sphere(mesh, field)
        if not euler_identity_holds(sphere.fclass):
            euler_ok = False
        groups.append((sphere.graph.tree, enumerate_aut(sphere.graph.tree)))
        for report in verify_all_fixed_edges(mesh, field, sphere=sphere):
            reports += 1
            if not report.passed:
                bad.append((seed, report.edge_id))
            if not report.euler_sum_ok:
                chi_ok = False
    ctx["split_euler_ok"] = euler_ok and chi_ok
    dt = time.perf_counter() - t0
    passed = not bad and euler_ok and chi_ok and dt < budget
    return CriterionResult(
        "splitting across every fixed edge",
        passed,
        f"{count} fields, {reports} fixed-edge reports, {len(bad)} failures; "
        f"{dt:.1f}s (budget {budget:.0f}s)",
        dt,
    )


def criterion_euler(quick: bool, ctx: dict) -> CriterionResult:
    t0 = time.perf_counter()
    ok = ctx.get("round_trip_euler_ok", False) and ctx.get("split_euler_ok", False)
    mesh, field = octahedron_height()
    fclass = classify_field(mesh, field)
    ok = ok and euler_identity_holds(fclass)
    dt = time.perf_counter() - t0
    return CriterionResult(
        "extrema/multiplicity identity",
        ok,
        "minima + maxima - total multiplicity = 2 on every closed corpus field; "
        "cut pieces sum to Euler characteristic 2",
        dt,
    )


def criterion_edge_fixing(quick: bool, ctx: dict) -> CriterionResult:
    t0 = time.perf_counter()
    counterexamples = 0
    checked = 0
    for tree, group in ctx.get("groups", []):
        for p in group.elements:
            for u, v in tree.edges:
                if {p[u], p[v]} == {u, v}:
                    checked += 1
                    if not (p[u] == u and p[v] == v):
                        counterexamples += 1
    dt = time.perf_counter() - t0
    return CriterionResult(
        "setwise-invariant edges are fixed pointwise",
        counterexamples == 0 and checked > 0,
        f"{checked} invariant edge instances, {counterexamples} counterexamples",
        dt,
    )


def criterion_determinism(quick: bool, ctx: dict) -> CriterionResult:
    import contextlib
    import io as stdio
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    t0 = time.perf_counter()
    mismatch = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fixtures = []
        specs = [("octahedron", []), ("bumps", ["--n", "3"]),
                 ("tree", ["--n", "8", "--symmetry", "2", "--seed", "5"])]
        for i, (kind, extra) in enumerate(specs):
            path = tmp / f"fix{i}.json"
            with contextlib.redirect_stdout(stdio.StringIO()):
                cli_main(["gen", kind, "--out", str(path)] + extra)
            fixtures.append(path)

        for fix in fixtures:
            for cmd in ("reeb", "aut", "split"):
                outputs = []
                for run in (0, 1):
                    jout = tmp / f"{fix.stem}.{cmd}.{run}.json"
                    argv = [cmd, "--input", str(fix), "--json", str(jout)]
                    if cmd == "reeb":
                        argv += ["--dot", str(tmp / f"{fix.stem}.{run}.dot")]
                    if cmd == "split":
                        argv += ["--all-edges"]
                    buf = stdio.StringIO()
                    with contextlib.redirect_stdout(buf):
                        cli_main(argv)
                    dot = ""
                    if cmd == "reeb":
                        dot = (tmp / f"{fix.stem}.{run}.dot").read_text()
                    outputs.append((buf.getvalue(), jout.read_text(), dot))
                if outputs[0] != outputs[1]:
                    mismatch.append(f"{fix.name}:{cmd}")
    dt = time.perf_counter() - t0
    return CriterionResult(
        "byte-identical reruns",
        not mismatch,
        "; ".join(mismatch) or "reeb/aut/split outputs identical across runs",
        dt,
    )


CRITERIA = [
    criterion_round_trip,
    criterion_aut_oracle,
    criterion_canonical_orders,
    criterion_fixed_sets,
    criterion_splitting,
    criterion_euler,
    criterion_edge_fixing,
    criterion_determinism,
]


def run_all(quick: bool = False) -> list[CriterionResult]:
    ctx: dict = {}
    return [crit(quick, ctx) for crit in CRITERIA]
