"""Correctness checks of the benchmark's outputs, made apart from the program.

Every check takes plain data (the input's JSON, the tree ``gen`` realized,
the level-set tree the program built, the operation's JSON output) and
recomputes what it can with networkx and numpy; nothing here imports
reebsplit.  A check returns a list of problems, empty when it passes, so a
test can tamper with one output and see exactly which check rejects it.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher

_CUT = "cut"  # node name of the marked point added when a tree is cut


def nx_tree(labels, edges) -> nx.Graph:
    g = nx.Graph()
    for v, label in enumerate(labels):
        g.add_node(v, label=float(label), marked=False)
    g.add_edges_from((int(u), int(v)) for u, v in edges)
    return g


def _same_node(a, b) -> bool:
    return a["label"] == b["label"] and a["marked"] == b["marked"]


def automorphisms(g: nx.Graph) -> list[dict]:
    """Label- and mark-preserving automorphisms, as networkx finds them."""
    return list(GraphMatcher(g, g, node_match=_same_node).isomorphisms_iter())


def fixed_edges(g: nx.Graph, auts: list[dict]) -> set[frozenset]:
    return {frozenset((u, v)) for u, v in g.edges
            if all(s[u] == u and s[v] == v for s in auts)}


def cut_side(g: nx.Graph, keep, drop, cut_label: float) -> nx.Graph:
    """The side of ``g`` holding ``keep`` once edge (keep, drop) is cut, with
    the cut point added as a marked leaf."""
    h = g.copy()
    h.remove_edge(keep, drop)
    side = h.subgraph(nx.node_connected_component(h, keep)).copy()
    side.add_node(_CUT, label=float(cut_label), marked=True)
    side.add_edge(keep, _CUT)
    return side


def side_critical_points(side: nx.Graph) -> tuple[int, int, list[int]]:
    """Minima, maxima and sorted saddle multiplicities a disk realizing this
    cut side must have: one extremum per unmarked leaf, multiplicity
    degree - 2 per inner vertex."""
    minima = maxima = 0
    mults = []
    for v, data in side.nodes(data=True):
        if data["marked"]:
            continue
        if side.degree(v) == 1:
            (w,) = side.neighbors(v)
            if data["label"] < side.nodes[w]["label"]:
                minima += 1
            else:
                maxima += 1
        else:
            mults.append(side.degree(v) - 2)
    return minima, maxima, sorted(mults)


def check_split(source: tuple, built: tuple, mesh_data: dict,
                output: str) -> dict[str, list[str]]:
    """All checks of one split operation.

    ``source`` and ``built`` are (labels, edges) of the tree gen realized and
    of the level-set tree the program built (edge ``i`` of ``built`` is
    (lower, upper) of the program's edge ``i``); ``mesh_data`` is the parsed
    input and ``output`` the canonical JSON of the report list.
    """
    problems: dict[str, list[str]] = {name: [] for name in (
        "tree_isomorphic", "group_order", "fixed_edges", "side_orders",
        "order_product", "cut_value", "disks", "cut_counts", "passed")}
    reports = json.loads(output)
    src = nx_tree(*source)
    blt = nx_tree(*built)
    matcher = GraphMatcher(blt, src, node_match=_same_node)
    if not matcher.is_isomorphic():
        problems["tree_isomorphic"].append("built tree is not label-isomorphic "
                                           "to the realized tree")
        return problems
    psi = matcher.mapping
    for r in reports:
        if r["reeb_vertices"] != src.number_of_nodes():
            problems["tree_isomorphic"].append(
                f"report says {r['reeb_vertices']} tree vertices, "
                f"realized tree has {src.number_of_nodes()}")

    auts = automorphisms(src)
    fixed = fixed_edges(src, auts)
    if len(reports) != len(fixed):
        problems["fixed_edges"].append(
            f"{len(reports)} reports for {len(fixed)} fixed edges")
    values = set(float(x) for x in mesh_data["values"])
    n_vertices = len(mesh_data["vertices"])
    n_triangles = len(mesh_data["triangles"])
    seen = set()
    for r in reports:
        eid = r["edge_id"]
        tag = f"edge {eid}"
        if r["group_order"] != len(auts):
            problems["group_order"].append(
                f"{tag}: |G| reported {r['group_order']}, networkx finds {len(auts)}")
        if not r["passed"]:
            problems["passed"].append(f"{tag}: report did not pass")
        if not isinstance(eid, int) or not 0 <= eid < len(built[1]):
            problems["fixed_edges"].append(f"{tag}: no such edge in the built tree")
            continue
        lower, upper = (psi[x] for x in built[1][eid])
        key = frozenset((lower, upper))
        if key not in fixed:
            problems["fixed_edges"].append(f"{tag}: not fixed by every automorphism")
        if key in seen:
            problems["fixed_edges"].append(f"{tag}: reported twice")
        seen.add(key)

        lo = src.nodes[lower]["label"]
        hi = src.nodes[upper]["label"]
        c = r["cut_value"]
        if r["edge_labels"] != [lo, hi]:
            problems["cut_value"].append(f"{tag}: edge labels {r['edge_labels']} "
                                         f"!= {[lo, hi]}")
        if not lo < c < hi:
            problems["cut_value"].append(f"{tag}: cut value {c!r} outside ({lo}, {hi})")
        if c in values:
            problems["cut_value"].append(f"{tag}: cut value {c!r} is a vertex value")

        sides = (cut_side(src, lower, upper, c), cut_side(src, upper, lower, c))
        orders = [len(automorphisms(s)) for s in sides]
        if r["side_orders"] != orders:
            problems["side_orders"].append(
                f"{tag}: side orders {r['side_orders']}, networkx finds {orders}")
        if len(auts) != orders[0] * orders[1] or (
                r["side_orders"] is None
                or r["group_order"] != r["side_orders"][0] * r["side_orders"][1]):
            problems["order_product"].append(
                f"{tag}: |G| = {r['group_order']} vs side orders {r['side_orders']}")

        x = r["crossings"]
        disks = r["disks"]
        if [d["side"] for d in disks] != ["A", "B"]:
            problems["disks"].append(f"{tag}: disks are not sides A, B in order")
            continue
        for d, side in zip(disks, sides):
            euler = d["vertex_count"] - (d["triangle_count"] + x) / 2
            if not (d["euler"] == 1 and euler == 1 and d["boundary_count"] == 1
                    and d["boundary_constant"] and d["boundary_value"] == c):
                problems["disks"].append(
                    f"{tag} side {d['side']}: not a disk with one boundary at "
                    f"{c!r} (chi from counts {euler})")
            want = side_critical_points(side)
            got = (d["interior_minima"], d["interior_maxima"],
                   sorted(d["saddle_multiplicities"]))
            if got != want:
                problems["disks"].append(
                    f"{tag} side {d['side']}: critical points {got}, "
                    f"cut side needs {want}")
        va, vb = (d["vertex_count"] for d in disks)
        ta, tb = (d["triangle_count"] for d in disks)
        if va + vb != n_vertices + 2 * x or ta + tb != n_triangles + 2 * x:
            problems["cut_counts"].append(
                f"{tag}: V {va}+{vb} vs {n_vertices}+2*{x}, "
                f"T {ta}+{tb} vs {n_triangles}+2*{x}")
    return problems


def strict_extrema(mesh_data: dict) -> tuple[list[int], list[int]]:
    """Vertices below (above) every neighbour in (value, index) order,
    counted over the mesh edges with numpy."""
    tris = np.asarray(mesh_data["triangles"], dtype=np.int64)
    values = np.asarray(mesh_data["values"], dtype=float)
    n = len(values)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), values))] = np.arange(n)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    up = rank[edges[:, 0]] < rank[edges[:, 1]]
    lower = np.where(up, edges[:, 0], edges[:, 1])
    upper = np.where(up, edges[:, 1], edges[:, 0])
    has_lower_nbr = np.zeros(n, dtype=bool)
    has_upper_nbr = np.zeros(n, dtype=bool)
    has_lower_nbr[upper] = True
    has_upper_nbr[lower] = True
    return (np.nonzero(~has_lower_nbr)[0].tolist(),
            np.nonzero(~has_upper_nbr)[0].tolist())


def check_aut(built_kinds: list[tuple[str, tuple]], labels: list[float],
              mesh_data: dict, output: str | None) -> dict[str, list[str]]:
    """Checks of one group operation on a random field.

    ``built_kinds`` lists (kind, mesh preimage) per vertex of the built
    level-set tree and ``labels`` its vertex labels; ``output`` is the
    canonical JSON of the group, or None when the operation failed.
    """
    problems: dict[str, list[str]] = {"extrema": [], "trivial_group": []}
    minima, maxima = strict_extrema(mesh_data)
    for kind, want in (("minimum", minima), ("maximum", maxima)):
        got = sorted(v for k, pre in built_kinds if k == kind for v in pre)
        if got != want:
            problems["extrema"].append(
                f"tree has {len(got)} {kind} vertices over {got[:5]}..., "
                f"numpy finds {len(want)} over {want[:5]}...")
    if output is not None and len(set(labels)) == len(labels):
        order = json.loads(output)["order"]
        if order != 1:
            problems["trivial_group"].append(
                f"pairwise distinct labels but |G| = {order}")
    return problems


def byte_identical(first: list, later_rounds: list[list]) -> list[tuple[int, str]]:
    """Canonical outputs of later rounds equal those of the first round;
    returns (input index, problem) pairs."""
    return [(i, f"round {k + 2}: output differs from round 1")
            for k, outs in enumerate(later_rounds)
            for i, (a, b) in enumerate(zip(first, outs)) if a != b]
