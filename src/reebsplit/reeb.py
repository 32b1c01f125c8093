"""Level-set tree (Kronrod-Reeb graph) construction for genus-0 surfaces.

The construction peels the join and split trees of two union-find sweeps,
one ascending and one descending, into the contour tree.  The sweeps run
over the critical nodes only, and the regular nodes are placed on the tree's
arcs afterwards.  On a sphere (or disk with constant regular boundary) the
contour tree equals the quotient of the surface by connected components of
level sets, so no general-genus machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import kernels
from .errors import (
    EdgeNotFound,
    GenusNotZero,
    InternalInconsistency,
    InvalidFieldClass,
    InvalidTree,
    ValueCollision,
)
from .field import FieldClassReport, ScalarField, classify_field
from .mesh import (
    LevelCycle,
    SurfaceReport,
    TriangleMesh,
    components,
    distinct,
    validate_surface,
)
from .treeaut import LabeledTree, walk


@dataclass(frozen=True)
class ReebVertex:
    id: int
    label: float
    kind: str             # minimum | maximum | saddle | boundary
    multiplicity: int
    preimage: tuple[int, ...]   # mesh vertices of the critical/boundary component


@dataclass(frozen=True)
class ReebEdge:
    id: int
    lower: int
    upper: int
    preimage: tuple[int, ...]   # regular mesh vertices swept along the edge


class ReebGraph:
    """Level-set tree, as the ``LabeledTree`` ``tree``, with the kinds and
    mesh preimages of its vertices and edges."""

    def __init__(self, vertices: list[ReebVertex], edges: list[ReebEdge]):
        self.vertices = vertices
        self.edges = edges
        # vertex ids ascend with (label, zone) and each edge has lower <
        # upper, so the tree keeps the edges as they are and its ids are the
        # graph's; raises InvalidTree unless the edges form a tree
        self.tree = LabeledTree([v.label for v in vertices],
                                [(e.lower, e.upper) for e in edges])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def to_dict(self) -> dict:
        return {
            "schema": "reeb-split/1",
            "vertices": [
                {
                    "id": v.id,
                    "label": v.label,
                    "kind": v.kind,
                    "multiplicity": v.multiplicity,
                    "preimage": list(v.preimage),
                }
                for v in self.vertices
            ],
            "edges": [
                {"id": e.id, "lower": e.lower, "upper": e.upper}
                for e in self.edges
            ],
        }


def export_dot(graph: ReebGraph) -> str:
    """Deterministic DOT text; edges point from lower to upper label."""
    lines = ["digraph reeb {"]
    for v in graph.vertices:
        lines.append(f'  n{v.id} [label="{v.id}: {v.kind} @ {v.label!r}"];')
    for e in graph.edges:
        lines.append(f"  n{e.lower} -> n{e.upper};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# construction

def _contour_tree(values, indptr, indices) -> list[tuple[int, int]]:
    """Contour tree of a connected, simply connected graph.

    ``values`` orders the nodes, ties broken by node id; ``indptr`` and
    ``indices`` are the graph's CSR adjacency, as arrays.  Returns the arcs
    as (lower, upper) node pairs.  Only the join and split trees of the
    graph matter, so any graph with the same two trees, such as the
    reduction of a surface's graph to its critical nodes, gives the same
    arcs.

    The join tree (parents from the ascending sweep) and the split tree (from
    the descending one) are peeled as in Carr, Snoeyink and Axen: a node with
    no join child and at most one split child is a lower leaf, whose arc goes
    to its join parent, and symmetrically for an upper leaf.  A peeled node
    has at most one child in either tree, so each tree stays the original
    tree restricted to the live nodes: a node's parent is its nearest live
    ancestor, found with path compression, and only child counts change.

    On a graph with cycles the peel still ends, but its arcs mean nothing
    and can even form a tree, so callers check the genus before.
    """
    n = len(values)
    order = np.argsort(values, kind="stable").tolist()
    indptr, indices = indptr.tolist(), indices.tolist()
    live = [True] * n
    # every node starts as a candidate; a peel adds the node that lost a child
    stack = list(range(n))

    def tree(sweep):
        """Parents and child counts of the merge forest of one sweep."""
        parent = kernels.merge_forest(sweep, indptr, indices)
        count = [0] * n
        for p in parent:
            if p >= 0:
                count[p] += 1
        return parent, count

    def ancestor(parent, v):
        path = [v]
        p = parent[v]
        while p >= 0 and not live[p]:
            path.append(p)
            p = parent[p]
        for x in path:
            parent[x] = p
        return p

    def peel(v, leaf_tree, other_tree):
        """Peel ``v`` as a leaf of ``leaf_tree``: its parent there, or -1.

        Short of the last node, such a leaf has one child in the other
        tree, which from now on hangs from v's parent there.
        """
        parent, count = leaf_tree
        if count[v] or other_tree[1][v] > 1:
            return -1
        w = ancestor(parent, v)
        if w >= 0:
            live[v] = False
            count[w] -= 1
            stack.append(w)
        return w

    join, split = tree(order), tree(order[::-1])
    arcs = []
    while stack:
        v = stack.pop()
        if not live[v]:
            continue
        w = peel(v, join, split)
        if w >= 0:
            arcs.append((v, w))
        else:
            w = peel(v, split, join)
            if w >= 0:
                arcs.append((w, v))

    if len(arcs) != n - 1:
        raise GenusNotZero(
            f"contour merge produced {len(arcs)} arcs for {n} nodes")
    return arcs


def _jump(pointer: np.ndarray) -> np.ndarray:
    """Where each node ends when ``pointer`` is followed to a fixed point,
    by pointer jumping."""
    while True:
        jumped = pointer[pointer]
        if (jumped == pointer).all():
            return pointer
        pointer = jumped


def _tree_paths(arcs, k: int, pairs) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The paths of a tree between node pairs (a, b), one after the other.

    ``arcs`` are the sorted arcs (lo, hi), lo < hi, of a tree on nodes
    ``0 .. k-1``.  Returns the nodes of all paths in order, the node count
    of each path, and the arc from each node to the next one (meaningless
    at the end of a path).  The two ends of a pair climb the tree rooted at
    node 0 until they meet.
    """
    nbrs = [[] for _ in range(k)]
    for lo, hi in arcs:
        nbrs[lo].append(hi)
        nbrs[hi].append(lo)
    order, parent = walk(nbrs, 0)
    depth = [0] * k
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1

    nodes, lengths = [], []
    for a, b in pairs:
        head, tail = [], []
        while a != b:
            if depth[a] >= depth[b]:
                head.append(a)
                a = parent[a]
            else:
                tail.append(b)
                b = parent[b]
        head.append(a)
        head += reversed(tail)
        nodes += head
        lengths.append(len(head))
    # the arc between consecutive path nodes a, b is the one keyed
    # min * k + max among the sorted arcs' keys lo * k + hi
    nodes = np.array(nodes, dtype=np.intp)
    lo_hi = np.array(arcs, dtype=np.intp).reshape(-1, 2)
    a, b = nodes[:-1], nodes[1:]
    step = np.searchsorted(lo_hi[:, 0] * k + lo_hi[:, 1],
                           np.minimum(a, b) * k + np.maximum(a, b))
    return nodes, lengths, step


def _tree_from_sweeps(values, indptr, indices, kinds, mults,
                      members) -> tuple[list[ReebVertex], list[ReebEdge]]:
    """Contour tree of a node graph with its regular nodes suppressed.

    ``indptr`` and ``indices`` are the connected graph's CSR adjacency, as
    arrays; ``members`` expands each node back to its mesh vertices for
    preimage bookkeeping.  The sweeps and the peel run over the critical
    nodes only, joined by monotone paths, and every regular node then goes
    to the one arc that crosses its level on the tree path between the
    critical nodes its monotone descent and ascent end on.  Raises
    InvalidFieldClass when an arc fails to increase the label strictly,
    which happens exactly when two critical components share a level
    component, and InternalInconsistency when a node called regular does
    not behave as one.
    """
    nz = len(values)
    order = np.argsort(values, kind="stable")
    rank = np.empty(nz, dtype=np.intp)
    rank[order] = np.arange(nz)
    regular = np.array([kind == "regular" for kind in kinds], dtype=bool)

    # monotone-path pointers: a regular node steps down to its highest
    # neighbour below it and up to its lowest one above it (-1 and nz mark
    # none, which only a node wrongly called regular has), and a critical
    # node stays put.  These gentlest steps keep the two ends close in
    # value, so the tree path between them is short.  Down and up share one
    # array, so one pointer jumping ends both on critical nodes
    nbr = rank[indices]
    ids = np.arange(nz)
    row = np.repeat(ids, np.diff(indptr))
    below = nbr < rank[row]
    lower = np.maximum.reduceat(np.where(below, nbr, -1), indptr[:-1])
    upper = np.minimum.reduceat(np.where(below, nz, nbr), indptr[:-1])
    pointer = _jump(np.concatenate((
        np.where(regular & (lower >= 0), order[lower], ids),
        np.where(regular & (upper < nz), order.take(upper, mode="clip"), ids) + nz)))
    down, up = pointer[:nz], pointer[nz:] - nz
    if regular[down].any() or regular[up].any():
        raise InternalInconsistency(
            "a regular component's monotone path stalls on a regular component")

    # the reduced graph on the critical nodes, numbered in (value, id) order:
    # critical x is joined to where each lower neighbour descends to and
    # each upper one ascends to, along a monotone path between the two, so
    # both sweeps over it give the full graph's trees restricted to them
    keep = order[~regular[order]]
    k = len(keep)
    vid = np.empty(nz, dtype=np.intp)
    vid[keep] = np.arange(k)
    crit = ~regular[row]
    x, u = row[crit], indices[crit]
    a = vid[x]
    b = vid[np.where(below[crit], down[u], up[u])]
    pairs = distinct(np.concatenate((a * k + b, b * k + a)))
    cindptr = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount(pairs // k, minlength=k), out=cindptr[1:])

    zones = keep.tolist()
    labels = [values[z] for z in zones]
    vertices = [ReebVertex(id=i, label=labels[i], kind=kinds[z],
                           multiplicity=mults[z], preimage=tuple(members[z]))
                for i, z in enumerate(zones)]
    try:
        arcs = sorted(_contour_tree(labels, cindptr, pairs % k))
    except GenusNotZero as exc:
        # the reduction keeps the join and split trees only when every node
        # called regular is one
        raise InternalInconsistency(f"reduced to the critical nodes, {exc}") from None
    for lo, hi in arcs:
        if not labels[lo] < labels[hi]:
            raise InvalidFieldClass(
                "two critical components share one level value on a "
                "common level component")

    # augmentation: the tree path from down[r] to up[r] is monotone, since
    # a monotone path in the surface maps to one in the tree, and it
    # crosses r's level on one arc.  Paths are keyed by their pair's index
    # times nz plus their nodes' ranks, so one searchsorted places every
    # regular node
    reg = np.flatnonzero(regular)
    ends = vid[down[reg]] * k + vid[up[reg]]
    pair_keys = distinct(ends)
    nodes, lengths, step = _tree_paths(
        arcs, k, [divmod(e, k) for e in pair_keys.tolist()])
    path_key = np.repeat(np.arange(len(lengths)) * nz, lengths) + rank[keep][nodes]
    if np.any(path_key[1:] <= path_key[:-1]):
        raise InternalInconsistency(
            "the tree path of a regular component is not monotone")
    # the path node just below r is the lower end of r's arc
    arc_of = step[np.searchsorted(
        path_key, np.searchsorted(pair_keys, ends) * nz + rank[reg]) - 1]

    # each edge's preimage: the members of its regular nodes, ascending
    chains = [members[z] for z in reg.tolist()]
    arc_of = np.repeat(arc_of, np.fromiter(map(len, chains), np.intp, len(chains)))
    flat = np.fromiter(chain.from_iterable(chains), np.intp, len(arc_of))
    flat = flat[np.lexsort((flat, arc_of))].tolist()
    bounds = np.cumsum(np.bincount(arc_of, minlength=len(arcs))).tolist()
    edges = [ReebEdge(id=i, lower=lo, upper=hi, preimage=tuple(flat[s:t]))
             for i, ((lo, hi), s, t) in enumerate(zip(arcs, [0] + bounds, bounds))]
    return vertices, edges


def build_reeb(mesh: TriangleMesh, field: ScalarField, *,
               surface: SurfaceReport | None = None,
               fclass: FieldClassReport | None = None) -> ReebGraph:
    """Build the level-set tree of a field on a genus-0 surface.

    Flat zones (only whole constant boundary cycles are admissible) are
    contracted to single nodes first.  The two sweeps then run over the
    critical and boundary zones alone, joined by monotone paths through the
    regular ones, and each regular zone is placed on its edge afterwards, so
    the result keeps exactly the critical components and the boundary
    components as vertices.  Every edge strictly increases the
    label; an edge between two events at the same value means two critical
    vertices share a level component, which is rejected.

    The merge of the two sweeps is only meaningful on a simply connected
    domain: on a surface with handles it still returns arcs, so the genus
    and connectedness are checked before it runs.

    ``surface`` and ``fclass`` pass in ``validate_surface(mesh)`` and
    ``classify_field(mesh, field)`` when the caller already has them; they
    go through the same checks as the ones computed here.
    """
    report = validate_surface(mesh) if surface is None else surface
    if report.genus != 0 or not report.connected:
        raise GenusNotZero(
            f"need a connected genus-0 surface, got genus {report.genus}")
    if fclass is None:
        fclass = classify_field(mesh, field)
    if not fclass.valid:
        raise InvalidFieldClass("; ".join(fclass.reasons) or "unclassifiable field")

    contraction = fclass.contraction
    zones = contraction.zones
    crits = [fclass.per_vertex[zone[0]] for zone in zones]
    kinds = [crit.kind for crit in crits]
    mults = [crit.multiplicity for crit in crits]
    for cyc in mesh.boundary_cycles:
        z = int(contraction.zone_of[cyc[0]])
        kinds[z], mults[z] = "boundary", 0

    vertices, edges = _tree_from_sweeps(contraction.zone_values,
                                        *contraction.zone_neighbors(mesh),
                                        kinds, mults, zones)
    try:
        graph = ReebGraph(vertices, edges)
    except InvalidTree:
        raise GenusNotZero("level-set graph is not a tree") from None
    for v in graph.vertices:
        deg = graph.tree.degree(v.id)
        if v.kind in ("minimum", "maximum", "boundary"):
            if deg != 1:
                raise InternalInconsistency(f"leaf-kind vertex {v.id} has degree {deg}")
        elif v.kind == "saddle":
            if deg != v.multiplicity + 2:
                raise InternalInconsistency(
                    f"saddle {v.id}: degree {deg} vs multiplicity {v.multiplicity}")
    return graph


# ----------------------------------------------------------------------
# level cycles

def mesh_vertex_assignment(graph: ReebGraph, n_vertices: int) -> list[tuple[str, int]]:
    """Map every mesh vertex to its tree element ('v', id) or ('e', id)."""
    where: list[tuple[str, int] | None] = [None] * n_vertices
    for v in graph.vertices:
        for w in v.preimage:
            where[w] = ("v", v.id)
    for e in graph.edges:
        for w in e.preimage:
            where[w] = ("e", e.id)
    if any(x is None for x in where):
        raise InternalInconsistency("preimages do not cover the mesh")
    return where  # type: ignore[return-value]


def choose_cut_value(field: ScalarField, graph: ReebGraph, edge_id: int) -> float:
    """Midpoint of the largest value gap strictly inside an edge's label span.

    Ties between equally large gaps resolve to the lowest one, so the choice
    is deterministic and never collides with a vertex value.
    """
    if not 0 <= edge_id < graph.n_edges:
        raise EdgeNotFound(f"no edge {edge_id}")
    e = graph.edges[edge_id]
    lo = graph.vertices[e.lower].label
    hi = graph.vertices[e.upper].label
    inside = sorted({float(v) for v in field.values if lo < v < hi})
    stops = [lo] + inside + [hi]
    best = 0
    for i in range(1, len(stops)):
        if stops[i] - stops[i - 1] > stops[best + 1] - stops[best] + 0.0:
            best = i - 1
    return (stops[best] + stops[best + 1]) / 2.0


def level_cycle(mesh: TriangleMesh, field: ScalarField, graph: ReebGraph,
                edge_id: int, c: float) -> LevelCycle:
    """The unique level-``c`` cycle lying over the interior of a tree edge.

    ``c`` must be strictly inside the edge's label span and distinct from
    every vertex value.  Among all components of the level set at ``c``, the
    one belonging to the requested edge is identified by the pair (component
    of the strict sublevel graph holding the lower endpoint's preimage,
    component of the strict superlevel graph holding the upper endpoint's);
    on a tree that pair is unique to the edge.
    """
    if not 0 <= edge_id < graph.n_edges:
        raise EdgeNotFound(f"no edge {edge_id}")
    e = graph.edges[edge_id]
    lo = graph.vertices[e.lower].label
    hi = graph.vertices[e.upper].label
    vals = field.values
    if not lo < c < hi:
        raise ValueCollision(f"{c} is outside the edge span ({lo}, {hi})")
    if np.any(vals == c):
        raise ValueCollision(f"{c} collides with a vertex value")

    # every crossed edge joins a component of the strict sublevel graph to
    # one of the strict superlevel graph, and all edges of one level cycle
    # join the same pair; the requested cycle's pair holds the edge's ends.
    # The uncrossed edges give both kinds of component in one labelling.
    u, v = mesh.edge_pairs.T
    above = vals > c
    crosses = above[u] != above[v]
    level = np.flatnonzero(~crosses)
    crossed = np.flatnonzero(crosses)
    comp = components(mesh.n_vertices, u[level], v[level])
    lo_comp = comp[graph.vertices[e.lower].preimage[0]]
    hi_comp = comp[graph.vertices[e.upper].preimage[0]]
    ends = mesh.edge_pairs[crossed].tolist()
    for start, (a, b) in enumerate(ends):
        if above[a]:
            a, b = b, a
        if comp[a] == lo_comp and comp[b] == hi_comp:
            break
    else:
        raise InternalInconsistency("no level component matches the requested edge")

    # walk from the smallest such edge through its smaller triangle; side 2j
    # and 2j + 1 are edge crossed[j] seen from its first and second
    # triangle, and mate[s] is the other crossed edge's side in the same
    # triangle
    by_triangle = np.argsort(mesh.edge_triangles[crossed].ravel(), kind="stable")
    mate = np.empty(2 * len(crossed), dtype=np.intp)
    mate[by_triangle[0::2]] = by_triangle[1::2]
    mate[by_triangle[1::2]] = by_triangle[0::2]
    mate = mate.tolist()
    cyc = [start]
    side = mate[2 * start]
    while side // 2 != start:
        cyc.append(side // 2)
        side = mate[side ^ 1]
    crossings = []
    for j in cyc:
        a, b = ends[j]
        crossings.append((int(crossed[j]), float((c - vals[a]) / (vals[b] - vals[a]))))
    return LevelCycle(crossings=tuple(crossings), closed=True, value=float(c))
