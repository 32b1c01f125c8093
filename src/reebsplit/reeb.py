"""Level-set tree (Kronrod-Reeb graph) construction for genus-0 surfaces.

The construction peels the join and split trees of two union-find sweeps,
one ascending and one descending, into the contour tree.  The sweeps run
over the critical nodes only, and the tree keeps no record of the regular
nodes: a tree vertex's preimage is its critical or boundary component, and
no arc lists the regular vertices it sweeps.  On a sphere (or disk with
constant regular boundary) the contour tree equals the quotient of the
surface by connected components of level sets, so no general-genus
machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .field import (
    REGULAR,
    SADDLE,
    FieldClassReport,
    ScalarField,
    classify_field,
)
from .mesh import (
    LevelCycle,
    SurfaceReport,
    TriangleMesh,
    components,
    distinct,
    overflow_scale,
    validate_surface,
)
from .treeaut import LabeledTree


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


def csr_rows(flat: np.ndarray, starts: np.ndarray) -> list[tuple[int, ...]]:
    """The rows ``flat[starts[i]:starts[i + 1]]`` of compressed sparse rows,
    as tuples."""
    flat, starts = flat.tolist(), starts.tolist()
    return [tuple(flat[a:b]) for a, b in zip(starts, starts[1:])]


# the name of each kind code of ``field`` (``REGULAR`` to ``BOUNDARY``, with
# a boundary cycle's zone a boundary vertex); no tree vertex is regular
VERTEX_KINDS = ("regular", "minimum", "maximum", "saddle", "boundary")


class ReebGraph:
    """Level-set tree, as the ``LabeledTree`` ``tree``, with the kinds and
    mesh preimages of its vertices.

    The facts are arrays: ``kinds`` and ``multiplicities`` per vertex, and
    the preimages as compressed sparse rows ``(flat, starts)`` with one row
    per vertex, its mesh vertices ascending.  Tree vertex ids ascend with
    (label, zone) and every tree edge has lower < upper, so the tree's ids
    are the graph's.  ``vertices`` and ``edges`` build their objects on first use.
    """

    def __init__(self, tree: LabeledTree, kinds: np.ndarray,
                 multiplicities: np.ndarray,
                 preimages: tuple[np.ndarray, np.ndarray]):
        self.tree = tree
        self.kinds = kinds
        self.multiplicities = multiplicities
        self.preimages = preimages

    @cached_property
    def vertices(self) -> list[ReebVertex]:
        flat, starts = self.preimages
        rows = zip(self.tree.labels, self.kinds.tolist(),
                   self.multiplicities.tolist(),
                   csr_rows(flat, starts))
        return [ReebVertex(id=i, label=label, kind=VERTEX_KINDS[kind],
                           multiplicity=mult, preimage=pre)
                for i, (label, kind, mult, pre) in enumerate(rows)]

    @cached_property
    def edges(self) -> list[ReebEdge]:
        return [ReebEdge(id=i, lower=lo, upper=hi)
                for i, (lo, hi) in enumerate(self.tree.edges)]

    def edge_ends(self, edge_id: int) -> tuple[tuple[float, float], tuple[int, int]]:
        """The labels of a tree edge's lower and upper end, and the smallest
        mesh vertex of each end's preimage."""
        if not 0 <= edge_id < self.n_edges:
            raise EdgeNotFound(f"no edge {edge_id}")
        lo, hi = self.tree.edges[edge_id]
        labels = self.tree.labels
        flat, starts = self.preimages
        return (labels[lo], labels[hi]), (int(flat[starts[lo]]), int(flat[starts[hi]]))

    @property
    def n_vertices(self) -> int:
        return self.tree.n

    @property
    def n_edges(self) -> int:
        return len(self.tree.edges)

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


def _tree_from_sweeps(values, indptr, indices, kinds, multiplicities,
                      members, starts) -> ReebGraph:
    """Contour tree of a node graph with its regular nodes suppressed.

    ``indptr`` and ``indices`` are the connected graph's CSR adjacency, and
    ``kinds`` and ``multiplicities`` each node's kind code and multiplicity,
    as arrays; node ``z`` expands back to the mesh vertices
    ``members[starts[z]:starts[z + 1]]``, which become the preimage of its
    tree vertex.  The sweeps and the peel run over the critical nodes only,
    joined by monotone paths through the regular ones, which are not placed
    on any arc.  Raises InvalidFieldClass when an arc fails to increase the
    label strictly, which happens exactly when two critical components share
    a level component, and InternalInconsistency when a node called regular
    does not behave as one.
    """
    nz = len(values)
    order = np.argsort(values, kind="stable")
    rank = np.empty(nz, dtype=np.intp)
    rank[order] = np.arange(nz)
    regular = kinds == REGULAR

    # monotone-path pointers: a regular node steps down to its highest
    # neighbour below it and up to its lowest one above it (-1 and nz mark
    # none, which only a node wrongly called regular has), and a critical
    # node stays put.  Down and up share one array, so one pointer jumping
    # ends both on critical nodes
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

    labels = [values[z] for z in keep.tolist()]
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
    # the sorted arcs are kept as they are, so the tree's edge ids are the
    # arcs' positions
    try:
        tree = LabeledTree(labels, arcs)
    except InvalidTree:
        raise GenusNotZero("level-set graph is not a tree") from None

    # the preimages: tree vertex i is row i, the members of zone keep[i],
    # which ascend already
    rows = np.diff(starts)[keep]
    bounds = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(rows, out=bounds[1:])
    flat = members[np.repeat(starts[keep] - bounds[:-1], rows) + np.arange(bounds[-1])]
    return ReebGraph(tree, kinds[keep], multiplicities[keep], (flat, bounds))


def build_reeb(mesh: TriangleMesh, field: ScalarField, *,
               surface: SurfaceReport | None = None,
               fclass: FieldClassReport | None = None) -> ReebGraph:
    """Build the level-set tree of a field on a genus-0 surface.

    Flat zones (only whole constant boundary cycles are admissible) are
    contracted to single nodes first.  The two sweeps then run over the
    critical and boundary zones alone, joined by monotone paths through the
    regular ones, so the result keeps exactly the critical components and
    the boundary components as vertices, and no edge records the regular
    vertices it sweeps.  Every edge strictly increases the
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
    return part_trees(mesh, [report], [fclass], [0, mesh.n_vertices])[0]


def part_trees(mesh: TriangleMesh, surfaces: list[SurfaceReport],
               fclasses: list[FieldClassReport], parts) -> list[ReebGraph | None]:
    """``build_reeb`` of each part of a disjoint union with ``parts``, from
    its ``validate_surface`` and ``classify_field`` reports; None where the
    field is invalid.  Zones are numbered by their smallest vertex, so each
    part's tree is made from slices of the union's contraction."""
    # a zone's kind is its smallest vertex's; on a valid field the only
    # zones of several vertices are boundary cycles, whose vertices are all
    # boundary vertices
    contraction = fclasses[0].contraction
    members, starts = contraction.members, contraction.starts
    first = members[starts[:-1]]
    kinds, mults = fclasses[0].kinds[first], fclasses[0].multiplicities[first]
    indptr, indices = contraction.zone_neighbors(mesh)
    zones = contraction.zone_of[parts[:-1]].tolist() + [len(first)]
    graphs = [None] * len(fclasses)
    for i, (surface, fclass) in enumerate(zip(surfaces, fclasses)):
        if not fclass.valid:
            continue
        if surface.genus != 0 or not surface.connected:
            raise GenusNotZero(f"need a connected genus-0 surface, got genus {surface.genus}")
        z0, z1 = zones[i], zones[i + 1]
        a, b = indptr[z0], indptr[z1]
        graphs[i] = graph = _tree_from_sweeps(
            contraction.zone_values[z0:z1], indptr[z0:z1 + 1] - a,
            indices[a:b] - z0, kinds[z0:z1], mults[z0:z1],
            members[starts[z0]:starts[z1]] - parts[i], starts[z0:z1 + 1] - starts[z0])
        degree = np.fromiter(map(len, graph.tree.adj), np.intp, graph.n_vertices)
        bad = np.flatnonzero(degree != np.where(graph.kinds == SADDLE,
                                                graph.multiplicities + 2, 1))
        if len(bad):
            v = int(bad[0])
            raise InternalInconsistency(
                f"{VERTEX_KINDS[graph.kinds[v]]} {v} of multiplicity "
                f"{graph.multiplicities[v]} has degree {degree[v]}")
    return graphs


# ----------------------------------------------------------------------
# level cycles

def choose_cut_value(field: ScalarField, graph: ReebGraph, edge_id: int) -> float:
    """Midpoint of the largest value gap strictly inside an edge's label span.

    Ties between equally large gaps resolve to the lowest one, so the choice
    is deterministic.  Gaps and midpoint are scaled by ``overflow_scale``.
    Where the largest gap lies between adjacent floats the midpoint rounds
    onto one of its ends, which ``level_cycle`` refuses with ValueCollision.
    """
    (lo, hi), _ = graph.edge_ends(edge_id)
    vals = field.values
    inside = distinct(vals[(vals > lo) & (vals < hi)]).tolist()
    s = overflow_scale(lo, hi)
    stops = [x * s for x in [lo] + inside + [hi]]
    best = 0
    for i in range(1, len(stops)):
        if stops[i] - stops[i - 1] > stops[best + 1] - stops[best]:
            best = i - 1
    return (stops[best] + stops[best + 1]) / (2 * s)


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
    (lo, hi), (lo_rep, hi_rep) = graph.edge_ends(edge_id)
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
    lo_comp, hi_comp = comp[lo_rep], comp[hi_rep]
    ends = mesh.edge_pairs[crossed]
    for start, (a, b) in enumerate(ends.tolist()):
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
    return LevelCycle(edges=tuple(crossed[cyc].tolist()), value=float(c))
