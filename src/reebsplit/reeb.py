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
    _jump,
    disconnection,
    distinct,
    level_components,
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

def _contour_tree(lower, upper) -> list[tuple[int, int]]:
    """Contour tree of a connected, simply connected graph whose nodes are
    numbered in the sweep's total order, from the lowest up: by value, with
    ties broken by node id.  ``lower`` and ``upper`` are two halves of the
    graph's CSR adjacency, each an (indptr, indices) pair of lists: the
    neighbours numbered below each node, and those numbered above it.
    Returns the arcs as (lower, upper) node pairs.  Only the join and split
    trees of the graph matter, so any graph with the same two trees, such as
    the reduction of a surface's graph to its critical nodes, gives the same
    arcs.

    The join tree (parents from the ascending sweep) and the split tree (from
    the descending one) are peeled as in Carr, Snoeyink and Axen: a node with
    no join child and at most one split child is a lower leaf, whose arc goes
    to its join parent, and symmetrically for an upper leaf.  A peeled node
    has at most one child in either tree, so each tree stays the original
    tree restricted to the live nodes: a node's parent is its nearest live
    ancestor, found with path compression, and only child counts change.
    Each sweep can only merge with nodes it has passed, so the ascending one
    reads the lower half alone and the descending one the upper half.

    On a graph with cycles the peel still ends, but its arcs mean nothing
    and can even form a tree, so callers check the genus before.
    """
    n = len(lower[0]) - 1
    live = [True] * n
    # every node starts as a candidate; a peel adds the node that lost a child
    stack = list(range(n))

    def tree(sweep, indptr, indices):
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

    join, split = tree(range(n), *lower), tree(range(n - 1, -1, -1), *upper)
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


def _tree_from_sweeps(values, order, indptr, indices, kinds, multiplicities,
                      members, starts, zones, valid):
    """Contour trees of the parts of a node graph, regular nodes suppressed.

    ``order`` lists the nodes by value, with ties broken by node id.
    ``indptr`` and ``indices`` are the graph's CSR adjacency, and ``kinds``
    and ``multiplicities`` each node's kind code and multiplicity, as
    arrays; node ``z`` expands back to the mesh vertices
    ``members[starts[z]:starts[z + 1]]``.  Part ``i`` is the connected graph
    on nodes ``zones[i]`` to ``zones[i + 1] - 1``, and no edge leaves a part.
    Yields each part's tree in part order, or None where ``valid[i]`` is
    false; a tree vertex's preimage is its node's members, less the part's
    first vertex ``members[starts[zones[i]]]``.  A graph of one part is
    ``zones=[0, len(values)]``.

    The array stages run once over all parts: the (value, id) ranks, the
    monotone paths through the regular nodes, the graph reduced to the
    critical nodes, split into the halves that the two sweeps read, and the
    preimage rows.  Parts share no edge, so the
    union's ranks order each part's nodes as its own would and no path
    leaves its part.  Per part remain the sweeps and the peel over its
    critical nodes, which are not placed on any arc, and the checks, run
    when its tree is asked for, so that a caller can refuse a part before
    its tree is built.  Raises InvalidFieldClass when an arc fails to
    increase the label strictly, which happens exactly when two critical
    components share a level component, and InternalInconsistency when a
    node called regular does not behave as one.
    """
    values = np.asarray(values, dtype=float)
    nz = len(values)
    part_of = np.repeat(np.arange(len(valid)), np.diff(zones))
    rank = np.empty(nz, dtype=np.intp)
    rank[order] = np.arange(nz)
    regular = kinds == REGULAR

    # monotone-path pointers: a regular node steps down to its highest
    # neighbour below it and up to its lowest one above it, and a critical
    # node stays put.  A node called regular with no neighbour on one side
    # is stuck: it stays put too, and its part is refused.  Down and up
    # share one array, so one pointer jumping ends both on kept nodes
    nbr = rank[indices]
    ids = np.arange(nz)
    row = np.repeat(ids, np.diff(indptr))
    below = nbr < rank[row]
    # an isolated node, which only a part whose field is invalid can have,
    # reads a neighbour's row: no pointer leads to it, and its part is
    # never asked for
    heads = np.minimum(indptr[:-1], len(nbr) - 1)
    lower = np.maximum.reduceat(np.where(below, nbr, -1), heads)
    upper = np.minimum.reduceat(np.where(below, nz, nbr), heads)
    stuck = regular & ((lower < 0) | (upper == nz))
    regular &= ~stuck
    pointer = _jump(np.concatenate((
        np.where(regular, order[lower], ids),
        np.where(regular, order.take(upper, mode="clip"), ids) + nz)))
    down, up = pointer[:nz], pointer[nz:] - nz

    # the reduced graph on the kept nodes: kept x is joined to where each
    # lower neighbour descends to and each upper one ascends to, along a
    # monotone path between the two, so both sweeps over it give the full
    # graph's trees restricted to them.  A stable sort by part numbers each
    # part's kept nodes in a block, in (value, id) order
    keep = order[~regular[order]]
    keep = keep[np.argsort(part_of[keep], kind="stable")]
    k = len(keep)
    vid = np.empty(nz, dtype=np.intp)
    vid[keep] = np.arange(k)
    crit = ~regular[row]
    x, u = row[crit], indices[crit]
    a = vid[x]
    b = vid[np.where(below[crit], down[u], up[u])]
    a, b = np.divmod(distinct(np.concatenate((a * k + b, b * k + a))), k)
    blocks = np.searchsorted(part_of[keep], np.arange(len(valid) + 1))
    # a sweep in node order reads only the neighbours it has passed: the
    # lower half of each row going up, the upper half going down.  The
    # halves' indices count from their part's first node, once per union
    part_start = np.repeat(blocks[:-1], np.diff(blocks))
    halves = []
    for side in (b < a, b > a):
        ptr = np.zeros(k + 1, dtype=np.intp)
        np.cumsum(np.bincount(a[side], minlength=k), out=ptr[1:])
        halves.append((ptr, ptr.tolist(), (b[side] - part_start[a[side]]).tolist()))

    # the preimages: tree vertex i is row i, the members of zone keep[i],
    # which ascend already
    rows = np.diff(starts)[keep]
    bounds = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(rows, out=bounds[1:])
    flat = members[np.repeat(starts[keep] - bounds[:-1], rows) + np.arange(bounds[-1])]
    kinds, multiplicities = kinds[keep], multiplicities[keep]
    labels = values[keep].tolist()
    blocks = blocks.tolist()
    firsts = members[starts[zones[:-1]]].tolist()
    stalls = np.flatnonzero(stuck).tolist()
    row_at = bounds.tolist()

    for i, ok in enumerate(valid):
        if not ok:
            yield None
            continue
        z0, z1 = zones[i], zones[i + 1]
        stall = next((z for z in stalls if z0 <= z < z1), None)
        if stall is not None:
            raise InternalInconsistency(
                "a regular component's monotone path stalls on the regular "
                f"component at vertex {members[starts[stall]] - firsts[i]}")
        k0, k1 = blocks[i], blocks[i + 1]
        part = labels[k0:k1]
        v0, v1 = row_at[k0], row_at[k1]
        pre = (flat[v0:v1] - firsts[i], bounds[k0:k1 + 1] - v0)
        try:
            arcs = sorted(_contour_tree(*[
                ((ptr[k0:k1 + 1] - at[k0]).tolist(), nbrs[at[k0]:at[k1]])
                for ptr, at, nbrs in halves]))
            for lo, hi in arcs:
                if not part[lo] < part[hi]:
                    raise InvalidFieldClass(
                        "two critical components share one level value on a "
                        f"common level component (vertices {pre[0][pre[1][lo]]} "
                        f"and {pre[0][pre[1][hi]]} at {part[lo]!r})")
            # the sorted arcs are kept as they are, so the tree's edge ids
            # are the arcs' positions
            tree = LabeledTree(part, arcs)
        except (GenusNotZero, InvalidTree) as exc:
            # the part passed its genus check, so the peel must give a tree;
            # the reduction keeps the join and split trees only when every
            # node called regular is one
            raise InternalInconsistency(f"reduced to the critical nodes, {exc}") from None
        yield ReebGraph(tree, kinds[k0:k1], multiplicities[k0:k1], pre)


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
        got = f"genus {report.genus}" if report.connected else \
            disconnection(mesh, 0, mesh.n_vertices)
        raise GenusNotZero(f"need a connected genus-0 surface, got {got}")
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
    part's zones are one block of the union's contraction, and one
    ``_tree_from_sweeps`` call reduces the whole union at once.  Parts are
    refused in part order: the first part that fails raises its error."""
    # a zone's kind is its smallest vertex's; on a valid field the only
    # zones of several vertices are boundary cycles, whose vertices are all
    # boundary vertices
    contraction = fclasses[0].contraction
    members, starts = contraction.members, contraction.starts
    first = members[starts[:-1]]
    zones = contraction.zone_of[parts[:-1]].tolist() + [len(first)]
    # the zones in (value, zone id) order are the vertex order's zones, each
    # taken at its smallest vertex
    zone_order = contraction.zone_of[fclasses[0].order]
    zone_order = zone_order[first[zone_order] == fclasses[0].order]
    trees = _tree_from_sweeps(
        contraction.zone_values, zone_order, *contraction.zone_neighbors(mesh),
        fclasses[0].kinds[first], fclasses[0].multiplicities[first],
        members, starts, zones, [fclass.valid for fclass in fclasses])
    graphs = []
    for surface, fclass, start, stop in zip(surfaces, fclasses, parts, parts[1:]):
        if fclass.valid and (surface.genus != 0 or not surface.connected):
            got = f"genus {surface.genus}" if surface.connected else \
                disconnection(mesh, start, stop)
            raise GenusNotZero(f"need a connected genus-0 surface, got {got}")
        graph = next(trees)
        graphs.append(graph)
        if graph is None:
            continue
        degree = [len(nb) for nb in graph.tree.adj]
        want = np.where(graph.kinds == SADDLE, graph.multiplicities + 2, 1).tolist()
        if degree != want:
            v = next(v for v, d in enumerate(want) if d != degree[v])
            raise InternalInconsistency(
                f"{VERTEX_KINDS[graph.kinds[v]]} {v} of multiplicity "
                f"{graph.multiplicities[v]} has degree {degree[v]}")
    return graphs


# ----------------------------------------------------------------------
# level cycles

def choose_cut_value(ascending: np.ndarray, graph: ReebGraph, edge_id: int) -> float:
    """Midpoint of the largest value gap strictly inside an edge's label span,
    read from the field's values in ascending order.

    Ties between equally large gaps resolve to the lowest one, so the choice
    is deterministic; a repeated value makes a gap of width 0, which never
    wins.  Gaps and midpoint are scaled by ``overflow_scale``.  Where the
    largest gap lies between adjacent floats the midpoint rounds onto one of
    its ends, which ``level_cycle`` refuses with ValueCollision.
    """
    (lo, hi), _ = graph.edge_ends(edge_id)
    inside = ascending[np.searchsorted(ascending, lo, "right"):
                       np.searchsorted(ascending, hi, "left")]
    s = overflow_scale(lo, hi)
    stops = np.concatenate(([lo], inside, [hi])) * s
    best = int(np.argmax(np.diff(stops)))  # the first of the largest gaps
    a, b = stops[best:best + 2].tolist()
    return (a + b) / (2 * s)


def level_cycle(mesh: TriangleMesh, field: ScalarField, graph: ReebGraph,
                edge_id: int, c: float, *, levels: np.ndarray | None = None) -> LevelCycle:
    """The unique level-``c`` cycle lying over the interior of a tree edge.

    ``c`` must be strictly inside the edge's label span and distinct from
    every vertex value.  Among all components of the level set at ``c``, the
    one belonging to the requested edge is identified by the pair (component
    of the strict sublevel graph holding the lower endpoint's preimage,
    component of the strict superlevel graph holding the upper endpoint's);
    on a tree that pair is unique to the edge.  ``levels`` passes in
    ``level_components(mesh, field.values, c)`` when the caller already has
    it.
    """
    (lo, hi), (lo_rep, hi_rep) = graph.edge_ends(edge_id)
    vals = field.values
    if not lo < c < hi:
        raise ValueCollision(f"{c} is outside the edge span ({lo}, {hi})")
    if np.any(vals == c):
        raise ValueCollision(f"{c} collides with a vertex value")
    if levels is None:
        levels = level_components(mesh, vals, c)

    # every crossed edge joins a component of the strict sublevel graph to
    # one of the strict superlevel graph, and all edges of one level cycle
    # join the same pair; the requested cycle's pair holds the edge's ends
    u, v = mesh.edge_pairs.T
    above = vals > c
    crossed = np.flatnonzero(above[u] != above[v])
    a, b = u[crossed], v[crossed]
    low, high = np.where(above[a], b, a), np.where(above[a], a, b)
    hits = np.flatnonzero((levels[low] == levels[lo_rep]) & (levels[high] == levels[hi_rep]))
    if not len(hits):
        raise InternalInconsistency("no level component matches the requested edge")
    start = int(hits[0])

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
