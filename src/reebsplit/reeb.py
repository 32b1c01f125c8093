"""Level-set tree (Kronrod-Reeb graph) construction for genus-0 surfaces.

The construction peels the join and split trees of two union-find sweeps,
one ascending and one descending, into the contour tree.  On a sphere (or
disk with constant regular boundary) the contour tree equals the quotient of
the surface by connected components of level sets, so no general-genus
machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    EdgeNotFound,
    GenusNotZero,
    InternalInconsistency,
    InvalidFieldClass,
    ValueCollision,
)
from .field import FieldClassReport, ScalarField, classify_field
from .mesh import LevelCycle, SurfaceReport, TriangleMesh, components, validate_surface


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
    """Labeled tree of level-set components with mesh preimage bookkeeping."""

    def __init__(self, vertices: list[ReebVertex], edges: list[ReebEdge]):
        self.vertices = vertices
        self.edges = edges
        self.down_edges = [[] for _ in vertices]
        self.up_edges = [[] for _ in vertices]
        for e in edges:
            self.up_edges[e.lower].append(e.id)
            self.down_edges[e.upper].append(e.id)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, vid: int) -> int:
        return len(self.down_edges[vid]) + len(self.up_edges[vid])

    def leaves(self) -> list[int]:
        return [v.id for v in self.vertices if self.degree(v.id) == 1]

    def is_tree(self) -> bool:
        if self.n_edges != self.n_vertices - 1:
            return False
        seen = [False] * self.n_vertices
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for eid in self.up_edges[v] + self.down_edges[v]:
                e = self.edges[eid]
                w = e.upper if e.lower == v else e.lower
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.n_vertices

    def edge_between(self, a: int, b: int) -> int | None:
        for eid in self.up_edges[a]:
            if self.edges[eid].upper == b:
                return eid
        for eid in self.down_edges[a]:
            if self.edges[eid].lower == b:
                return eid
        return None

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
    ``indices`` are the graph's CSR adjacency.  Returns the arcs as
    (lower, upper) node pairs.

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
    order = np.argsort(values, kind="stable")
    live = [True] * n
    # every node starts as a candidate; a peel adds the node that lost a child
    stack = list(range(n))

    def tree(sweep):
        """Parents and child counts of the merge forest of one sweep."""
        parent = kernels.merge_forest(sweep, indptr, indices)
        return parent.tolist(), np.bincount(parent[parent >= 0], minlength=n).tolist()

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


def _tree_from_sweeps(values, indptr, indices, kinds, mults,
                      members) -> tuple[list[ReebVertex], list[ReebEdge]]:
    """Contour tree of a node graph with degree-2 regular nodes suppressed.

    ``indptr`` and ``indices`` are the graph's CSR adjacency; ``members``
    expands each node back to its mesh vertices for preimage
    bookkeeping.  Raises InvalidFieldClass when a surviving edge fails to
    increase the label strictly, which happens exactly when two critical
    components share a level component.
    """
    nz = len(values)
    down = [[] for _ in range(nz)]
    up = [[] for _ in range(nz)]
    for lo, hi in _contour_tree(values, indptr, indices):
        up[lo].append(hi)
        down[hi].append(lo)

    # every regular node must be a plain chain link, and only those go
    for z in range(nz):
        if kinds[z] == "regular" and not len(down[z]) == len(up[z]) == 1:
            raise InternalInconsistency(
                f"regular component {z} has tree degree {len(down[z]) + len(up[z])}")
    keep = [z for z in range(nz) if kinds[z] != "regular"]

    vid_of = {}
    vertices = []
    for i, z in enumerate(sorted(keep, key=values.__getitem__)):
        vid_of[z] = i
        vertices.append(ReebVertex(
            id=i, label=values[z], kind=kinds[z], multiplicity=mults[z],
            preimage=tuple(members[z])))

    raw_edges = []
    for z in keep:
        for cur in up[z]:
            chain = []
            while cur not in vid_of:
                chain.extend(members[cur])
                cur = up[cur][0]
            lo, hi = vid_of[z], vid_of[cur]
            if not vertices[lo].label < vertices[hi].label:
                raise InvalidFieldClass(
                    "two critical components share one level value on a "
                    "common level component")
            raw_edges.append((lo, hi, tuple(sorted(chain))))

    raw_edges.sort(key=lambda t: ((vertices[t[0]].label, t[0]),
                                  (vertices[t[1]].label, t[1])))
    edges = [ReebEdge(id=i, lower=lo, upper=hi, preimage=pre)
             for i, (lo, hi, pre) in enumerate(raw_edges)]
    return vertices, edges


def build_reeb(mesh: TriangleMesh, field: ScalarField, *,
               surface: SurfaceReport | None = None,
               fclass: FieldClassReport | None = None) -> ReebGraph:
    """Build the level-set tree of a field on a genus-0 surface.

    Flat zones (only whole constant boundary cycles are admissible) are
    contracted to single nodes first; the two sweeps then run over the
    contracted adjacency.  Chain nodes that are regular and of degree two are
    suppressed, so the result keeps exactly the critical components and the
    boundary components as vertices.  Every edge strictly increases the
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
    graph = ReebGraph(vertices, edges)

    if not graph.is_tree():
        raise GenusNotZero("level-set graph is not a tree")
    for v in graph.vertices:
        deg = graph.degree(v.id)
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
