"""Triangulated surfaces: combinatorial adjacency, manifold validation, and
cutting a sphere along a regular level cycle into two disks.

Coordinates are carried for export only; every check and construction in this
module is purely combinatorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

__all__ = [
    "components",
    "distinct",
    "TriangleMesh",
    "SurfaceReport",
    "LevelCycle",
    "CutPiece",
    "validate_surface",
    "check_level_cycle",
    "cut_along_cycle",
]

from .errors import (
    CutNotSeparating,
    CycleNotLevel,
    DegenerateTriangle,
    NonManifoldEdge,
    NonOrientable,
    PinchedVertex,
)

if TYPE_CHECKING:  # pragma: no cover
    from .field import ScalarField


def components(n: int, u, v) -> np.ndarray:
    """Connected components of the graph on nodes ``0 .. n-1`` with edges
    ``(u[i], v[i])``; each node is labelled with the smallest node of its
    component.

    Min-label propagation with pointer jumping: every round carries the edges
    to their endpoints' roots, drops those inside one component and hooks
    the larger root of each other edge under the smaller (any one of them,
    so labels only fall); every node then jumps to its root.  Rounds repeat
    until no edge joins two roots.
    """
    label = np.arange(n)
    u = np.asarray(u, dtype=np.intp)
    v = np.asarray(v, dtype=np.intp)
    while True:
        u, v = label[u], label[v]
        apart = u != v
        if not apart.any():
            return label
        u, v = u[apart], v[apart]
        label[np.maximum(u, v)] = np.minimum(u, v)
        jumped = label[label]
        while not (jumped == label).all():
            label, jumped = jumped, jumped[jumped]


def distinct(a) -> np.ndarray:
    """The sorted distinct values of an array, as ``np.unique(a)``.

    Plain ``np.unique`` imports ``numpy.ma``, which adds about 1.3 MB of
    resident memory.
    """
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _triangle_array(triangles) -> np.ndarray:
    """``triangles`` as a (T, 3) int array; ValueError unless it is a (T, 3)
    list of integers."""
    tris = np.asarray(triangles)
    if tris.size == 0:
        raise ValueError("empty triangle list")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise ValueError(f"triangles must be a (T, 3) list, got shape {tris.shape}")
    if tris.dtype.kind not in "iu" or (
            # numpy turns booleans among ints into ints without a trace
            not isinstance(triangles, np.ndarray)
            and not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(triangles)))):
        raise ValueError("triangle vertex indices must be integers")
    return tris.astype(np.intp, copy=False)


def _next_corner(k):
    """The corner after corner ``k`` in its triangle."""
    return k - k % 3 + (k + 1) % 3


class TriangleMesh:
    """Triangle mesh with its edge table and boundary cycles held in int arrays.

    Construction validates the local manifold structure: every edge must lie
    in one or two triangles, and every vertex link must be a single cycle
    (interior vertex) or a single path (boundary vertex).  Degenerate
    triangles are rejected, never repaired.

    Side ``k`` of the mesh is side ``k % 3`` of triangle ``k // 3``, running
    from its corner ``k`` to the next corner; corner ``k`` sits at vertex
    ``triangles.flat[k]``.

    - ``edge_pairs`` (E, 2): the edges as ascending vertex pairs, sorted;
    - ``edge_triangles`` (E, 2): the triangles of each edge in ascending
      order, with -1 in place of the second on a boundary edge;
    - ``boundary_edges`` (B, 2): the rows of ``edge_pairs`` that lie in one
      triangle;
    - ``corner_links`` (K, 2): the pairs of corners at one vertex that are
      glued across an interior edge.  The corners of a vertex form one
      component of this graph exactly when its link is connected.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.size == 0:
            raise ValueError("empty vertex list")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be an (n, 3) array, got shape {self.vertices.shape}")
        nv = len(self.vertices)
        tris = _triangle_array(triangles)
        if tris.min() < 0 or tris.max() >= nv or any(
                np.any(tris[:, i] == tris[:, i - 1]) for i in range(3)):
            for t in map(tuple, tris.tolist()):  # report the first bad triangle
                if len(set(t)) != 3:
                    raise DegenerateTriangle(f"triangle {t} repeats a vertex")
                if min(t) < 0 or max(t) >= nv:
                    raise ValueError(f"triangle {t} references a missing vertex")
        self.triangles = tris
        self._build_edges()
        self._check_links()
        self._build_boundary_cycles()

    # ------------------------------------------------------------------
    # derived structure

    def _build_edges(self):
        tris, nv = self.triangles, self.n_vertices
        heads = tris.ravel()
        tails = tris[:, [1, 2, 0]].ravel()
        key = np.minimum(heads, tails) * nv + np.maximum(heads, tails)
        by_edge = np.argsort(key, kind="stable")  # sides grouped by edge, in side order
        key = key[by_edge]
        first = np.ones(len(key) + 1, dtype=bool)  # side opens an edge; a sentinel
        np.not_equal(key[1:], key[:-1], out=first[1:-1])
        start = np.flatnonzero(first)  # of each edge in by_edge, then len(key)
        counts = start[1:] - start[:-1]
        start = start[:-1]
        if counts.max() > 2:
            # report the edge a walk over the triangles meets first
            e = min(np.flatnonzero(counts > 2).tolist(), key=lambda e: by_edge[start[e]])
            pair = tuple(divmod(int(key[start[e]]), nv))
            raise NonManifoldEdge(f"edge {pair} lies in {counts[e]} triangles")
        inner = np.flatnonzero(counts - 1)
        p, q = by_edge[start[inner]], by_edge[start[inner] + 1]
        key = key[start]
        self.edge_pairs = np.empty((len(start), 2), dtype=np.intp)
        np.divmod(key, nv, out=(self.edge_pairs[:, 0], self.edge_pairs[:, 1]))
        self.edge_triangles = np.full((len(start), 2), -1)
        self.edge_triangles[:, 0] = by_edge[start] // 3
        self.edge_triangles[inner, 1] = q // 3
        self.boundary_edges = self.edge_pairs[counts == 1]

        same_way = heads[p] == heads[q]
        self._interior_sides = (p, q, same_way)
        self._orientable = None if same_way.any() else True  # None: labelled on demand

    @property
    def corner_links(self) -> np.ndarray:
        # made when read, not kept.  The corners at each end of an interior
        # edge are glued; its sides p and q run opposite ways unless the
        # winding flips across it, and then q's corner at p's head is q
        p, q, same_way = self._interior_sides
        m = len(p)
        links = np.empty((2 * m, 2), dtype=np.intp)
        links[:m, 0] = p
        links[m:, 0] = _next_corner(p)
        links[:m, 1] = np.where(same_way, q, _next_corner(q))
        links[m:, 1] = np.where(same_way, _next_corner(q), q)
        return links

    def _check_links(self):
        """Raise PinchedVertex unless every link is one cycle or one path.

        With every edge in one or two triangles, a link is a cycle or a path
        exactly when its corners form one component of the corner graph and
        it has zero or two loose ends, its boundary edges.
        """
        nv, nc = self.n_vertices, 3 * self.n_triangles
        label = components(nc, *self.corner_links.T)
        roots = np.flatnonzero(np.bincount(label, minlength=nc))
        fans = np.bincount(self.triangles.ravel()[roots], minlength=nv)
        ends = np.bincount(self.boundary_edges.ravel(), minlength=nv)
        if fans.min() != 1 or fans.max() != 1 or ends.max() > 2 or np.any(ends % 2):
            for v, (fan, end) in enumerate(zip(fans.tolist(), ends.tolist())):
                if fan == 0:
                    raise PinchedVertex(f"vertex {v} has no incident triangle")
                if end not in (0, 2):
                    raise PinchedVertex(f"link of vertex {v} has {end} loose ends")
                if fan > 1:
                    raise PinchedVertex(f"link of vertex {v} is disconnected")
        self.is_boundary_vertex = ends > 0

    def _build_boundary_cycles(self):
        """Boundary cycles, each starting along its smallest edge.

        Every boundary vertex has exactly two boundary neighbours (checked by
        ``_check_links``), so each walk is forced.
        """
        along: dict[int, list[int]] = {}
        for u, v in self.boundary_edges.tolist():
            along.setdefault(u, []).append(v)
            along.setdefault(v, []).append(u)
        cycles = []
        seen = set()
        for u, v in self.boundary_edges.tolist():  # sorted edges
            if u in seen:
                continue
            cyc = [u, v]
            while True:
                a, b = along[cyc[-1]]
                nxt = b if a == cyc[-2] else a
                if nxt == u:
                    break
                cyc.append(nxt)
            seen.update(cyc)
            cycles.append(cyc)
        self.boundary_cycles = cycles

    # ------------------------------------------------------------------
    # queries

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_pairs)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def closed(self) -> bool:
        return not self.boundary_cycles

    def check_orientable(self) -> bool:
        """True when triangles admit a globally consistent winding.

        The given winding is consistent when every interior edge runs
        opposite ways in its two triangles.  Otherwise a consistent winding
        exists exactly when no triangle is joined to its own flip on the
        double cover, whose nodes t and t + T are triangle t kept and flipped.
        """
        if self._orientable is None:
            p, q, same_way = self._interior_sides
            nt = self.n_triangles
            s, t, flip = p // 3, q // 3, same_way * nt
            label = components(2 * nt, np.concatenate((s, s + nt)),
                               np.concatenate((t + flip, t + nt - flip)))
            self._orientable = not np.any(label[:nt] == label[nt:])
        return self._orientable


@dataclass(frozen=True)
class SurfaceReport:
    """Validation summary of a triangulated surface."""

    closed: bool
    orientable: bool
    genus: int
    boundary_count: int
    euler: int
    connected: bool
    vertex_count: int
    edge_count: int
    triangle_count: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def validate_surface(mesh: TriangleMesh, parts=None):
    """Validate manifold structure and summarize the surface topology.

    Local structure (edge multiplicity, vertex links) is already checked by
    the ``TriangleMesh`` constructor; this adds the global orientability
    check and the Euler bookkeeping.  Raises ``NonOrientable`` when no
    consistent winding exists.

    With ``parts``, one report per part of a disjoint union whose part ``i``
    holds the vertices ``parts[i]`` to ``parts[i + 1] - 1``.
    """
    if not mesh.check_orientable():
        raise NonOrientable("triangles admit no consistent winding")
    n = mesh.n_vertices
    bounds = [0, n] if parts is None else parts
    part_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    roots = components(n, *mesh.edge_pairs.T) == np.arange(n)
    counts = [np.bincount(part_of[at], minlength=len(bounds) - 1).tolist()
              for at in (mesh.edge_pairs[:, 0], mesh.triangles[:, 0], roots,
                         [cycle[0] for cycle in mesh.boundary_cycles])]
    reports = []
    for v, e, t, ncomp, boundary_count in zip(np.diff(bounds).tolist(), *counts):
        euler = v - e + t
        reports.append(SurfaceReport(
            closed=boundary_count == 0,
            orientable=True,
            genus=(2 * ncomp - euler - boundary_count) // 2,  # 2 per sphere
            boundary_count=boundary_count,
            euler=euler,
            connected=ncomp == 1,
            vertex_count=v,
            edge_count=e,
            triangle_count=t,
        ))
    return reports[0] if parts is None else reports


@dataclass(frozen=True)
class LevelCycle:
    """A simple closed curve of a regular level set, stored as the ordered
    list of crossed mesh edges with interpolation parameters.

    The parameter of a crossing on edge ``(u, v)`` (ascending vertex index)
    is ``t = (value - f(u)) / (f(v) - f(u))``, strictly inside (0, 1).
    """

    crossings: tuple[tuple[int, float], ...]  # (edge id, t)
    closed: bool
    value: float

    def __len__(self) -> int:
        return len(self.crossings)


def overflow_scale(*values: float) -> float:
    """0.5 where a value reaches 2**1023, so that the difference or sum of
    two halved values stays finite, and 1.0 otherwise, so that every other
    result keeps its bits; halving a value of that size is exact."""
    return 0.5 if max(map(abs, values)) >= 2.0 ** 1023 else 1.0


def crossing_parameter(c: float, fu: float, fv: float) -> float:
    """``(c - fu) / (fv - fu)``, on halved values where they could overflow."""
    s = overflow_scale(fu, fv)
    return (c * s - fu * s) / (fv * s - fu * s)


def check_level_cycle(mesh: TriangleMesh, values, cycle: LevelCycle) -> list[int]:
    """Validate a level cycle against a mesh and value array.

    Returns the list of crossed triangles, aligned with consecutive crossing
    pairs (triangle ``i`` is shared by crossings ``i`` and ``i+1``).
    """
    values = np.asarray(values, dtype=float)
    c = cycle.value
    if np.any(values == c):
        raise CycleNotLevel(f"a vertex has value exactly {c}")
    if not cycle.closed or len(cycle) < 3:
        raise CycleNotLevel("cycle must be closed with at least three crossings")
    eids = [e for e, _ in cycle.crossings]
    if len(set(eids)) != len(eids):
        raise CycleNotLevel("cycle crosses a mesh edge twice")
    ends = mesh.edge_pairs[eids]
    for (_, t), (u, v), (fu, fv) in zip(cycle.crossings, ends.tolist(), values[ends].tolist()):
        if not (min(fu, fv) < c < max(fu, fv)):
            raise CycleNotLevel(f"edge {(u, v)} does not straddle {c}")
        if not (0.0 < t < 1.0) or abs(t - crossing_parameter(c, fu, fv)) > 1e-9:
            raise CycleNotLevel(f"parameter {t} inconsistent on edge {(u, v)}")
    sides = [set(ts) - {-1} for ts in mesh.edge_triangles[eids].tolist()]
    tris = []
    for i in range(len(eids)):
        shared = sides[i] & sides[(i + 1) % len(eids)]
        if len(shared) != 1:
            raise CycleNotLevel("consecutive crossings do not share one triangle")
        tris.append(shared.pop())
    if len(set(tris)) != len(tris):
        raise CycleNotLevel("cycle passes through a triangle twice")
    return tris


@dataclass(frozen=True)
class CutPiece:
    """One side of a cut sphere: a disk with its restricted field.

    ``mesh`` is built from the arrays ``vertices`` and ``triangles`` when read.
    ``orig_vertex[i]`` is the source vertex of piece vertex ``i``, or -1 for a
    vertex created on the cut.  ``boundary`` lists the new boundary vertices
    in cycle order.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    field: "ScalarField"
    orig_vertex: np.ndarray
    boundary: tuple[int, ...]

    @cached_property
    def mesh(self) -> TriangleMesh:
        return TriangleMesh(self.vertices, self.triangles)


def cut_along_cycle(mesh: TriangleMesh, field: "ScalarField",
                    cycle: LevelCycle) -> tuple[CutPiece, CutPiece]:
    """Cut a closed sphere along a regular level cycle into two disks.

    Every crossed edge is split at its interpolation point and every crossed
    triangle is retriangulated into the piece holding its lone vertex (one
    triangle) and the piece holding the opposite pair (a quad, split
    deterministically from the first cut point).  New boundary vertices carry
    the cut value exactly; both pieces receive their own copy of the cut
    polygon.
    """
    from .field import ScalarField  # local import to avoid a module cycle

    values = np.asarray(field.values, dtype=float)
    c = cycle.value
    crossed_tris = check_level_cycle(mesh, values, cycle)
    if not mesh.closed:
        raise CycleNotLevel("cut requires a closed surface")

    nv, nt = mesh.n_vertices, mesh.n_triangles
    ncross = len(cycle)
    eids = [e for e, _ in cycle.crossings]
    ends = mesh.edge_pairs[eids]
    # crossed triangle i lies between crossings i and i + 1, which sit on
    # its two sides at its lone vertex, the apex.  Crossing vertex i is
    # numbered nv + i until the pieces are renumbered; p1 is the one on side
    # (apex, a), p2 the one on side (b, apex).  The triangle becomes the apex
    # triangle (apex, p1, p2) and the quad split from p1 as (p1, a, b),
    # (p1, b, p2).
    cut_rows = []
    pairs = ends.tolist()
    for i, tri in enumerate(mesh.triangles[crossed_tris].tolist()):
        e1, e2 = pairs[i], pairs[(i + 1) % ncross]
        k = tri.index((set(e1) & set(e2)).pop())
        apex, a, b = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        p1, p2 = nv + i, nv + (i + 1) % ncross
        if a not in e1:
            p1, p2 = p2, p1
        cut_rows += [(apex, p1, p2), (p1, a, b), (p1, b, p2)]

    # on a sphere the cycle separates exactly its crossed edges: the pieces
    # are the components of the vertex graph without them
    kept = np.ones(mesh.n_edges, dtype=bool)
    kept[eids] = False
    label = components(nv, mesh.edge_pairs[kept, 0], mesh.edge_pairs[kept, 1])
    roots = np.flatnonzero(np.bincount(label))
    if len(roots) != 2:
        raise CutNotSeparating(f"cut produced {len(roots)} pieces")

    # new triangles in triangle order, a crossed triangle's three rows in
    # its place; each row goes to the piece of its first original corner
    crossed = np.zeros(nt, dtype=np.intp)
    crossed[crossed_tris] = 1
    first_row = np.arange(nt) + 2 * (np.cumsum(crossed) - crossed)
    new_tris = np.empty((nt + 2 * ncross, 3), dtype=np.intp)
    plain = np.flatnonzero(crossed == 0)
    new_tris[first_row[plain]] = mesh.triangles[plain]
    new_tris[(first_row[crossed_tris, None] + [0, 1, 2]).ravel()] = cut_rows
    tri_piece = label[np.where(new_tris[:, 0] < nv, new_tris[:, 0], new_tris[:, 1])]

    ts = np.array([t for _, t in cycle.crossings])[:, None]
    coords = np.concatenate((mesh.vertices, (1.0 - ts) * mesh.vertices[ends[:, 0]]
                             + ts * mesh.vertices[ends[:, 1]]))
    vals = np.concatenate((values, np.full(ncross, c)))
    pieces = []
    for root in roots:
        # original vertices first, in ascending order, then the crossings in
        # cycle order
        orig = np.flatnonzero(label == root)
        used = np.concatenate((orig, np.arange(nv, nv + ncross)))
        renumber = np.empty(nv + ncross, dtype=np.intp)
        renumber[used] = np.arange(len(used))
        pieces.append(CutPiece(
            vertices=coords[used],
            triangles=renumber[new_tris[tri_piece == root]],
            field=ScalarField(vals[used]),
            orig_vertex=np.concatenate((orig, np.full(ncross, -1))),
            boundary=tuple(range(len(orig), len(used))),
        ))

    u0, v0 = pairs[0]
    below_first = u0 if values[u0] < c else v0
    if not (pieces[0].orig_vertex == below_first).any():
        pieces.reverse()
    return pieces[0], pieces[1]
