"""Triangulated surfaces: combinatorial adjacency, manifold validation, and
cutting a sphere along a regular level cycle into two disks.

Coordinates are carried for export only; every check and construction in this
module is purely combinatorial, and a cut piece has none.
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
    "level_components",
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
        label = _jump(label)


def _jump(pointer: np.ndarray) -> np.ndarray:
    """Where each node ends when ``pointer`` is followed to a fixed point,
    by pointer jumping."""
    while True:
        jumped = pointer[pointer]
        if (jumped == pointer).all():
            return pointer
        pointer = jumped


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
    array or list of integers.  A list is read through one flat list of its
    rows' entries, which numpy converts far faster than nested rows."""
    if isinstance(triangles, np.ndarray):
        tris = triangles
    elif (isinstance(triangles, (list, tuple))
          and {list, tuple, np.ndarray}.issuperset(map(type, triangles))
          and {3}.issuperset(map(len, triangles))):
        flat = list(chain.from_iterable(triangles))
        tris = np.array(flat)
        # numpy turns booleans among ints into ints without a trace, and
        # equal-length lists among the entries into a further axis
        if tris.ndim != 1 or not {bool, np.bool_}.isdisjoint(map(type, flat)):
            raise ValueError("triangle vertex indices must be integers")
        tris = tris.reshape(-1, 3)
    else:
        raise ValueError("triangles must be a (T, 3) list of rows")
    if tris.size == 0:
        raise ValueError("empty triangle list")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise ValueError(f"triangles must be a (T, 3) list, got shape {tris.shape}")
    if tris.dtype.kind not in "iu":
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
      order, with -1 in place of the second on a boundary edge; read off the
      edge sort on first read;
    - ``boundary_edges`` (B, 2): the rows of ``edge_pairs`` that lie in one
      triangle;
    - ``boundary_label`` (n,): each boundary vertex labelled with the
      smallest vertex of its boundary cycle, that cycle's label, and every
      other vertex with itself;
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
        # every boundary vertex has exactly two boundary neighbours (checked
        # by _check_links), so each component of the boundary edges is one
        # cycle; a closed mesh has none to label
        self.boundary_label = (components(nv, *self.boundary_edges.T)
                               if len(self.boundary_edges) else np.arange(nv))

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
        first_side = by_edge[start]  # of each edge
        q = by_edge[start[inner] + 1]  # of each interior edge, its second side
        key = key[start]
        self.edge_pairs = np.empty((len(start), 2), dtype=np.intp)
        np.divmod(key, nv, out=(self.edge_pairs[:, 0], self.edge_pairs[:, 1]))
        self.boundary_edges = self.edge_pairs[counts == 1]

        same_way = heads[first_side[inner]] == heads[q]
        self._edge_sides = (first_side, inner, q, same_way)
        self._orientable = None if same_way.any() else True  # None: labelled on demand

    @cached_property
    def edge_triangles(self) -> np.ndarray:
        # made on first read, which only a sphere's level cycles make, and
        # kept.  The edge sort put each edge's sides together in side order:
        # its first side's triangle, and an interior edge's second side's
        first_side, inner, q, _ = self._edge_sides
        tris = np.full((self.n_edges, 2), -1)
        tris[:, 0] = first_side // 3
        tris[inner, 1] = q // 3
        return tris

    @property
    def corner_links(self) -> np.ndarray:
        # made when read, not kept.  The corners at each end of an interior
        # edge are glued; its sides p and q run opposite ways unless the
        # winding flips across it, and then q's corner at p's head is q
        first_side, inner, q, same_way = self._edge_sides
        p = first_side[inner]
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
        return not len(self.boundary_edges)

    @property
    def boundary_heads(self) -> np.ndarray:
        """The label of each boundary cycle, its smallest vertex, ascending."""
        return np.flatnonzero(self.is_boundary_vertex
                              & (self.boundary_label == np.arange(self.n_vertices)))

    def check_orientable(self) -> bool:
        """True when triangles admit a globally consistent winding.

        The given winding is consistent when every interior edge runs
        opposite ways in its two triangles.  Otherwise a consistent winding
        exists exactly when no triangle is joined to its own flip on the
        double cover, whose nodes t and t + T are triangle t kept and flipped.
        """
        if self._orientable is None:
            first_side, inner, q, same_way = self._edge_sides
            nt = self.n_triangles
            s, t, flip = first_side[inner] // 3, q // 3, same_way * nt
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
                         mesh.boundary_heads)]
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


def disconnection(mesh: TriangleMesh, start: int, stop: int) -> str:
    """Why vertices ``start`` to ``stop - 1`` are no connected surface: the
    smallest vertex of each of the two components whose smallest vertices
    come first, numbered from ``start``."""
    label = components(mesh.n_vertices, *mesh.edge_pairs.T)[start:stop]
    a, b = np.flatnonzero(label == np.arange(start, stop))[:2].tolist()
    return f"a disconnected surface: vertices {a} and {b} lie in different components"


@dataclass(frozen=True)
class LevelCycle:
    """A simple closed curve of a regular level set: its value and the mesh
    edges it crosses in walk order, consecutive ones (and the last and the
    first) sharing a triangle.  ``cut_along_cycle`` places the crossings."""

    edges: tuple[int, ...]
    value: float

    def __len__(self) -> int:
        return len(self.edges)


def overflow_scale(*values: float) -> float:
    """0.5 where a value reaches 2**1023, so that the difference or sum of
    two halved values stays finite, and 1.0 otherwise, so that every other
    result keeps its bits; halving a value of that size is exact."""
    return 0.5 if max(map(abs, values)) >= 2.0 ** 1023 else 1.0


def check_level_cycle(mesh: TriangleMesh, values, cycle: LevelCycle) -> np.ndarray:
    """Validate a level cycle against a mesh and value array, and return the
    crossed triangles: triangle ``i`` is shared by crossings ``i`` and ``i+1``.

    No triangle is crossed twice: it has at most two sides across the value,
    so a second pair in it needs the edges x, y, x, which distinct edges and
    at least three crossings exclude.
    """
    values = np.asarray(values, dtype=float)
    c = cycle.value
    eids = np.asarray(cycle.edges, dtype=np.intp)
    if np.any(values == c):
        raise CycleNotLevel(f"a vertex has value exactly {c}")
    if len(eids) < 3:
        raise CycleNotLevel("cycle needs at least three crossings")
    ordered = np.sort(eids)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(twice):
        u, v = mesh.edge_pairs[twice[0]].tolist()
        raise CycleNotLevel(f"cycle crosses a mesh edge twice: edge {(u, v)}")
    straddles = np.not_equal(*(values[mesh.edge_pairs[eids]] < c).T)
    if not straddles.all():
        u, v = mesh.edge_pairs[eids[np.argmin(straddles)]].tolist()
        raise CycleNotLevel(f"edge {(u, v)} does not straddle {c}")
    tris = mesh.edge_triangles[eids]
    # shared[i, j, k]: triangle j of crossing i is triangle k of crossing i + 1
    shared = ((tris[:, :, None] == np.roll(tris, -1, axis=0)[:, None, :])
              & (tris[:, :, None] >= 0))
    apart = shared.sum(axis=(1, 2)) != 1
    if apart.any():
        i = int(np.argmax(apart))
        e, f = mesh.edge_pairs[eids[[i, (i + 1) % len(eids)]]].tolist()
        raise CycleNotLevel(f"consecutive crossings do not share one triangle: "
                            f"edges {tuple(e)} and {tuple(f)}")
    return tris[shared.any(axis=2)]


@dataclass(frozen=True)
class CutPiece:
    """One side of a cut sphere: a disk with its restricted field.

    A piece holds no coordinates: ``mesh`` is built from ``triangles`` when
    read, over a zero-stride origin array.  ``orig_vertex[i]`` is the source
    vertex of piece vertex ``i``, or -1 for a vertex created on the cut.
    ``boundary`` lists the new boundary vertices in cycle order.
    """

    triangles: np.ndarray
    field: "ScalarField"
    orig_vertex: np.ndarray
    boundary: tuple[int, ...]

    @cached_property
    def mesh(self) -> TriangleMesh:
        return TriangleMesh(np.broadcast_to(0.0, (len(self.field), 3)), self.triangles)


def level_components(mesh: TriangleMesh, values, c: float) -> np.ndarray:
    """Each vertex labelled with the smallest vertex of its component in the
    vertex graph without the edges that cross level ``c``: the components
    of the strict sublevel and strict superlevel graphs in one labelling."""
    u, v = mesh.edge_pairs.T
    above = np.asarray(values) > c
    level = above[u] == above[v]
    return components(mesh.n_vertices, u[level], v[level])


def _cut_sides(mesh: TriangleMesh, values: np.ndarray, cycle: LevelCycle,
               levels: np.ndarray) -> np.ndarray:
    """Each vertex labelled with the smallest vertex of its piece of the cut
    along ``cycle``, whose ``level_components`` are ``levels``;
    CutNotSeparating unless there are two pieces.

    On a sphere the cycle separates exactly its crossed edges: the pieces
    are the components of the vertex graph without them, which are the
    level components joined by the crossed edges off the cycle.  Those are
    labelled on the level components alone, numbered in vertex order.
    """
    nv = mesh.n_vertices
    u, v = mesh.edge_pairs.T
    above = values > cycle.value
    off = above[u] != above[v]
    off[list(cycle.edges)] = False
    heads = np.flatnonzero(levels == np.arange(nv))
    node = np.empty(nv, dtype=np.intp)
    node[heads] = np.arange(len(heads))
    joined = heads[components(len(heads), node[levels[u[off]]], node[levels[v[off]]])]
    roots = distinct(joined).tolist()
    if len(roots) != 2:
        raise CutNotSeparating(f"cut produced {len(roots)} pieces, whose "
                               f"smallest vertices are {roots}")
    return joined[node[levels]]


def cut_along_cycle(mesh: TriangleMesh, field: "ScalarField", cycle: LevelCycle, *,
                    levels: np.ndarray | None = None) -> tuple[CutPiece, CutPiece]:
    """Cut a closed sphere along a regular level cycle into two disks.

    Every crossed edge gets one new vertex and every crossed triangle is
    retriangulated into the piece holding its lone vertex (one triangle) and
    the piece holding the opposite pair (a quad, split deterministically from
    the first cut point).  New boundary vertices carry the cut value exactly
    and no coordinates; both pieces receive their own copy of the cut
    polygon.

    ``levels`` passes in ``level_components(mesh, field.values,
    cycle.value)`` when the caller already has it.
    """
    from .field import ScalarField  # local import to avoid a module cycle

    values = np.asarray(field.values, dtype=float)
    c = cycle.value
    crossed_tris = check_level_cycle(mesh, values, cycle)
    if not mesh.closed:
        raise CycleNotLevel("cut requires a closed surface")
    if levels is None:
        levels = level_components(mesh, values, c)

    nv, nt = mesh.n_vertices, mesh.n_triangles
    ncross = len(cycle)
    # crossed triangle i lies between crossings i and i + 1, which sit on
    # its two sides at its lone vertex, the apex.  Crossing vertex i is
    # numbered nv + i until the pieces are renumbered; p1 is the one on side
    # (apex, a), p2 the one on side (b, apex).  The triangle becomes the apex
    # triangle (apex, p1, p2) and the quad split from p1 as (p1, a, b),
    # (p1, b, p2).
    cut_rows = []
    pairs = mesh.edge_pairs[list(cycle.edges)].tolist()
    for i, tri in enumerate(mesh.triangles[crossed_tris].tolist()):
        e1, e2 = pairs[i], pairs[(i + 1) % ncross]
        k = tri.index((set(e1) & set(e2)).pop())
        apex, a, b = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        p1, p2 = nv + i, nv + (i + 1) % ncross
        if a not in e1:
            p1, p2 = p2, p1
        cut_rows += (apex, p1, p2, p1, a, b, p1, b, p2)

    # the first piece holds vertex 0; in_b marks the other's vertices
    in_b = _cut_sides(mesh, values, cycle, levels) != 0

    # the new triangles are the mesh's in triangle order, a crossed
    # triangle's three rows in its place: row r is row order[r] of the
    # mesh's triangles followed by the cut rows.  Each row goes to the
    # piece of its first original corner
    cut_rows = np.reshape(cut_rows, (-1, 3))
    rows = np.concatenate((mesh.triangles, cut_rows))
    lead = np.concatenate((mesh.triangles[:, 0],
                           np.where(cut_rows[:, 0] < nv, cut_rows[:, 0], cut_rows[:, 1])))
    crossed = np.zeros(nt, dtype=np.intp)
    crossed[crossed_tris] = 1
    first_row = np.arange(nt) + 2 * (np.cumsum(crossed) - crossed)
    order = np.empty(nt + 2 * ncross, dtype=np.intp)
    order[first_row] = np.arange(nt)
    order[(first_row[crossed_tris, None] + [0, 1, 2]).ravel()] = np.arange(nt, nt + 3 * ncross)
    row_in_b = in_b[lead][order]

    # a piece numbers its original vertices in ascending order, then the
    # crossings in cycle order: an original vertex's number counts the
    # vertices of its piece before it
    before_b = np.cumsum(in_b) - in_b
    pieces = []
    for mine, rows_of, rank in ((~in_b, order[~row_in_b], np.arange(nv) - before_b),
                                (in_b, order[row_in_b], before_b)):
        orig = np.flatnonzero(mine)
        renumber = np.concatenate((rank, np.arange(len(orig), len(orig) + ncross)))
        pieces.append(CutPiece(
            triangles=renumber[rows.take(rows_of, axis=0)],
            field=ScalarField(np.concatenate((values[orig], np.full(ncross, c)))),
            orig_vertex=np.concatenate((orig, np.full(ncross, -1))),
            boundary=tuple(range(len(orig), len(orig) + ncross)),
        ))

    u0, v0 = pairs[0]
    if in_b[u0 if values[u0] < c else v0]:
        pieces.reverse()
    return pieces[0], pieces[1]
