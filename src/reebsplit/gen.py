"""Constructing test surfaces: realize a labeled tree as the level-set tree
of a field on a sphere, plus canonical and random fixtures.

The realization builds one cap per leaf, one tube per edge, and one
multi-saddle gadget per internal vertex.  A gadget places a single saddle
vertex whose link alternates lower/upper exactly (down-degree + up-degree - 1)
times, so the saddle's multiplicity matches the tree degree and each tree
vertex owns exactly one critical component.  Tube rings carry small in-ring
value offsets so no two adjacent mesh vertices share a value; labels of
distinct tree vertices are copied exactly, including deliberate equal labels
on symmetric branches.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InvalidTree
from .field import ScalarField
from .mesh import TriangleMesh
from .treeaut import LabeledTree

RING_MARGIN = 0.2     # fraction of an edge's label span kept clear of each end
RING_JITTER = 0.25    # fraction of the spacing to the next ring used for offsets
INTERIOR_RINGS = 2    # plain rings inserted along every tube


def validate_realizable(tree: LabeledTree) -> None:
    """Check the leaf/saddle conditions that make a labeled tree realizable."""
    if tree.n < 2:
        raise InvalidTree("need at least one edge")
    for v in range(tree.n):
        nbrs = tree.adj[v]
        lower = sum(1 for w in nbrs if tree.labels[w] < tree.labels[v])
        upper = len(nbrs) - lower
        if len(nbrs) == 1:
            continue
        if lower == 0 or upper == 0:
            raise InvalidTree(f"internal vertex {v} has one-sided neighbours")
        if len(nbrs) < 3:
            raise InvalidTree(f"internal vertex {v} has degree {len(nbrs)}")


class _Builder:
    def __init__(self):
        self.coords: list[tuple[float, float, float]] = []
        self.values: list[float] = []
        self.tris: list[tuple[int, int, int]] = []

    def vertex(self, xyz, value) -> int:
        self.coords.append(tuple([float(c) for c in xyz]))
        self.values.append(float(value))
        return len(self.coords) - 1

    def triangle(self, a: int, b: int, c: int) -> None:
        self.tris.append((a, b, c))

    def ring(self, size: int, center, base_value: float, jitter: float) -> list[int]:
        ids = []
        for i in range(size):
            ang = 2.0 * np.pi * i / size
            xyz = (center[0] + np.cos(ang),
                   center[1] + np.sin(ang),
                   base_value)
            ids.append(self.vertex(xyz, base_value + jitter * i / size))
        return ids

    def annulus(self, lower: list[int], upper: list[int]) -> None:
        """Triangulated tube between two rings of possibly different size."""
        p, q = len(lower), len(upper)
        i = j = 0
        while i < p or j < q:
            if j >= q or (i < p and (i + 1) * q <= (j + 1) * p):
                self.triangle(lower[i % p], lower[(i + 1) % p], upper[j % q])
                i += 1
            else:
                self.triangle(lower[i % p], upper[(j + 1) % q], upper[j % q])
                j += 1

    def finish(self) -> tuple[TriangleMesh, ScalarField]:
        return (TriangleMesh(np.asarray(self.coords), self.tris),
                ScalarField(np.asarray(self.values)))


def _sector_word(a: int, b: int) -> list[tuple[str, int]]:
    """Cyclic sector pattern around a saddle joining ``a`` circles below to
    ``b`` circles above: the closed walk of a spanning tree on the incident
    regions, alternating down/up and of length 2(a + b - 1)."""
    word = []
    for j in range(1, b):
        word += [("d", 0), ("u", j)]
    word += [("d", 0), ("u", 0)]
    for i in range(1, a):
        word += [("d", i), ("u", 0)]
    return word


def realize_tree(tree: LabeledTree, resolution: int = 4
                 ) -> tuple[TriangleMesh, ScalarField]:
    """Build a closed genus-0 mesh and field whose level-set tree equals
    ``tree`` up to label-preserving isomorphism.

    ``resolution`` is the arc size: boundary rings of a saddle gadget have
    resolution times (number of sectors facing that tube) vertices, plain
    tube rings exactly ``resolution``.
    """
    validate_realizable(tree)
    if resolution < 3:
        raise InvalidTree("resolution must be at least 3")
    m = resolution
    labels = tree.labels

    down_edges: list[list[int]] = [[] for _ in range(tree.n)]
    up_edges: list[list[int]] = [[] for _ in range(tree.n)]
    for eid, (u, v) in enumerate(tree.edges):
        lo, hi = (u, v) if (labels[u], u) < (labels[v], v) else (v, u)
        up_edges[lo].append(eid)
        down_edges[hi].append(eid)

    def other_end(eid: int, v: int) -> int:
        a, b = tree.edges[eid]
        return b if a == v else a

    for v in range(tree.n):
        down_edges[v].sort(key=lambda e: (labels[other_end(e, v)], other_end(e, v)))
        up_edges[v].sort(key=lambda e: (labels[other_end(e, v)], other_end(e, v)))

    words: dict[int, list[tuple[str, int]]] = {}
    occurrences: dict[tuple[int, int], int] = {}  # (vertex, edge) -> sector count
    for v in range(tree.n):
        if tree.degree(v) == 1:
            continue
        a, b = len(down_edges[v]), len(up_edges[v])
        word = _sector_word(a, b)
        words[v] = word
        for side, idx in word:
            eid = down_edges[v][idx] if side == "d" else up_edges[v][idx]
            occurrences[(v, eid)] = occurrences.get((v, eid), 0) + 1

    # cosmetic layout: tree vertices spread on a line, tubes interpolate
    centers = [(3.0 * v, 0.0) for v in range(tree.n)]

    builder = _Builder()

    # one ring stack per edge, bottom to top
    edge_rings: dict[int, list[list[int]]] = {}
    for eid, (u, v) in enumerate(tree.edges):
        lo, hi = (u, v) if (labels[u], u) < (labels[v], v) else (v, u)
        low_l, high_l = labels[lo], labels[hi]
        gap = high_l - low_l
        size_bot = m * occurrences.get((lo, eid), 1)
        size_top = m * occurrences.get((hi, eid), 1)
        bases = list(np.linspace(low_l + RING_MARGIN * gap,
                                 high_l - RING_MARGIN * gap,
                                 INTERIOR_RINGS + 2))
        sizes = [size_bot] + [m] * INTERIOR_RINGS + [size_top]
        rings = []
        for i, (base, size) in enumerate(zip(bases, sizes)):
            spacing = (bases[i + 1] - base) if i + 1 < len(bases) else (high_l - base)
            frac = (i + 1) / (len(bases) + 1)
            cx = centers[lo][0] + frac * (centers[hi][0] - centers[lo][0])
            cy = centers[lo][1] + frac * (centers[hi][1] - centers[lo][1])
            rings.append(builder.ring(size, (cx, cy), base, RING_JITTER * spacing))
        for i in range(len(rings) - 1):
            builder.annulus(rings[i], rings[i + 1])
        edge_rings[eid] = rings

    for v in range(tree.n):
        cx, cy = centers[v]
        if tree.degree(v) == 1:
            eid = (up_edges[v] or down_edges[v])[0]
            apex = builder.vertex((cx, cy, labels[v]), labels[v])
            if up_edges[v]:  # minimum: cap below the tube's bottom ring
                ring = edge_rings[eid][0]
                for i in range(len(ring)):
                    builder.triangle(apex, ring[(i + 1) % len(ring)], ring[i])
            else:            # maximum: cap above the top ring
                ring = edge_rings[eid][-1]
                for i in range(len(ring)):
                    builder.triangle(apex, ring[i], ring[(i + 1) % len(ring)])
            continue

        word = words[v]
        saddle = builder.vertex((cx, cy, labels[v]), labels[v])
        # slice each incident ring into equal arcs, one per sector occurrence
        seen: dict[tuple[str, int], int] = {}
        arcs: list[list[int]] = []
        ring_slots: dict[tuple[str, int], list[int]] = {}
        for pos, (side, idx) in enumerate(word):
            if side == "d":
                eid = down_edges[v][idx]
                ring = edge_rings[eid][-1]
            else:
                eid = up_edges[v][idx]
                ring = edge_rings[eid][0]
            q = seen.get((side, idx), 0)
            seen[(side, idx)] = q + 1
            arcs.append(ring[q * m:(q + 1) * m])
            ring_slots.setdefault((side, idx), []).append(pos)

        for j in range(len(word) // 2):
            u_arc = arcs[2 * j]
            v_arc = arcs[2 * j + 1]
            for c in range(m - 1):
                builder.triangle(u_arc[c], u_arc[c + 1], v_arc[c + 1])
                builder.triangle(u_arc[c], v_arc[c + 1], v_arc[c])
            builder.triangle(saddle, u_arc[0], v_arc[0])
            builder.triangle(saddle, v_arc[m - 1], u_arc[m - 1])

        for (side, idx), positions in ring_slots.items():
            for qi in range(len(positions)):
                cur = arcs[positions[qi]]
                nxt = arcs[positions[(qi + 1) % len(positions)]]
                if side == "d":
                    builder.triangle(saddle, cur[m - 1], nxt[0])
                else:
                    builder.triangle(saddle, nxt[0], cur[m - 1])

    return builder.finish()


# ----------------------------------------------------------------------
# fixtures

def octahedron_height() -> tuple[TriangleMesh, ScalarField]:
    """Octahedron with height values perturbed to pairwise distinct."""
    verts = [(0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
             (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)]
    tris = [(0, 2, 1), (0, 3, 2), (0, 4, 3), (0, 1, 4),
            (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1)]
    eps = 1e-6 * 2.0  # value range is 2
    values = np.array([z for _, _, z in verts]) + eps * np.arange(6)
    return TriangleMesh(np.asarray(verts, dtype=float), tris), ScalarField(values)


def _fresh_label(rng: random.Random, taken: set[float], low: float,
                 high: float) -> float:
    while True:
        x = rng.uniform(low, high)
        if x not in taken:
            taken.add(x)
            return x


def random_realizable_tree(n: int, symmetry: int = 1,
                           seed: int = 0) -> LabeledTree:
    """Random realizable tree, deterministic in ``seed``.

    ``n`` is the base vertex budget.  With ``symmetry`` k >= 2, k branches
    with identical labels are grafted onto one host vertex, forcing the
    automorphism group order to be a multiple of k!.
    """
    if n < 2:
        raise InvalidTree("need n >= 2")
    if symmetry < 1:
        raise ValueError(f"symmetry must be at least 1, got {symmetry}")
    rng = random.Random(seed)
    taken: set[float] = set()
    l0 = _fresh_label(rng, taken, 0.0, 1.0)
    l1 = _fresh_label(rng, taken, 2.0, 3.0)
    labels = [l0, l1]
    edges = [(0, 1)]
    degree = [1, 1]
    internal = []  # the vertices of degree 2 or more, ascending

    def add_vertex(label: float) -> int:
        labels.append(label)
        degree.append(0)
        return len(labels) - 1

    def add_edge(a: int, b: int):
        edges.append((a, b))
        degree[a] += 1
        degree[b] += 1

    def grow_once():
        if internal and rng.random() < 0.3:
            # extra leaf on an internal vertex (raises its multiplicity)
            host = rng.choice(internal)
            up = rng.random() < 0.5
            span = 1.0 + rng.random()
            lab = (labels[host] + span) if up else (labels[host] - span)
            while lab in taken:
                lab += 1e-3
            taken.add(lab)
            leaf = add_vertex(lab)
            add_edge(host, leaf)
        else:
            # subdivide an edge and hang a leaf off the new vertex
            a, b = rng.choice(edges)
            lo, hi = sorted((labels[a], labels[b]))
            mid = _fresh_label(rng, taken, lo + 0.05 * (hi - lo),
                               hi - 0.05 * (hi - lo))
            w = add_vertex(mid)
            edges.remove((a, b))
            edges.append((a, w))
            edges.append((w, b))
            degree[w] = 2  # a and b keep their degrees
            internal.append(w)  # growth makes no other: a leaf gains no edge
            up = rng.random() < 0.5
            span = 1.0 + rng.random()
            lab = mid + span if up else mid - span
            while lab in taken:
                lab += 1e-3
            taken.add(lab)
            leaf = add_vertex(lab)
            add_edge(w, leaf)

    while len(labels) < n:
        grow_once()

    if symmetry >= 2:
        host = rng.randrange(len(labels))
        if degree[host] == 1:
            nbr = next(a if b == host else b for a, b in edges if host in (a, b))
            go_up = labels[host] > labels[nbr]  # keep the host two-sided
        else:
            go_up = rng.random() < 0.5
        sgn = 1.0 if go_up else -1.0
        fork = rng.random() < 0.5
        d1 = 1.0 + rng.random()
        d2 = 1.0 + rng.random()
        root_lab = labels[host] + sgn * d1
        leaf_lab = root_lab + sgn * d2
        for _ in range(symmetry):
            root = add_vertex(root_lab)
            add_edge(host, root)
            if fork:
                for off in (0.0, 0.37):
                    leaf = add_vertex(leaf_lab + sgn * off)
                    add_edge(root, leaf)

    tree = LabeledTree(labels, edges)
    validate_realizable(tree)
    return tree


def random_field(mesh: TriangleMesh, seed: int = 0) -> ScalarField:
    """Independent uniform values per vertex, deterministic in ``seed``."""
    rng = random.Random(seed)
    return ScalarField(np.array([rng.random() for _ in range(mesh.n_vertices)]))
