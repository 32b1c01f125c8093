"""Constructing test surfaces: realize a labeled tree as the level-set tree
of a field on a sphere, plus canonical and random fixtures.

The realization builds one cap per leaf, one tube per edge, and one
multi-saddle gadget per internal vertex, each from a cached template of
vertex-id triangles that is shifted onto the vertices it meets.  A gadget places a single saddle
vertex whose link alternates lower/upper exactly (down-degree + up-degree - 1)
times, so the saddle's multiplicity matches the tree degree and each tree
vertex owns exactly one critical component.  Tube rings carry small in-ring
value offsets so no two adjacent mesh vertices share a value; labels of
distinct tree vertices are copied exactly, including deliberate equal labels
on symmetric branches.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import accumulate

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
    for v, nbrs in enumerate(tree.adj):
        lower = sum(1 for w in nbrs if tree.labels[w] < tree.labels[v])
        if len(nbrs) > 1 and lower in (0, len(nbrs)):
            raise InvalidTree(f"internal vertex {v} has one-sided neighbours")
        if len(nbrs) == 2:
            raise InvalidTree(f"internal vertex {v} has degree {len(nbrs)}")


@cache
def _tube(sizes: tuple[int, ...]) -> np.ndarray:
    """Triangles of a stack of rings of these sizes, bottom to top, whose
    vertices are numbered on from 0 ring by ring: one annulus between each
    ring and the next."""
    tris = []
    for low, p, q in zip(accumulate(sizes, initial=0), sizes, sizes[1:]):
        up = low + p                          # first ids of the two rings
        i = j = 0
        while i < p or j < q:
            if j >= q or (i < p and (i + 1) * q <= (j + 1) * p):
                tris.append((low + i % p, low + (i + 1) % p, up + j % q))
                i += 1
            else:
                tris.append((low + i % p, up + (j + 1) % q, up + j % q))
                j += 1
    return np.array(tris)


@cache
def _atom(a: int, b: int, m: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Triangles around the critical vertex of a tree vertex with ``a``
    edges below and ``b`` above, and the size of each ring they meet in
    arcs of ``m`` vertices.

    Local id 0 is the critical vertex; the top rings of the down edges and
    then the bottom rings of the up edges follow, numbered on in order.  A
    leaf's cap meets one arc; a saddle gadget slices each ring into one arc
    per sector of its word that faces that ring.
    """
    if a + b == 1:
        ring = [(1 + i, 1 + (i + 1) % m) for i in range(m)]
        # a minimum's cap lies below its ring, a maximum's above
        return np.array([(0, j, i) if b else (0, i, j) for i, j in ring]), (1,)
    # the cyclic sector word around the saddle: the closed walk of a spanning
    # tree on the incident regions, alternating down/up, 2(a + b - 1) long
    word = ([x for j in range(1, b) for x in (("d", 0), ("u", j))] + [("d", 0), ("u", 0)]
            + [x for i in range(1, a) for x in (("d", i), ("u", 0))])
    slots = [("d", i) for i in range(a)] + [("u", j) for j in range(b)]
    counts = tuple(word.count(slot) for slot in slots)
    first = dict(zip(slots, accumulate([m * k for k in counts], initial=1)))
    arcs: list[int] = []                      # first local id of each arc
    ring_slots: dict[tuple[str, int], list[int]] = {}
    for pos, slot in enumerate(word):
        positions = ring_slots.setdefault(slot, [])
        arcs.append(first[slot] + m * len(positions))
        positions.append(pos)
    tris = []
    for u, w in zip(arcs[::2], arcs[1::2]):
        for c in range(m - 1):
            tris += [(u + c, u + c + 1, w + c + 1), (u + c, w + c + 1, w + c)]
        tris += [(0, u, w), (0, w + m - 1, u + m - 1)]
    for (side, _), positions in ring_slots.items():
        for cur, nxt in zip(positions, positions[1:] + positions[:1]):
            end, start = arcs[cur] + m - 1, arcs[nxt]
            tris.append((0, end, start) if side == "d" else (0, start, end))
    return np.array(tris), counts


def realize_tree(tree: LabeledTree, resolution: int = 4
                 ) -> tuple[TriangleMesh, ScalarField]:
    """Build a closed genus-0 mesh and field whose level-set tree equals
    ``tree`` up to label-preserving isomorphism.

    ``resolution`` is the arc size: boundary rings of a saddle gadget have
    resolution times (number of sectors facing that tube) vertices, plain
    tube rings exactly ``resolution``.

    The vertices are every edge's tube of rings, edge by edge and bottom to
    top, then one vertex per tree vertex.  The triangles are the tubes' in
    the same order, then each tree vertex's cap or gadget, each from a
    template cached by its shape and shifted onto the vertices it meets.
    """
    validate_realizable(tree)
    if resolution < 3:
        raise InvalidTree("resolution must be at least 3")
    m = resolution
    labels = tree.labels
    # ring k of edge e's tube, bottom to top, is ring rings * e + k
    rings = INTERIOR_RINGS + 2
    # each vertex's edges, down and up, by the (label, id) of their other end
    ends = []                                 # (lower, upper) of each edge
    down_edges: list[list] = [[] for _ in range(tree.n)]
    up_edges: list[list] = [[] for _ in range(tree.n)]
    for eid, (u, v) in enumerate(tree.edges):
        lo, hi = (u, v) if (labels[u], u) < (labels[v], v) else (v, u)
        ends.append((lo, hi))
        up_edges[lo].append((labels[hi], hi, eid))
        down_edges[hi].append((labels[lo], lo, eid))
    # the rings each template meets, its local ids numbered through them in
    # turn: a tube its own; a cap or gadget its tree vertex's own vertex (a
    # ring of one after all tube rings), the top rings of the down edges and
    # the bottom rings of the up edges
    tubes = rings * len(ends)
    meets = [range(r, r + rings) for r in range(0, tubes, rings)] + [
        [tubes + v] + [rings * e + rings - 1 for *_, e in sorted(down)]
        + [rings * e for *_, e in sorted(up)]
        for v, (down, up) in enumerate(zip(down_edges, up_edges))]
    atoms = [_atom(len(down), len(up), m) for down, up in zip(down_edges, up_edges)]
    size = [m] * tubes + [1] * tree.n
    for met, (_, arcs) in zip(meets[len(ends):], atoms):
        for r, k in zip(met[1:], arcs):
            size[r] = m * k
    parts = [_tube(tuple([size[r] for r in met])) for met in meets[:len(ends)]]
    parts += [tris for tris, _ in atoms]

    # ring heights in (ring, edge) arrays, and the cosmetic layout: tree
    # vertex v at (3v, 0), each ring's centre a fixed fraction along its edge
    lows, highs = np.array(ends).T
    label = np.array(labels)
    low, high = label[lows], label[highs]
    gap = high - low
    bases = np.linspace(low + RING_MARGIN * gap, high - RING_MARGIN * gap, rings)
    jitter = RING_JITTER * (np.vstack((bases[1:], high)) - bases)
    frac = np.arange(1, rings + 1)[:, None] / (rings + 1)
    cx = 3.0 * lows + frac * (3.0 * highs - 3.0 * lows)

    size = np.array(size)
    first = np.cumsum(size) - size            # each ring's first vertex id
    ring = np.repeat(np.arange(tubes), size[:tubes])  # of each tube vertex
    i = np.arange(len(ring)) - first[ring]
    ring_size = size[ring]
    ang = 2.0 * np.pi * i / ring_size
    base = bases.T.ravel()[ring]
    values = np.concatenate((base, label))
    vertices = np.zeros((len(values), 3))
    vertices[:, 0] = np.concatenate((cx.T.ravel()[ring] + np.cos(ang),
                                     3.0 * np.arange(tree.n)))
    vertices[:len(ring), 1] = np.sin(ang)     # the centre is at y = 0
    vertices[:, 2] = values
    values[:len(ring)] += jitter.T.ravel()[ring] * i / ring_size

    # `lookup` lists the vertices of every template's rings in turn
    flat = np.array([r for met in meets for r in met])
    length = size[flat]
    at = np.cumsum(length) - length           # of each met ring in `lookup`
    lookup = np.arange(at[-1] + length[-1]) + np.repeat(first[flat] - at, length)
    local = np.concatenate(parts)
    local += np.repeat(at[np.cumsum([0] + [len(met) for met in meets[:-1]])],
                       [len(p) for p in parts])[:, None]
    return TriangleMesh(vertices, lookup[local]), ScalarField(values)


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
