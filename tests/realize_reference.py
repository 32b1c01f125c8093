"""The package's former ``gen.realize_tree``: one Python call per vertex and
triangle through a ``_Builder``, kept as the reference that the template
assembly must reproduce bit for bit (vertex order, triangle order, every
coordinate and value)."""

import numpy as np

from reebsplit.errors import InvalidTree
from reebsplit.field import ScalarField
from reebsplit.gen import (
    INTERIOR_RINGS,
    RING_JITTER,
    RING_MARGIN,
    validate_realizable,
)
from reebsplit.mesh import TriangleMesh
from reebsplit.treeaut import LabeledTree


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


def reference_realize_tree(tree: LabeledTree, resolution: int = 4
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
