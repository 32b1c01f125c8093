"""Piecewise-linear scalar fields: criticality classification and flat-zone
contraction.

Ties between equal values are broken by vertex index, which makes every
per-vertex classification total.  Exact equal values at non-adjacent vertices
are legal and significant (symmetric inputs rely on them); equal values at
adjacent vertices form flat zones, which are only accepted when a zone is
exactly a whole constant boundary cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .mesh import TriangleMesh, components, distinct


@dataclass(frozen=True)
class ScalarField:
    """One real value per mesh vertex."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"field values must be a 1-D array, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


# kind codes of ``FieldClassReport.kinds``
REGULAR, MINIMUM, MAXIMUM, SADDLE, BOUNDARY = range(5)


def _kinds(boundary: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Kind code of every vertex from the lower and upper runs of its link.

    Interior vertices: no lower run is a minimum, no upper run a maximum, one
    of each is regular, and k lower runs (k >= 2) is a saddle of multiplicity
    k - 1.  Boundary vertices get the code BOUNDARY; whether the
    boundary as a whole is admissible is a field-level question handled by
    ``classify_field``.
    """
    kinds = np.full(len(lower), SADDLE, dtype=np.int8)
    # later rules win, so they run from the last case above to the first
    kinds[(lower == 1) & (upper == 1)] = REGULAR
    kinds[upper == 0] = MAXIMUM
    kinds[lower == 0] = MINIMUM
    kinds[boundary] = BOUNDARY
    return kinds


def _link_runs(mesh: TriangleMesh, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper runs of every vertex link, without walking a link;
    ``order`` lists the vertices in (value, index) order.

    Each incident triangle is one link edge; it changes side when its other
    two corners straddle the vertex in (value, index) order.  A cyclic link
    with 2k changes has k runs of each side, and one run of a single side
    when it has none.  A boundary vertex's link is a path between its two
    boundary neighbours: with c changes and e of those two ends below the
    vertex, it has (c + e) / 2 lower and (c + 2 - e) / 2 upper runs.
    """
    n = mesh.n_vertices
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    corners = mesh.triangles.ravel()
    r = rank[mesh.triangles]
    to_next = (r[:, [1, 2, 0]] - r).ravel()  # its sign: which side the next corner is on
    straddle = (r[:, [2, 0, 1]] - r).ravel() * to_next
    changes = np.bincount(corners[straddle < 0], minlength=n)
    # e, the ends of the link path below the vertex, makes one formula serve
    # both kinds: an interior link with changes is a cycle, as if one end
    # were below; one without lies wholly below (both ends) or wholly above
    # (neither)
    e = np.bincount(corners[to_next < 0], minlength=n)
    np.minimum(e, 1, out=e)
    e *= 2
    e[changes > 0] = 1
    e[mesh.is_boundary_vertex] = 0
    u, v = mesh.boundary_edges.T
    e += np.bincount(u[rank[v] < rank[u]], minlength=n)
    e += np.bincount(v[rank[u] < rank[v]], minlength=n)
    # lower = (c + e) // 2 and upper = (c + 2 - e) // 2, reusing the arrays
    lower = changes + e
    lower //= 2
    changes += 2
    changes -= e
    changes //= 2
    return lower, changes


@dataclass(frozen=True)
class FlatContraction:
    """Maximal connected equal-value subcomplexes contracted to super-vertices.

    The zones are held as compressed sparse rows: zone ``z`` is
    ``members[starts[z]:starts[z + 1]]``, its vertices ascending, and zones
    are numbered by their smallest vertex.
    """

    zone_of: np.ndarray          # vertex -> zone id
    members: np.ndarray          # the vertices sorted by zone, ascending in one
    starts: np.ndarray           # where each zone's members start, and the end
    zone_values: np.ndarray      # each zone's value

    def zone_neighbors(self, mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency of the zones: ``indices[indptr[z]:indptr[z + 1]]``
        are the zones next to zone ``z``, ascending."""
        nz = len(self.starts) - 1
        zu, zv = self.zone_of[mesh.edge_pairs].T
        apart = zu != zv
        zu, zv = zu[apart], zv[apart]
        pairs = distinct(np.concatenate((zu * nz + zv, zv * nz + zu)))
        indptr = np.zeros(nz + 1, dtype=np.intp)
        np.cumsum(np.bincount(pairs // nz, minlength=nz), out=indptr[1:])
        return indptr, pairs % nz


def flat_contract(mesh: TriangleMesh, field: ScalarField) -> FlatContraction:
    """Contract maximal connected subcomplexes of equal value."""
    n = mesh.n_vertices
    vals = field.values
    u, v = mesh.edge_pairs.T
    flat = vals[u] == vals[v]
    label = components(n, u[flat], v[flat])  # each zone's smallest vertex
    reps = np.flatnonzero(label == np.arange(n))
    zone_of = np.empty(n, dtype=np.intp)
    zone_of[reps] = np.arange(len(reps))
    zone_of = zone_of[label]
    starts = np.zeros(len(reps) + 1, dtype=np.intp)
    np.cumsum(np.bincount(zone_of), out=starts[1:])
    return FlatContraction(
        zone_of=zone_of,
        members=np.argsort(zone_of, kind="stable"),
        starts=starts,
        zone_values=vals[reps],
    )


@dataclass(frozen=True)
class FieldClassReport:
    """Aggregate classification of a field on a validated surface."""

    field_class: str  # Morse | F-generic | invalid
    minima: int
    maxima: int
    saddle_multiplicities: tuple[int, ...]
    reasons: tuple[str, ...]
    # the flat-zone contraction the classification was made from; build_reeb
    # sweeps over it, so it is computed once per mesh and field
    contraction: FlatContraction = dataclass_field(compare=False, repr=False)
    # per vertex: the kind code and the lower runs of its link
    kinds: np.ndarray = dataclass_field(compare=False, repr=False)
    lower: np.ndarray = dataclass_field(compare=False, repr=False)
    # the vertices in (value, index) order, which the link runs are read in
    # and build_reeb sweeps in
    order: np.ndarray = dataclass_field(compare=False, repr=False)

    @property
    def multiplicities(self) -> np.ndarray:
        """Per vertex: a saddle's multiplicity, and 0 at every other kind."""
        return np.where(self.kinds == SADDLE, self.lower - 1, 0)

    @property
    def valid(self) -> bool:
        return self.field_class in ("Morse", "F-generic")

    def to_dict(self) -> dict:
        return {
            "class": self.field_class,
            "minima": self.minima,
            "maxima": self.maxima,
            "saddle_multiplicities": list(self.saddle_multiplicities),
            "reasons": list(self.reasons),
        }


def classify_field(mesh: TriangleMesh, field: ScalarField, parts=None):
    """Classify every vertex and check global admissibility.

    The field is invalid when a flat zone is not exactly a whole boundary
    cycle, when a boundary cycle is non-constant, or when a boundary cycle's
    interior collar sits on both sides of its value or is empty.  Each cycle
    is read off the mesh's ``boundary_label`` and named by its label, its
    smallest vertex.  Otherwise the class is
    Morse when all saddles are simple and F-generic when degenerate saddles
    (multiplicity >= 2) occur.

    With ``parts``, as in ``validate_surface``, one report per part, which
    shares the union's contraction and per-vertex arrays; a reason counts
    against the part of the vertex it names, in that part's vertex ids.
    """
    n = mesh.n_vertices
    if len(field) != n:
        raise ValueError("field length does not match vertex count")
    bounds = np.array([0, n]) if parts is None else np.asarray(parts)
    part_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    reasons = [set() for _ in bounds[1:]]

    def name(reason, *vertices):
        i = part_of[vertices[0]]
        reasons[i].add(reason.format(*(int(v - bounds[i]) for v in vertices)))

    contraction = flat_contract(mesh, field)
    vals = field.values
    members, starts = contraction.members, contraction.starts
    sizes = np.diff(starts)
    # a boundary cycle must be constant, and then its zone must be the cycle
    # alone and its collar, the interior vertices next to it, on one side of
    # its value; a constant cycle's zone is reported here or not at all
    accounted = np.zeros(len(sizes), dtype=bool)
    heads = mesh.boundary_heads
    if len(heads):
        # a cycle is labelled by its first vertex, and is constant when every
        # vertex on it has the value at its label
        on = mesh.is_boundary_vertex
        label = mesh.boundary_label
        lengths = np.bincount(label[on], minlength=n)
        constant = np.bincount(label[on & (vals != vals[label])], minlength=n) == 0
        zone = contraction.zone_of
        accounted[zone[heads[constant[heads]]]] = True
        # an edge from a boundary to an interior vertex joins a cycle to its collar
        u, v = mesh.edge_pairs.T
        at = np.flatnonzero(on[u] != on[v])
        u_on = on[u[at]]
        cyc = label[np.where(u_on, u[at], v[at])]
        collar = np.where(u_on, v[at], u[at])
        above = vals[collar] > vals[cyc]
        n_above = np.bincount(cyc[above], minlength=n)
        n_collar = np.bincount(cyc, minlength=n)
        for f in heads.tolist():
            if not constant[f]:
                name("CriticalBoundary: boundary cycle at vertex {} is not constant", f)
            elif sizes[zone[f]] != lengths[f]:
                name(f"FlatZone: constant zone of {sizes[zone[f]]} vertices, smallest "
                     "vertex {}, leaks off a boundary cycle", members[starts[zone[f]]])
            elif 0 < n_above[f] < n_collar[f]:
                mine, up = collar[cyc == f], above[cyc == f]
                name("CriticalBoundary: collar sits on both sides of the boundary "
                     "value (vertex {} below, {} above)", mine[~up].min(), mine[up].min())
            elif not n_collar[f]:
                name("CriticalBoundary: boundary cycle at vertex {} has no interior "
                     "collar", f)

    for zid in np.flatnonzero((sizes > 1) & ~accounted).tolist():
        name(f"FlatZone: {sizes[zid]} adjacent vertices share a value, smallest "
             "vertex {}", members[starts[zid]])

    order = np.argsort(vals, kind="stable")
    lower, upper = _link_runs(mesh, order)
    kinds = _kinds(mesh.is_boundary_vertex, lower, upper)
    reports = []
    for why, a, b in zip(reasons, bounds[:-1].tolist(), bounds[1:].tolist()):
        part = kinds[a:b]
        mults = np.sort(lower[a:b][part == SADDLE] - 1).tolist()
        reports.append(FieldClassReport(
            field_class="invalid" if why else
            "Morse" if all(m == 1 for m in mults) else "F-generic",
            minima=int(np.count_nonzero(part == MINIMUM)),
            maxima=int(np.count_nonzero(part == MAXIMUM)),
            saddle_multiplicities=tuple(mults),
            reasons=tuple(sorted(why)),
            contraction=contraction,
            kinds=kinds,
            lower=lower,
            order=order,
        ))
    return reports[0] if parts is None else reports


def euler_identity_holds(report: FieldClassReport) -> bool:
    """Extrema minus total saddle multiplicity equals 2 on a closed sphere."""
    return report.minima + report.maxima - sum(report.saddle_multiplicities) == 2
