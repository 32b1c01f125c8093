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

from .mesh import TriangleMesh


@dataclass(frozen=True)
class ScalarField:
    """One real value per mesh vertex."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    def tie(self, v: int) -> tuple[float, int]:
        """Total order on vertices: (value, index) lexicographic."""
        return (float(self.values[v]), v)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Criticality:
    kind: str  # minimum | maximum | regular | saddle | boundary-regular
    multiplicity: int = 0
    lower_components: int = 0
    upper_components: int = 0


def _runs(flags: list[bool], closed: bool) -> int:
    """Number of maximal True runs in a cyclic (closed) or linear sequence."""
    n = len(flags)
    if n == 0 or not any(flags):
        return 0
    if all(flags):
        return 1
    runs = 0
    for i in range(n):
        prev = flags[i - 1] if (closed or i > 0) else False
        if flags[i] and not prev:
            runs += 1
    return runs


def classify_vertex(mesh: TriangleMesh, field: ScalarField, v: int) -> Criticality:
    """Classify one vertex from the lower/upper runs of its link.

    Interior vertices: no lower run is a minimum, no upper run a maximum, one
    of each is regular, and k lower runs (k >= 2) is a saddle of multiplicity
    k - 1.  Boundary vertices are reported as boundary-regular; whether the
    boundary as a whole is admissible is a field-level question handled by
    ``classify_field``.
    """
    link, closed = mesh.link(v)
    tv = field.tie(v)
    below = [field.tie(u) < tv for u in link]
    lower = _runs(below, closed)
    upper = _runs([not b for b in below], closed)
    if not closed:
        return Criticality("boundary-regular", 0, lower, upper)
    if lower == 0:
        return Criticality("minimum", 0, 0, upper)
    if upper == 0:
        return Criticality("maximum", 0, lower, 0)
    if lower == 1 and upper == 1:
        return Criticality("regular", 0, 1, 1)
    if lower != upper:
        # impossible for a cyclic link under a total order
        raise AssertionError(f"vertex {v}: {lower} lower vs {upper} upper runs")
    return Criticality("saddle", lower - 1, lower, upper)


@dataclass(frozen=True)
class FlatContraction:
    """Maximal connected equal-value subcomplexes contracted to super-vertices."""

    zone_of: np.ndarray          # vertex -> zone id
    zones: tuple[tuple[int, ...], ...]
    zone_values: tuple[float, ...]
    identity: bool               # every zone is a single vertex

    def zone_neighbors(self, mesh: TriangleMesh) -> list[list[int]]:
        nbrs = [set() for _ in self.zones]
        for u, v in mesh.edge_pairs:
            zu, zv = int(self.zone_of[u]), int(self.zone_of[v])
            if zu != zv:
                nbrs[zu].add(zv)
                nbrs[zv].add(zu)
        return [sorted(s) for s in nbrs]


def flat_contract(mesh: TriangleMesh, field: ScalarField) -> FlatContraction:
    """Contract maximal connected subcomplexes of equal value."""
    n = mesh.n_vertices
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    vals = field.values
    for u, v in mesh.edge_pairs:
        if vals[u] == vals[v]:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    reps = sorted(members)
    zone_of = np.empty(n, dtype=int)
    zones = []
    zone_values = []
    for zid, rep in enumerate(reps):
        zs = tuple(sorted(members[rep]))
        zones.append(zs)
        zone_values.append(float(vals[rep]))
        for v in zs:
            zone_of[v] = zid
    return FlatContraction(
        zone_of=zone_of,
        zones=tuple(zones),
        zone_values=tuple(zone_values),
        identity=len(zones) == n,
    )


@dataclass(frozen=True)
class FieldClassReport:
    """Aggregate classification of a field on a validated surface."""

    per_vertex: tuple[Criticality, ...]
    field_class: str  # Morse | F-generic | invalid
    minima: int
    maxima: int
    saddle_multiplicities: tuple[int, ...]
    reasons: tuple[str, ...]
    # the flat-zone contraction the classification was made from; build_reeb
    # sweeps over it, so it is computed once per mesh and field
    contraction: FlatContraction = dataclass_field(compare=False, repr=False)

    @property
    def total_multiplicity(self) -> int:
        return sum(self.saddle_multiplicities)

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


def classify_field(mesh: TriangleMesh, field: ScalarField) -> FieldClassReport:
    """Classify every vertex and check global admissibility.

    The field is invalid when a flat zone is not exactly a whole boundary
    cycle, when a boundary cycle is non-constant, or when a boundary cycle's
    interior collar sits on both sides of its value.  Otherwise the class is
    Morse when all saddles are simple and F-generic when degenerate saddles
    (multiplicity >= 2) occur.
    """
    if len(field) != mesh.n_vertices:
        raise ValueError("field length does not match vertex count")
    contraction = flat_contract(mesh, field)
    reasons: list[str] = []

    boundary_zone_ids = set()
    vals = field.values
    for cyc in mesh.boundary_cycles:
        cvals = {vals[v] for v in cyc}
        if len(cvals) != 1:
            reasons.append("CriticalBoundary: boundary cycle is not constant")
            continue
        zid = int(contraction.zone_of[cyc[0]])
        if set(contraction.zones[zid]) != set(cyc):
            reasons.append("FlatZone: constant zone leaks off a boundary cycle")
            continue
        boundary_zone_ids.add(zid)
        c = cvals.pop()
        sides = set()
        for v in cyc:
            for u in mesh.neighbors[v]:
                if not mesh.is_boundary_vertex[u]:
                    sides.add(vals[u] > c)
        if len(sides) > 1:
            reasons.append("CriticalBoundary: collar sits on both sides of the boundary value")
        elif not sides:
            reasons.append("CriticalBoundary: boundary cycle has no interior collar")

    for zid, zone in enumerate(contraction.zones):
        if len(zone) > 1 and zid not in boundary_zone_ids:
            reasons.append(f"FlatZone: {len(zone)} adjacent vertices share a value")

    per_vertex = []
    minima = maxima = 0
    mults = []
    for v in range(mesh.n_vertices):
        crit = classify_vertex(mesh, field, v)
        per_vertex.append(crit)
        if not mesh.is_boundary_vertex[v]:
            if crit.kind == "minimum":
                minima += 1
            elif crit.kind == "maximum":
                maxima += 1
            elif crit.kind == "saddle":
                mults.append(crit.multiplicity)

    if reasons:
        field_class = "invalid"
    elif all(m == 1 for m in mults):
        field_class = "Morse"
    else:
        field_class = "F-generic"
    return FieldClassReport(
        per_vertex=tuple(per_vertex),
        field_class=field_class,
        minima=minima,
        maxima=maxima,
        saddle_multiplicities=tuple(sorted(mults)),
        reasons=tuple(sorted(set(reasons))),
        contraction=contraction,
    )


def euler_identity_holds(report: FieldClassReport) -> bool:
    """Extrema minus total saddle multiplicity equals 2 on a closed sphere."""
    return report.minima + report.maxima - report.total_multiplicity == 2
