"""End-to-end splitting pipeline.

When every label-preserving automorphism of the level-set tree fixes a common
edge, cutting the sphere along a regular level circle lying over that edge
must decompose the group as the direct product of the two disk groups.  This
module performs the cut and verifies each part of that claim, reporting all
outcomes in a ``SplitReport``.  The facts about the whole sphere (surface,
classification, tree, group, fixed set) are computed once per field in a
``SphereAnalysis`` and shared by the cuts across all of its fixed edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenusNotZero, InternalInconsistency
from .field import BOUNDARY, FieldClassReport, ScalarField, classify_field
from .mesh import SurfaceReport, TriangleMesh, cut_along_cycle, validate_surface
from .reeb import ReebGraph, build_reeb, choose_cut_value, level_cycle
from .treeaut import (
    AutGroup,
    FixedSet,
    LabeledTree,
    TreeCut,
    cut_tree_at,
    enumerate_aut,
    fixed_set,
    tree_isomorphic,
    verify_isomorphism,
)


def reeb_to_tree(graph: ReebGraph) -> LabeledTree:
    """The labeled tree of a level-set graph, sharing its vertex and edge ids."""
    return graph.tree


@dataclass(frozen=True)
class SphereAnalysis:
    """What every fixed-edge cut of one field needs to know about the sphere.

    Made by ``analyze_sphere`` and passed as ``sphere=`` to
    ``verify_theorem`` and ``verify_all_fixed_edges``, so a field's tree,
    group and fixed set are computed once however many edges are cut.
    """

    surface: SurfaceReport
    fclass: FieldClassReport
    graph: ReebGraph
    group: AutGroup     # the enumerated group, never a replayed dump
    fixed: FixedSet


def analyze_sphere(mesh: TriangleMesh, field: ScalarField, *,
                   surface: SurfaceReport | None = None) -> SphereAnalysis:
    """Validate, classify and build the tree, group and fixed set of a field.

    ``surface`` passes in ``validate_surface(mesh)`` when the caller already
    has it.  A surface other than a closed connected genus-0 one raises
    GenusNotZero before the field is classified; other errors are those of
    ``build_reeb`` on the field.
    """
    if surface is None:
        surface = validate_surface(mesh)
    if not (surface.closed and surface.genus == 0 and surface.connected):
        raise GenusNotZero(
            f"need a closed connected genus-0 surface, got {surface}")
    fclass = classify_field(mesh, field)
    graph = build_reeb(mesh, field, surface=surface, fclass=fclass)
    group = enumerate_aut(graph.tree)
    return SphereAnalysis(surface=surface, fclass=fclass, graph=graph,
                          group=group, fixed=fixed_set(group, graph.tree))


@dataclass(frozen=True)
class DiskCheck:
    side: str
    euler: int
    boundary_count: int
    genus: int
    boundary_constant: bool
    boundary_value: float
    field_class: str
    vertex_count: int
    triangle_count: int
    interior_minima: int
    interior_maxima: int
    saddle_multiplicities: tuple[int, ...]
    tree_matches_cut_side: bool

    @property
    def is_disk(self) -> bool:
        return (self.euler == 1 and self.boundary_count == 1
                and self.genus == 0 and self.boundary_constant)

    @property
    def passed(self) -> bool:
        return self.is_disk and self.field_class in ("Morse", "F-generic") \
            and self.tree_matches_cut_side

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "euler": self.euler,
            "boundary_count": self.boundary_count,
            "genus": self.genus,
            "boundary_constant": self.boundary_constant,
            "boundary_value": self.boundary_value,
            "field_class": self.field_class,
            "vertex_count": self.vertex_count,
            "triangle_count": self.triangle_count,
            "interior_minima": self.interior_minima,
            "interior_maxima": self.interior_maxima,
            "saddle_multiplicities": list(self.saddle_multiplicities),
            "tree_matches_cut_side": self.tree_matches_cut_side,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class GapNote:
    """Whether marking the cut leaf shrinks a subtree's automorphism group."""
    side: str
    marked_order: int
    unmarked_order: int

    @property
    def equal(self) -> bool:
        return self.marked_order == self.unmarked_order

    def to_dict(self) -> dict:
        return {"side": self.side, "marked_order": self.marked_order,
                "unmarked_order": self.unmarked_order, "equal": self.equal}


@dataclass
class SplitReport:
    """Complete record of one splitting verification."""

    reeb_vertices: int
    reeb_edges: int
    group_order: int
    fixed_variant: str
    fixed_vertices: tuple[int, ...]
    fixed_edge_ids: tuple[int, ...]
    hypothesis_holds: bool
    edge_id: int | None = None
    edge_labels: tuple[float, float] | None = None
    cut_value: float | None = None
    crossings: int | None = None
    disks: tuple[DiskCheck, ...] = ()
    euler_sum_ok: bool | None = None
    side_orders: tuple[int, int] | None = None
    order_product_ok: bool | None = None
    phi: dict | None = None
    sides_invariant: bool | None = None
    subtree_group_gap: tuple[GapNote, ...] = ()
    passed: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "schema": "reeb-split/1",
            "reeb_vertices": self.reeb_vertices,
            "reeb_edges": self.reeb_edges,
            "group_order": self.group_order,
            "fixed_variant": self.fixed_variant,
            "fixed_vertices": list(self.fixed_vertices),
            "fixed_edge_ids": list(self.fixed_edge_ids),
            "hypothesis_holds": self.hypothesis_holds,
            "edge_id": self.edge_id,
            "edge_labels": list(self.edge_labels) if self.edge_labels else None,
            "cut_value": self.cut_value,
            "crossings": self.crossings,
            "disks": [d.to_dict() for d in self.disks],
            "euler_sum_ok": self.euler_sum_ok,
            "side_orders": list(self.side_orders) if self.side_orders else None,
            "order_product_ok": self.order_product_ok,
            "phi": self.phi,
            "sides_invariant": self.sides_invariant,
            "subtree_group_gap": [g.to_dict() for g in self.subtree_group_gap],
            "passed": self.passed,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        if not self.hypothesis_holds:
            return (f"hypothesis fails: fixed set has no edge "
                    f"(|G| = {self.group_order}, fixed vertices "
                    f"{list(self.fixed_vertices)})")
        a, b = self.side_orders
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}: edge {self.edge_id} cut at {self.cut_value!r}; "
                f"|G| = {self.group_order} = {a} * {b}; "
                f"phi injective={self.phi['injective']} "
                f"surjective={self.phi['surjective']} "
                f"homomorphism={self.phi['homomorphism']}")


def check_subtree_group_gap(cut: TreeCut, *,
                            side_orders: tuple[int, int]) -> tuple[GapNote, ...]:
    """Compare marked-leaf-fixing and unconstrained subtree groups.

    ``side_orders`` are the orders of the two marked side groups.  The
    marked group is the stabilizer of the cut leaf x in the unmarked one, so
    the unmarked order is the marked order times the size of x's orbit: the
    vertices y with x's label that an isomorphism of the side tree onto
    itself can map x to (``tree_isomorphic`` ignores the mark).
    """
    notes = []
    for name, marked in zip(("A", "B"), side_orders):
        t = cut.side(name).tree
        x = t.marked
        orbit = sum(tree_isomorphic(t, t, pin=(x, y))
                    for y in range(t.n) if t.labels[y] == t.labels[x])
        notes.append(GapNote(side=name, marked_order=marked,
                             unmarked_order=marked * orbit))
    return tuple(notes)


def verify_theorem(mesh: TriangleMesh, field: ScalarField,
                   edge_id: int | None = None,
                   cut_value: float | None = None,
                   replay_group: AutGroup | None = None, *,
                   sphere: SphereAnalysis | None = None) -> SplitReport:
    """Verify the product splitting across one fixed edge.

    With no ``edge_id`` the fixed edge with the smallest id is cut.  When the
    fixed set contains no edge the report states that the hypothesis fails,
    which is a clean outcome, not an error.  ``replay_group`` substitutes a
    previously dumped element list for the enumerated group (used to audit
    external dumps; a tampered dump fails the verdict, and an element that
    is no permutation of the tree's vertices raises ValueError).
    ``sphere`` passes in ``analyze_sphere(mesh, field)`` when the caller
    already has it; otherwise it is made here, with its errors.
    """
    if sphere is None:
        sphere = analyze_sphere(mesh, field)
    graph, tree, fixed = sphere.graph, sphere.graph.tree, sphere.fixed
    # the enumerated group drives the geometry (fixed set, cut choice); a
    # replayed dump is the claimed element list whose pairing gets audited
    group = sphere.group
    if replay_group is not None:
        group = replay_group
        vertices = list(range(tree.n))
        for i, p in enumerate(group.elements):
            if sorted(p) != vertices:
                raise ValueError(f"replayed element {i} is not a permutation "
                                 f"of the {tree.n} tree vertices")

    base = dict(
        reeb_vertices=graph.n_vertices,
        reeb_edges=graph.n_edges,
        group_order=group.order,
        fixed_variant=fixed.variant,
        fixed_vertices=fixed.vertices,
        fixed_edge_ids=fixed.edge_ids,
    )
    if not fixed.has_edge:
        return SplitReport(**base, hypothesis_holds=False, passed=False,
                           notes=("fixed set has no edge; nothing to cut",))

    eid = fixed.edge_ids[0] if edge_id is None else edge_id
    if eid not in fixed.edge_ids:
        raise InternalInconsistency(f"edge {eid} is not in the fixed set")
    edge_labels, (lower_rep, upper_rep) = graph.edge_ends(eid)
    c = choose_cut_value(field, graph, eid) if cut_value is None else cut_value

    cycle = level_cycle(mesh, field, graph, eid, c)
    piece_first, piece_second = cut_along_cycle(mesh, field, cycle)
    if piece_first.contains_orig(lower_rep):
        piece_a, piece_b = piece_first, piece_second
    else:
        piece_a, piece_b = piece_second, piece_first
    if not piece_b.contains_orig(upper_rep):
        raise InternalInconsistency("cut pieces do not separate the edge ends")

    cut = cut_tree_at(tree, eid)
    notes = []

    disks = []
    for name, piece in (("A", piece_a), ("B", piece_b)):
        rep = validate_surface(piece.mesh)
        fclass = classify_field(piece.mesh, piece.field)
        bvals = {float(piece.field.values[v]) for v in piece.boundary}
        boundary_constant = bvals == {float(c)}
        side_tree = cut.side(name).tree
        expected = LabeledTree(
            [c if i == side_tree.marked else side_tree.labels[i]
             for i in range(side_tree.n)],
            side_tree.edges)
        match = False
        if fclass.valid:
            disk_graph = build_reeb(piece.mesh, piece.field, surface=rep,
                                    fclass=fclass)
            boundary_leaf = int(np.flatnonzero(disk_graph.kinds == BOUNDARY)[0])
            match = tree_isomorphic(disk_graph.tree, expected,
                                    pin=(boundary_leaf, side_tree.marked))
        disks.append(DiskCheck(
            side=name,
            euler=rep.euler,
            boundary_count=rep.boundary_count,
            genus=rep.genus,
            boundary_constant=boundary_constant,
            boundary_value=float(c),
            field_class=fclass.field_class,
            vertex_count=rep.vertex_count,
            triangle_count=rep.triangle_count,
            interior_minima=fclass.minima,
            interior_maxima=fclass.maxima,
            saddle_multiplicities=fclass.saddle_multiplicities,
            tree_matches_cut_side=match,
        ))
    euler_sum_ok = disks[0].euler + disks[1].euler == 2

    group_a = enumerate_aut(cut.side_a.tree)
    group_b = enumerate_aut(cut.side_b.tree)
    phi = verify_isomorphism(cut, group, group_a, group_b)
    order_product_ok = group.order == group_a.order * group_b.order

    side_sets = {name: set(cut.side(name).orig) - {-1} for name in ("A", "B")}
    sides_invariant = all(
        {g[v] for v in side_sets[name]} == side_sets[name]
        for g in group.elements for name in ("A", "B"))

    gap = check_subtree_group_gap(
        cut, side_orders=(group_a.order, group_b.order))
    for note in gap:
        if not note.equal:
            notes.append(
                f"side {note.side}: marking the cut leaf shrinks the subtree "
                f"group ({note.unmarked_order} -> {note.marked_order})")

    passed = (all(d.passed for d in disks) and euler_sum_ok and phi.passed
              and order_product_ok and sides_invariant)
    return SplitReport(
        **base,
        hypothesis_holds=True,
        edge_id=eid,
        edge_labels=edge_labels,
        cut_value=float(c),
        crossings=len(cycle),
        disks=tuple(disks),
        euler_sum_ok=euler_sum_ok,
        side_orders=(group_a.order, group_b.order),
        order_product_ok=order_product_ok,
        phi=phi.to_dict(),
        sides_invariant=sides_invariant,
        subtree_group_gap=gap,
        passed=passed,
        notes=tuple(notes),
    )


def verify_all_fixed_edges(mesh: TriangleMesh, field: ScalarField, *,
                           sphere: SphereAnalysis | None = None
                           ) -> list[SplitReport]:
    """One report per fixed edge; empty when the fixed set has no edge.

    The sphere is analyzed once (or passed in as ``sphere``) and shared by
    every edge's ``verify_theorem``.
    """
    if sphere is None:
        sphere = analyze_sphere(mesh, field)
    return [verify_theorem(mesh, field, edge_id=eid, sphere=sphere)
            for eid in sphere.fixed.edge_ids]
