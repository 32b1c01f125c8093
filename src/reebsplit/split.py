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

from .errors import EdgeNotFound, GenusNotZero, InternalInconsistency
from .field import BOUNDARY, FieldClassReport, ScalarField, classify_field
from .mesh import SurfaceReport, TriangleMesh, cut_along_cycle, validate_surface
from .reeb import ReebGraph, build_reeb, choose_cut_value, level_cycle, part_trees
from .treeaut import (
    AutGroup,
    FixedSet,
    LabeledTree,
    RootedGroup,
    TreeCut,
    certify_splitting,
    cut_tree_at,
    enumerate_aut,
    fixed_set,
    keeps_sides,
    tree_isomorphic,
    unmarked_group,
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
    group: RootedGroup  # by structure, never a replayed dump
    fixed: FixedSet


def analyze_sphere(mesh: TriangleMesh, field: ScalarField) -> SphereAnalysis:
    """Validate, classify and build the tree, group and fixed set of a field.

    A surface other than a closed connected genus-0 one raises GenusNotZero
    before the field is classified; other errors are those of ``build_reeb``
    on the field.
    """
    surface = validate_surface(mesh)
    if not (surface.closed and surface.genus == 0 and surface.connected):
        raise GenusNotZero(
            f"need a closed connected genus-0 surface, got {surface}")
    fclass = classify_field(mesh, field)
    graph = build_reeb(mesh, field, surface=surface, fclass=fclass)
    group = unmarked_group(graph.tree)
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
        return {**vars(self), "passed": self.passed}


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
        return {**vars(self), "equal": self.equal}


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
        return {**vars(self), "schema": "reeb-split/1",
                "disks": [d.to_dict() for d in self.disks],
                "subtree_group_gap": [g.to_dict() for g in self.subtree_group_gap]}

    def summary(self) -> str:
        if not self.hypothesis_holds:
            return (f"hypothesis fails: fixed set has no edge "
                    f"(|G| = {self.group_order}, fixed vertices "
                    f"{list(self.fixed_vertices)})")
        a, b = self.side_orders
        status = "PASS" if self.passed else "FAIL"
        eq = "=" if self.order_product_ok else "!="
        return (f"{status}: edge {self.edge_id} cut at {self.cut_value!r}; "
                f"|G| = {self.group_order} {eq} {a} * {b}; "
                f"phi injective={self.phi['injective']} "
                f"surjective={self.phi['surjective']} "
                f"homomorphism={self.phi['homomorphism']}")


def check_subtree_group_gap(cut: TreeCut, *,
                            side_orders: tuple[int, int]) -> tuple[GapNote, ...]:
    """Compare marked-leaf-fixing and unconstrained subtree groups.

    ``side_orders`` are the orders of the two marked side groups.  The
    unmarked order is read off the side tree's AHU forms rooted at a center
    (``unmarked_group``), so the unmarked group is never enumerated.
    """
    return tuple(GapNote(side=name, marked_order=marked,
                         unmarked_order=unmarked_group(cut.side(name).tree).order)
                 for name, marked in zip(("A", "B"), side_orders))


# a batch of cut pieces closes before its union would pass this many vertices
# (a larger piece is a batch of its own): a union's peak memory, about 1 kB a
# vertex, grows with it faster than the per-call time it saves falls
BATCH_VERTICES = 768


def disk_analyses(pieces):
    """Each cut piece with its ``validate_surface``, ``classify_field`` and
    tree (None where its field is invalid), taken as they come in batches of
    at most ``BATCH_VERTICES`` vertices, each one disjoint-union mesh."""
    batch = []
    for piece in pieces:
        if batch and sum(len(p.field) for p in batch + [piece]) > BATCH_VERTICES:
            yield from _analyze_batch(batch)
            batch = []
        batch.append(piece)
    if batch:
        yield from _analyze_batch(batch)


def _analyze_batch(batch) -> list[tuple]:
    # the union mesh is freed on return, before the next batch is built
    bounds = np.cumsum([0] + [len(p.field) for p in batch])
    union = TriangleMesh(
        np.concatenate([p.vertices for p in batch]),
        np.concatenate([p.triangles + b for p, b in zip(batch, bounds.tolist())]))
    surfaces = validate_surface(union, bounds)
    fclasses = classify_field(
        union, ScalarField(np.concatenate([p.field.values for p in batch])), bounds)
    return list(zip(batch, surfaces, fclasses,
                    part_trees(union, surfaces, fclasses, bounds)))


def _disk_check(side: str, cut: TreeCut, c: float, piece, rep, fclass,
                graph) -> DiskCheck:
    side_tree = cut.side(side).tree
    labels = list(side_tree.labels)
    labels[side_tree.marked] = c
    match = graph is not None and tree_isomorphic(
        graph.tree, LabeledTree(labels, side_tree.edges),
        pin=(int(np.flatnonzero(graph.kinds == BOUNDARY)[0]), side_tree.marked))
    bvals = {float(piece.field.values[v]) for v in piece.boundary}
    return DiskCheck(
        side=side,
        euler=rep.euler,
        boundary_count=rep.boundary_count,
        genus=rep.genus,
        boundary_constant=bvals == {float(c)},
        boundary_value=float(c),
        field_class=fclass.field_class,
        vertex_count=rep.vertex_count,
        triangle_count=rep.triangle_count,
        interior_minima=fclass.minima,
        interior_maxima=fclass.maxima,
        saddle_multiplicities=fclass.saddle_multiplicities,
        tree_matches_cut_side=match,
    )


def verify_fixed_edges(mesh: TriangleMesh, field: ScalarField, edge_ids,
                       cut_value: float | None = None,
                       replay_group: AutGroup | None = None, *,
                       sphere: SphereAnalysis | None = None) -> list[SplitReport]:
    """Verify the product splitting across each fixed edge of ``edge_ids``,
    cut at ``cut_value`` or at ``choose_cut_value``; one report per edge, or
    the one report that the hypothesis fails when the fixed set has no edge.

    An edge outside the fixed set raises EdgeNotFound.  The map to the side
    groups and the sides' invariance are certified on the generators of the
    sphere's group (``certify_splitting``), with that group and each side
    group held by structure (``RootedGroup`` at a center or the cut leaf),
    none enumerated.  ``replay_group`` substitutes a dumped element list for
    the sphere's group, to audit it element by element
    (``verify_isomorphism``) against the enumerated side groups, whose
    elements name a side pair the dump misses: a tampered dump fails the
    verdict, and an element that is no permutation of the tree's vertices
    raises ValueError.  ``sphere`` passes in ``analyze_sphere(mesh, field)``.
    """
    if sphere is None:
        sphere = analyze_sphere(mesh, field)
    graph, tree, fixed = sphere.graph, sphere.graph.tree, sphere.fixed
    # the structural group drives the geometry (fixed set, cut choice); a
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
        return [SplitReport(**base, hypothesis_holds=False, passed=False,
                            notes=("fixed set has no edge; nothing to cut",))]
    for eid in edge_ids:
        if eid not in fixed.edge_ids:
            raise EdgeNotFound(f"edge {eid} is not in the fixed set")

    cuts = []   # (edge, end labels, cut value, crossings, tree cut), as cut

    def pieces():
        for eid in edge_ids:
            labels, (lower_rep, upper_rep) = graph.edge_ends(eid)
            c = choose_cut_value(field, graph, eid) if cut_value is None else cut_value
            cycle = level_cycle(mesh, field, graph, eid, c)
            # piece A holds the lower end of crossing 0, which level_cycle
            # takes from the lower end's sublevel component
            piece_a, piece_b = cut_along_cycle(mesh, field, cycle)
            if not ((piece_a.orig_vertex == lower_rep).any()
                    and (piece_b.orig_vertex == upper_rep).any()):
                raise InternalInconsistency("cut pieces do not separate the edge ends")
            cuts.append((eid, labels, c, len(cycle), cut_tree_at(tree, eid)))
            yield from (piece_a, piece_b)

    disks = [_disk_check("AB"[k % 2], cuts[k // 2][4], cuts[k // 2][2], *facts)
             for k, facts in enumerate(disk_analyses(pieces()))]
    reports = []
    for (eid, labels, c, crossings, cut), pair in zip(cuts, zip(disks[::2], disks[1::2])):
        euler_sum_ok = pair[0].euler + pair[1].euler == 2
        if replay_group is None:
            group_a, group_b = (RootedGroup(s.tree, s.marked)
                                for s in (cut.side_a, cut.side_b))
            phi, sides_invariant = certify_splitting(cut, group, group_a, group_b)
        else:
            # a claimed list need not be a group: audit every element
            group_a = enumerate_aut(cut.side_a.tree)
            group_b = enumerate_aut(cut.side_b.tree)
            phi = verify_isomorphism(cut, group, group_a, group_b)
            sides_invariant = keeps_sides(cut, group.elements)
        order_product_ok = group.order == group_a.order * group_b.order
        gap = check_subtree_group_gap(cut, side_orders=(group_a.order, group_b.order))
        notes = tuple(
            f"side {note.side}: marking the cut leaf shrinks the subtree "
            f"group ({note.unmarked_order} -> {note.marked_order})"
            for note in gap if not note.equal)

        passed = (all(d.passed for d in pair) and euler_sum_ok and phi.passed
                  and order_product_ok and sides_invariant)
        reports.append(SplitReport(
            **base,
            hypothesis_holds=True,
            edge_id=eid,
            edge_labels=labels,
            cut_value=float(c),
            crossings=crossings,
            disks=pair,
            euler_sum_ok=euler_sum_ok,
            side_orders=(group_a.order, group_b.order),
            order_product_ok=order_product_ok,
            phi=phi.to_dict(),
            sides_invariant=sides_invariant,
            subtree_group_gap=gap,
            passed=passed,
            notes=notes,
        ))
    return reports


def verify_theorem(mesh: TriangleMesh, field: ScalarField,
                   edge_id: int | None = None,
                   cut_value: float | None = None,
                   replay_group: AutGroup | None = None, *,
                   sphere: SphereAnalysis | None = None) -> SplitReport:
    """Verify the product splitting across one fixed edge, by default the
    one with the smallest id: ``verify_fixed_edges`` of that edge alone."""
    if sphere is None:
        sphere = analyze_sphere(mesh, field)
    edges = sphere.fixed.edge_ids[:1] if edge_id is None else (edge_id,)
    return verify_fixed_edges(mesh, field, edges, cut_value, replay_group,
                              sphere=sphere)[0]


def verify_all_fixed_edges(mesh: TriangleMesh, field: ScalarField, *,
                           sphere: SphereAnalysis | None = None
                           ) -> list[SplitReport]:
    """``verify_fixed_edges`` of every fixed edge; empty when there is none."""
    if sphere is None:
        sphere = analyze_sphere(mesh, field)
    fixed = sphere.fixed.edge_ids
    return verify_fixed_edges(mesh, field, fixed, sphere=sphere) if fixed else []
