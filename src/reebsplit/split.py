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

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EdgeNotFound, GenusNotZero, InternalInconsistency
from .field import BOUNDARY, FieldClassReport, ScalarField, classify_field
from .mesh import TriangleMesh, cut_along_cycle, disconnection, level_components, validate_surface
from .reeb import ReebGraph, build_reeb, choose_cut_value, level_cycle, part_trees
from .treeaut import (
    AutGroup,
    FixedSet,
    LabeledTree,
    RootedGroup,
    certify_splitting,
    cut_tree_at,
    fixed_set,
    side_leaver,
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
    ``verify_fixed_edges`` and ``verify_all_fixed_edges``, so a field's
    tree, group and fixed set are computed once however many edges are cut.
    """

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
        got = surface if surface.connected else disconnection(mesh, 0, mesh.n_vertices)
        raise GenusNotZero(f"need a closed connected genus-0 surface, got {got}")
    fclass = classify_field(mesh, field)
    graph = build_reeb(mesh, field, surface=surface, fclass=fclass)
    group = unmarked_group(graph.tree)
    return SphereAnalysis(fclass=fclass, graph=graph, group=group,
                          fixed=fixed_set(group, graph.tree))


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


def check_subtree_group_gap(side_groups) -> tuple[GapNote, ...]:
    """Compare the groups of sides A and B, ``RootedGroup``s at their cut
    leaves, with the sides' unmarked groups (``unmarked_order``)."""
    return tuple(GapNote(side=name, marked_order=group.order,
                         unmarked_order=group.unmarked_order)
                 for name, group in zip("AB", side_groups))


# a batch of cut pieces closes before its union would pass this many vertices
# (a larger edge's pair is a batch of its own): a union's peak memory, about
# 1 kB a vertex, grows with it faster than the per-call time it saves falls
BATCH_VERTICES = 768


def disk_analyses(pairs):
    """Each edge's pair of cut pieces as a pair of each piece with its
    ``validate_surface``, ``classify_field`` and tree (None where its field
    is invalid).  Pairs are taken whole, as they come, in batches of at most
    ``BATCH_VERTICES`` vertices, each one disjoint-union mesh."""
    batch, vertices = [], 0
    for pair in pairs:
        size = sum(len(piece.field) for piece in pair)
        if batch and vertices + size > BATCH_VERTICES:
            yield from _paired(_analyze_batch(batch))
            batch, vertices = [], 0
        batch += pair
        vertices += size
    if batch:
        yield from _paired(_analyze_batch(batch))


def _paired(analyses):
    """Consecutive pairs of ``analyses``: each edge's disk A and disk B."""
    it = iter(analyses)
    return zip(it, it)


def _analyze_batch(batch) -> list[tuple]:
    """Each piece of ``batch`` with its ``validate_surface``,
    ``classify_field`` and tree, all from one disjoint-union mesh of the
    pieces: one validation, one classification and one reduction
    (``part_trees``) for the whole batch."""
    # the union mesh is freed on return, before the next batch is built
    bounds = np.cumsum([0] + [len(p.field) for p in batch])
    union = TriangleMesh(
        np.broadcast_to(0.0, (bounds[-1], 3)),
        np.concatenate([p.triangles + b for p, b in zip(batch, bounds.tolist())]))
    surfaces = validate_surface(union, bounds)
    fclasses = classify_field(
        union, ScalarField(np.concatenate([p.field.values for p in batch])), bounds)
    return list(zip(batch, surfaces, fclasses,
                    part_trees(union, surfaces, fclasses, bounds)))


def _disk_check(side: str, group: RootedGroup, c: float,
                piece, rep, fclass, graph) -> tuple[DiskCheck, tuple[str, ...]]:
    """The check of one cut piece, and the notes that name the witnesses of
    its invalid field, of where its tree parts from its cut side (the
    branch of ``group``, rooted at the cut point) and of a boundary vertex
    off the cut value."""
    notes = tuple(f"disk {side}: {reason}" for reason in fclass.reasons)
    match = False
    if graph is not None:
        at = int(np.flatnonzero(graph.kinds == BOUNDARY)[0])
        match = group.root_form_is(graph.tree, at, float(c))
        if not match:
            x, y = group.parting(graph.tree, at, float(c))
            where = "the cut point" if x == group.root else f"sphere tree vertex {x}"
            notes += (f"disk {side}: its tree parts from the cut side at disk "
                      f"tree vertex {y} and {where}",)
    off = np.flatnonzero(piece.field.values.take(piece.boundary) != c)
    if len(off):
        v = piece.boundary[off[0]]
        notes += (f"disk {side}: boundary vertex {v} has value "
                  f"{float(piece.field.values[v])!r}, not the cut value {float(c)!r}",)
    return DiskCheck(
        side=side,
        euler=rep.euler,
        boundary_count=rep.boundary_count,
        genus=rep.genus,
        boundary_constant=not len(off),
        boundary_value=float(c),
        field_class=fclass.field_class,
        vertex_count=rep.vertex_count,
        triangle_count=rep.triangle_count,
        interior_minima=fclass.minima,
        interior_maxima=fclass.maxima,
        saddle_multiplicities=fclass.saddle_multiplicities,
        tree_matches_cut_side=match,
    ), notes


def verify_fixed_edges(mesh: TriangleMesh, field: ScalarField, edge_ids,
                       replay_group: AutGroup | None = None, *,
                       sphere: SphereAnalysis | None = None) -> list[SplitReport]:
    """Verify the product splitting across each fixed edge of ``edge_ids``,
    cut at ``choose_cut_value``; one report per edge, or the one report that
    the hypothesis fails when the fixed set has no edge.

    An edge outside the fixed set raises EdgeNotFound.  The map to the side
    groups and the sides' invariance are certified on the generators of the
    sphere's group (``certify_splitting``), with that group and each side
    group held by structure (``RootedGroup`` at a center, or at the cut
    point over its branch of the cut tree), none enumerated; each side's one
    pass also serves its disk-tree match and its gap note.  ``replay_group``
    substitutes a dumped element list for the sphere's group, to audit it
    element by element (``verify_isomorphism``) against the same side
    groups, which are listed only to name the first side pair a dump
    misses: a tampered dump fails the verdict, and an element that is no
    permutation of the tree's vertices raises ValueError.  ``sphere``
    passes in ``analyze_sphere(mesh, field)``.
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

    # (edge, end labels, cut value, crossings, tree cut) of the edges cut
    # but not yet reported, so that each is freed once reported
    cuts = deque()
    # the field's values in ascending order, for every edge's cut value
    ascending = field.values[sphere.fclass.order]

    def pieces():
        for eid in edge_ids:
            labels, (lower_rep, upper_rep) = graph.edge_ends(eid)
            c = choose_cut_value(ascending, graph, eid)
            levels = level_components(mesh, field.values, c)
            cycle = level_cycle(mesh, field, graph, eid, c, levels=levels)
            # piece A holds the lower end of crossing 0, which level_cycle
            # takes from the lower end's sublevel component
            piece_a, piece_b = cut_along_cycle(mesh, field, cycle, levels=levels)
            if not ((piece_a.orig_vertex == lower_rep).any()
                    and (piece_b.orig_vertex == upper_rep).any()):
                raise InternalInconsistency("cut pieces do not separate the edge ends")
            cuts.append((eid, labels, c, len(cycle), cut_tree_at(tree, eid)))
            yield piece_a, piece_b

    reports = []
    for facts_a, facts_b in disk_analyses(pieces()):
        eid, labels, c, crossings, cut = cuts.popleft()
        # each side's group: the cut point's branch away from the other end
        group_a, group_b = (RootedGroup(cut.tree, tree.n, end) for end in reversed(cut.ends))
        disk_a, notes_a = _disk_check("A", group_a, c, *facts_a)
        disk_b, notes_b = _disk_check("B", group_b, c, *facts_b)
        pair = (disk_a, disk_b)
        euler_sum_ok = pair[0].euler + pair[1].euler == 2
        if replay_group is None:
            phi, leaver = certify_splitting(cut, group, group_a, group_b)
        else:
            # a claimed list need not be a group: audit every element
            phi = verify_isomorphism(cut, group, group_a, group_b)
            leaver = side_leaver(cut, group.elements, "replayed element g")
        sides_invariant = leaver is None
        order_product_ok = group.order == group_a.order * group_b.order
        gap = check_subtree_group_gap((group_a, group_b))
        notes = notes_a + notes_b + tuple(
            f"side {note.side}: marking the cut leaf shrinks the subtree "
            f"group ({note.unmarked_order} -> {note.marked_order})"
            for note in gap if not note.equal) + ((leaver,) if leaver else ())

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
                   replay_group: AutGroup | None = None) -> SplitReport:
    """Verify the product splitting across the fixed edge with the smallest
    id: ``verify_fixed_edges`` of that edge alone.  Any other fixed edge
    ``eid`` is ``verify_fixed_edges(mesh, field, [eid])[0]``."""
    sphere = analyze_sphere(mesh, field)
    return verify_fixed_edges(mesh, field, sphere.fixed.edge_ids[:1],
                              replay_group, sphere=sphere)[0]


def verify_all_fixed_edges(mesh: TriangleMesh, field: ScalarField, *,
                           sphere: SphereAnalysis | None = None
                           ) -> list[SplitReport]:
    """``verify_fixed_edges`` of every fixed edge: what ``split --all-edges``
    prints, so the one report that the hypothesis fails when there is none."""
    if sphere is None:
        sphere = analyze_sphere(mesh, field)
    return verify_fixed_edges(mesh, field, sphere.fixed.edge_ids, sphere=sphere)
