import json

import numpy as np
import pytest

from reebsplit import reeb, split, treeaut
from reebsplit import field as field_module
from reebsplit.errors import GenusNotZero, InvalidFieldClass, ReebSplitError
from reebsplit.field import ScalarField
from reebsplit.gen import random_realizable_tree, realize_tree
from reebsplit.io import dumps_canonical, mesh_field_from_dict, mesh_field_to_dict
from reebsplit.mesh import cut_along_cycle
from reebsplit.reeb import build_reeb, choose_cut_value, level_cycle
from reebsplit.selftest import split_corpus_seeds
from reebsplit.split import (
    check_subtree_group_gap,
    reeb_to_tree,
    verify_all_fixed_edges,
    verify_theorem,
)
from reebsplit.treeaut import LabeledTree, cut_tree_at, enumerate_aut


def test_octahedron_split_passes(octahedron):
    mesh, field = octahedron
    report = verify_theorem(mesh, field)
    assert report.hypothesis_holds
    assert report.passed
    assert report.group_order == 1
    assert report.side_orders == (1, 1)
    assert report.euler_sum_ok
    assert all(d.is_disk for d in report.disks)


def test_three_bump_split_orders(three_bump):
    mesh, field = three_bump
    report = verify_theorem(mesh, field)
    assert report.passed
    assert report.group_order == 6
    assert report.side_orders == (1, 6)
    assert report.phi["injective"] and report.phi["surjective"]
    assert report.phi["homomorphism"]
    assert report.sides_invariant
    assert all(d.tree_matches_cut_side for d in report.disks)
    assert report.crossings == 4


def test_double_fork_both_cuts(double_fork_tree):
    mesh, field = realize_tree(double_fork_tree, 4)
    reports = verify_all_fixed_edges(mesh, field)
    assert len(reports) == 2
    orders = sorted(r.side_orders for r in reports)
    assert orders == [(1, 4), (2, 2)]
    assert all(r.passed for r in reports)
    assert all(r.group_order == 4 for r in reports)


def test_hypothesis_failure_is_clean():
    # two equal branches below and two above one center: only the center is
    # fixed, no edge, so the pipeline reports instead of cutting
    tree = LabeledTree([1.0, 0.0, 0.0, 2.0, 2.0],
                       [(0, 1), (0, 2), (0, 3), (0, 4)])
    mesh, field = realize_tree(tree, 4)
    report = verify_theorem(mesh, field)
    assert not report.hypothesis_holds
    assert not report.passed
    assert report.fixed_variant == "subtree"
    assert len(report.fixed_vertices) == 1
    assert verify_all_fixed_edges(mesh, field) == []


def test_cut_value_choice_does_not_change_groups(three_bump):
    mesh, field = three_bump
    graph = build_reeb(mesh, field)
    lo = graph.vertices[graph.edges[0].lower].label
    hi = graph.vertices[graph.edges[0].upper].label
    probes = [lo + 0.31 * (hi - lo), lo + 0.77 * (hi - lo)]
    keys = set()
    for c in probes:
        r = verify_theorem(mesh, field, edge_id=0, cut_value=c)
        assert r.passed
        keys.add((r.group_order, r.side_orders, r.phi["passed"]))
    assert len(keys) == 1


def test_all_fixed_edges_pass_on_symmetric_corpus():
    count = 0
    for seed in range(12):
        tree = random_realizable_tree(2 + seed % 6,
                                      symmetry=(1, 2, 3)[seed % 3], seed=seed)
        mesh, field = realize_tree(tree, 4)
        for report in verify_all_fixed_edges(mesh, field):
            count += 1
            assert report.passed, (seed, report.edge_id, report.notes)
            assert report.group_order == report.side_orders[0] * report.side_orders[1]
            assert report.euler_sum_ok
    assert count > 10


def enumerated_gap(cut):
    """``check_subtree_group_gap`` with the marked side orders enumerated."""
    return check_subtree_group_gap(cut, side_orders=tuple(
        enumerate_aut(cut.side(name).tree).order for name in ("A", "B")))


def test_subtree_group_gap_three_bump(three_bump_tree):
    cut = cut_tree_at(three_bump_tree, 0)
    notes = enumerated_gap(cut)
    assert all(n.equal for n in notes)


def test_subtree_group_gap_detects_marking():
    # a leaf in side B shares the cut point's label, so forgetting the mark
    # doubles the subtree group
    tree = LabeledTree([0.0, 2.0, 4.0, 3.0, 6.0, 6.0],
                       [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)])
    cut = cut_tree_at(tree, 1)  # between labels 2 and 4: cut label 3
    assert cut.cut_label == 3.0
    notes = {n.side: n for n in enumerated_gap(cut)}
    assert notes["B"].marked_order == 2
    assert notes["B"].unmarked_order == 4
    assert not notes["B"].equal
    assert notes["A"].equal


def test_unmarked_orders_by_orbit_match_enumeration():
    trees = [random_realizable_tree(n, symmetry=k, seed=s)
             for s, n, k in split_corpus_seeds(200)]
    trees += [random_realizable_tree(2 + s % 9, symmetry=5, seed=s)
              for s in range(12)]
    trees += [LabeledTree([0.0, 1.0] + [2.0] * b, [(0, 1)] + [(1, 2 + i) for i in range(b)])
              for b in range(1, 8)]
    # besides the midpoint, cut at every vertex label inside the edge, so
    # that some cut leaves share their label with other vertices
    sides, gaps = 0, 0
    for tree in trees:
        for eid in treeaut.fixed_set(enumerate_aut(tree), tree).edge_ids:
            lo, hi = sorted(tree.labels[v] for v in tree.edges[eid])
            for c in [None] + sorted({x for x in tree.labels if lo < x < hi}):
                cut = cut_tree_at(tree, eid, c)
                for note in enumerated_gap(cut):
                    side = cut.side(note.side).tree
                    assert note.marked_order == enumerate_aut(side).order
                    unmarked = LabeledTree(side.labels, side.edges)
                    assert note.unmarked_order == \
                        enumerate_aut(unmarked).order, (tree, eid, c)
                    sides += 1
                    gaps += not note.equal
    assert sides > 4000 and gaps > 200, (sides, gaps)


def test_report_serialization_shape(octahedron):
    mesh, field = octahedron
    report = verify_theorem(mesh, field)
    data = report.to_dict()
    assert data["schema"] == "reeb-split/1"
    assert "seconds" not in data
    assert data["passed"] is True
    assert "PASS" in report.summary()


def test_replay_group_tamper_detected(three_bump):
    from reebsplit.treeaut import AutGroup

    mesh, field = three_bump
    graph = build_reeb(mesh, field)
    group = enumerate_aut(reeb_to_tree(graph))
    tampered = AutGroup(elements=group.elements[:-1])
    report = verify_theorem(mesh, field, replay_group=tampered)
    assert report.hypothesis_holds
    assert not report.passed
    # the notes name the dropped element as the product that leaves the
    # set, and its restriction pair as the side pair without a preimage
    missing = group.elements[-1]
    cut = cut_tree_at(reeb_to_tree(graph), report.edge_id)
    alpha = treeaut.restrict_aut(cut, missing, "A")
    beta = treeaut.restrict_aut(cut, missing, "B")
    notes = report.phi["notes"]
    assert any("not closed" in x and f"gives {missing}, which is missing" in x
               for x in notes)
    assert f"a side pair has no preimage: alpha={alpha}, beta={beta}" in notes


def test_sides_invariant_claim(three_bump):
    mesh, field = three_bump
    report = verify_theorem(mesh, field)
    assert report.sides_invariant is True


# ----------------------------------------------------------------------
# the sphere analysis shared across fixed edges

def _fresh(mesh, field):
    """A newly parsed copy of a mesh and field, sharing no objects."""
    return mesh_field_from_dict(json.loads(dumps_canonical(
        mesh_field_to_dict(mesh, field))))


def _split_corpus_fields(count):
    for seed, n, symmetry in split_corpus_seeds(count):
        tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
        yield realize_tree(tree, 4)


def test_shared_analysis_matches_standalone_reports(double_fork_tree):
    fields = [realize_tree(double_fork_tree, 4)] + list(_split_corpus_fields(20))
    for mesh, field in fields:
        shared = verify_all_fixed_edges(*_fresh(mesh, field))
        edges = verify_theorem(*_fresh(mesh, field)).fixed_edge_ids
        alone = [verify_theorem(*_fresh(mesh, field), edge_id=e) for e in edges]
        assert edges
        assert dumps_canonical([r.to_dict() for r in shared]) == \
            dumps_canonical([r.to_dict() for r in alone])


def test_shared_analysis_computes_each_fact_once(double_fork_tree, monkeypatch):
    calls = {name: [] for name in ("build_reeb", "flat_contract", "classify_field",
                                   "validate_surface", "verify_group_axioms")}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(args[0])     # keeps every mesh alive: ids stay unique
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (split, reeb, field_module, treeaut):
        for name in calls:
            if hasattr(module, name):
                count(module, name)
    reports = verify_all_fixed_edges(*realize_tree(double_fork_tree, 4))

    assert len(reports) == 2
    meshes = {id(m) for m in calls["build_reeb"]}
    assert len(calls["build_reeb"]) == len(meshes) == 1 + 2 * 2
    assert len(calls["flat_contract"]) == len(calls["build_reeb"])
    for name in ("classify_field", "validate_surface"):
        assert sorted(map(id, calls[name])) == sorted(meshes), name
    assert len(calls["verify_group_axioms"]) == 1



def test_sphere_group_span_built_once_for_all_closure_checks(double_fork_tree,
                                                            monkeypatch):
    mesh, field = realize_tree(double_fork_tree, 4)
    group = enumerate_aut(reeb_to_tree(build_reeb(mesh, field)))
    assert group.order > 1
    spans = []
    greedy = treeaut._greedy_span

    def counted(elements, *args, **kwargs):
        spans.append(tuple(elements))
        return greedy(elements, *args, **kwargs)

    monkeypatch.setattr(treeaut, "_greedy_span", counted)
    assert len(verify_all_fixed_edges(mesh, field)) == 2
    # one span, built at enumeration, gives the generators and serves the
    # closure checks of fixed_set and of both fixed edges
    assert spans.count(group.elements) == 1

def _cut_disk(mesh, field):
    """The lower disk of the octahedron cut across its only edge."""
    graph = build_reeb(mesh, field)
    c = choose_cut_value(field, graph, 0)
    piece = cut_along_cycle(mesh, field, level_cycle(mesh, field, graph, 0, c))[0]
    return piece.mesh, piece.field


def test_exception_order_of_both_entry_points(octahedron, torus):
    mesh, field = octahedron
    disk_mesh, disk_field = _cut_disk(mesh, field)
    flat = ScalarField(np.zeros(mesh.n_vertices))
    # a surface that is no sphere is refused before its field is classified
    cases = {
        "torus": (torus, GenusNotZero, GenusNotZero),
        "cut disk": ((disk_mesh, disk_field), GenusNotZero, GenusNotZero),
        "constant disk": ((disk_mesh, ScalarField(np.zeros(disk_mesh.n_vertices))),
                          GenusNotZero, GenusNotZero),
        "flat octahedron": ((mesh, flat), InvalidFieldClass, InvalidFieldClass),
    }
    for name, ((m, f), all_edges_error, theorem_error) in cases.items():
        for entry, expected in ((verify_all_fixed_edges, all_edges_error),
                                (verify_theorem, theorem_error)):
            with pytest.raises(ReebSplitError) as caught:
                entry(m, f)
            assert type(caught.value) is expected, (name, entry.__name__)


# ----------------------------------------------------------------------
# metamorphic relations: transformed inputs whose verdicts are known


def _verdicts(reports):
    """What ``f -> -f`` keeps of each report, as a sorted multiset; the tree
    flips and sides A and B swap."""
    return sorted((r.group_order, tuple(sorted(r.side_orders)), r.fixed_variant,
                   len(r.fixed_edge_ids), r.reeb_vertices, r.passed)
                  for r in reports)


def test_negated_field_keeps_the_verdicts():
    for mesh, field in _split_corpus_fields(20):
        reports = verify_all_fixed_edges(mesh, field)
        negated = verify_all_fixed_edges(mesh, ScalarField(-field.values))
        assert reports
        assert _verdicts(negated) == _verdicts(reports)


def test_reversed_winding_keeps_the_reports():
    for mesh, field in _split_corpus_fields(20):
        data = mesh_field_to_dict(mesh, field)
        data["triangles"] = [t[::-1] for t in data["triangles"]]
        reversed_reports = verify_all_fixed_edges(*mesh_field_from_dict(data))
        assert dumps_canonical([r.to_dict() for r in reversed_reports]) == \
            dumps_canonical([r.to_dict() for r in verify_all_fixed_edges(mesh, field)])
