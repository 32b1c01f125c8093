import functools
import itertools
import json
import random
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from aut_oracles import oracle_side_groups, vf2_side_orbit
from hypothesis import given, settings
from hypothesis import strategies as st

from reebsplit import reeb, split, treeaut
from reebsplit import field as field_module
from reebsplit import mesh as mesh_module
from reebsplit.errors import EdgeNotFound, GenusNotZero, InvalidFieldClass, ReebSplitError
from reebsplit.field import ScalarField, classify_field
from reebsplit.gen import random_realizable_tree, realize_tree
from reebsplit.io import dumps_canonical, mesh_field_from_dict, mesh_field_to_dict
from reebsplit.mesh import TriangleMesh, cut_along_cycle, validate_surface
from reebsplit.reeb import build_reeb, choose_cut_value, csr_rows, level_cycle
from reebsplit.selftest import split_corpus_seeds
from reebsplit.split import (
    check_subtree_group_gap,
    reeb_to_tree,
    verify_all_fixed_edges,
    verify_fixed_edges,
    verify_theorem,
)
from reebsplit.treeaut import (
    AutGroup,
    LabeledTree,
    RootedGroup,
    cut_tree_at,
    enumerate_aut,
)


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


def faulted_cut(monkeypatch, side, fault):
    """Makes every cut give its piece ``side`` (0 for A) the values
    ``fault(piece)``; the list it returns collects the faulted pieces."""
    cut, faulted = split.cut_along_cycle, []

    def faulty(mesh, field, cycle, **kwargs):
        pieces = list(cut(mesh, field, cycle, **kwargs))
        pieces[side] = replace(pieces[side], field=ScalarField(fault(pieces[side])))
        faulted.append(pieces[side])
        return tuple(pieces)

    monkeypatch.setattr(split, "cut_along_cycle", faulty)
    return faulted


def test_invalid_disk_field_names_its_reasons(three_bump, monkeypatch):
    def flat(piece):
        # two adjacent interior vertices share a value: a flat zone
        values = piece.field.values.copy()
        inner = ~piece.mesh.is_boundary_vertex
        u, w = next((u, w) for u, w in piece.mesh.edge_pairs.tolist()
                    if inner[u] and inner[w])
        values[w] = values[u]
        return values

    faulted = faulted_cut(monkeypatch, 1, flat)
    report = verify_theorem(*three_bump)
    [piece] = faulted
    reasons = classify_field(piece.mesh, piece.field).reasons
    assert any(reason.startswith("FlatZone: ") for reason in reasons)
    assert not report.passed and report.disks[1].field_class == "invalid"
    assert report.notes[:len(reasons)] == tuple(f"disk B: {r}" for r in reasons)


def test_disk_boundary_off_the_cut_value_names_a_vertex(three_bump, monkeypatch):
    def lifted(piece):
        values = piece.field.values.copy()
        values[piece.boundary[1]] = np.nextafter(values[piece.boundary[1]], np.inf)
        return values

    faulted = faulted_cut(monkeypatch, 0, lifted)
    report = verify_theorem(*three_bump)
    [piece] = faulted
    v, c = piece.boundary[1], report.cut_value
    assert not report.passed and not report.disks[0].boundary_constant
    assert (f"disk A: boundary vertex {v} has value {float(np.nextafter(c, np.inf))!r}, "
            f"not the cut value {c!r}") in report.notes
    assert report.disks[1].boundary_constant


def test_disk_tree_parting_from_its_side_names_both_vertices(double_fork, monkeypatch):
    # the first disk tree with a vertex two steps below its boundary vertex
    # gets that vertex's label nudged: the walk down both trees must stop at
    # its parent, the one vertex whose children's forms now differ
    trees, faulted = split.part_trees, []

    def faulty(*args):
        for k, graph in enumerate(trees(*args)):
            at = int(np.flatnonzero(graph.kinds == field_module.BOUNDARY)[0])
            order, parent = treeaut.walk(graph.tree.adj, at)
            y = parent[order[-1]]
            if not faulted and y != at:
                faulted.append((k, y, graph.tree.labels[y]))
                graph.tree = nudged(graph.tree, order[-1])
            yield graph

    monkeypatch.setattr(split, "part_trees", faulty)
    mesh, field = double_fork
    reports = verify_all_fixed_edges(mesh, field)
    [(k, y, label)] = faulted
    side = "AB"[k % 2]
    x = build_reeb(mesh, field).tree.labels.index(label)   # a label of one vertex
    parted = [r for r in reports if not r.passed]
    assert parted == [reports[k // 2]]
    assert not parted[0].disks[k % 2].tree_matches_cut_side
    assert parted[0].disks[1 - k % 2].tree_matches_cut_side
    assert [n for n in parted[0].notes if "parts" in n] == [
        f"disk {side}: its tree parts from the cut side at disk tree vertex {y} "
        f"and sphere tree vertex {x}"]


def test_double_fork_both_cuts(double_fork):
    mesh, field = double_fork
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
    # the same one report that split --all-edges prints
    assert verify_all_fixed_edges(mesh, field) == [report]


def test_cut_value_choice_does_not_change_groups(three_bump, monkeypatch):
    mesh, field = three_bump
    graph = build_reeb(mesh, field)
    lo = graph.vertices[graph.edges[0].lower].label
    hi = graph.vertices[graph.edges[0].upper].label
    probes = [lo + 0.31 * (hi - lo), lo + 0.77 * (hi - lo)]
    keys = set()
    for c in probes:
        monkeypatch.setattr(split, "choose_cut_value", lambda field, graph, eid: c)
        r = verify_theorem(mesh, field)
        assert (r.edge_id, r.cut_value) == (0, c)
        assert r.passed
        keys.add((r.group_order, r.side_orders, r.phi["passed"]))
    assert len(keys) == 1


def test_cut_points_rounding_onto_a_vertex_still_split(octahedron):
    # an edge from -1e17 to 1 crossed at 0.5 has its crossing parameter
    # round to 1.0, a mesh vertex in floating point; the cut is fixed by the
    # crossed edges, not by where they are crossed
    mesh, _ = octahedron
    for values in itertools.permutations([-1e17, 0.0, 3.0, 1.0, 1e17, 2.0]):
        reports = verify_all_fixed_edges(mesh, ScalarField(np.array(values)))
        assert reports and all(r.passed for r in reports), values


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


def side_groups(cut):
    """The two cut sides' groups, rooted at the cut point away from the
    other end, as ``verify_fixed_edges`` makes them."""
    return tuple(RootedGroup(cut.tree, cut.base.n, end) for end in reversed(cut.ends))


def side_gap(cut):
    return check_subtree_group_gap(side_groups(cut))


def test_subtree_group_gap_three_bump(three_bump_tree):
    cut = cut_tree_at(three_bump_tree, 0)
    notes = side_gap(cut)
    assert all(n.equal for n in notes)


def test_subtree_group_gap_detects_marking():
    # a leaf in side B shares the cut point's label, so forgetting the mark
    # doubles the subtree group
    tree = LabeledTree([0.0, 2.0, 4.0, 3.0, 6.0, 6.0],
                       [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)])
    cut = cut_tree_at(tree, 1)  # between labels 2 and 4: cut label 3
    assert cut.tree.labels[cut.base.n] == 3.0
    notes = {n.side: n for n in side_gap(cut)}
    assert notes["B"].marked_order == 2
    assert notes["B"].unmarked_order == 4
    assert not notes["B"].equal
    assert notes["A"].equal


def relabelled_cut(tree, eid, label):
    """``cut_tree_at`` with the cut point relabelled ``label``, or as it is
    when ``label`` is None."""
    cut = cut_tree_at(tree, eid)
    if label is None:
        return cut
    labels = list(cut.tree.labels)
    labels[tree.n] = label
    return replace(cut, tree=LabeledTree(labels, cut.tree.edges))


def test_unmarked_orders_by_orbit_match_enumeration():
    trees = [random_realizable_tree(n, symmetry=k, seed=s)
             for s, n, k in split_corpus_seeds(200)]
    trees += [random_realizable_tree(2 + s % 9, symmetry=5, seed=s)
              for s in range(12)]
    trees += [LabeledTree([0.0, 1.0] + [2.0] * b, [(0, 1)] + [(1, 2 + i) for i in range(b)])
              for b in range(1, 8)]
    # besides the midpoint, cut at every vertex label inside the edge, so
    # that some cut points share their label with other vertices.  The
    # marked group is the stabilizer of the cut point in the unmarked one,
    # so the unmarked order is the marked order times the cut point's orbit
    sides, gaps = 0, 0
    for tree in trees:
        for eid in treeaut.fixed_set(enumerate_aut(tree), tree).edge_ids:
            lo, hi = sorted(tree.labels[v] for v in tree.edges[eid])
            for c in [None] + sorted({x for x in tree.labels if lo < x < hi}):
                cut = relabelled_cut(tree, eid, c)
                notes = side_gap(cut)
                for k, (note, marked) in enumerate(zip(notes, oracle_side_groups(cut))):
                    assert note.marked_order == marked.order
                    assert note.unmarked_order == \
                        marked.order * len(vf2_side_orbit(cut, k)), (tree, eid, c)
                    sides += 1
                    gaps += not note.equal
    assert sides > 4000 and gaps > 200, (sides, gaps)


# ----------------------------------------------------------------------
# the disk match read off the side's own AHU pass


def relabel_and_pin(side, c, disk_tree, boundary):
    """The disk match's former path, kept as its oracle: the cut tree
    copied with its cut point relabelled to c, whose branch rooted there
    must have the form of the disk tree rooted at its boundary vertex."""
    labels = list(side.tree.labels)
    labels[side.root] = c
    ids = {}
    return (treeaut._rooted_form(disk_tree, boundary, ids)[0][boundary]
            == treeaut._rooted_form(LabeledTree(labels, side.tree.edges), side.root, ids,
                                    side.avoid)[0][side.root])


def nudged(tree, v):
    labels = list(tree.labels)
    labels[v] = float(np.nextafter(labels[v], np.inf))
    return LabeledTree(labels, tree.edges)


def test_disk_match_equals_relabel_and_pin(monkeypatch):
    disks = []
    check = split._disk_check

    def recorded(side, group, c, piece, rep, fclass, graph):
        disks.append((group, float(c), graph))
        return check(side, group, c, piece, rep, fclass, graph)

    monkeypatch.setattr(split, "_disk_check", recorded)
    fields = list(_split_corpus_fields(30)) + [
        realize_tree(random_realizable_tree(2 + s % 9, symmetry=5, seed=s), 4)
        for s in range(12)]
    matched = mismatched = 0
    for mesh, field in fields:
        disks.clear()
        reports = verify_all_fixed_edges(mesh, field)
        assert [d.tree_matches_cut_side for r in reports for d in r.disks] == \
            [True] * len(disks)
        for k, (group, c, graph) in enumerate(disks):
            tree = graph.tree
            boundary = int(np.flatnonzero(graph.kinds == field_module.BOUNDARY)[0])
            assert relabel_and_pin(group, c, tree, boundary)
            matched += 1
            # the disk with one label nudged (at vertex k mod n), and the
            # other side's tree: the match agrees with the oracle, which
            # mostly rejects them
            other = disks[k ^ 1][0]
            for side, disk in ((group, nudged(tree, k % tree.n)), (other, tree)):
                want = relabel_and_pin(side, c, disk, boundary)
                assert side.root_form_is(disk, boundary, c) == want, (k, want)
                mismatched += not want
    assert matched > 200 and mismatched > 300, (matched, mismatched)


def test_split_makes_three_tree_builds_per_fixed_edge(double_fork_tree, monkeypatch):
    mesh, field = realize_tree(double_fork_tree, 4)
    calls = Counter()

    def counted(name, original):
        return lambda *args, **kwargs: (calls.update([name]),
                                        original(*args, **kwargs))[-1]

    for name in ("_rooted_form", "_centers", "tree_isomorphic"):
        monkeypatch.setattr(treeaut, name, counted(name, getattr(treeaut, name)))
    monkeypatch.setattr(LabeledTree, "__init__",
                        counted("LabeledTree", LabeledTree.__init__))
    sphere = split.analyze_sphere(mesh, field)
    # the sphere: its level-set tree, and one pass from one center
    assert calls == {"LabeledTree": 1, "_centers": 1, "_rooted_form": 1}
    calls.clear()
    reports = verify_all_fixed_edges(mesh, field, sphere=sphere)
    assert len(reports) == 2 and all(r.passed for r in reports)
    # per edge: one cut tree and two disk trees, and the two sides' passes
    # over the cut tree with each disk tree interned in its side's table;
    # no centers, no isomorphism test
    assert calls == {"LabeledTree": 3 * 2, "_rooted_form": 4 * 2}


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
    # the pair is named on each side alone: its vertices in ascending
    # order, then the cut point
    missing = group.elements[-1]
    cut = cut_tree_at(reeb_to_tree(graph), report.edge_id)
    alpha, beta = (tuple(on.index(p[v]) for v in on) for on, p in (
        (cut.sides[k] + (cut.base.n,), treeaut.restrict_aut(cut, missing, name))
        for k, name in enumerate("AB")))
    notes = report.phi["notes"]
    assert any("not closed" in x and f"gives {missing}, which is missing" in x
               for x in notes)
    assert f"a side pair has no preimage: alpha={alpha}, beta={beta}" in notes


@pytest.mark.parametrize("shape", ["double-fork", "bumps-6", "five-branches"])
def test_split_verdict_restricts_generators_only(shape, double_fork_tree, monkeypatch):
    tree = {"double-fork": double_fork_tree,
            "bumps-6": LabeledTree([0.0, 1.0] + [2.0] * 6,
                                   [(0, 1)] + [(1, 2 + i) for i in range(6)]),
            "five-branches": random_realizable_tree(6, symmetry=5, seed=4)}[shape]
    mesh, field = realize_tree(tree, 4)
    sphere_tree = build_reeb(mesh, field).tree
    group = enumerate_aut(sphere_tree)
    isomorphism_calls, restrictions, listed = [], [], []
    check, restrict, close = (split.verify_isomorphism, treeaut.restrict_aut,
                              treeaut.close_under_composition)
    monkeypatch.setattr(split, "verify_isomorphism", lambda *args: (
        isomorphism_calls.append(args[0].edge_id), check(*args))[-1])
    monkeypatch.setattr(treeaut, "restrict_aut", lambda cut, g, which: (
        restrictions.append(cut.edge_id), restrict(cut, g, which))[-1])
    # every element list, enumerated or a RootedGroup's, is spanned here
    monkeypatch.setattr(treeaut, "close_under_composition", lambda gens, n, *args: (
        listed.append(n), close(gens, n, *args))[-1])

    reports = verify_all_fixed_edges(mesh, field)
    assert reports and all(r.passed for r in reports)
    assert isomorphism_calls == []
    structural = treeaut.unmarked_group(sphere_tree).generators
    assert max(Counter(restrictions).values()) <= 2 * len(structural)
    # the sphere's group and the side groups are all held by structure
    assert listed == []

    # a replayed list is audited element by element, once per report,
    # against the certificate's side groups, which an honest dump lists not
    restrictions.clear()
    report = verify_theorem(mesh, field, replay_group=AutGroup(group.elements))
    assert report.passed and isomorphism_calls == [report.edge_id]
    assert len(restrictions) == 2 * group.order
    assert listed == []
    # a dump that misses a pair lists both side groups, to name the first
    report = verify_theorem(mesh, field, replay_group=AutGroup(group.elements[:-1]))
    assert not report.passed and len(listed) == 2


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
        alone = [verify_fixed_edges(*_fresh(mesh, field), [e])[0] for e in edges]
        assert edges
        assert dumps_canonical([r.to_dict() for r in shared]) == \
            dumps_canonical([r.to_dict() for r in alone])


def test_shared_analysis_computes_each_fact_once(double_fork_tree, monkeypatch):
    data = mesh_field_to_dict(*realize_tree(double_fork_tree, 4))
    calls = {name: [] for name in ("TriangleMesh", "build_reeb", "flat_contract",
                                   "classify_field", "validate_surface",
                                   "verify_group_axioms")}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(args[0])     # keeps every mesh alive: ids stay unique
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (split, reeb, field_module, treeaut):
        for name in calls:
            if hasattr(module, name) and name != "TriangleMesh":
                count(module, name)
    init = mesh_module.TriangleMesh.__init__
    monkeypatch.setattr(mesh_module.TriangleMesh, "__init__", lambda self, *args: (
        calls["TriangleMesh"].append(self), init(self, *args))[-1])
    # the four disks fit in one batch, or under a cap of one vertex make one
    # per edge: an edge's two disks always share a union
    for cap, batches in ((split.BATCH_VERTICES, 1), (1, 2)):
        monkeypatch.setattr(split, "BATCH_VERTICES", cap)
        for made in calls.values():
            made.clear()
        mesh, field = mesh_field_from_dict(data)
        reports = verify_all_fixed_edges(mesh, field)

        assert len(reports) == 2
        # the sphere, then one union per batch: no cut piece's own mesh is
        # built
        sphere, *unions = calls["TriangleMesh"]
        assert sphere is mesh and len(unions) == batches
        assert sum(u.n_vertices for u in unions) == \
            sum(d.vertex_count for r in reports for d in r.disks)
        assert calls["build_reeb"] == [mesh]
        for name in ("validate_surface", "classify_field", "flat_contract"):
            assert calls[name] == [mesh] + unions, name
        # a union holds no coordinates: its vertex array is one zero-stride
        # origin
        assert all(u.vertices.strides == (0, 0) for u in unions)
        # only the sphere's level cycles read the triangles of an edge
        assert "edge_triangles" in vars(mesh)
        assert not any("edge_triangles" in vars(u) for u in unions)
        # the sphere's group is one by construction: no closure check
        assert calls["verify_group_axioms"] == []


def test_one_reduction_per_disk_pass_union(monkeypatch):
    # the corpus field with the most fixed edges among the first twenty
    mesh, field = max(_split_corpus_fields(20),
                      key=lambda mf: len(split.analyze_sphere(*mf).fixed.edge_ids))
    calls = Counter()
    parts = []

    def count(module, name, record=lambda *args: None):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            record(*args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(reeb, "_tree_from_sweeps")
    count(split, "_analyze_batch", lambda batch: parts.append(len(batch)))
    # unions of whole edges, two pieces each, or under a cap of one vertex
    # one edge each
    for cap, sizes in ((split.BATCH_VERTICES, [4, 4, 4, 4, 2]), (1, [2] * 9)):
        monkeypatch.setattr(split, "BATCH_VERTICES", cap)
        calls.clear()
        parts.clear()
        assert len(verify_all_fixed_edges(mesh, field)) == 9
        assert parts == sizes
        # the sphere's tree, then one reduction per union
        assert calls == {"_analyze_batch": len(sizes),
                         "_tree_from_sweeps": len(sizes) + 1}


def test_one_vertex_labelling_per_fixed_edge(monkeypatch):
    # the cut value's level components label the sphere's V vertices once
    # per edge, for both its level cycle and its cut; no union of pieces
    # has V vertices, so every such labelling is the sphere's
    fields = [realize_tree(random_realizable_tree(14, symmetry=2, seed=1), 48),
              *_split_corpus_fields(10)]
    sizes = []
    labelled = mesh_module.components

    def counted(n, u, v):
        sizes.append(n)
        return labelled(n, u, v)

    for module in (mesh_module, field_module, reeb):
        if hasattr(module, "components"):
            monkeypatch.setattr(module, "components", counted)
    for mesh, field in fields:
        sphere = split.analyze_sphere(mesh, field)
        sizes.clear()
        reports = verify_all_fixed_edges(mesh, field, sphere=sphere)
        assert len(reports) == len(sphere.fixed.edge_ids)
        assert sizes.count(mesh.n_vertices) == len(reports)


def test_split_spans_no_group(double_fork_tree, monkeypatch):
    mesh, field = realize_tree(double_fork_tree, 4)
    assert enumerate_aut(reeb_to_tree(build_reeb(mesh, field))).order > 1
    spans = []
    greedy = treeaut._greedy_span

    def counted(elements, *args, **kwargs):
        spans.append(tuple(elements))
        return greedy(elements, *args, **kwargs)

    monkeypatch.setattr(treeaut, "_greedy_span", counted)
    assert len(verify_all_fixed_edges(mesh, field)) == 2
    # the fixed set and both certificates read the structural generators,
    # which span a group by construction: no closure span is grown
    assert spans == []

def _cut_disk(mesh, field):
    """The lower disk of the octahedron cut across its only edge."""
    graph = build_reeb(mesh, field)
    c = choose_cut_value(np.sort(field.values), graph, 0)
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


def _canonical(reports):
    return dumps_canonical([r.to_dict() for r in reports])


def _negated(mesh, field):
    return mesh, ScalarField(-field.values)


def _rewound(mesh, field):
    """The mesh+field with every triangle's winding reversed."""
    data = mesh_field_to_dict(mesh, field)
    data["triangles"] = [t[::-1] for t in data["triangles"]]
    return mesh_field_from_dict(data)


def test_negated_field_keeps_the_verdicts():
    for mesh, field in _split_corpus_fields(20):
        reports = verify_all_fixed_edges(mesh, field)
        assert reports
        assert _verdicts(verify_all_fixed_edges(*_negated(mesh, field))) == _verdicts(reports)


def test_reversed_winding_keeps_the_reports():
    for mesh, field in _split_corpus_fields(20):
        assert _canonical(verify_all_fixed_edges(*_rewound(mesh, field))) == \
            _canonical(verify_all_fixed_edges(mesh, field))


def test_edge_outside_the_fixed_set_is_not_found(three_bump):
    mesh, field = three_bump
    assert verify_theorem(mesh, field).fixed_edge_ids == (0,)
    for edge in (1, 99):
        with pytest.raises(ReebSplitError) as caught:
            verify_fixed_edges(mesh, field, [edge])
        assert type(caught.value) is EdgeNotFound, edge


def _tetrahedron(values):
    return (TriangleMesh([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                         [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]),
            ScalarField(np.array(values)))


@pytest.mark.parametrize("values", [
    [1e308, -1e308, 1.7e308, -1.7e308],      # crossed edges span beyond the max
    [1.0e308, 1.7e308, 1.1e308, 1.75e308],   # the edge ends sum beyond it
], ids=["span-beyond-max", "sum-beyond-max"])
def test_values_beyond_half_the_largest_float_split(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = verify_all_fixed_edges(*_tetrahedron(values))
    assert len(reports) == 1 and reports[0].passed
    lo, hi = reports[0].edge_labels
    assert lo < reports[0].cut_value < hi


# ----------------------------------------------------------------------
# the batched disk pass against each disk built and checked alone


@pytest.mark.parametrize("small_cap", [False, True])
def test_batched_disk_pass_matches_each_disk_alone(monkeypatch, small_cap):
    if small_cap:
        monkeypatch.setattr(split, "BATCH_VERTICES", 200)
    batch_sizes = []
    analyze = split._analyze_batch
    monkeypatch.setattr(split, "_analyze_batch", lambda batch: (
        batch_sizes.append(len(batch)), analyze(batch))[1])
    large = realize_tree(random_realizable_tree(14, symmetry=2, seed=1), 48)
    assert large[0].n_vertices == 4148
    corpus_batches = most = 0
    for mesh, field in [large, *_split_corpus_fields(30)]:
        graph = split.analyze_sphere(mesh, field).graph
        pairs = []
        for eid in treeaut.fixed_set(enumerate_aut(graph.tree), graph.tree).edge_ids:
            c = choose_cut_value(np.sort(field.values), graph, eid)
            cycle = level_cycle(mesh, field, graph, eid, c)
            pairs.append(cut_along_cycle(mesh, field, cycle))
        batch_sizes.clear()
        checked = [facts for pair in split.disk_analyses(pairs) for facts in pair]
        pieces = [piece for pair in pairs for piece in pair]
        if mesh is large[0]:
            # under the small cap every large edge's two disks are a batch
            # of their own
            assert batch_sizes == [2] * len(pairs) or not small_cap
        else:
            corpus_batches += len(batch_sizes)
            most = max(most, *batch_sizes)
        assert [piece for piece, *_ in checked] == pieces
        for piece, surface, fclass, tree in checked:
            assert surface == validate_surface(piece.mesh)
            alone = classify_field(piece.mesh, piece.field)
            assert (fclass.field_class, fclass.minima, fclass.maxima,
                    fclass.saddle_multiplicities) == \
                (alone.field_class, alone.minima, alone.maxima,
                 alone.saddle_multiplicities)
            assert fclass.valid and tree is not None
            want = build_reeb(piece.mesh, piece.field)
            assert (tree.tree.labels, tree.tree.edges) == (want.tree.labels, want.tree.edges)
            for name in ("kinds", "multiplicities"):
                assert np.array_equal(getattr(tree, name), getattr(want, name))
            assert csr_rows(*tree.preimages) == csr_rows(*want.preimages)
    # some fields take several batches, and some batches hold several disks
    assert corpus_batches > 30 and most > 1


# ----------------------------------------------------------------------
# metamorphic relations on the first split-corpus fields, with hypothesis
# choosing the field and the transform


def _relabeled(data, seed):
    """The mesh+field with its vertices renumbered, its triangles reordered
    and each triangle's corners rotated, all drawn from ``seed``."""
    rng = random.Random(seed)
    n = len(data["vertices"])
    new = list(range(n))
    rng.shuffle(new)
    vertices = [None] * n
    values = [None] * n
    for v in range(n):
        vertices[new[v]] = data["vertices"][v]
        values[new[v]] = data["values"][v]
    triangles = []
    for tri in data["triangles"]:
        t = [new[v] for v in tri]
        k = rng.randrange(3)
        triangles.append(t[k:] + t[:k])
    rng.shuffle(triangles)
    return dict(data, vertices=vertices, triangles=triangles, values=values)


def _subdivided(mesh, field, t=0.381966):
    """The 1-to-4 subdivision, each new vertex at ``t`` along its edge (from
    the smaller vertex id), where the PL field has the value it gets there;
    ``t`` is not 1/2, so that new values do not tie with the generated
    labels."""
    u, v = mesh.edge_pairs.T
    n = mesh.n_vertices
    mid = {(a, b): n + e for e, (a, b) in enumerate(mesh.edge_pairs.tolist())}
    vertices = np.concatenate((mesh.vertices,
                               (1 - t) * mesh.vertices[u] + t * mesh.vertices[v]))
    values = np.concatenate((field.values, (1 - t) * field.values[u] + t * field.values[v]))
    triangles = []
    for a, b, c in mesh.triangles.tolist():
        ab, bc, ca = (mid[min(x, y), max(x, y)] for x, y in ((a, b), (b, c), (c, a)))
        triangles += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return TriangleMesh(vertices, triangles), ScalarField(values)


# name -> (transform of a mesh and field, what of the reports it keeps)
RELATIONS = {
    "negate": (_negated, _verdicts),
    "rewind": (_rewound, _canonical),
    "renumber": (lambda mesh, field: mesh_field_from_dict(
        _relabeled(mesh_field_to_dict(mesh, field), 7)), _canonical),
    "cube": (lambda mesh, field: (mesh, ScalarField(field.values ** 3)), _verdicts),
    "exp": (lambda mesh, field: (mesh, ScalarField(np.exp(field.values))), _verdicts),
    "subdivide": (_subdivided, _verdicts),
}


@functools.cache
def _corpus_20():
    return [(mesh, field, verify_all_fixed_edges(mesh, field))
            for mesh, field in _split_corpus_fields(20)]


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 19), seed=st.integers(1, 2**32))
def test_renumbering_keeps_the_reports(index, seed):
    mesh, field, reports = _corpus_20()[index]
    renumbered = mesh_field_from_dict(_relabeled(mesh_field_to_dict(mesh, field), seed))
    assert _canonical(verify_all_fixed_edges(*renumbered)) == _canonical(reports)


@settings(max_examples=30, deadline=None)
@given(index=st.integers(0, 19), transform=st.sampled_from(["cube", "exp", "subdivide"]))
def test_monotone_maps_and_subdivision_keep_the_verdicts(index, transform):
    mesh, field, reports = _corpus_20()[index]
    transformed = RELATIONS[transform][0](mesh, field)
    assert _verdicts(verify_all_fixed_edges(*transformed)) == _verdicts(reports)


# ----------------------------------------------------------------------
# every relation on the named fixtures

@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("name", ["three_bump", "double_fork", "octahedron"])
def test_relations_keep_the_named_fixtures_reports(request, name, relation):
    mesh, field = request.getfixturevalue(name)
    transform, kept = RELATIONS[relation]
    reports = verify_all_fixed_edges(mesh, field)
    assert reports and all(r.passed for r in reports)
    assert kept(verify_all_fixed_edges(*transform(mesh, field))) == kept(reports)
