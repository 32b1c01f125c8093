import functools
import itertools
import json
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from aut_oracles import backtrack_aut
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
    verify_theorem,
)
from reebsplit.treeaut import (
    AutGroup,
    LabeledTree,
    RootedGroup,
    cut_tree_at,
    enumerate_aut,
    tree_isomorphic,
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


def test_cut_points_rounding_onto_a_vertex_still_split(octahedron):
    # an edge from -1e17 to 1 crossed at 0.5 has its crossing parameter
    # round to 1.0: the cut vertex lands on a mesh vertex in floating point,
    # but the cut is fixed by the crossed edges, not by where they are cut
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


def enumerated_gap(cut):
    """``check_subtree_group_gap`` with the marked side orders listed by the
    backtracking oracle."""
    return check_subtree_group_gap(cut, side_orders=tuple(
        len(backtrack_aut(cut.side(name).tree)) for name in ("A", "B")))


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


def orbit_unmarked_orders(cut, side_orders):
    """The unmarked side orders by orbit counting: the marked group is the
    stabilizer of the cut leaf x in the unmarked one, so the unmarked order
    is the marked order times the size of x's orbit, the vertices y with
    x's label that an isomorphism of the side tree onto itself can map x to
    (``tree_isomorphic`` ignores the mark)."""
    orders = []
    for name, marked in zip("AB", side_orders):
        t = cut.side(name).tree
        x = t.marked
        orders.append(marked * sum(tree_isomorphic(t, t, pin=(x, y))
                                   for y in range(t.n) if t.labels[y] == t.labels[x]))
    return orders


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
                notes = enumerated_gap(cut)
                assert [n.unmarked_order for n in notes] == orbit_unmarked_orders(
                    cut, [n.marked_order for n in notes]), (tree, eid, c)
                for note in notes:
                    side = cut.side(note.side).tree
                    assert note.marked_order == RootedGroup(side, side.marked).order
                    unmarked = LabeledTree(side.labels, side.edges)
                    assert note.unmarked_order == \
                        len(backtrack_aut(unmarked)), (tree, eid, c)
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


@pytest.mark.parametrize("shape", ["double-fork", "bumps-6", "five-branches"])
def test_split_verdict_restricts_generators_only(shape, double_fork_tree, monkeypatch):
    tree = {"double-fork": double_fork_tree,
            "bumps-6": LabeledTree([0.0, 1.0] + [2.0] * 6,
                                   [(0, 1)] + [(1, 2 + i) for i in range(6)]),
            "five-branches": random_realizable_tree(6, symmetry=5, seed=4)}[shape]
    mesh, field = realize_tree(tree, 4)
    sphere_tree = build_reeb(mesh, field).tree
    group = enumerate_aut(sphere_tree)
    isomorphism_calls, restrictions, enumerated = [], [], []
    check, restrict, enumerate_ = (split.verify_isomorphism, treeaut.restrict_aut,
                                   split.enumerate_aut)
    monkeypatch.setattr(split, "verify_isomorphism", lambda *args: (
        isomorphism_calls.append(args[0].edge_id), check(*args))[-1])
    monkeypatch.setattr(treeaut, "restrict_aut", lambda cut, g, which: (
        restrictions.append(cut.edge_id), restrict(cut, g, which))[-1])
    monkeypatch.setattr(split, "enumerate_aut", lambda tree: (
        enumerated.append(tree.marked), enumerate_(tree))[-1])

    reports = verify_all_fixed_edges(mesh, field)
    assert reports and all(r.passed for r in reports)
    assert isomorphism_calls == []
    structural = treeaut.unmarked_group(sphere_tree).generators
    assert max(Counter(restrictions).values()) <= 2 * len(structural)
    # the sphere's group and the side groups are all held by structure
    assert enumerated == []

    # a replayed list is audited element by element, once per report,
    # against both enumerated side groups, and only they are enumerated
    restrictions.clear()
    report = verify_theorem(mesh, field, replay_group=AutGroup(group.elements))
    assert report.passed and isomorphism_calls == [report.edge_id]
    assert len(restrictions) == 2 * group.order
    assert len(enumerated) == 2 and None not in enumerated


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
    # the four disks fit in one batch, or under a cap of one vertex make four
    for cap, batches in ((split.BATCH_VERTICES, 1), (1, 4)):
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
        # only the sphere's level cycles read the triangles of an edge
        assert "edge_triangles" in vars(mesh)
        assert not any("edge_triangles" in vars(u) for u in unions)
        # the sphere's group is one by construction: no closure check
        assert calls["verify_group_axioms"] == []


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
            verify_theorem(mesh, field, edge_id=edge)
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
        pieces = []
        for eid in treeaut.fixed_set(enumerate_aut(graph.tree), graph.tree).edge_ids:
            cycle = level_cycle(mesh, field, graph, eid, choose_cut_value(field, graph, eid))
            pieces += cut_along_cycle(mesh, field, cycle)
        batch_sizes.clear()
        checked = list(split.disk_analyses(pieces))
        if mesh is large[0]:
            # under the small cap every large disk is a batch of its own
            assert batch_sizes == [1] * len(pieces) or not small_cap
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
