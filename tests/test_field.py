from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebsplit.field import (
    ScalarField,
    _link_runs,
    classify_field,
    euler_identity_holds,
    flat_contract,
)
from reebsplit.gen import octahedron_height, realize_tree
from reebsplit.mesh import TriangleMesh, validate_surface
from reebsplit.reeb import build_reeb, choose_cut_value, csr_rows, level_cycle
from reebsplit.mesh import cut_along_cycle


@dataclass(frozen=True)
class Criticality:
    kind: str  # minimum | maximum | regular | saddle | boundary-regular
    multiplicity: int = 0
    lower_components: int = 0
    upper_components: int = 0


# the names of the kind codes of ``FieldClassReport.kinds``
KIND_NAMES = ("regular", "minimum", "maximum", "saddle", "boundary-regular")


def vertex_classes(mesh, field):
    """The classification of every vertex, as objects."""
    report = classify_field(mesh, field)
    keys = zip(report.kinds.tolist(), report.multiplicities.tolist(),
               report.lower.tolist(), _link_runs(mesh, field)[1].tolist())
    return tuple([Criticality(KIND_NAMES[k], m, lo, up)
                  for k, m, lo, up in keys])


def tie(field, v):
    """Total order on vertices: (value, index) lexicographic."""
    return (float(field.values[v]), v)


def zones(contraction):
    """Each zone's vertices, ascending."""
    return tuple(csr_rows(contraction.members, contraction.starts))


def test_octahedron_vertex_kinds(octahedron):
    mesh, field = octahedron
    per_vertex = vertex_classes(mesh, field)
    assert per_vertex[0].kind == "minimum"
    assert per_vertex[5].kind == "maximum"
    for v in (1, 2, 3, 4):
        assert per_vertex[v].kind == "regular"


def test_monkey_saddle_multiplicity(monkey_star):
    mesh, field = monkey_star
    crit = vertex_classes(mesh, field)[0]
    assert crit.kind == "saddle"
    assert crit.lower_components == 3
    assert crit.multiplicity == 2


def test_octahedron_field_class(octahedron):
    mesh, field = octahedron
    rep = classify_field(mesh, field)
    assert rep.field_class == "Morse"
    assert (rep.minima, rep.maxima) == (1, 1)
    assert rep.saddle_multiplicities == ()
    assert euler_identity_holds(rep)


def test_three_bump_field_class(three_bump):
    mesh, field = three_bump
    rep = classify_field(mesh, field)
    assert rep.field_class == "F-generic"
    assert (rep.minima, rep.maxima) == (1, 3)
    assert rep.saddle_multiplicities == (2,)
    assert rep.minima + rep.maxima - sum(rep.saddle_multiplicities) == 2


def test_cut_disk_has_regular_constant_boundary(three_bump):
    mesh, field = three_bump
    graph = build_reeb(mesh, field)
    c = choose_cut_value(field, graph, 0)
    cycle = level_cycle(mesh, field, graph, 0, c)
    a, b = cut_along_cycle(mesh, field, cycle)
    for piece in (a, b):
        rep = classify_field(piece.mesh, piece.field)
        assert rep.valid
        assert {float(piece.field.values[v]) for v in piece.boundary} == {c}


def test_flat_contract_identity(octahedron):
    mesh, field = octahedron
    con = flat_contract(mesh, field)
    assert zones(con) == tuple((v,) for v in range(mesh.n_vertices))


def test_flat_contract_merges_adjacent_equal(octahedron):
    mesh, field = octahedron
    vals = field.values.copy()
    vals[1] = vals[2]  # adjacent equator vertices
    con = flat_contract(mesh, ScalarField(vals))
    assert len(zones(con)) == mesh.n_vertices - 1
    assert tuple(sorted((1, 2))) in zones(con)
    rep = classify_field(mesh, ScalarField(vals))
    assert rep.field_class == "invalid"
    assert any("FlatZone" in r for r in rep.reasons)
    assert rep.reasons == ("FlatZone: 2 adjacent vertices share a value, smallest vertex 1",)


def test_constant_field_rejected(octahedron):
    mesh, _ = octahedron
    field = ScalarField(np.zeros(mesh.n_vertices))
    con = flat_contract(mesh, field)
    assert len(zones(con)) == 1
    assert classify_field(mesh, field).field_class == "invalid"


def test_nonconstant_boundary_rejected():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    rep = classify_field(mesh, ScalarField(np.array([0.0, 1.0, 2.0])))
    assert rep.field_class == "invalid"
    assert any("CriticalBoundary" in r for r in rep.reasons)
    assert rep.reasons == ("CriticalBoundary: boundary cycle at vertex 0 is not constant",)


@pytest.mark.parametrize("interior, reason", [
    ((-1.0, 1.0), "CriticalBoundary: collar sits on both sides of the boundary "
                  "value (vertex 4 below, 5 above)"),
    ((2.0, -1.0), "CriticalBoundary: collar sits on both sides of the boundary "
                  "value (vertex 5 below, 4 above)"),
    ((0.0, 1.0), "FlatZone: constant zone of 5 vertices, smallest vertex 0, "
                 "leaks off a boundary cycle"),
], ids=["collar-4-below", "collar-5-below", "leaking-zone"])
def test_boundary_reasons_name_their_vertices(interior, reason):
    # a square whose boundary 0-1-2-3 has value 0, around interior vertices 4, 5
    verts = [(0, 0, 0), (3, 0, 0), (3, 3, 0), (0, 3, 0), (1, 1.5, 0), (2, 1.5, 0)]
    tris = [(0, 1, 4), (1, 5, 4), (1, 2, 5), (2, 3, 5), (3, 4, 5), (3, 0, 4)]
    rep = classify_field(TriangleMesh(verts, tris),
                         ScalarField(np.array([0.0] * 4 + list(interior))))
    assert reason in rep.reasons
    # a leaking zone is reported once, not also as a plain flat zone
    flat = {r for r in rep.reasons if r.startswith("FlatZone")}
    assert flat == ({reason} if reason.startswith("FlatZone") else set())


def test_boundary_without_collar_named():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    rep = classify_field(mesh, ScalarField(np.zeros(3)))
    assert rep.reasons == (
        "CriticalBoundary: boundary cycle at vertex 0 has no interior collar",)


@settings(max_examples=20, deadline=None)
@given(scale=st.sampled_from([0.25, 0.5, 2.0, 8.0]),
       shift=st.integers(-50, 50))
def test_classification_affine_invariant(scale, shift):
    mesh, field = octahedron_height()
    moved = ScalarField(field.values * scale + shift)
    assert vertex_classes(mesh, field) == vertex_classes(mesh, moved)


def test_negative_scale_swaps_extrema(three_bump):
    mesh, field = three_bump
    rep = classify_field(mesh, field)
    flipped = classify_field(mesh, ScalarField(-field.values))
    assert (flipped.minima, flipped.maxima) == (rep.maxima, rep.minima)
    assert flipped.saddle_multiplicities == rep.saddle_multiplicities


def link_walks(mesh):
    """Ordered link of every vertex and whether it closes into a cycle.

    The link is walked over a multigraph with one edge per incident
    triangle, since two triangles may span the same pair of neighbours (as
    in the two-triangle sphere).  Independent of the classifier's arrays.
    """
    incident = [[] for _ in range(mesh.n_vertices)]
    for ti, tri in enumerate(mesh.triangles.tolist()):
        for v in tri:
            incident[v].append((ti, tri))
    walks = []
    for v, tris in enumerate(incident):
        adj = {}
        for ti, tri in tris:
            p, q = [x for x in tri if x != v]
            adj.setdefault(p, []).append((q, ti))
            adj.setdefault(q, []).append((p, ti))
        ends = sorted(u for u, es in adj.items() if len(es) == 1)
        assert len(ends) in (0, 2) and all(len(es) <= 2 for es in adj.values())
        closed = not ends
        cur = min(adj) if closed else ends[0]
        walk, used = [cur], set()
        while True:
            step = next(((nxt, ti) for nxt, ti in sorted(adj[cur]) if ti not in used),
                        None)
            if step is None:
                break
            used.add(step[1])
            cur = step[0]
            walk.append(cur)
        assert len(used) == len(tris)
        if closed:
            assert walk[0] == walk[-1]
            walk = walk[:-1]
        walks.append((walk, closed))
    return walks


def runs(flags, closed):
    """Number of maximal True runs in a cyclic (closed) or linear sequence."""
    if not any(flags):
        return 0
    if all(flags):
        return 1
    return sum(1 for i, f in enumerate(flags)
               if f and not (flags[i - 1] if (closed or i > 0) else False))


def link_walk_criticality(field, v, link, closed):
    """Oracle: classify ``v`` from the runs along its walked link."""
    below = [tie(field, u) < tie(field, v) for u in link]
    lower = runs(below, closed)
    upper = runs([not b for b in below], closed)
    if not closed:
        return Criticality("boundary-regular", 0, lower, upper)
    if lower == 0:
        return Criticality("minimum", 0, 0, upper)
    if upper == 0:
        return Criticality("maximum", 0, lower, 0)
    assert lower == upper
    if lower == 1:
        return Criticality("regular", 0, 1, 1)
    return Criticality("saddle", lower - 1, lower, upper)


def brute_force_lower_components(mesh, field, v, link_walk=None):
    """Independent oracle: build the lower-link subgraph and count parts."""
    link, closed = link_walk or link_walks(mesh)[v]
    lows = [u for u in link if tie(field, u) < tie(field, v)]
    lowset = set(lows)
    edges = set()
    for i in range(len(link) - (0 if closed else 1)):
        a, b = link[i], link[(i + 1) % len(link)]
        if a in lowset and b in lowset:
            edges.add(frozenset((a, b)))
    comps = 0
    seen = set()
    for s in lows:
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in lowset:
                if y not in seen and frozenset((x, y)) in edges:
                    seen.add(y)
                    stack.append(y)
    return comps


@pytest.mark.parametrize("seed", range(6))
def test_classify_matches_lower_link_oracle(seed):
    from reebsplit.gen import random_field, random_realizable_tree

    tree = random_realizable_tree(6, symmetry=(1, 2)[seed % 2], seed=seed)
    mesh, _ = realize_tree(tree, 4)
    field = random_field(mesh, seed=seed)
    per_vertex = vertex_classes(mesh, field)
    for v, walk in enumerate(link_walks(mesh)):
        assert per_vertex[v].lower_components == \
            brute_force_lower_components(mesh, field, v, walk)


def renumbered(mesh, field, seed):
    """The same surface and field with shuffled vertex ids and triangle order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)  # perm[old] = new
    inv = np.argsort(perm)
    tris = perm[mesh.triangles][rng.permutation(mesh.n_triangles)]
    return (TriangleMesh(mesh.vertices[inv], tris.tolist()),
            ScalarField(field.values[inv]))


def corpus_spheres_and_disks(count):
    from reebsplit.gen import random_realizable_tree
    from reebsplit.selftest import split_corpus_seeds

    for seed, n, symmetry in split_corpus_seeds(count):
        mesh, field = realize_tree(random_realizable_tree(n, symmetry=symmetry,
                                                          seed=seed), 4)
        yield mesh, field
        graph = build_reeb(mesh, field)
        for eid in range(graph.n_edges):
            cycle = level_cycle(mesh, field, graph, eid,
                                choose_cut_value(field, graph, eid))
            for piece in cut_along_cycle(mesh, field, cycle):
                yield piece.mesh, piece.field


def test_classify_field_matches_link_walk_on_corpus():
    checked = set()
    for i, (mesh, field) in enumerate(corpus_spheres_and_disks(20)):
        for m, f in ((mesh, field), renumbered(mesh, field, i)):
            per_vertex = vertex_classes(m, f)
            for v, (link, closed) in enumerate(link_walks(m)):
                want = link_walk_criticality(f, v, link, closed)
                assert per_vertex[v] == want, (i, v)
                assert want.lower_components == \
                    brute_force_lower_components(m, f, v, (link, closed))
                checked.add((closed, want.kind))
    # interior and boundary vertices of every kind were compared
    assert {k for closed, k in checked if closed} == \
        {"minimum", "maximum", "regular", "saddle"}
    assert (False, "boundary-regular") in checked


def test_classify_field_wrong_length(octahedron):
    mesh, _ = octahedron
    with pytest.raises(ValueError):
        classify_field(mesh, ScalarField(np.zeros(3)))


def test_nonfinite_values_rejected():
    with pytest.raises(ValueError):
        ScalarField(np.array([0.0, np.nan]))


def test_misshaped_values_rejected():
    for values in (np.zeros((2, 3)), np.zeros((6, 1)), 5.0):
        with pytest.raises(ValueError, match="1-D"):
            ScalarField(values)


def test_parts_of_a_union_are_classified_as_if_alone(octahedron, monkey_star, three_bump):
    # disks with every kind of boundary reason, a closed sphere, a flat zone
    # and a valid cut disk, side by side in one mesh with offset vertex ids
    square = ([(0, 0, 0), (3, 0, 0), (3, 3, 0), (0, 3, 0), (1, 1.5, 0), (2, 1.5, 0)],
              [(0, 1, 4), (1, 5, 4), (1, 2, 5), (2, 3, 5), (3, 4, 5), (3, 0, 4)])
    triangle = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    mesh, field = octahedron
    graph = build_reeb(mesh, field)
    cycle = level_cycle(mesh, field, graph, 0, choose_cut_value(field, graph, 0))
    disk = cut_along_cycle(mesh, field, cycle)[1]
    flat = field.values.copy()
    flat[1] = flat[2]
    parts = [(TriangleMesh(*square), ScalarField(np.array([0.0] * 4 + list(inner))))
             for inner in ((-1.0, 1.0), (0.0, 1.0), (2.0, 3.0))]
    parts += [(triangle, ScalarField(np.array([0.0, 1.0, 2.0]))),
              (mesh, field), (disk.mesh, disk.field), monkey_star, three_bump,
              (triangle, ScalarField(np.zeros(3))), (mesh, ScalarField(flat))]
    bounds = np.cumsum([0] + [m.n_vertices for m, _ in parts])
    union = TriangleMesh(np.concatenate([m.vertices for m, _ in parts]),
                         np.concatenate([m.triangles + b for (m, _), b in zip(parts, bounds)]))
    values = ScalarField(np.concatenate([f.values for _, f in parts]))

    assert validate_surface(union, bounds) == [validate_surface(m) for m, _ in parts]
    reports = classify_field(union, values, bounds)
    assert len({r.field_class for r in reports}) == 3
    for (m, f), rep, a, b in zip(parts, reports, bounds, bounds[1:]):
        alone = classify_field(m, f)
        assert rep == alone       # class, extrema, saddles and reasons
        for name in ("kinds", "lower"):
            assert np.array_equal(getattr(rep, name)[a:b], getattr(alone, name))
