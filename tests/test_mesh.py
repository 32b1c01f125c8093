import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebsplit.errors import (
    CycleNotLevel,
    DegenerateTriangle,
    NonManifoldEdge,
    NonOrientable,
    PinchedVertex,
)
from reebsplit.field import ScalarField, classify_field
from reebsplit.gen import octahedron_height, realize_tree
from reebsplit.mesh import (
    LevelCycle,
    TriangleMesh,
    components,
    cut_along_cycle,
    validate_surface,
)
from reebsplit.reeb import build_reeb, choose_cut_value, level_cycle


def test_octahedron_is_a_sphere(octahedron):
    mesh, _ = octahedron
    rep = validate_surface(mesh)
    assert rep.closed and rep.orientable and rep.connected
    assert rep.genus == 0
    assert rep.euler == 2
    assert rep.boundary_count == 0


def test_single_triangle_is_a_disk():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    rep = validate_surface(mesh)
    assert not rep.closed
    assert rep.boundary_count == 1
    assert rep.euler == 1
    assert rep.genus == 0


def test_two_triangle_pillow_counts():
    # two triangles glued along all three edges: V=3, E=3, F=2
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 1)])
    rep = validate_surface(mesh)
    assert (mesh.n_vertices, mesh.n_edges, mesh.n_triangles) == (3, 3, 2)
    assert rep.closed and rep.euler == 2 and rep.genus == 0


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        TriangleMesh([(0, 0, 0), (1, 0, 0)], [(0, 1, 1)])


def test_nonmanifold_edge_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)]
    with pytest.raises(NonManifoldEdge):
        TriangleMesh(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_pinched_vertex_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    with pytest.raises(PinchedVertex):
        TriangleMesh(verts, [(0, 1, 2), (0, 3, 4)])


def two_octahedra(shared: bool):
    """Two octahedra, disjoint or glued at one vertex."""
    mesh, _ = octahedron_height()
    tris = mesh.triangles.tolist()
    offset = 5 if shared else 6
    # the second copy's vertex 0 becomes vertex 0 again when shared
    second = [[0 if shared and x == 0 else x + offset for x in t] for t in tris]
    verts = np.concatenate((mesh.vertices, mesh.vertices[1 if shared else 0:] + 3.0))
    return verts, tris + second


def test_closed_pinch_rejected():
    # every edge lies in two triangles and no link has a loose end, but the
    # shared vertex's link is two separate cycles
    verts, tris = two_octahedra(shared=True)
    with pytest.raises(PinchedVertex, match="vertex 0"):
        TriangleMesh(verts, tris)


def test_two_disjoint_octahedra():
    mesh = TriangleMesh(*two_octahedra(shared=False))
    rep = validate_surface(mesh)
    assert not mesh.connected() and not rep.connected
    assert mesh.component_count() == 2
    assert rep.genus == 0 and rep.euler == 4 and rep.closed


def dfs_labels(n, edges):
    """Smallest node of each node's component, by depth-first search."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * n
    for s in range(n):
        if label[s] >= 0:
            continue
        label[s] = s
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if label[w] < 0:
                    label[w] = s
                    stack.append(w)
    return label


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3 * n) if n else st.just([]))))
def test_components_matches_dfs(graph):
    n, edges = graph
    u = [a for a, _ in edges]
    v = [b for _, b in edges]
    assert components(n, u, v).tolist() == dfs_labels(n, edges)


def test_moebius_band_not_orientable():
    verts = [(np.cos(a), np.sin(a), 0.0) for a in np.linspace(0, 4, 5)]
    tris = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    mesh = TriangleMesh(verts, tris)
    with pytest.raises(NonOrientable):
        validate_surface(mesh)


def test_torus_detected_as_genus_one(torus):
    rep = validate_surface(torus[0])
    assert rep.closed and rep.genus == 1 and rep.euler == 0


def octa_cut(octahedron):
    mesh, field = octahedron
    graph = build_reeb(mesh, field)
    c = choose_cut_value(field, graph, 0)
    cycle = level_cycle(mesh, field, graph, 0, c)
    return mesh, field, cycle, c


def test_octahedron_equator_cut(octahedron):
    mesh, field, cycle, c = octa_cut(octahedron)
    assert len(cycle) == 4
    a, b = cut_along_cycle(mesh, field, cycle)
    for piece in (a, b):
        rep = validate_surface(piece.mesh)
        assert rep.euler == 1
        assert rep.boundary_count == 1
        assert rep.genus == 0
        assert all(piece.field.values[v] == c for v in piece.boundary)


def test_cut_conservation_counts(octahedron):
    mesh, field, cycle, _ = octa_cut(octahedron)
    a, b = cut_along_cycle(mesh, field, cycle)
    nc = len(cycle)
    assert a.mesh.n_vertices + b.mesh.n_vertices == mesh.n_vertices + 2 * nc
    assert a.mesh.n_triangles + b.mesh.n_triangles == mesh.n_triangles + 2 * nc
    assert validate_surface(a.mesh).euler + validate_surface(b.mesh).euler == 2


def test_three_bump_cut_critical_split(three_bump):
    mesh, field = three_bump
    graph = build_reeb(mesh, field)
    # edge 0 is the basin-side edge (min below the saddle)
    c = choose_cut_value(field, graph, 0)
    cycle = level_cycle(mesh, field, graph, 0, c)
    a, b = cut_along_cycle(mesh, field, cycle)
    fa = classify_field(a.mesh, a.field)
    fb = classify_field(b.mesh, b.field)
    assert fa.minima + fa.maxima + len(fa.saddle_multiplicities) == 1
    assert fb.minima + fb.maxima + len(fb.saddle_multiplicities) == 4


def test_cut_piece_fields_classify(three_bump):
    mesh, field = three_bump
    graph = build_reeb(mesh, field)
    for eid in range(graph.n_edges):
        c = choose_cut_value(field, graph, eid)
        cycle = level_cycle(mesh, field, graph, eid, c)
        a, b = cut_along_cycle(mesh, field, cycle)
        for piece in (a, b):
            rep = validate_surface(piece.mesh)
            assert rep.boundary_count == 1 and rep.genus == 0
            assert classify_field(piece.mesh, piece.field).valid


def test_cycle_value_must_be_consistent(octahedron):
    mesh, field, cycle, _ = octa_cut(octahedron)
    bad = LevelCycle(crossings=cycle.crossings, closed=True,
                     value=cycle.value + 0.7)
    with pytest.raises(CycleNotLevel):
        cut_along_cycle(mesh, field, bad)


def test_cycle_open_rejected(octahedron):
    mesh, field, cycle, _ = octa_cut(octahedron)
    bad = LevelCycle(crossings=cycle.crossings[:-1], closed=False,
                     value=cycle.value)
    with pytest.raises(CycleNotLevel):
        cut_along_cycle(mesh, field, bad)


def test_cut_requires_closed_surface():
    mesh = TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    field = ScalarField(np.array([0.0, 1.0, 2.0]))
    cyc = LevelCycle(crossings=((0, 0.5), (1, 0.25), (2, 0.75)), closed=True,
                     value=0.5)
    with pytest.raises(CycleNotLevel):
        cut_along_cycle(mesh, field, cyc)


def test_generated_cuts_validate_everywhere():
    from reebsplit.gen import random_realizable_tree

    for seed in (1, 4, 9):
        tree = random_realizable_tree(8, symmetry=2, seed=seed)
        mesh, field = realize_tree(tree, 4)
        graph = build_reeb(mesh, field)
        for eid in range(graph.n_edges):
            c = choose_cut_value(field, graph, eid)
            cycle = level_cycle(mesh, field, graph, eid, c)
            a, b = cut_along_cycle(mesh, field, cycle)
            for piece in (a, b):
                rep = validate_surface(piece.mesh)
                assert rep.euler == 1 and rep.boundary_count == 1
