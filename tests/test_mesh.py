import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spheres import flipped_sphere
from test_irregular_spheres import hull_fields

import reebsplit.mesh
import reebsplit.split
from reebsplit.errors import (
    CutNotSeparating,
    CycleNotLevel,
    DegenerateTriangle,
    InvalidFieldClass,
    NonManifoldEdge,
    NonOrientable,
    PinchedVertex,
)
from reebsplit.field import ScalarField, classify_field
from reebsplit.gen import octahedron_height, random_realizable_tree, realize_tree
from reebsplit.mesh import (
    LevelCycle,
    TriangleMesh,
    check_level_cycle,
    components,
    cut_along_cycle,
    distinct,
    level_components,
    validate_surface,
)
from reebsplit.reeb import build_reeb, choose_cut_value, level_cycle
from reebsplit.selftest import split_corpus_seeds
from reebsplit.split import analyze_sphere, verify_all_fixed_edges


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


def test_misshaped_vertices_rejected():
    tris = [(0, 1, 2), (0, 2, 3)]
    for verts in (np.zeros((6, 2)), np.zeros(12), np.zeros((4, 4)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError, match=r"\(n, 3\) array"):
            TriangleMesh(verts, tris)
    for empty in ([], np.zeros((0, 2))):
        with pytest.raises(ValueError, match="empty vertex list"):
            TriangleMesh(empty, tris)


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
    assert not rep.connected
    assert rep.genus == 0 and rep.euler == 4 and rep.closed
    # read as a union of its two halves, each is one sphere
    halves = validate_surface(mesh, [0, mesh.n_vertices // 2, mesh.n_vertices])
    assert [(h.connected, h.euler, h.genus) for h in halves] == [(True, 2, 0)] * 2


def edge_triangles_by_loop(mesh):
    """The triangles of each edge of ``edge_pairs``, ascending, -1 in place
    of the second on a boundary edge, gathered triangle by triangle."""
    tris = {}
    for t, (a, b, c) in enumerate(mesh.triangles.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            tris.setdefault((min(u, v), max(u, v)), []).append(t)
    return [tris[u, v] + [-1] * (2 - len(tris[u, v]))
            for u, v in mesh.edge_pairs.tolist()]


def test_edge_triangles_match_a_loop_on_closed_and_bounded_meshes(octahedron, torus):
    mesh, field = octahedron
    graph = build_reeb(mesh, field)
    cycle = level_cycle(mesh, field, graph, 0, choose_cut_value(np.sort(field.values), graph, 0))
    meshes = [mesh, torus[0], TriangleMesh(*two_octahedra(shared=False)),
              TriangleMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])]
    meshes += [piece.mesh for piece in cut_along_cycle(mesh, field, cycle)]
    meshes += [realize_tree(random_realizable_tree(8, symmetry=2, seed=1), 4)[0]]
    for m in meshes:
        made = TriangleMesh(m.vertices, m.triangles)
        assert "edge_triangles" not in vars(made)  # made on first read
        assert made.edge_triangles.tolist() == edge_triangles_by_loop(made)
        assert made.edge_triangles is made.edge_triangles


def edge_triangles_by_side_key(mesh):
    """``edge_triangles`` as the side-key search makes it: each side finds
    its edge by a binary search of its vertex-pair key in ``edge_pairs``, and
    an edge's first and last side give its two triangles."""
    nv = mesh.n_vertices
    heads = mesh.triangles.ravel()
    tails = mesh.triangles[:, [1, 2, 0]].ravel()
    edge = np.searchsorted(mesh.edge_pairs[:, 0] * nv + mesh.edge_pairs[:, 1],
                           np.minimum(heads, tails) * nv + np.maximum(heads, tails))
    sides = np.arange(len(heads))
    first = np.full(mesh.n_edges, len(heads))
    last = np.full(mesh.n_edges, -1)
    np.minimum.at(first, edge, sides)
    np.maximum.at(last, edge, sides)
    return np.stack((first // 3, np.where(first < last, last // 3, -1)), axis=1)


def test_edge_triangles_match_the_side_key_search(monkeypatch):
    meshes = [realize_tree(random_realizable_tree(n, symmetry=k, seed=s), 4)[0]
              for s, n, k in split_corpus_seeds(30)]
    meshes.append(realize_tree(random_realizable_tree(n=14, symmetry=2, seed=1), 48)[0])
    assert meshes[-1].n_vertices == 4148
    # every other triangle of the octahedron wound the other way: some edge
    # is then run the same way by both its triangles
    octa = octahedron_height()[0]
    tris = [t[::-1] if i % 2 else t for i, t in enumerate(octa.triangles.tolist())]
    sides = [(t[i], t[i - 2]) for t in tris for i in range(3)]
    assert len(set(sides)) < len(sides)
    meshes.append(TriangleMesh(octa.vertices, tris))
    # the disk pass's union meshes, whose edges include boundary edges
    unions = []
    part_trees = reebsplit.split.part_trees
    monkeypatch.setattr(reebsplit.split, "part_trees", lambda union, *args: (
        unions.append(union), part_trees(union, *args))[-1])
    for s, n, k in split_corpus_seeds(5):
        verify_all_fixed_edges(*realize_tree(random_realizable_tree(n, symmetry=k, seed=s), 4))
    assert unions and all(len(u.boundary_edges) for u in unions)
    assert not any("edge_triangles" in vars(u) for u in unions)  # never read
    for mesh in meshes + unions:
        assert np.array_equal(mesh.edge_triangles, edge_triangles_by_side_key(mesh))


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


@pytest.mark.parametrize("seed", range(8))
def test_components_matches_dfs_on_long_paths_and_cycles(seed):
    # long paths through shuffled nodes take many hooking rounds
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1000, 2001))
    cuts = np.sort(rng.choice(np.arange(1, n), size=seed % 4, replace=False))
    edges = []
    for walk in np.split(rng.permutation(n), cuts):
        walk = walk.tolist()
        edges += zip(walk, walk[1:])
        if seed % 2 and len(walk) > 2:
            edges.append((walk[-1], walk[0]))
    edges = [e if flip else e[::-1] for e, flip in zip(edges, rng.random(len(edges)) < 0.5)]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    u = [a for a, _ in edges]
    v = [b for _, b in edges]
    assert components(n, u, v).tolist() == dfs_labels(n, edges)


def counted_components(monkeypatch):
    """The node counts of every ``components`` call the mesh module makes."""
    sizes = []
    labelled = reebsplit.mesh.components

    def counted(n, u, v):
        sizes.append(n)
        return labelled(n, u, v)

    monkeypatch.setattr(reebsplit.mesh, "components", counted)
    return sizes


def test_mesh_and_cut_labelling_budget(three_bump, monkeypatch):
    mesh, field = three_bump
    graph = build_reeb(mesh, field)
    cycle = level_cycle(mesh, field, graph, 0, choose_cut_value(np.sort(field.values), graph, 0))
    levels = level_components(mesh, field.values, cycle.value)
    n_levels = len(distinct(levels))
    sizes = counted_components(monkeypatch)
    # a consistently wound mesh: the corner graph and the vertex graph
    validate_surface(TriangleMesh(mesh.vertices, mesh.triangles))
    assert sizes == [3 * mesh.n_triangles, mesh.n_vertices]
    sizes.clear()
    # the cut labels the vertex graph once, then the level components it
    # leaves, and builds no piece's mesh; handed the vertex graph's labels,
    # it labels only the level components
    piece = cut_along_cycle(mesh, field, cycle)[0]
    assert sizes == [mesh.n_vertices, n_levels]
    sizes.clear()
    again = cut_along_cycle(mesh, field, cycle, levels=levels)[0]
    assert np.array_equal(again.triangles, piece.triangles)
    assert sizes == [n_levels]
    sizes.clear()
    # a bounded mesh also labels its boundary edges, once
    n = len(piece.field)
    validate_surface(TriangleMesh(np.zeros((n, 3)), piece.triangles))
    assert sizes == [3 * len(piece.triangles), n, n]


def boundary_cycles_by_walk(mesh):
    """Boundary cycles as vertex lists, each walked from its smallest edge,
    so that it starts at its smallest vertex; cycles come in the order of
    those vertices.

    Every boundary vertex has exactly two boundary neighbours (checked by
    the mesh), so each walk is forced.
    """
    along: dict[int, list[int]] = {}
    for u, v in mesh.boundary_edges.tolist():
        along.setdefault(u, []).append(v)
        along.setdefault(v, []).append(u)
    cycles = []
    seen = set()
    for u, v in mesh.boundary_edges.tolist():  # sorted edges
        if u in seen:
            continue
        cyc = [u, v]
        while True:
            a, b = along[cyc[-1]]
            nxt = b if a == cyc[-2] else a
            if nxt == u:
                break
            cyc.append(nxt)
        seen.update(cyc)
        cycles.append(cyc)
    return cycles


def assert_boundary_labels_match_walk(mesh):
    """The mesh's boundary labels against the walked cycles; returns the
    walked cycles."""
    cycles = boundary_cycles_by_walk(mesh)
    label = list(range(mesh.n_vertices))
    for cycle in cycles:
        assert cycle[0] == min(cycle)
        for v in cycle:
            label[v] = cycle[0]
    assert mesh.boundary_label.tolist() == label
    assert mesh.boundary_heads.tolist() == [cycle[0] for cycle in cycles]
    assert mesh.closed == (not cycles)
    assert validate_surface(mesh).boundary_count == len(cycles)
    return cycles


def test_boundary_labels_match_a_walk_on_cut_pieces_and_unions(monkeypatch):
    unions = []
    made = reebsplit.split.TriangleMesh
    monkeypatch.setattr(reebsplit.split, "TriangleMesh",
                        lambda *args: unions.append(made(*args)) or unions[-1])
    pieces = 0
    for seed, n, symmetry in split_corpus_seeds(30):
        mesh, field = realize_tree(random_realizable_tree(n, symmetry=symmetry, seed=seed), 4)
        assert assert_boundary_labels_match_walk(mesh) == []
        sphere = analyze_sphere(mesh, field)
        for eid in sphere.fixed.edge_ids:
            cycle = level_cycle(mesh, field, sphere.graph, eid,
                                choose_cut_value(np.sort(field.values), sphere.graph, eid))
            for piece in cut_along_cycle(mesh, field, cycle):
                # a piece holds no coordinates: its mesh's are one origin
                assert piece.mesh.vertices.strides == (0, 0)
                assert not piece.mesh.vertices.any()
                walked = assert_boundary_labels_match_walk(piece.mesh)
                assert [sorted(c) for c in walked] == [sorted(piece.boundary)]
                pieces += 1
        verify_all_fixed_edges(mesh, field, sphere=sphere)
    # one cycle per disk in the unions of the split path too
    assert len(unions) > 30
    assert all(union.vertices.strides == (0, 0) for union in unions)
    assert sum(len(assert_boundary_labels_match_walk(u)) for u in unions) == pieces


def test_boundary_labels_match_a_walk_on_an_annulus_and_two_disks(octahedron):
    # the annulus has the cycle 0-2-4 inside the cycle 1-3-5; the disks
    # interleave their vertices
    annulus = TriangleMesh(np.zeros((6, 3)), [(0, 2, 3), (0, 3, 1), (2, 4, 5),
                                              (2, 5, 3), (4, 0, 1), (4, 1, 5)])
    walked = assert_boundary_labels_match_walk(annulus)
    assert [sorted(c) for c in walked] == [[0, 2, 4], [1, 3, 5]]
    disks = TriangleMesh(np.zeros((6, 3)), [(4, 0, 2), (5, 3, 1)])
    assert annulus.boundary_label.tolist() == disks.boundary_label.tolist() == [0, 1, 0, 1, 0, 1]
    assert len(assert_boundary_labels_match_walk(disks)) == 2
    assert assert_boundary_labels_match_walk(octahedron[0]) == []


def holed_spheres():
    """Corpus spheres with one to five random triangles dropped, as meshes
    and fields; drops that pinch a vertex are skipped."""
    for seed, n, symmetry in split_corpus_seeds(48):
        mesh, field = realize_tree(random_realizable_tree(n, symmetry=symmetry, seed=seed), 4)
        rng = np.random.default_rng(seed)
        for drop in range(1, 6):
            keep = np.delete(mesh.triangles, rng.choice(mesh.n_triangles, drop,
                                                        replace=False), axis=0)
            used = np.flatnonzero(np.bincount(keep.ravel(), minlength=mesh.n_vertices))
            renumber = np.empty(mesh.n_vertices, dtype=np.intp)
            renumber[used] = np.arange(len(used))
            try:
                holed = TriangleMesh(mesh.vertices[used], renumber[keep])
            except PinchedVertex:
                continue
            yield holed, ScalarField(field.values[used])


def test_boundary_labels_match_a_walk_on_holed_spheres():
    bounded = 0
    for mesh, field in holed_spheres():
        cycles = assert_boundary_labels_match_walk(mesh)
        bounded += bool(cycles)
        # a cycle not constant is named by its smallest vertex
        reasons = classify_field(mesh, field).reasons
        for cycle in cycles:
            if len(set(field.values[cycle].tolist())) > 1:
                assert (f"CriticalBoundary: boundary cycle at vertex {cycle[0]} "
                        "is not constant") in reasons
    assert bounded > 190


def test_moebius_band_not_orientable():
    verts = [(np.cos(a), np.sin(a), 0.0) for a in np.linspace(0, 4, 5)]
    tris = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    mesh = TriangleMesh(verts, tris)
    with pytest.raises(NonOrientable):
        validate_surface(mesh)


def test_reversed_triangles_labelled_on_double_cover(octahedron, monkeypatch):
    mesh, _ = octahedron
    tris = mesh.triangles.copy()
    tris[::2] = tris[::2, ::-1]
    sizes = counted_components(monkeypatch)
    flipped = TriangleMesh(mesh.vertices, tris)
    assert validate_surface(flipped) == validate_surface(mesh)
    nt = mesh.n_triangles
    # the flipped mesh also labels its double cover
    assert sizes == [3 * nt, 2 * nt, mesh.n_vertices, mesh.n_vertices]


def test_projective_plane_not_orientable():
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    mesh = TriangleMesh(np.eye(6, 3), tris)
    assert mesh.closed and mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1
    with pytest.raises(NonOrientable):
        validate_surface(mesh)


def test_torus_detected_as_genus_one(torus):
    rep = validate_surface(torus[0])
    assert rep.closed and rep.genus == 1 and rep.euler == 0


def octa_cut(octahedron):
    mesh, field = octahedron
    graph = build_reeb(mesh, field)
    c = choose_cut_value(np.sort(field.values), graph, 0)
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
    c = choose_cut_value(np.sort(field.values), graph, 0)
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
        c = choose_cut_value(np.sort(field.values), graph, eid)
        cycle = level_cycle(mesh, field, graph, eid, c)
        a, b = cut_along_cycle(mesh, field, cycle)
        for piece in (a, b):
            rep = validate_surface(piece.mesh)
            assert rep.boundary_count == 1 and rep.genus == 0
            assert classify_field(piece.mesh, piece.field).valid


def test_cycle_value_must_be_consistent(octahedron):
    mesh, field, cycle, _ = octa_cut(octahedron)
    bad = LevelCycle(edges=cycle.edges, value=cycle.value + 0.7)
    with pytest.raises(CycleNotLevel):
        cut_along_cycle(mesh, field, bad)


def test_cycle_open_rejected(octahedron):
    mesh, field, cycle, _ = octa_cut(octahedron)
    bad = LevelCycle(edges=cycle.edges[:-1], value=cycle.value)
    with pytest.raises(CycleNotLevel):
        cut_along_cycle(mesh, field, bad)


def bottom_disk_cut():
    """The octahedron's four bottom triangles, a disk around vertex 0, and
    the level cycle around vertex 0 through its four edges."""
    mesh, field = octahedron_height()
    disk = TriangleMesh(mesh.vertices[:5], mesh.triangles[:4])
    assert disk.edge_pairs[:4].tolist() == [[0, 1], [0, 2], [0, 3], [0, 4]]
    return disk, ScalarField(field.values[:5]), LevelCycle(edges=(0, 1, 2, 3), value=-0.5)


def test_cut_requires_closed_surface():
    # every check of the cycle passes on the disk; only the surface fails
    disk, field, cycle = bottom_disk_cut()
    check_level_cycle(disk, field.values, cycle)
    with pytest.raises(CycleNotLevel, match="closed surface"):
        cut_along_cycle(disk, field, cycle)


def spoiled_cuts(octahedron):
    """The octahedron's first cut spoiled one way per refusal: the words of
    that refusal, and the mesh, field and cycle that meet it."""
    mesh, field, cycle, _ = octa_cut(octahedron)
    e, c = cycle.edges, cycle.value
    # edge (1, 2) lies on the equator, above the cut around the bottom vertex
    equator_edge = mesh.edge_pairs.tolist().index([1, 2])
    return {
        "vertex-at-value": ("a vertex has value exactly",
                            (mesh, field, LevelCycle(e, float(field.values[1])))),
        "two-crossings": ("at least three crossings", (mesh, field, LevelCycle(e[:2], c))),
        "edge-twice": ("crosses a mesh edge twice", (mesh, field, LevelCycle(e + e[:1], c))),
        "no-straddle": (r"edge \(1, 2\) does not straddle",
                        (mesh, field, LevelCycle((equator_edge,) + e[1:], c))),
        "no-shared-triangle": ("do not share one triangle",
                               (mesh, field, LevelCycle((e[0], e[2], e[1], e[3]), c))),
        "open-surface": ("closed surface", bottom_disk_cut()),
    }


@pytest.mark.parametrize("case", ["vertex-at-value", "two-crossings", "edge-twice",
                                  "no-straddle", "no-shared-triangle", "open-surface"])
def test_each_cut_refusal_names_its_check(octahedron, case):
    message, (mesh, field, cycle) = spoiled_cuts(octahedron)[case]
    with pytest.raises(CycleNotLevel, match=message):
        cut_along_cycle(mesh, field, cycle)


def test_cut_refusals_name_their_witnesses(octahedron):
    mesh, field, cycle, c = octa_cut(octahedron)
    e = cycle.edges
    pair = {eid: tuple(mesh.edge_pairs[eid].tolist()) for eid in e}
    with pytest.raises(CycleNotLevel) as no:
        cut_along_cycle(mesh, field, LevelCycle(e[:2] + e[1:], c))
    assert str(no.value) == f"cycle crosses a mesh edge twice: edge {pair[e[1]]}"
    with pytest.raises(CycleNotLevel) as no:
        cut_along_cycle(mesh, field, LevelCycle((e[0], e[2], e[1], e[3]), c))
    assert str(no.value) == ("consecutive crossings do not share one triangle: "
                             f"edges {pair[e[0]]} and {pair[e[2]]}")
    # the same cycle on the first of two disjoint octahedra leaves its two
    # pieces and the whole second octahedron, vertices 6 to 11
    smallest = sorted(int(piece.orig_vertex[0]) for piece in cut_along_cycle(mesh, field, cycle))
    both = TriangleMesh(*two_octahedra(shared=False))
    assert both.edge_pairs[list(e)].tolist() == mesh.edge_pairs[list(e)].tolist()
    values = ScalarField(np.concatenate((field.values, field.values + 10.0)))
    with pytest.raises(CutNotSeparating) as no:
        cut_along_cycle(both, values, cycle)
    assert str(no.value) == f"cut produced 3 pieces, whose smallest vertices are {smallest + [6]}"


def test_generated_cuts_validate_everywhere():
    for seed in (1, 4, 9):
        tree = random_realizable_tree(8, symmetry=2, seed=seed)
        mesh, field = realize_tree(tree, 4)
        graph = build_reeb(mesh, field)
        for eid in range(graph.n_edges):
            c = choose_cut_value(np.sort(field.values), graph, eid)
            cycle = level_cycle(mesh, field, graph, eid, c)
            a, b = cut_along_cycle(mesh, field, cycle)
            for piece in (a, b):
                rep = validate_surface(piece.mesh)
                assert rep.euler == 1 and rep.boundary_count == 1


def corner_node_pieces(mesh, field, cycle):
    """The pieces of a cut as (triangles, orig_vertex, boundary) lists, in
    ``cut_along_cycle``'s order, labelled on triangle nodes instead of the
    vertex graph.

    An uncrossed triangle is one node, a crossed one an apex node and a quad
    node; two nodes are joined where ``corner_links`` glue their corners.
    """
    values = field.values
    crossed_tris = check_level_cycle(mesh, values, cycle)
    nv, nt, ncross = mesh.n_vertices, mesh.n_triangles, len(cycle)
    pairs = mesh.edge_pairs[list(cycle.edges)].tolist()
    rows_of = {}
    quad_corners = []
    for i, ti in enumerate(crossed_tris):
        tri = mesh.triangles[ti].tolist()
        e1, e2 = pairs[i], pairs[(i + 1) % ncross]
        k = tri.index((set(e1) & set(e2)).pop())
        apex, a, b = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        p1, p2 = nv + i, nv + (i + 1) % ncross
        if a not in e1:
            p1, p2 = p2, p1
        rows_of[ti] = [(apex, p1, p2), (p1, a, b), (p1, b, p2)]
        quad_corners += [3 * ti + (k + 1) % 3, 3 * ti + (k + 2) % 3]
    node, rows, row_node = [], [], []
    next_node = 0
    for t, tri in enumerate(mesh.triangles.tolist()):
        node.append(next_node)
        if t in rows_of:
            rows += rows_of[t]
            row_node += [next_node, next_node + 1, next_node + 1]
            next_node += 2
        else:
            rows.append(tuple(tri))
            row_node.append(next_node)
            next_node += 1
    corner_node = [node[k // 3] for k in range(3 * nt)]
    for k in quad_corners:
        corner_node[k] += 1
    label = dfs_labels(nt + ncross, [(corner_node[a], corner_node[b])
                                     for a, b in mesh.corner_links.tolist()])
    roots = sorted(set(label))
    if len(roots) != 2:
        raise CutNotSeparating(f"cut produced {len(roots)} pieces")
    pieces = []
    for root in roots:
        mine = [r for r, n in zip(rows, row_node) if label[n] == root]
        used = sorted({x for r in mine for x in r})
        renumber = {x: i for i, x in enumerate(used)}
        pieces.append(([[renumber[x] for x in r] for r in mine],
                       [x if x < nv else -1 for x in used],
                       tuple(renumber[x] for x in used if x >= nv)))
    u0, v0 = pairs[0]
    if (u0 if values[u0] < cycle.value else v0) not in pieces[0][1]:
        pieces.reverse()
    return pieces


def vertex_graph_pieces(mesh, field, cycle):
    """The side labels and pieces of a cut as ``cut_along_cycle`` made them
    from the whole vertex graph: the components of the vertex graph without
    the cycle's edges, labelled on all its nodes, and each piece gathered,
    scattered and renumbered on its own."""
    values = np.asarray(field.values, dtype=float)
    c = cycle.value
    crossed_tris = check_level_cycle(mesh, values, cycle)
    nv, nt = mesh.n_vertices, mesh.n_triangles
    ncross = len(cycle)
    eids = list(cycle.edges)
    cut_rows = []
    pairs = mesh.edge_pairs[eids].tolist()
    for i, tri in enumerate(mesh.triangles[crossed_tris].tolist()):
        e1, e2 = pairs[i], pairs[(i + 1) % ncross]
        k = tri.index((set(e1) & set(e2)).pop())
        apex, a, b = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        p1, p2 = nv + i, nv + (i + 1) % ncross
        if a not in e1:
            p1, p2 = p2, p1
        cut_rows += [(apex, p1, p2), (p1, a, b), (p1, b, p2)]
    kept = np.ones(mesh.n_edges, dtype=bool)
    kept[eids] = False
    label = components(nv, mesh.edge_pairs[kept, 0], mesh.edge_pairs[kept, 1])
    roots = np.flatnonzero(np.bincount(label))
    if len(roots) != 2:
        return label, None
    crossed = np.zeros(nt, dtype=np.intp)
    crossed[crossed_tris] = 1
    first_row = np.arange(nt) + 2 * (np.cumsum(crossed) - crossed)
    new_tris = np.empty((nt + 2 * ncross, 3), dtype=np.intp)
    plain = np.flatnonzero(crossed == 0)
    new_tris[first_row[plain]] = mesh.triangles[plain]
    new_tris[(first_row[crossed_tris, None] + [0, 1, 2]).ravel()] = cut_rows
    tri_piece = label[np.where(new_tris[:, 0] < nv, new_tris[:, 0], new_tris[:, 1])]
    vals = np.concatenate((values, np.full(ncross, c)))
    pieces = []
    for root in roots:
        orig = np.flatnonzero(label == root)
        used = np.concatenate((orig, np.arange(nv, nv + ncross)))
        renumber = np.empty(nv + ncross, dtype=np.intp)
        renumber[used] = np.arange(len(used))
        pieces.append((renumber[new_tris[tri_piece == root]], vals[used],
                       np.concatenate((orig, np.full(ncross, -1))),
                       tuple(range(len(orig), len(used)))))
    u0, v0 = pairs[0]
    if not (pieces[0][2] == (u0 if values[u0] < c else v0)).any():
        pieces.reverse()
    return label, pieces


def assert_cut_matches_vertex_graph(mesh, field, cycle):
    """The cut's side labels and pieces, with the level components it is
    handed and without, equal the whole vertex graph's, array for array."""
    label, want = vertex_graph_pieces(mesh, field, cycle)
    levels = level_components(mesh, field.values, cycle.value)
    if want is None:
        with pytest.raises(CutNotSeparating) as no:
            reebsplit.mesh._cut_sides(mesh, field.values, cycle, levels)
        assert str(no.value).endswith(f"are {distinct(label).tolist()}")
        return
    assert np.array_equal(reebsplit.mesh._cut_sides(mesh, field.values, cycle, levels), label)
    for got in (cut_along_cycle(mesh, field, cycle),
                cut_along_cycle(mesh, field, cycle, levels=levels)):
        assert len(got) == len(want) == 2
        for piece, (triangles, values, orig, boundary) in zip(got, want):
            for have, expected in ((piece.triangles, triangles),
                                   (piece.field.values, values),
                                   (piece.orig_vertex, orig)):
                assert have.dtype == expected.dtype
                assert have.shape == expected.shape
                assert have.tobytes() == expected.tobytes()
            assert piece.boundary == boundary


def fixed_edge_cycles(mesh, field):
    """The level cycle of every fixed edge, at the split path's cut value."""
    sphere = analyze_sphere(mesh, field)
    ascending = field.values[sphere.fclass.order]
    for eid in sphere.fixed.edge_ids:
        c = choose_cut_value(ascending, sphere.graph, eid)
        yield level_cycle(mesh, field, sphere.graph, eid, c)


def test_cut_matches_vertex_graph_on_three_sphere_sources():
    cuts = []
    fields = [realize_tree(random_realizable_tree(n, symmetry=k, seed=s), 4)
              for s, n, k in split_corpus_seeds(30)]
    fields.append(realize_tree(random_realizable_tree(n=14, symmetry=2, seed=1), 48))
    for seed in range(6):
        mesh, hull = hull_fields(120, seed)
        fields += [(mesh, field) for field in hull]
    for i, (s, n, k) in enumerate(split_corpus_seeds(20)):
        mesh, field = realize_tree(random_realizable_tree(n, symmetry=k, seed=s), 4)
        fields.append((flipped_sphere(mesh, 3 * mesh.n_triangles, i), field))
    for mesh, field in fields:
        try:
            cycles = list(fixed_edge_cycles(mesh, field))
        except InvalidFieldClass:  # a flip can put equal values side by side
            continue
        for cycle in cycles:
            assert_cut_matches_vertex_graph(mesh, field, cycle)
        cuts.append(len(cycles))
    # 30 corpus spheres, the large sphere, 18 hull fields and the 18 flipped
    # spheres whose fields have no flat zone
    assert (len(cuts), sum(cuts)) == (67, 1417)


def test_cut_matches_vertex_graph_on_hand_made_cycles(octahedron, three_bump, torus):
    mesh, field, cycle, _ = octa_cut(octahedron)
    assert_cut_matches_vertex_graph(mesh, field, cycle)
    # the three level circles at 1.5 of the three-bump field
    bumps, bump_field = three_bump
    graph = build_reeb(bumps, bump_field)
    for eid in range(graph.n_edges):
        lo, hi = graph.edge_ends(eid)[0]
        if lo < 1.5 < hi:
            assert_cut_matches_vertex_graph(bumps, bump_field,
                                            level_cycle(bumps, bump_field, graph, eid, 1.5))
    # one piece on the torus, three on two disjoint octahedra
    assert_cut_matches_vertex_graph(*torus, torus_meridian(torus[0]))
    both = TriangleMesh(*two_octahedra(shared=False))
    values = ScalarField(np.concatenate((field.values, field.values + 10.0)))
    assert_cut_matches_vertex_graph(both, values, cycle)


def assert_cut_matches_corner_node_pieces(mesh, field):
    """Cut across every fixed edge; return how many were cut."""
    sphere = analyze_sphere(mesh, field)
    for eid in sphere.fixed.edge_ids:
        c = choose_cut_value(np.sort(field.values), sphere.graph, eid)
        cycle = level_cycle(mesh, field, sphere.graph, eid, c)
        got = [(p.mesh.triangles.tolist(), p.orig_vertex.tolist(), p.boundary)
               for p in cut_along_cycle(mesh, field, cycle)]
        assert got == corner_node_pieces(mesh, field, cycle)
    return len(sphere.fixed.edge_ids)


def test_cut_matches_corner_node_pieces_on_corpus():
    cut = 0
    for seed, n, symmetry in split_corpus_seeds(30):
        tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
        cut += assert_cut_matches_corner_node_pieces(*realize_tree(tree, 4))
    assert cut > 30


def test_cut_matches_corner_node_pieces_on_large_sphere():
    tree = random_realizable_tree(n=14, symmetry=2, seed=1)
    mesh, field = realize_tree(tree, 48)
    assert mesh.n_vertices == 4148
    assert assert_cut_matches_corner_node_pieces(mesh, field) == 13


def torus_meridian(mesh):
    """Level 3.5 on the 4x4 torus is two meridians, either side of row 0:
    the one through rows 0 and 1."""
    index = {pair: e for e, pair in enumerate(map(tuple, mesh.edge_pairs.tolist()))}
    edges = []
    for j in range(4):
        for u, v in ((j, 4 + j), (4 + j, (j + 1) % 4)):
            edges.append(index[min(u, v), max(u, v)])
    return LevelCycle(edges=tuple(edges), value=3.5)


def test_cut_along_a_torus_meridian_not_separating(torus):
    # cutting along one meridian leaves the torus in one piece
    mesh, field = torus
    cycle = torus_meridian(mesh)
    for cut in (cut_along_cycle, corner_node_pieces):
        with pytest.raises(CutNotSeparating, match="1 pieces"):
            cut(mesh, field, cycle)
    with pytest.raises(CutNotSeparating) as no:
        cut_along_cycle(mesh, field, cycle)
    assert str(no.value) == "cut produced 1 pieces, whose smallest vertices are [0]"
