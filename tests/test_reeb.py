import contextlib
import dataclasses
import hashlib
import io
import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_irregular_spheres import hull_fields

from reebsplit import kernels, reeb, split
from reebsplit.cli import main
from reebsplit.errors import (
    EdgeNotFound,
    GenusNotZero,
    InternalInconsistency,
    InvalidFieldClass,
    ReebSplitError,
    ValueCollision,
)
from reebsplit.field import (
    MAXIMUM,
    MINIMUM,
    REGULAR,
    SADDLE,
    ScalarField,
    classify_field,
    flat_contract,
)
from reebsplit.gen import (
    octahedron_height,
    random_field,
    random_realizable_tree,
    realize_tree,
)
from reebsplit.io import save_mesh_field
from reebsplit.mesh import TriangleMesh, cut_along_cycle, validate_surface
from reebsplit.reeb import (
    ReebEdge,
    ReebVertex,
    _contour_tree,
    _tree_from_sweeps,
    build_reeb,
    choose_cut_value,
    export_dot,
    level_cycle,
    part_trees,
)
from reebsplit.selftest import split_corpus_seeds
from reebsplit.split import analyze_sphere, reeb_to_tree, verify_all_fixed_edges
from reebsplit.treeaut import LabeledTree, tree_isomorphic


def test_octahedron_reeb_is_a_path(octahedron):
    mesh, field = octahedron
    g = build_reeb(mesh, field)
    assert g.n_vertices == 2 and g.n_edges == 1
    assert [v.kind for v in g.vertices] == ["minimum", "maximum"]
    assert g.vertices[0].label < g.vertices[1].label


def test_three_bump_reeb_is_a_star(three_bump):
    mesh, field = three_bump
    g = build_reeb(mesh, field)
    assert g.n_vertices == 5 and g.n_edges == 4
    saddle = next(v for v in g.vertices if v.kind == "saddle")
    assert saddle.multiplicity == 2
    down = [e for e in g.edges if e.upper == saddle.id]
    up = [e for e in g.edges if e.lower == saddle.id]
    assert len(down) == 1
    assert len(up) == 3
    assert {g.vertices[e.upper].label for e in up} == {2.0}


def test_cut_disk_reeb_replaces_min_with_boundary(three_bump):
    mesh, field = three_bump
    g = build_reeb(mesh, field)
    c = choose_cut_value(np.sort(field.values), g, 0)
    cycle = level_cycle(mesh, field, g, 0, c)
    a, b = cut_along_cycle(mesh, field, cycle)
    gb = build_reeb(b.mesh, b.field)
    kinds = sorted(v.kind for v in gb.vertices)
    assert kinds == ["boundary", "maximum", "maximum", "maximum", "saddle"]
    leaf = next(v for v in gb.vertices if v.kind == "boundary")
    assert leaf.label == c


def test_tree_property_and_leaf_count():
    for seed in range(8):
        tree = random_realizable_tree(9, symmetry=(1, 2, 3)[seed % 3], seed=seed)
        mesh, field = realize_tree(tree, 4)
        g = build_reeb(mesh, field)
        assert g.tree.edges == tuple((e.lower, e.upper) for e in g.edges)
        extrema = sum(1 for v in g.vertices if v.kind in ("minimum", "maximum"))
        assert sum(g.tree.degree(v) == 1 for v in range(g.n_vertices)) == extrema


@pytest.mark.parametrize("side", [None, 0, 1], ids=["sphere", "disk-a", "disk-b"])
def test_preimages_are_the_critical_zones(three_bump, side):
    # a disk's boundary cycle is one zone of several vertices
    mesh, field = three_bump
    if side is not None:
        g = build_reeb(mesh, field)
        cycle = level_cycle(mesh, field, g, 0, choose_cut_value(np.sort(field.values), g, 0))
        piece = cut_along_cycle(mesh, field, cycle)[side]
        mesh, field = piece.mesh, piece.field
    g = build_reeb(mesh, field)
    fclass = classify_field(mesh, field)
    con = fclass.contraction
    critical = {tuple(con.members[a:b].tolist())
                for a, b in zip(con.starts[:-1], con.starts[1:])
                if fclass.kinds[con.members[a]] != REGULAR}
    assert len(g.preimages[1]) == g.n_vertices + 1
    rows = [v.preimage for v in g.vertices]
    assert sum(map(len, rows)) == len(set().union(*rows))
    assert set(rows) == critical


def test_relabeling_invariance(three_bump):
    mesh, field = three_bump
    g1 = build_reeb(mesh, field)
    rng = random.Random(11)
    perm = list(range(mesh.n_vertices))
    rng.shuffle(perm)  # perm[old] = new
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    verts = [mesh.vertices[inv[i]] for i in range(len(perm))]
    tris = [tuple(perm[x] for x in t) for t in mesh.triangles]
    vals = np.array([field.values[inv[i]] for i in range(len(perm))])
    g2 = build_reeb(TriangleMesh(np.asarray(verts), tris), ScalarField(vals))
    assert tree_isomorphic(reeb_to_tree(g1), reeb_to_tree(g2))


def test_export_dot_shapes(octahedron, three_bump):
    mesh, field = octahedron
    dot = export_dot(build_reeb(mesh, field))
    assert dot.count("->") == 1 and dot.count("n0") >= 1
    mesh, field = three_bump
    g = build_reeb(mesh, field)
    dot1 = export_dot(g)
    dot2 = export_dot(build_reeb(mesh, field))
    assert dot1.count("->") == 4
    assert dot1 == dot2


def test_level_cycle_octahedron(octahedron):
    mesh, field = octahedron
    g = build_reeb(mesh, field)
    c = choose_cut_value(np.sort(field.values), g, 0)
    cycle = level_cycle(mesh, field, g, 0, c)
    assert len(cycle) == 4


def test_level_cycle_component_selection(three_bump):
    # at a value crossing all three peak edges the level set has three
    # components; each request must return the one over its own edge
    mesh, field = three_bump
    g = build_reeb(mesh, field)
    up_edges = [e.id for e in g.edges if g.vertices[e.lower].kind == "saddle"]
    assert len(up_edges) == 3
    c = 1.5
    cycles = [level_cycle(mesh, field, g, eid, c) for eid in up_edges]
    seen = [frozenset(cyc.edges) for cyc in cycles]
    assert len(set(seen)) == 3


def test_level_cycle_value_collision(octahedron):
    mesh, field = octahedron
    g = build_reeb(mesh, field)
    with pytest.raises(ValueCollision):
        level_cycle(mesh, field, g, 0, float(field.values[1]))
    with pytest.raises(ValueCollision):
        level_cycle(mesh, field, g, 0, 7.5)
    with pytest.raises(EdgeNotFound):
        level_cycle(mesh, field, g, 99, 0.0)
    with pytest.raises(EdgeNotFound):
        choose_cut_value(np.sort(field.values), g, 99)


def test_choose_cut_value_largest_gap():
    # path tree with interior values clustered near the top: the largest gap
    # sits at the bottom, so the cut value lands in it
    from reebsplit.treeaut import LabeledTree

    tree = LabeledTree([0.0, 10.0], [(0, 1)])
    mesh, field = realize_tree(tree, 4)
    g = build_reeb(mesh, field)
    c = choose_cut_value(np.sort(field.values), g, 0)
    inside = sorted(v for v in field.values if 0.0 < v < 10.0)
    gaps = [(b - a, (a + b) / 2) for a, b in
            zip([0.0] + inside, inside + [10.0])]
    best = max(gaps, key=lambda g: g[0])[1]
    # ties resolve to the lowest gap; recompute accordingly
    width = max(g[0] for g in gaps)
    best = next(mid for w, mid in gaps if w == width)
    assert c == best
    assert not np.any(field.values == c)


def python_cut_value(field, graph, edge_id):
    """The pure-Python ``choose_cut_value`` that the numpy one replaced,
    kept as an oracle."""
    e = graph.edges[edge_id]
    lo = graph.vertices[e.lower].label
    hi = graph.vertices[e.upper].label
    inside = sorted({float(v) for v in field.values if lo < v < hi})
    stops = [lo] + inside + [hi]
    best = 0
    for i in range(1, len(stops)):
        if stops[i] - stops[i - 1] > stops[best + 1] - stops[best] + 0.0:
            best = i - 1
    return (stops[best] + stops[best + 1]) / 2.0


def test_choose_cut_value_matches_python_oracle(octahedron):
    edges = 0
    for seed, n, symmetry in split_corpus_seeds(40):
        mesh, field = realize_tree(random_realizable_tree(n, symmetry=symmetry,
                                                          seed=seed), 4)
        sphere = analyze_sphere(mesh, field)
        for eid in sphere.fixed.edge_ids:
            got = choose_cut_value(field.values[sphere.fclass.order], sphere.graph, eid)
            assert got.hex() == python_cut_value(field, sphere.graph, eid).hex()
            edges += 1
    assert edges == 202
    # every tree edge of random and trigonometric fields on hull spheres,
    # whose values are no realization's
    for seed in range(3):
        mesh, fields = hull_fields(120, seed)
        for field in fields:
            graph = build_reeb(mesh, field)
            for eid in range(graph.n_edges):
                got = choose_cut_value(np.sort(field.values), graph, eid)
                assert got.hex() == python_cut_value(field, graph, eid).hex()
                edges += 1
    assert edges == 442
    # the gaps inside (0, 4) are 0.5, 1.5, 0.5 and 1.5: the lower of the
    # two widest wins
    mesh, _ = octahedron
    field = ScalarField(np.array([0.0, 0.5, 2.0, 2.5, 2.0, 4.0]))
    graph = build_reeb(mesh, field)
    assert graph.n_edges == 1
    c = choose_cut_value(np.sort(field.values), graph, 0)
    assert c == python_cut_value(field, graph, 0) == 1.25
    # the same tie mapped onto [-2**1023, 2**1023], where hi - lo overflows
    # unscaled: the gaps are 1/4, 3/4, 1/4 and 3/4 of 2**1023
    big = 2.0 ** 1023
    field = ScalarField(np.array([-1.0, -0.75, 0.0, 0.25, 0.0, 1.0]) * big)
    graph = build_reeb(mesh, field)
    c = choose_cut_value(np.sort(field.values), graph, 0)
    assert c == -0.375 * big
    # the level circles the two lowest vertices, which share an edge
    assert len(level_cycle(mesh, field, graph, 0, c)) == 6


# sha256 over every tree edge, fixed or not, of the ``split_corpus_seeds(30)``
# spheres and of a random field on the tree of the ``large_sphere`` benchmark
# realized at resolution 8: of the bits of ``choose_cut_value`` and of the
# ``level_cycle`` edges at that value.  The random field's levels cross
# several circles
CUT_VALUE_DIGEST = "4b0285c92fc014b2c07766cf992cc66fe293b71efc4be4eb8dd289ffb744777a"
LEVEL_CYCLE_DIGEST = "ba9b2e4ddd63992d06691f89abaf469ce50eddfc7912aec7748120e2630054ce"


def test_cut_values_and_level_cycles_on_every_tree_edge():
    inputs = [realize_tree(random_realizable_tree(n, symmetry=symmetry, seed=seed), 4)
              for seed, n, symmetry in split_corpus_seeds(30)]
    mesh, _ = realize_tree(random_realizable_tree(n=14, symmetry=2, seed=1), 8)
    inputs.append((mesh, random_field(mesh, 0)))
    values, cycles, edges = hashlib.sha256(), hashlib.sha256(), 0
    for mesh, field in inputs:
        graph = build_reeb(mesh, field)
        for eid in range(graph.n_edges):
            c = choose_cut_value(np.sort(field.values), graph, eid)
            values.update(c.hex().encode())
            cycles.update(repr(level_cycle(mesh, field, graph, eid, c).edges).encode())
            edges += 1
    assert edges == 600
    assert values.hexdigest() == CUT_VALUE_DIGEST
    assert cycles.hexdigest() == LEVEL_CYCLE_DIGEST


@pytest.fixture
def built_objects(monkeypatch):
    """Lists the name of every ReebVertex and ReebEdge built from now on."""
    built = []
    for cls in (ReebVertex, ReebEdge):
        def counted(*args, cls=cls, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        monkeypatch.setattr(reeb, cls.__name__, counted)
    return built


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_aut_on_large_random_field_builds_no_tree_objects(built_objects, tmp_path):
    mesh, _ = realize_tree(random_realizable_tree(n=14, symmetry=2, seed=1), 48)
    assert mesh.n_vertices == 4148
    path = tmp_path / "random.json"
    save_mesh_field(path, mesh, random_field(mesh, 0))
    assert run_cli(["aut", "--input", str(path)]) == 0
    assert built_objects == []
    # the objects are still there on request, built once
    graph = build_reeb(mesh, random_field(mesh, 0))
    assert graph.vertices is graph.vertices and graph.edges is graph.edges
    assert len(built_objects) == graph.n_vertices + graph.n_edges > 4000


def test_split_builds_no_tree_objects(built_objects, monkeypatch, tmp_path,
                                      three_bump):
    from reebsplit import split

    graphs = []

    def recorded(*args, **kwargs):
        graphs.append(build_reeb(*args, **kwargs))
        return graphs[-1]

    def recorded_parts(*args, **kwargs):
        graphs.extend(part_trees(*args, **kwargs))
        return graphs[len(graphs) - len(args[2]):]

    monkeypatch.setattr(split, "build_reeb", recorded)
    monkeypatch.setattr(split, "part_trees", recorded_parts)
    # fields with one and with nine fixed edges, two disks per edge
    fields = [(three_bump, 1),
              (realize_tree(random_realizable_tree(9, symmetry=3, seed=7), 4), 9)]
    path = tmp_path / "in.json"
    for (mesh, field), fixed_edges in fields:
        save_mesh_field(path, mesh, field)
        for flags, cuts in (([], 1), (["--all-edges"], fixed_edges)):
            graphs.clear()
            assert run_cli(["split", *flags, "--input", str(path)]) == 0
            # the sphere's tree, then one per disk
            assert len(graphs) == 1 + 2 * cuts
            assert None not in graphs
            assert built_objects == []


def test_torus_rejected(torus):
    mesh, field = torus
    with pytest.raises(GenusNotZero):
        build_reeb(mesh, field)


def csr(neighbors):
    indptr = np.cumsum([0] + [len(nb) for nb in neighbors])
    return indptr, np.array([w for nb in neighbors for w in nb], dtype=np.intp)


def singletons(n):
    """The members and starts of n nodes that are one mesh vertex each."""
    return np.arange(n), np.arange(n + 1)


def one_tree(values, *args):
    """``_tree_from_sweeps`` of a graph that is one part."""
    return next(_tree_from_sweeps(values, np.argsort(values, kind="stable"), *args,
                                  [0, len(values)], [True]))


def test_shared_level_component_rejected():
    # three basins joined by two necks at one height: the sweep must refuse
    # to split that single critical component into two tree vertices
    values = [0.0, 0.2, 0.4, 1.0, 1.0, 1.5, 2.0]
    neighbors = [[3], [3, 4], [4], [0, 1, 5], [1, 2, 5], [3, 4, 6], [5]]
    kinds = np.array([MINIMUM, MINIMUM, MINIMUM, SADDLE, SADDLE, REGULAR,
                      MAXIMUM])
    with pytest.raises(InvalidFieldClass, match=r"\(vertices 3 and 4 at 1\.0\)$"):
        one_tree(values, *csr(neighbors), kinds, np.ones(7, dtype=int), *singletons(7))


def test_equal_labels_on_distinct_components_are_fine(three_bump):
    # the three peaks share one exact label and distinct level components
    mesh, field = three_bump
    g = build_reeb(mesh, field)
    labels = [v.label for v in g.vertices]
    assert labels.count(2.0) == 3


# ----------------------------------------------------------------------
# the set-and-deque join/split merge that the peel replaced, kept verbatim
# as an oracle for the arcs

def oracle_contour_tree(values, ties, neighbors):
    """Contour tree of a graph under a total vertex order.

    ``values``/``ties`` give node heights and the total order key; ``neighbors``
    is an adjacency list.  Returns (arcs, order) where arcs are (lower, upper)
    node pairs covering every node.  Assumes the swept space is simply
    connected; the caller checks the arc count.
    """
    n = len(values)
    order = sorted(range(n), key=lambda v: ties[v])
    indptr = [0]
    indices = []
    for v in range(n):
        indices.extend(neighbors[v])
        indptr.append(len(indices))
    order_arr = np.asarray(order, dtype=np.int64)
    indptr_arr = np.asarray(indptr, dtype=np.int64)
    indices_arr = np.asarray(indices, dtype=np.int64)

    jt_parent = kernels.merge_forest(order_arr, indptr_arr, indices_arr)
    st_parent = kernels.merge_forest(order_arr[::-1].copy(), indptr_arr, indices_arr)

    jt_children = [set() for _ in range(n)]
    st_children = [set() for _ in range(n)]
    jt_par = [int(x) for x in jt_parent]
    st_par = [int(x) for x in st_parent]
    for v in range(n):
        if jt_par[v] >= 0:
            jt_children[jt_par[v]].add(v)
        if st_par[v] >= 0:
            st_children[st_par[v]].add(v)

    def lower_leaf(v):
        return not jt_children[v] and len(st_children[v]) <= 1

    def upper_leaf(v):
        return not st_children[v] and len(jt_children[v]) <= 1

    queue = deque(v for v in order if lower_leaf(v) or upper_leaf(v))
    queued = [False] * n
    for v in queue:
        queued[v] = True
    done = [False] * n
    arcs = []
    remaining = n

    def requeue(v):
        if v >= 0 and not done[v] and not queued[v] and (lower_leaf(v) or upper_leaf(v)):
            queued[v] = True
            queue.append(v)

    while remaining > 1 and queue:
        v = queue.popleft()
        queued[v] = False
        if done[v]:
            continue
        if lower_leaf(v):
            w = jt_par[v]
            if w < 0:
                continue
            arcs.append((v, w))
            jt_children[w].discard(v)
            # contract v out of the split tree
            ch = next(iter(st_children[v])) if st_children[v] else -1
            p = st_par[v]
            if ch >= 0:
                st_par[ch] = p
                if p >= 0:
                    st_children[p].discard(v)
                    st_children[p].add(ch)
            elif p >= 0:
                st_children[p].discard(v)
        elif upper_leaf(v):
            w = st_par[v]
            if w < 0:
                continue
            arcs.append((w, v))
            st_children[w].discard(v)
            ch = next(iter(jt_children[v])) if jt_children[v] else -1
            p = jt_par[v]
            if ch >= 0:
                jt_par[ch] = p
                if p >= 0:
                    jt_children[p].discard(v)
                    jt_children[p].add(ch)
            elif p >= 0:
                jt_children[p].discard(v)
        else:
            continue
        done[v] = True
        remaining -= 1
        w = arcs[-1][0] if arcs[-1][1] == v else arcs[-1][1]
        requeue(w)
        for x in list(st_children[v]) + list(jt_children[v]):
            requeue(x)
        requeue(st_par[v])
        requeue(jt_par[v])

    if len(arcs) != n - 1:
        raise GenusNotZero(
            f"contour merge produced {len(arcs)} arcs for {n} nodes")
    return arcs, order


def peel(values, indptr, indices):
    """``_contour_tree`` of a graph in any node numbering: the nodes
    renumbered in (value, id) order, their CSR adjacency split into the
    neighbours numbered below and above, and the arcs numbered back."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    row = rank[np.repeat(np.arange(n), np.diff(indptr))]
    col = rank[indices]
    halves = []
    for side in (col < row, col > row):
        pairs = np.sort(row[side] * n + col[side])
        ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(pairs // n, minlength=n), out=ptr[1:])
        halves.append((ptr.tolist(), (pairs % n).tolist()))
    return [(int(order[lo]), int(order[hi])) for lo, hi in _contour_tree(*halves)]


def assert_peel_matches_oracle(values, indptr, indices):
    """Equal arc sets from the peel and the oracle, ties broken by node id."""
    neighbors = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
    ties = [(v, i) for i, v in enumerate(values)]
    want, _ = oracle_contour_tree(values, ties, neighbors)
    got = peel(values, indptr, indices)
    assert len(got) == len(values) - 1
    assert set(got) == set(want)
    return got


def sphere_and_disks(mesh, field):
    """The sphere and the two disks of every cut across one of its edges."""
    graph = build_reeb(mesh, field)
    yield mesh, field
    for eid in range(graph.n_edges):
        cycle = level_cycle(mesh, field, graph, eid,
                            choose_cut_value(np.sort(field.values), graph, eid))
        for piece in cut_along_cycle(mesh, field, cycle):
            yield piece.mesh, piece.field


def corpus_pieces(count):
    """Every sphere and cut disk of the first ``count`` corpus fields."""
    for seed, n, symmetry in split_corpus_seeds(count):
        tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
        yield from sphere_and_disks(*realize_tree(tree, 4))


def test_peel_matches_oracle_on_corpus_spheres_and_disks():
    checked = 0
    for m, f in corpus_pieces(40):
        contraction = flat_contract(m, f)
        assert_peel_matches_oracle(contraction.zone_values,
                                   *contraction.zone_neighbors(m))
        checked += 1
    assert checked > 40


def test_peel_matches_oracle_on_random_fields_of_large_sphere():
    tree = random_realizable_tree(n=14, symmetry=2, seed=1)
    mesh, _ = realize_tree(tree, 48)
    assert mesh.n_vertices == 4148
    contraction = flat_contract(mesh, random_field(mesh, 0))
    assert len(contraction.starts) == mesh.n_vertices + 1   # one vertex per zone
    indptr, indices = contraction.zone_neighbors(mesh)
    for seed in range(3):
        values = random_field(mesh, seed).values.tolist()
        assert_peel_matches_oracle(values, indptr, indices)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_peel_matches_oracle_on_random_trees(data):
    # on a tree graph every level set is a set of points, so the contour
    # tree is the graph itself with each edge pointing up the sweep order
    n = data.draw(st.integers(1, 40))
    parent = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    new = data.draw(st.permutations(range(n)))  # vertex renumbering
    edges = [(new[i + 1], new[p]) for i, p in enumerate(parent)]
    values = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    neighbors = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    got = assert_peel_matches_oracle([float(x) for x in values], *csr(neighbors))
    assert set(got) == {tuple(sorted(e, key=lambda v: (values[v], v))) for e in edges}


# ----------------------------------------------------------------------
# the tree from a peel over every node, with regular nodes suppressed by
# walking their chains, that the critical-node reduction replaced, kept
# as an oracle for vertices, their preimages and edges

def oracle_tree_from_sweeps(values, indptr, indices, kinds, mults,
                            members) -> tuple[list[ReebVertex], list[ReebEdge]]:
    """Contour tree of a node graph with degree-2 regular nodes suppressed.

    ``indptr`` and ``indices`` are the graph's CSR adjacency; ``members``
    expands each node back to its mesh vertices, a kept node's preimage.
    An edge is found by walking the chain of regular nodes up from its
    lower end.  Raises InvalidFieldClass when a surviving edge fails to
    increase the label strictly, which happens exactly when two critical
    components share a level component.
    """
    nz = len(values)
    down = [[] for _ in range(nz)]
    up = [[] for _ in range(nz)]
    for lo, hi in peel(values, indptr, indices):
        up[lo].append(hi)
        down[hi].append(lo)

    # every regular node must be a plain chain link, and only those go
    for z in range(nz):
        if kinds[z] == "regular" and not len(down[z]) == len(up[z]) == 1:
            raise InternalInconsistency(
                f"regular component {z} has tree degree {len(down[z]) + len(up[z])}")
    keep = [z for z in range(nz) if kinds[z] != "regular"]

    vid_of = {}
    vertices = []
    for i, z in enumerate(sorted(keep, key=values.__getitem__)):
        vid_of[z] = i
        vertices.append(ReebVertex(
            id=i, label=values[z], kind=kinds[z], multiplicity=mults[z],
            preimage=tuple(members[z])))

    raw_edges = []
    for z in keep:
        for cur in up[z]:
            while cur not in vid_of:
                cur = up[cur][0]
            lo, hi = vid_of[z], vid_of[cur]
            if not vertices[lo].label < vertices[hi].label:
                raise InvalidFieldClass(
                    "two critical components share one level value on a "
                    "common level component")
            raw_edges.append((lo, hi))

    raw_edges.sort(key=lambda t: ((vertices[t[0]].label, t[0]),
                                  (vertices[t[1]].label, t[1])))
    edges = [ReebEdge(id=i, lower=lo, upper=hi)
             for i, (lo, hi) in enumerate(raw_edges)]
    return vertices, edges


def part_args(args, i):
    """The arguments of ``_tree_from_sweeps`` for part ``i`` of a union alone,
    in the one-part form without ``zones`` and ``valid``: the part's slices,
    renumbered from its first node and its first vertex."""
    values, _, indptr, indices, kinds, multiplicities, members, starts, zones, _ = args
    z0, z1 = zones[i], zones[i + 1]
    a, b = indptr[z0], indptr[z1]
    return (values[z0:z1], indptr[z0:z1 + 1] - a, indices[a:b] - z0,
            kinds[z0:z1], multiplicities[z0:z1],
            members[starts[z0]:starts[z1]] - members[starts[z0]],
            starts[z0:z1 + 1] - starts[z0])


def oracle_args(values, indptr, indices, kinds, multiplicities, members, starts):
    """The arguments of ``_tree_from_sweeps`` for one part, as
    ``part_args`` gives them, in the oracle's terms: kind names, and each
    node's members as a list."""
    return (values, indptr, indices,
            [reeb.VERTEX_KINDS[k] for k in kinds.tolist()],
            multiplicities.tolist(),
            [members[a:b].tolist() for a, b in zip(starts[:-1], starts[1:])])


@pytest.fixture
def checked_against_oracle(monkeypatch):
    """Makes every build_reeb compare its tree with the oracle's; the list
    it returns counts the trees compared."""
    reduced = reeb._tree_from_sweeps
    checked = []

    def both(*args):
        for i, got in enumerate(reduced(*args)):
            if got is not None:
                want = oracle_tree_from_sweeps(*oracle_args(*part_args(args, i)))
                assert got.vertices == want[0]
                assert got.edges == want[1]
                checked.append(i)
            yield got

    monkeypatch.setattr(reeb, "_tree_from_sweeps", both)
    return checked


def test_reduced_tree_matches_oracle_on_corpus(checked_against_oracle):
    pieces = 0
    for mesh, field in corpus_pieces(200):
        build_reeb(mesh, field)
        pieces += 1
    assert pieces == 3334
    # each sphere is built once more, to find its cuts
    assert len(checked_against_oracle) == pieces + 200


def test_reduced_tree_matches_oracle_on_large_sphere(checked_against_oracle):
    tree = random_realizable_tree(n=14, symmetry=2, seed=1)
    mesh, field = realize_tree(tree, 48)
    assert mesh.n_vertices == 4148
    pieces = 0
    for m, f in sphere_and_disks(mesh, field):
        build_reeb(m, f)
        pieces += 1
    for seed in range(12):
        graph = build_reeb(mesh, random_field(mesh, seed))
        assert graph.n_vertices > 2000
    assert len(checked_against_oracle) == pieces + 1 + 12


def relabeled_regular(fclass, vertex):
    """The classification with one vertex called regular."""
    kinds = fclass.kinds.copy()
    kinds[vertex] = REGULAR
    return dataclasses.replace(fclass, kinds=kinds)


def test_tampered_classification_raises_typed_error():
    # a critical vertex relabelled regular must end in the typed error,
    # never in a bare exception from the array code or in GenusNotZero
    cases = pairs = 0
    for seed, n, symmetry in split_corpus_seeds(30):
        mesh, field = realize_tree(random_realizable_tree(n, symmetry=symmetry,
                                                          seed=seed), 4)
        fclass = classify_field(mesh, field)
        kinds = fclass.kinds.tolist()
        for kind in (SADDLE, MAXIMUM, MINIMUM):
            if kind not in kinds:
                continue
            with pytest.raises(InternalInconsistency):
                build_reeb(mesh, field, fclass=relabeled_regular(fclass, kinds.index(kind)))
            cases += 1
        # two saddles called regular can leave a reduced graph whose peel
        # has too few arcs
        saddles = [v for v, kind in enumerate(kinds) if kind == SADDLE]
        for i, a in enumerate(saddles):
            for b in saddles[i + 1:]:
                tampered = relabeled_regular(relabeled_regular(fclass, a), b)
                with pytest.raises(InternalInconsistency):
                    build_reeb(mesh, field, fclass=tampered)
                pairs += 1
    assert (cases, pairs) == (88, 105)


def test_tampered_random_field_raises_typed_error():
    # on a random field, a saddle called regular can still leave a tree;
    # dropping a tree vertex breaks the degree sum 2(k - 1), so some
    # vertex's degree no longer fits its kind
    mesh, _ = realize_tree(random_realizable_tree(n=6, symmetry=1, seed=3), 8)
    field = random_field(mesh, 0)
    fclass = classify_field(mesh, field)
    messages = set()
    for vertex in np.flatnonzero(fclass.kinds == SADDLE).tolist():
        with pytest.raises(InternalInconsistency) as err:
            build_reeb(mesh, field, fclass=relabeled_regular(fclass, vertex))
        messages.add(str(err.value))
    assert any(" has degree " in message for message in messages)


def test_peel_that_gives_no_tree_is_an_internal_failure(three_bump, monkeypatch):
    # n - 1 arcs that do not form a tree, on a surface that passed its genus
    # check, are a bug in the peel, as too few arcs are, not invalid input
    peel = reeb._contour_tree

    def repeated(*args):
        arcs = peel(*args)
        return arcs[:-1] + arcs[:1]

    monkeypatch.setattr(reeb, "_contour_tree", repeated)
    with pytest.raises(InternalInconsistency, match="duplicate edge"):
        build_reeb(*three_bump)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduced_tree_matches_oracle_on_random_trees(data):
    # on a tree graph a node's link runs are its neighbours, so a node is
    # regular exactly when it has one neighbour below and one above
    n = data.draw(st.integers(2, 40))
    parent = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    values = [float(x) for x in data.draw(st.lists(st.integers(0, 5), min_size=n,
                                                    max_size=n))]
    neighbors = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        neighbors[i + 1].append(p)
        neighbors[p].append(i + 1)
    kinds = []
    for v in range(n):
        below = sum((values[w], w) < (values[v], v) for w in neighbors[v])
        above = len(neighbors[v]) - below
        kinds.append(MINIMUM if not below else MAXIMUM if not above
                     else REGULAR if below == above == 1 else SADDLE)
    args = (values, *csr([sorted(nb) for nb in neighbors]), np.array(kinds),
            np.zeros(n, dtype=int), *singletons(n))
    try:
        want = oracle_tree_from_sweeps(*oracle_args(*args))
    except InvalidFieldClass:
        with pytest.raises(InvalidFieldClass):
            one_tree(*args)
    else:
        got = one_tree(*args)
        assert (got.vertices, got.edges) == want


# ----------------------------------------------------------------------
# one reduction per union: every part's tree is its piece's tree alone

def graph_facts(graph):
    """Everything a level-set tree holds, as plain values."""
    flat, starts = graph.preimages
    assert all(type(label) is float for label in graph.tree.labels)
    return (graph.tree.labels, graph.tree.edges, graph.kinds.tolist(),
            graph.multiplicities.tolist(), flat.tolist(), starts.tolist())


def bumps_tree(k):
    return LabeledTree([0.0, 1.0] + [2.0] * k, [(0, 1)] + [(1, 2 + i) for i in range(k)])


def test_disk_pass_unions_equal_each_piece_alone(monkeypatch):
    batches = []
    analyze = split._analyze_batch

    def recorded(batch):
        batches.append(analyze(batch))
        return batches[-1]

    monkeypatch.setattr(split, "_analyze_batch", recorded)
    trees = [random_realizable_tree(n, symmetry=symmetry, seed=seed)
             for seed, n, symmetry in split_corpus_seeds(30)]
    trees += [random_realizable_tree(2 + s % 9, symmetry=5, seed=s) for s in range(12)]
    trees += [bumps_tree(k) for k in range(3, 8)]
    for tree in trees:
        reports = verify_all_fixed_edges(*realize_tree(tree, 4))
        assert reports and all(r.passed for r in reports)
    for analyses in batches:
        for piece, _, _, graph in analyses:
            assert graph_facts(graph) == graph_facts(build_reeb(piece.mesh, piece.field))
    parts = [len(analyses) for analyses in batches]
    # each union holds whole edges: both disks of each of its cuts
    assert all(part % 2 == 0 for part in parts)
    assert (len(parts), sum(parts), max(parts)) == (95, 420, 10)


def called_regular(fclasses, vertices):
    """The reports of one union with ``vertices`` called regular."""
    kinds = fclasses[0].kinds.copy()
    kinds[list(vertices)] = REGULAR
    return [dataclasses.replace(fclass, kinds=kinds) for fclass in fclasses]


def union_trees(pieces):
    """``part_trees`` of the disjoint union of (mesh, field, vertices called
    regular) pieces."""
    bounds = np.cumsum([0] + [len(field) for _, field, _ in pieces])
    mesh = TriangleMesh(np.broadcast_to(0.0, (bounds[-1], 3)), np.concatenate(
        [m.triangles + b for (m, _, _), b in zip(pieces, bounds.tolist())]))
    field = ScalarField(np.concatenate([f.values for _, f, _ in pieces]))
    fclasses = called_regular(classify_field(mesh, field, bounds),
                              [v + b for (_, _, vs), b in zip(pieces, bounds) for v in vs])
    return part_trees(mesh, validate_surface(mesh, bounds), fclasses, bounds)


def alone(piece):
    """``build_reeb`` of one piece: its tree's facts, or its error's type and
    message."""
    mesh, field, vertices = piece
    try:
        fclass, = called_regular([classify_field(mesh, field)], vertices)
        return graph_facts(build_reeb(mesh, field, fclass=fclass))
    except ReebSplitError as exc:
        return type(exc), str(exc)


def flat_top():
    """The octahedron with a flat top: its zone {0, 1} is called regular
    after vertex 0, whose upper neighbour 1 lies in the zone, and has no
    neighbour above."""
    mesh, _ = octahedron_height()
    return mesh, ScalarField(np.array([3.0, 3.0, 1.0, 2.0, 1.5, 0.0])), ()


def valid_pieces():
    """The octahedron, and the upper disk of three bumps cut below their
    saddle."""
    mesh, field = realize_tree(bumps_tree(3), 4)
    graph = build_reeb(mesh, field)
    cycle = level_cycle(mesh, field, graph, 0, choose_cut_value(np.sort(field.values), graph, 0))
    disk = cut_along_cycle(mesh, field, cycle)[1]
    return (*octahedron_height(), ()), (disk.mesh, disk.field, ())


def test_invalid_part_between_valid_ones_is_never_checked():
    flat = flat_top()
    mesh, field, _ = flat
    fclass = classify_field(mesh, field)
    assert not fclass.valid
    # asked for, the flat top's monotone path would stall
    with pytest.raises(InternalInconsistency,
                       match="stalls on the regular component at vertex 0$"):
        part_trees(mesh, [validate_surface(mesh)],
                   [dataclasses.replace(fclass, field_class="Morse")], [0, 6])
    # a constant field is one zone with no neighbour, here the union's last
    constant = (mesh, ScalarField(np.ones(6)), ())
    first, last = valid_pieces()
    for pieces in ([first, flat, last], [last, flat, first, constant]):
        got = union_trees(pieces)
        assert [g is None for g in got] == [p is flat or p is constant for p in pieces]
        for piece, graph in zip(pieces, got):
            if graph is not None:
                assert graph_facts(graph) == alone(piece)


def degree_failure():
    """A random field with a saddle called regular that leaves a tree whose
    degrees do not fit its kinds."""
    mesh, _ = realize_tree(random_realizable_tree(n=6, symmetry=1, seed=3), 8)
    field = random_field(mesh, 0)
    for vertex in np.flatnonzero(classify_field(mesh, field).kinds == SADDLE).tolist():
        piece = (mesh, field, (vertex,))
        error = alone(piece)
        if " has degree " in error[1]:
            return piece


def test_first_failing_part_raises_its_own_error(torus):
    mesh, field = octahedron_height()
    two = TriangleMesh(np.concatenate([mesh.vertices] * 2),
                       np.concatenate([mesh.triangles, mesh.triangles + 6]))
    failing = {
        "stall": (mesh, field, (5,)),       # the maximum called regular
        "degree": degree_failure(),
        "genus": (*torus, ()),
        "disconnected": (two, ScalarField(np.concatenate([field.values, field.values + 9])), ()),
    }
    errors = {name: alone(piece) for name, piece in failing.items()}
    assert errors["stall"] == (
        InternalInconsistency,
        "a regular component's monotone path stalls on the regular component at vertex 5")
    assert errors["genus"][0] is GenusNotZero
    # numbered within its part wherever it lies in a union
    assert errors["disconnected"] == (
        GenusNotZero, "need a connected genus-0 surface, got a disconnected surface: "
        "vertices 0 and 6 lie in different components")
    first, last = valid_pieces()
    for x, y in itertools.permutations(failing, 2):
        pieces = [first, failing[x], flat_top(), failing[y], last]
        with pytest.raises(ReebSplitError) as err:
            union_trees(pieces)
        assert (type(err.value), str(err.value)) == errors[x], (x, y)
