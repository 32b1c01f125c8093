import contextlib
import dataclasses
import io
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebsplit import kernels, reeb
from reebsplit.cli import main
from reebsplit.errors import (
    EdgeNotFound,
    GenusNotZero,
    InternalInconsistency,
    InvalidFieldClass,
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
from reebsplit.gen import random_field, random_realizable_tree, realize_tree
from reebsplit.io import save_mesh_field
from reebsplit.mesh import TriangleMesh, cut_along_cycle
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
from reebsplit.split import analyze_sphere, reeb_to_tree
from reebsplit.treeaut import tree_isomorphic


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
    c = choose_cut_value(field, g, 0)
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
        cycle = level_cycle(mesh, field, g, 0, choose_cut_value(field, g, 0))
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
    c = choose_cut_value(field, g, 0)
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
        choose_cut_value(field, g, 99)


def test_choose_cut_value_largest_gap():
    # path tree with interior values clustered near the top: the largest gap
    # sits at the bottom, so the cut value lands in it
    from reebsplit.treeaut import LabeledTree

    tree = LabeledTree([0.0, 10.0], [(0, 1)])
    mesh, field = realize_tree(tree, 4)
    g = build_reeb(mesh, field)
    c = choose_cut_value(field, g, 0)
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
            got = choose_cut_value(field, sphere.graph, eid)
            assert got.hex() == python_cut_value(field, sphere.graph, eid).hex()
            edges += 1
    assert edges == 202
    # the gaps inside (0, 4) are 0.5, 1.5, 0.5 and 1.5: the lower of the
    # two widest wins
    mesh, _ = octahedron
    field = ScalarField(np.array([0.0, 0.5, 2.0, 2.5, 2.0, 4.0]))
    graph = build_reeb(mesh, field)
    assert graph.n_edges == 1
    assert choose_cut_value(field, graph, 0) == python_cut_value(field, graph, 0) == 1.25


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


def test_shared_level_component_rejected():
    # three basins joined by two necks at one height: the sweep must refuse
    # to split that single critical component into two tree vertices
    values = [0.0, 0.2, 0.4, 1.0, 1.0, 1.5, 2.0]
    neighbors = [[3], [3, 4], [4], [0, 1, 5], [1, 2, 5], [3, 4, 6], [5]]
    kinds = np.array([MINIMUM, MINIMUM, MINIMUM, SADDLE, SADDLE, REGULAR,
                      MAXIMUM])
    with pytest.raises(InvalidFieldClass):
        _tree_from_sweeps(values, *csr(neighbors), kinds, np.ones(7, dtype=int),
                          *singletons(7))


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


def assert_peel_matches_oracle(values, indptr, indices):
    """Equal arc sets from the peel and the oracle, ties broken by node id."""
    neighbors = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
    ties = [(v, i) for i, v in enumerate(values)]
    want, _ = oracle_contour_tree(values, ties, neighbors)
    got = _contour_tree(values, indptr, indices)
    assert len(got) == len(values) - 1
    assert set(got) == set(want)
    return got


def sphere_and_disks(mesh, field):
    """The sphere and the two disks of every cut across one of its edges."""
    graph = build_reeb(mesh, field)
    yield mesh, field
    for eid in range(graph.n_edges):
        cycle = level_cycle(mesh, field, graph, eid,
                            choose_cut_value(field, graph, eid))
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
    for lo, hi in _contour_tree(values, indptr, indices):
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


def oracle_args(values, indptr, indices, kinds, multiplicities, members, starts):
    """The arguments of ``_tree_from_sweeps`` in the oracle's terms: kind
    names, and each node's members as a list."""
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
        got = reduced(*args)
        want = oracle_tree_from_sweeps(*oracle_args(*args))
        assert got.vertices == want[0]
        assert got.edges == want[1]
        checked.append(len(args[0]))
        return got

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
            _tree_from_sweeps(*args)
    else:
        got = _tree_from_sweeps(*args)
        assert (got.vertices, got.edges) == want
