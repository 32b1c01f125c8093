import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebsplit.errors import InvalidTree
from reebsplit.field import classify_field, euler_identity_holds
from reebsplit.gen import (
    octahedron_height,
    random_field,
    random_realizable_tree,
    realize_tree,
    validate_realizable,
)
from reebsplit.mesh import validate_surface
from reebsplit.reeb import build_reeb
from reebsplit.selftest import split_corpus_seeds
from reebsplit.split import reeb_to_tree
from reebsplit.treeaut import LabeledTree, enumerate_aut, tree_isomorphic

from realize_reference import reference_realize_tree


def test_single_edge_round_trip():
    tree = LabeledTree([0.0, 1.0], [(0, 1)])
    mesh, field = realize_tree(tree, 4)
    rep = validate_surface(mesh)
    assert rep.closed and rep.genus == 0
    assert tree_isomorphic(tree, reeb_to_tree(build_reeb(mesh, field)))


def test_three_bump_realization_class(three_bump):
    mesh, field = three_bump
    rep = classify_field(mesh, field)
    assert rep.field_class == "F-generic"
    assert euler_identity_holds(rep)


def test_resolution_and_realizability_guards(three_bump_tree):
    with pytest.raises(InvalidTree):
        realize_tree(three_bump_tree, 2)
    with pytest.raises(InvalidTree):
        validate_realizable(LabeledTree([0.0], []))
    with pytest.raises(InvalidTree):
        # degree-2 internal vertex
        validate_realizable(LabeledTree([0.0, 1.0, 2.0], [(0, 1), (1, 2)]))
    with pytest.raises(InvalidTree):
        # internal vertex with one-sided neighbours
        validate_realizable(
            LabeledTree([3.0, 1.0, 2.0, 4.0], [(1, 0), (1, 2), (1, 3)]))


@pytest.mark.parametrize("resolution", [3, 4, 6])
def test_resolutions_all_work(three_bump_tree, resolution):
    mesh, field = realize_tree(three_bump_tree, resolution)
    assert tree_isomorphic(three_bump_tree,
                           reeb_to_tree(build_reeb(mesh, field)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_round_trip(seed):
    n = 2 + seed % 13
    symmetry = (1, 1, 2, 3)[seed % 4]
    tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
    mesh, field = realize_tree(tree, 4)
    rep = validate_surface(mesh)
    assert rep.closed and rep.genus == 0 and rep.connected
    fclass = classify_field(mesh, field)
    assert fclass.valid and euler_identity_holds(fclass)
    assert tree_isomorphic(tree, reeb_to_tree(build_reeb(mesh, field)))


def test_morse_iff_all_internal_degree_three():
    tree = LabeledTree([0.0, 1.0, 2.0, 2.5], [(0, 1), (1, 2), (1, 3)])
    mesh, field = realize_tree(tree, 4)
    assert classify_field(mesh, field).field_class == "Morse"


def test_octahedron_fixture_values():
    mesh, field = octahedron_height()
    assert mesh.n_vertices == 6 and mesh.n_triangles == 8
    assert len(set(map(float, field.values))) == 6
    g = build_reeb(mesh, field)
    assert (g.n_vertices, g.n_edges) == (2, 1)


def test_random_tree_determinism_and_minimum():
    t1 = random_realizable_tree(7, seed=123)
    t2 = random_realizable_tree(7, seed=123)
    assert t1.labels == t2.labels and t1.edges == t2.edges
    t3 = random_realizable_tree(2, seed=0)
    assert t3.n == 2
    with pytest.raises(InvalidTree):
        random_realizable_tree(1, seed=0)


# sha256 over the labels and edges of every random_realizable_tree(n, k, s)
# for n 2-40, symmetry k in {1, 2, 3, 5} and seed s 0-4
TREE_DIGEST = "b47d6dccfb74ee655e92333ba955584f6c1ebf9c9e01f7cfd9f6a2b4d828e854"


def test_random_tree_digest():
    h = hashlib.sha256()
    for n in range(2, 41):
        for k in (1, 2, 3, 5):
            for s in range(5):
                tree = random_realizable_tree(n, symmetry=k, seed=s)
                h.update(repr((tree.labels, tree.edges)).encode())
    assert h.hexdigest() == TREE_DIGEST


@pytest.mark.parametrize("k,divisor", [(2, 2), (3, 6)])
def test_symmetry_forces_group_order(k, divisor):
    for seed in (0, 5, 9):
        tree = random_realizable_tree(6, symmetry=k, seed=seed)
        assert enumerate_aut(tree).order % divisor == 0


def test_random_field_determinism(octahedron):
    mesh, _ = octahedron
    f1 = random_field(mesh, seed=7)
    f2 = random_field(mesh, seed=7)
    f3 = random_field(mesh, seed=8)
    assert np.array_equal(f1.values, f2.values)
    assert not np.array_equal(f1.values, f3.values)


def test_random_field_octahedron_is_morse(octahedron):
    mesh, _ = octahedron
    for seed in range(5):
        rep = classify_field(mesh, random_field(mesh, seed=seed))
        assert rep.field_class == "Morse"


def test_random_field_regression_frozen():
    # self-recorded oracle: values computed at first run and frozen here
    mesh, _ = octahedron_height()
    g = build_reeb(mesh, random_field(mesh, seed=42))
    assert (g.n_vertices, g.n_edges) == (4, 3)

    tree = random_realizable_tree(8, symmetry=1, seed=3)
    mesh2, _ = realize_tree(tree, 4)
    field2 = random_field(mesh2, seed=42)
    assert classify_field(mesh2, field2).field_class == "Morse"
    g2 = build_reeb(mesh2, field2)
    assert (g2.n_vertices, g2.n_edges) == (82, 81)


def assert_realizes_as_reference(tree, resolution):
    """``realize_tree`` returns the reference's mesh and field bit for bit,
    or refuses the tree with the reference's error."""
    try:
        ref_mesh, ref_field = reference_realize_tree(tree, resolution)
    except InvalidTree as err:
        with pytest.raises(InvalidTree, match=re.escape(str(err))):
            realize_tree(tree, resolution)
        return
    mesh, field = realize_tree(tree, resolution)
    for got, want in ((mesh.vertices, ref_mesh.vertices),
                      (mesh.triangles, ref_mesh.triangles),
                      (field.values, ref_field.values)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_realization_matches_reference_on_the_split_corpus():
    for s, n, k in split_corpus_seeds(200):
        assert_realizes_as_reference(
            random_realizable_tree(n, symmetry=k, seed=s), 4)


def test_realization_matches_reference_on_symmetric_trees():
    for s in range(12):
        assert_realizes_as_reference(
            random_realizable_tree(2 + s % 9, symmetry=5, seed=s), 4)
    for k in range(1, 8):   # bumps 1 is refused: its saddle has degree 2
        assert_realizes_as_reference(
            LabeledTree([0.0, 1.0] + [2.0] * k,
                        [(0, 1)] + [(1, 2 + i) for i in range(k)]), 4)


@pytest.mark.parametrize("resolution", range(2, 9))
def test_realization_matches_reference_at_every_resolution(resolution):
    for s in range(100):
        tree = random_realizable_tree(2 + s % 13, symmetry=(1, 1, 2, 3)[s % 4],
                                      seed=s)
        assert_realizes_as_reference(tree, resolution)
