"""The splitting verifier on spheres that share no structure with ``gen``'s
stacked rings: convex hulls, and ``gen`` meshes after random edge flips."""

import re

import numpy as np
import pytest
from spheres import flipped_sphere, hull_sphere
from test_level_set_oracle import level_mismatches

from reebsplit.errors import InvalidFieldClass
from reebsplit.field import ScalarField
from reebsplit.gen import random_realizable_tree, realize_tree
from reebsplit.mesh import validate_surface
from reebsplit.selftest import split_corpus_seeds
from reebsplit.split import verify_all_fixed_edges


def hull_fields(n, seed):
    """A hull sphere with a random field, a height field with a small ramp
    to part equal heights, and a trigonometric field."""
    mesh = hull_sphere(n, seed)
    x, y, z = mesh.vertices.T
    rng = np.random.default_rng(1000 + seed)
    fields = (rng.random(n),
              z + 1e-9 * np.arange(n),
              np.sin(3 * x + 1) * np.cos(2 * y) + 0.5 * z)
    return mesh, [ScalarField(values) for values in fields]


def test_hull_is_a_closed_outward_sphere():
    mesh = hull_sphere(120, 0)
    surface = validate_surface(mesh)
    assert mesh.n_vertices == 120
    assert surface.closed and surface.connected and surface.genus == 0
    a, b, c = mesh.vertices[mesh.triangles].transpose(1, 0, 2)
    assert ((np.cross(b - a, c - a) * a).sum(axis=1) > 0).all()


def test_every_fixed_edge_splits_on_hull_spheres():
    fields = reports = 0
    for seed in range(20):
        mesh, seed_fields = hull_fields(120, seed)
        for field in seed_fields:
            out = verify_all_fixed_edges(mesh, field)
            assert out and all(r.passed for r in out), (seed, [r.notes for r in out])
            fields += 1
            reports += len(out)
    assert fields == 60 and reports > 1000, reports


@pytest.mark.parametrize("levels", [3, 8, 40])
def test_quantized_fields_end_in_a_flat_zone(levels):
    # floor(k * u) puts adjacent vertices on one value: a flat zone, which
    # must be refused with its witness and never end in a traceback
    for seed in range(30):
        mesh = hull_sphere(80, seed)
        values = np.floor(levels * np.random.default_rng(seed).random(80))
        with pytest.raises(InvalidFieldClass, match="FlatZone"):
            verify_all_fixed_edges(mesh, ScalarField(values))


def test_flipped_corpus_fields_split_or_name_their_flat_zone():
    # three flip tries per triangle make new saddles and extrema, and now
    # and then put two vertices of one value (equal labels of symmetric
    # branches) side by side: a flat zone whose witness must be real
    accepted = refused = 0
    for i, (s, n, k) in enumerate(split_corpus_seeds(40)):
        mesh, field = realize_tree(random_realizable_tree(n, symmetry=k, seed=s), 4)
        mesh = flipped_sphere(mesh, 3 * mesh.n_triangles, i)
        surface = validate_surface(mesh)
        assert surface.closed and surface.connected and surface.genus == 0
        try:
            reports = verify_all_fixed_edges(mesh, field)
        except InvalidFieldClass as err:
            witnesses = re.findall(r"FlatZone: .*? smallest vertex (\d+)", str(err))
            assert witnesses, err
            a, b = mesh.edge_pairs.T
            same = field.values[a] == field.values[b]
            for v in map(int, witnesses):
                assert same[(a == v) | (b == v)].any(), (i, v)
            refused += 1
            continue
        assert level_mismatches(mesh, field)[0] == [], i
        assert all(r.passed for r in reports if r.hypothesis_holds), i
        accepted += 1
    assert accepted + refused == 40 and accepted > 20 and refused > 0
