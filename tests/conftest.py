import numpy as np
import pytest

from reebsplit.field import ScalarField
from reebsplit.gen import octahedron_height, realize_tree
from reebsplit.mesh import TriangleMesh
from reebsplit.treeaut import LabeledTree


@pytest.fixture
def octahedron():
    return octahedron_height()


@pytest.fixture
def three_bump_tree():
    # one basin, a multiplicity-2 saddle, three peaks at the same label
    return LabeledTree([0.0, 1.0, 2.0, 2.0, 2.0], [(0, 1), (1, 2), (1, 3), (1, 4)])


@pytest.fixture
def three_bump(three_bump_tree):
    return realize_tree(three_bump_tree, 4)


@pytest.fixture
def double_fork_tree():
    # two symmetric leaf pairs at different heights hanging off a path
    return LabeledTree([0.0, 1.0, 2.0, 5.0, 5.0, 7.0, 7.0],
                       [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6)])


@pytest.fixture
def double_fork(double_fork_tree):
    return realize_tree(double_fork_tree, 4)


@pytest.fixture
def torus():
    """A 4x4 grid with opposite sides glued, and an injective field on it."""
    k = 4
    vid = lambda i, j: (i % k) * k + (j % k)
    verts = [(i, j, float(i + j)) for i in range(k) for j in range(k)]
    tris = []
    for i in range(k):
        for j in range(k):
            tris.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            tris.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return TriangleMesh(verts, tris), ScalarField(np.arange(k * k, dtype=float))


@pytest.fixture
def monkey_star():
    """Hexagonal fan around a center whose neighbours alternate above/below."""
    verts = [(0.0, 0.0, 0.0)]
    for i in range(6):
        ang = np.pi * i / 3
        verts.append((np.cos(ang), np.sin(ang), 0.0))
    tris = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    mesh = TriangleMesh(np.asarray(verts), tris)
    field = ScalarField(np.array([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]))
    return mesh, field
