"""The level-set tree against a count of level curves.

Between two consecutive tree labels, every component of the level set
f^-1(m) is a circle lying over one tree arc, so the number of components
must equal the number of arcs whose labels span m.  The components are
counted from the mesh alone: the edges the level crosses, joined through
each triangle that holds two of them.  No sweep, zone or contraction of the
package is used.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from spheres import hull_sphere

from reebsplit.gen import random_field, random_realizable_tree, realize_tree
from reebsplit.reeb import build_reeb
from reebsplit.selftest import split_corpus_seeds


def triangle_edges(triangles):
    """The undirected edges (E, 2) and each triangle's three edge ids (T, 3)."""
    sides = np.sort(triangles[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
    edges, ids = np.unique(sides, axis=0, return_inverse=True)
    return edges, ids.reshape(-1, 3)


def level_components(values, edges, tri_edges, m) -> int:
    """The number of components of the level set at ``m``, a value no vertex
    takes."""
    crossed = (values[edges[:, 0]] < m) != (values[edges[:, 1]] < m)
    node = np.cumsum(crossed) - 1
    hit = crossed[tri_edges]
    # a level that misses every vertex crosses zero or two edges of a triangle
    pairs = np.sort(np.where(hit, tri_edges, -1), axis=1)[hit.sum(axis=1) == 2, 1:]
    k = int(crossed.sum())
    graph = coo_matrix((np.ones(len(pairs)), (node[pairs[:, 0]], node[pairs[:, 1]])),
                       shape=(k, k))
    return connected_components(graph, directed=False)[0]


def level_mismatches(mesh, field):
    """(m, components, spanning arcs) at each level where the two differ,
    and the number of levels checked."""
    tree = build_reeb(mesh, field).tree
    labels = np.array(tree.labels)
    lo, hi = np.sort(labels[np.array(tree.edges)], axis=1).T
    values = field.values
    edges, tri_edges = triangle_edges(mesh.triangles)
    distinct = np.unique(values)
    marks = np.unique(labels)
    bad = []
    for a, b in zip(marks[:-1], marks[1:]):
        # the midpoint of the largest gap between field values in [a, b]
        inside = distinct[(distinct >= a) & (distinct <= b)]
        j = int(np.argmax(np.diff(inside)))
        m = (inside[j] + inside[j + 1]) / 2
        count = level_components(values, edges, tri_edges, m)
        spanning = int(np.count_nonzero((lo < m) & (m < hi)))
        if count != spanning:
            bad.append((m, count, spanning))
    return bad, len(marks) - 1


def test_level_components_match_spanning_arcs():
    fields = [realize_tree(random_realizable_tree(n, symmetry=symmetry, seed=seed), 4)
              for seed, n, symmetry in split_corpus_seeds(200)]
    for seed in range(30):
        mesh = hull_sphere(150, seed)
        fields.append((mesh, random_field(mesh, seed)))
    levels = 0
    for i, (mesh, field) in enumerate(fields):
        bad, checked = level_mismatches(mesh, field)
        assert bad == [], i
        levels += checked
    assert levels > 3000, levels


def test_oracle_counts_the_circles_of_a_known_level(three_bump):
    # three peaks above one saddle: three circles just below the peaks, one
    # just above the basin
    mesh, field = three_bump
    edges, tri_edges = triangle_edges(mesh.triangles)
    values = field.values
    assert level_components(values, edges, tri_edges, 1.5) == 3
    assert level_components(values, edges, tri_edges, 0.5) == 1
