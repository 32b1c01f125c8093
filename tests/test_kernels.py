import random

import pytest

from reebsplit import kernels
from reebsplit.selftest import _prufer_edges


def random_csr(n, seed):
    rng = random.Random(seed)
    edges = _prufer_edges(n, rng)
    # sprinkle extra edges, duplicates removed
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    indptr = [0]
    indices = []
    for v in range(n):
        indices.extend(sorted(nbrs[v]))
        indptr.append(len(indices))
    order = list(range(n))
    rng.shuffle(order)
    return order, indptr, indices


def brute_force_forest(order, indptr, indices):
    """The merge forest from explicit component sets, without union-find."""
    parent = [-1] * len(order)
    components = []  # (node set, top)
    for v in order:
        mine = {v}
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            for comp in components:
                if u in comp[0]:
                    parent[comp[1]] = v
                    mine |= comp[0]
                    components.remove(comp)
                    break
        components.append((mine, v))
    return parent


@pytest.mark.parametrize("seed", range(10))
def test_pure_python_kernel_matches_selected(seed):
    # merge_forest is the one, plain-Python sweep; the brute-force forest
    # is the reference it is checked against
    n = 3 + seed * 7 % 40
    order, indptr, indices = random_csr(n, seed)
    out = kernels.merge_forest(order, indptr, indices)
    assert list(out) == brute_force_forest(order, indptr, indices)


def test_forest_shape_on_path():
    # path 0-1-2-3 swept in value order gives a chain of parents
    order = [0, 1, 2, 3]
    indptr = [0, 1, 3, 5, 6]
    indices = [1, 0, 2, 1, 3, 2]
    out = kernels.merge_forest(order, indptr, indices)
    assert list(out) == [1, 2, 3, -1]
    # reversed sweep gives the chain the other way
    out = kernels.merge_forest([3, 2, 1, 0], indptr, indices)
    assert list(out) == [-1, 0, 1, 2]


def test_forest_join_event():
    # two minima merging at a top vertex: both tops point at the join
    order = [0, 1, 2]
    indptr = [0, 1, 2, 4]
    indices = [2, 2, 0, 1]
    out = kernels.merge_forest(order, indptr, indices)
    assert list(out) == [2, 2, -1]
