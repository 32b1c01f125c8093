"""Union-find sweep kernel.

``merge_forest`` is the inner loop of level-set graph construction: nodes of a
graph are processed in a fixed total order, and whenever a node is reached,
every component already touched among its neighbours is merged into a single
component now topped by that node.  The returned list maps each node ``x`` to
the node at which the component whose top was ``x`` got extended or merged
(-1 for the final top).  A component's top is always its union-find root, the
node that last extended it, so each parent pointer is set at a component's
root.  Running the same routine on the reversed order yields the dual forest.
A neighbour not yet reached is skipped, so a sweep in node-number order needs
only each node's lower neighbours, and the reversed sweep only its upper ones.
"""

from __future__ import annotations


def merge_forest(order, indptr, indices) -> list[int]:
    """Merge-forest parents for a sweep of ``order`` over CSR adjacency.

    The three sequences are read element by element, so Python lists are
    the fast input (``tolist``).
    """
    n = len(order)
    parent = [-1] * n
    uf = list(range(n))
    seen = [False] * n

    for v in order:
        # v is a fresh singleton, so it is its own root.
        for u in indices[indptr[v]:indptr[v + 1]]:
            if seen[u]:
                # find root of u with path halving
                r = uf[u]
                while uf[r] != r:
                    uf[r] = uf[uf[r]]
                    r = uf[r]
                if r != v:
                    parent[r] = v
                    uf[r] = v
        seen[v] = True
    return parent
