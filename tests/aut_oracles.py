"""Colour refinement plus backtracking: the package's former enumeration of
tree automorphisms, kept as the independent oracle for the groups that the
package now reads off rooted AHU forms (``treeaut.RootedGroup``,
``enumerate_aut``, ``enumerate_general_aut``)."""

from reebsplit.treeaut import AutGroup, walk


def refine_colors(tree, initial: list) -> list[int]:
    """Iterated neighbourhood refinement of an initial vertex colouring.

    A discrete colouring, one vertex per colour, refines to itself, so the
    refinement stops there.
    """
    key = {c: i for i, c in enumerate(sorted(set(initial)))}
    colors = [key[c] for c in initial]
    while len(key) < len(colors):
        sigs = [(colors[v], tuple(sorted(colors[w] for w in tree.adj[v])))
                for v in range(tree.n)]
        key = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [key[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def backtrack_aut(tree, use_labels: bool = True) -> list[tuple[int, ...]]:
    """Every automorphism of ``tree`` that fixes its mark (and keeps its
    labels when ``use_labels``), sorted: each vertex, in BFS order from a
    vertex of a smallest colour class, is mapped to a neighbour of its
    parent's image with its own refined colour."""
    n = tree.n
    if n == 1:
        return [(0,)]
    if use_labels:
        initial = [(tree.labels[v], tree.degree(v), v == tree.marked)
                   for v in range(n)]
    else:
        initial = [(tree.degree(v), v == tree.marked) for v in range(n)]
    colors = refine_colors(tree, initial)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)

    root = min(range(n), key=lambda v: (len(classes[colors[v]]), colors[v], v))
    bfs, parent = walk(tree.adj, root)

    # depth-first backtracking over the BFS positions with an explicit
    # stack: level i maps bfs[i], trying its candidates in list order
    results = []
    image = [-1] * n
    used = [False] * n
    last = len(bfs) - 1
    candidates = [classes[colors[root]]] + [None] * last
    tried = [0] * len(bfs)
    i = 0
    while i >= 0:
        v = bfs[i]
        if image[v] != -1:  # undo this level's previous choice
            used[image[v]] = False
            image[v] = -1
        cands = candidates[i]
        color = colors[v]
        for k in range(tried[i], len(cands)):
            w = cands[k]
            if not used[w] and colors[w] == color:
                break
        else:
            i -= 1
            continue
        tried[i] = k + 1
        image[v] = w
        used[w] = True
        if i == last:
            results.append(tuple(image))
        else:
            i += 1
            candidates[i] = tree.adj[image[parent[bfs[i]]]]
            tried[i] = 0
    return sorted(results)


def backtrack_group(tree, use_labels: bool = True) -> AutGroup:
    """``backtrack_aut`` as an element-list group."""
    return AutGroup(tuple(backtrack_aut(tree, use_labels)))
