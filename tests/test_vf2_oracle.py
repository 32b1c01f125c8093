"""networkx's VF2 matcher as an independent oracle for the tree layer: the
isomorphism test by canonical forms, the orders of the listed groups, and
the orders of the cut sides' groups."""

import random
from itertools import islice, product

import pytest
from aut_oracles import vf2_side_matcher

from reebsplit.errors import GroupTooLarge
from reebsplit.gen import random_realizable_tree
from reebsplit.selftest import double_fork_tree, oracle_corpus, split_corpus_seeds
from reebsplit.treeaut import (
    LabeledTree,
    RootedGroup,
    cut_tree_at,
    enumerate_aut,
    enumerate_general_aut,
    fixed_set,
    tree_isomorphic,
    unmarked_group,
)

nx = pytest.importorskip("networkx")

LISTED = 5040


def graph(tree):
    g = nx.Graph()
    g.add_nodes_from((v, {"label": x, "mark": v == tree.marked})
                     for v, x in enumerate(tree.labels))
    g.add_edges_from(tree.edges)
    return g


def same_label(a, b):
    return a["label"] == b["label"]


def same_label_and_mark(a, b):
    return a["label"] == b["label"] and a["mark"] == b["mark"]


def same_mark(a, b):
    return a["mark"] == b["mark"]


def shuffled(tree, rng, labels=None, edges=None):
    """The tree with its vertices renumbered at random."""
    labels = tree.labels if labels is None else labels
    new = list(range(tree.n))
    rng.shuffle(new)
    out = [0.0] * tree.n
    for v, x in enumerate(labels):
        out[new[v]] = x
    return LabeledTree(out, [(new[u], new[v]) for u, v in edges or tree.edges])


def nudged(tree, rng):
    """One label moved by a quarter, renumbered."""
    v = rng.randrange(tree.n)
    labels = list(tree.labels)
    labels[v] += 0.25
    if any(labels[w] == labels[v] for w in tree.adj[v]):
        return None
    return shuffled(tree, rng, labels=labels)


def leaf_moved(tree, rng):
    """One leaf hung from another vertex of a different label, renumbered."""
    leaves = [v for v in range(tree.n) if tree.degree(v) == 1]
    leaf = rng.choice(leaves)
    (old,) = tree.adj[leaf]
    hosts = [v for v in range(tree.n) if v not in (leaf, old)
             and tree.labels[v] != tree.labels[leaf]]
    if not hosts:
        return None
    host = rng.choice(hosts)
    edges = [e for e in tree.edges if leaf not in e] + [(leaf, host)]
    return shuffled(tree, rng, edges=edges)


def corpus_trees(largest=56):
    """The oracle corpus, the split corpus's trees and random realizable
    trees of base size up to ``largest``, about as many vertices."""
    yield from oracle_corpus(210)
    for seed, n, symmetry in split_corpus_seeds(30):
        yield random_realizable_tree(n, symmetry=symmetry, seed=seed)
    for n, symmetry, seed in product(range(2, largest + 1, 3), (1, 2, 3), range(2)):
        yield random_realizable_tree(n, symmetry=symmetry, seed=seed)


def test_corpus_reaches_sixty_vertices():
    assert 55 <= max(t.n for t in corpus_trees()) <= 70


def test_isomorphism_matches_vf2():
    rng = random.Random(0)
    seen = {True: 0, False: 0}
    for tree in corpus_trees():
        g = graph(tree)
        for other in (shuffled(tree, rng), nudged(tree, rng), leaf_moved(tree, rng)):
            if other is None:
                continue
            want = nx.is_isomorphic(g, graph(other), node_match=same_label)
            assert tree_isomorphic(tree, other) == want, (tree, other)
            seen[want] += 1
    assert min(seen.values()) > 300, seen


def vf2_count(tree, node_match):
    """The number of automorphisms VF2 finds, counted to one past the
    listing bound."""
    g = graph(tree)
    matcher = nx.isomorphism.GraphMatcher(g, g, node_match=node_match)
    return sum(1 for _ in islice(matcher.isomorphisms_iter(), LISTED + 1))


# unlabelled groups of the larger trees run to thousands of elements, which
# VF2 finds one by one; those trees stay in the labelled check
@pytest.mark.parametrize("listed,node_match,largest", [
    (enumerate_aut, same_label_and_mark, 56),
    (enumerate_general_aut, same_mark, 20),
], ids=["labelled", "unlabelled"])
def test_listed_orders_match_vf2(listed, node_match, largest):
    orders = set()
    for tree in corpus_trees(largest):
        for t in (tree, LabeledTree(tree.labels, tree.edges, marked=0)):
            want = vf2_count(t, node_match)
            try:
                got = listed(t, max_order=LISTED).order
            except GroupTooLarge:
                got = LISTED + 1
            assert got == want, (t, got, want)
            orders.add(got)
    assert len(orders) > 5, orders


def fixture_trees():
    """The named trees (bumps 1-6, the double fork, and a tree whose cut
    point shares its label with two leaves of side B) and the symmetric
    ones: five identical branches, and two to four."""
    yield from (LabeledTree([0.0, 1.0] + [2.0] * k, [(0, 1)] + [(1, 2 + i) for i in range(k)])
                for k in range(1, 7))
    yield double_fork_tree()
    yield LabeledTree([0.0, 2.0, 4.0, 3.0, 3.0, 6.0],
                      [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)])
    yield from (random_realizable_tree(2 + s % 9, symmetry=5, seed=s) for s in range(12))
    yield from (random_realizable_tree(2 + s % 5, symmetry=2 + s % 3, seed=s)
                for s in range(20))


def test_side_group_orders_match_vf2():
    # side k is the cut point's branch away from the other end; VF2 counts
    # its automorphisms with the cut point as a marked and an unmarked leaf
    sides, gaps = 0, 0
    for tree in fixture_trees():
        for eid in fixed_set(unmarked_group(tree), tree).edge_ids:
            cut = cut_tree_at(tree, eid)
            for k, end in enumerate(reversed(cut.ends)):
                group = RootedGroup(cut.tree, tree.n, end)
                want = tuple(sum(1 for _ in vf2_side_matcher(cut, k, *pin).isomorphisms_iter())
                             for pin in ((tree.n,), ()))
                assert (group.order, group.unmarked_order) == want, (tree, eid, k)
                sides += 1
                gaps += want[0] != want[1]
    assert sides > 150 and gaps > 0, (sides, gaps)
