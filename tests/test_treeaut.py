import ast
import gc
import hashlib
import inspect
import random
import re
import sys
import time
from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from math import factorial

import pytest
from aut_oracles import (
    backtrack_aut,
    backtrack_group,
    oracle_side_groups,
    refine_colors,
    vf2_side_orbit,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from reebsplit import selftest, treeaut
from reebsplit.errors import (
    EdgeNotFound,
    GroupTooLarge,
    InternalInconsistency,
    InvalidTree,
    SideNotInvariant,
)
from reebsplit.gen import random_realizable_tree
from reebsplit.selftest import (
    _prufer_edges,
    brute_force_aut,
    oracle_corpus,
    split_corpus_seeds,
    star_tree,
)
from reebsplit.treeaut import (
    AutGroup,
    FixedSet,
    LabeledTree,
    RootedGroup,
    _centers,
    certify_splitting,
    close_under_composition,
    compose,
    cut_tree_at,
    element_order_histogram,
    enumerate_aut,
    enumerate_general_aut,
    fixed_set,
    identity_perm,
    perm_order,
    restrict_aut,
    tree_isomorphic,
    unmarked_group,
    verify_group_axioms,
    verify_isomorphism,
    verify_isomorphism_pairs,
    walk,
)


def glue_aut(cut, alpha, beta):
    """Automorphism of the base tree restricting to ``alpha`` and ``beta``:
    the preimage the surjectivity oracle glues for each side pair."""
    x = cut.base.n
    if alpha[x] != x or beta[x] != x:
        raise ValueError("glued pieces must fix the cut point")
    out = list(range(x))
    for piece, side in zip((alpha, beta), cut.sides):
        for v in side:
            out[v] = piece[v]
    return tuple(out)


def invert(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def test_tree_invariants_enforced():
    with pytest.raises(InvalidTree):
        LabeledTree([0.0, 0.0], [(0, 1)])  # adjacent equal labels
    with pytest.raises(InvalidTree):
        LabeledTree([0.0, 1.0, 2.0], [(0, 1)])  # disconnected
    with pytest.raises(InvalidTree):
        LabeledTree([0.0, 1.0, 2.0], [(0, 1), (1, 2), (0, 2)])  # cycle


def test_tree_check_needs_connection_not_just_the_edge_count():
    with pytest.raises(InvalidTree, match="not a tree"):
        # a triangle and an isolated vertex: n - 1 edges, two components
        LabeledTree([0.0, 1.0, 2.0, 3.0], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InvalidTree, match="duplicate edge"):
        LabeledTree([0.0, 1.0, 2.0], [(0, 1), (1, 0)])


def test_walk_order_parents_and_avoided_vertex():
    adj = [[1], [0, 2], [1, 3], [2]]  # the path 0 - 1 - 2 - 3
    assert walk(adj, 1) == ([1, 0, 2, 3], [1, -1, 1, 2])
    assert walk(adj, 1, avoid=2) == ([1, 0], [1, -1, -1, -1])


def peeled_centers(tree):
    """The centers by peeling leaf layers: the oracle for ``_centers``."""
    n = tree.n
    if n == 1:
        return [0]
    deg = [tree.degree(v) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    removed = len(layer)
    while removed < n:
        nxt = []
        for v in layer:
            for w in tree.adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        if not nxt:
            break
        layer = nxt
        removed += len(layer)
    return sorted(layer)


def unlabeled_tree(n, edges):
    return LabeledTree([float(v) for v in range(n)], edges)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32))
def test_centers_match_leaf_peeling_on_pruefer_trees(n, seed):
    edges = _prufer_edges(n, random.Random(seed)) if n > 1 else []
    tree = unlabeled_tree(n, edges)
    assert _centers(tree) == peeled_centers(tree)


@pytest.mark.parametrize("n", range(1, 12))
def test_centers_match_leaf_peeling_on_paths_and_stars(n):
    path = unlabeled_tree(n, [(v, v + 1) for v in range(n - 1)])
    assert _centers(path) == peeled_centers(path) == sorted({(n - 1) // 2, n // 2})
    star = unlabeled_tree(n, [(n // 2, v) for v in range(n) if v != n // 2])
    assert _centers(star) == peeled_centers(star) == ([n // 2] if n != 2 else [0, 1])


def test_path_group_is_trivial():
    group = enumerate_aut(LabeledTree([0.0, 1.0], [(0, 1)]))
    assert group.order == 1
    assert group.elements == (identity_perm(2),)


def test_three_leaf_star_order_six(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    assert group.order == 6
    assert element_order_histogram(group) == {1: 1, 2: 3, 3: 2}
    assert list(group.elements) == brute_force_aut(three_bump_tree)


def test_double_fork_group(double_fork_tree):
    group = enumerate_aut(double_fork_tree)
    assert group.order == 4
    assert element_order_histogram(group) == {1: 1, 2: 3}
    assert list(group.elements) == brute_force_aut(double_fork_tree)


@pytest.mark.parametrize("k,order", [(2, 2), (3, 6), (4, 24), (5, 120)])
def test_star_orders(k, order):
    assert enumerate_aut(star_tree(k)).order == order


def test_enumeration_matches_oracle_on_corpus():
    for tree in oracle_corpus(60):
        assert list(enumerate_aut(tree).elements) == brute_force_aut(tree)


def refine_to_fixed_point(tree, initial):
    """The colour refinement without its stop at a discrete colouring, kept
    as an oracle."""
    key = {c: i for i, c in enumerate(sorted(set(initial)))}
    colors = [key[c] for c in initial]
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in tree.adj[v])))
                for v in range(tree.n)]
        key = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [key[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def test_refinement_stop_at_discrete_colouring_changes_nothing():
    # the initial colourings of enumerate_aut and enumerate_general_aut, on
    # each tree and with its vertex 0 marked
    discrete = 0
    for tree in oracle_corpus(200):
        for t in (tree, LabeledTree(tree.labels, tree.edges, marked=0)):
            for initial in ([(t.labels[v], t.degree(v), v == t.marked)
                             for v in range(t.n)],
                            [(t.degree(v), v == t.marked) for v in range(t.n)]):
                want = refine_to_fixed_point(t, initial)
                assert refine_colors(t, initial) == want
                discrete += len(set(want)) == t.n
    assert discrete == 465  # of 800 colourings


def test_marked_vertex_restricts_group(three_bump_tree):
    marked = LabeledTree(three_bump_tree.labels, three_bump_tree.edges,
                         marked=2)  # pin one peak
    group = enumerate_aut(marked)
    assert group.order == 2
    assert list(group.elements) == brute_force_aut(marked)


def test_group_axioms_and_generators(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    assert verify_group_axioms(group)
    assert group.order == 6
    regenerated = close_under_composition(list(group.generators), group.n)
    assert tuple(regenerated) == group.elements
    assert not verify_group_axioms([group.elements[-1]])  # no identity


def test_perm_helpers():
    p = (1, 2, 0, 3)
    assert compose(p, invert(p)) == identity_perm(4)
    assert perm_order(p) == 3


def test_fixed_set_path_center():
    tree = LabeledTree([0.0, 1.0, 0.0], [(0, 1), (1, 2)])
    group = enumerate_aut(tree)  # swaps the two equal leaves
    assert group.order == 2
    fx = fixed_set(group, tree)
    assert fx.variant == "subtree"
    assert fx.vertices == (1,)
    assert fx.edge_ids == ()


def test_fixed_set_midpoint_flip():
    tree = LabeledTree([0.0, 1.0], [(0, 1)])
    general = enumerate_general_aut(tree)
    assert general.order == 2
    fx = fixed_set(general, tree)
    assert fx.variant == "midpoint"
    assert fx.midpoint_edge == 0
    assert fx.flip_witness == (1, 0)


def test_fixed_set_three_bump(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    fx = fixed_set(group, three_bump_tree)
    assert fx.variant == "subtree"
    assert fx.vertices == (0, 1)
    assert fx.edge_ids == (0,)


def test_fixed_set_requires_a_group(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    with pytest.raises(ValueError):
        fixed_set([group.elements[-1]], three_bump_tree)


def test_cut_tree_basic(three_bump_tree):
    cut = cut_tree_at(three_bump_tree, 0)
    assert cut.tree.n == 6 and cut.ends == (0, 1)
    assert cut.sides == ((0,), (1, 2, 3, 4))
    lo, hi = three_bump_tree.edges[0]
    cut_label = cut.tree.labels[5]
    assert min(three_bump_tree.labels[lo], three_bump_tree.labels[hi]) \
        < cut_label < max(three_bump_tree.labels[lo], three_bump_tree.labels[hi])
    assert cut.tree.adj[5] == [0, 1]
    with pytest.raises(EdgeNotFound):
        cut_tree_at(three_bump_tree, 9)


def test_cut_single_edge():
    tree = LabeledTree([0.0, 1.0], [(0, 1)])
    cut = cut_tree_at(tree, 0)
    assert (cut.tree.labels, cut.tree.edges) == ((0.0, 1.0, 0.5), ((0, 2), (1, 2)))
    assert cut.sides == ((0,), (1,))


def oracle_sides(tree, eid):
    """The sides of a tree cut inside edge ``eid``, the lower end's (by
    label, then id) first: each grown from its end by scanning every other
    edge until none joins it to a vertex outside."""
    u, v = tree.edges[eid]
    ends = (u, v) if (tree.labels[u], u) < (tree.labels[v], v) else (v, u)
    sides = []
    for end in ends:
        side, grown = {end}, True
        while grown:
            grown = False
            for i, (a, b) in enumerate(tree.edges):
                if i != eid and (a in side) != (b in side):
                    side |= {a, b}
                    grown = True
        sides.append(tuple(sorted(side)))
    return ends, tuple(sides)


def test_cut_sides_match_the_edge_scan():
    trees = [random_realizable_tree(n, symmetry=symmetry, seed=seed)
             for seed, n, symmetry in split_corpus_seeds(30)]
    trees += [random_realizable_tree(2 + s % 9, symmetry=5, seed=s) for s in range(12)]
    trees += [bumps_tree(k) for k in range(1, 8)]
    trees += [random_realizable_tree(2 + s, symmetry=(1, 2, 3, 5)[s % 4], seed=100 + s)
              for s in range(50)]
    sides = 0
    for tree in trees:
        x = tree.n
        for eid, (u, v) in enumerate(tree.edges):   # every edge, fixed or not
            cut = cut_tree_at(tree, eid)
            ends, oracle = oracle_sides(tree, eid)
            assert (cut.ends, cut.sides) == (ends, oracle)
            assert cut.tree.labels == tree.labels + ((tree.labels[u] + tree.labels[v]) / 2.0,)
            assert set(cut.tree.edges) == set(tree.edges) - {(u, v)} | {(u, x), (v, x)}
            # each side is the cut point's branch away from the other end
            for side, avoid in zip(oracle, reversed(ends)):
                assert sorted(walk(cut.tree.adj, x, avoid)[0]) == [*side, x]
                sides += 1
    assert sides > 3000


def test_restrict_and_glue_roundtrip(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    cut = cut_tree_at(three_bump_tree, 0)
    for g in group.elements:
        a = restrict_aut(cut, g, "A")
        b = restrict_aut(cut, g, "B")
        assert glue_aut(cut, a, b) == g


def test_restrict_is_multiplicative(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    cut = cut_tree_at(three_bump_tree, 0)
    rng = random.Random(0)
    for _ in range(20):
        d = group.elements[rng.randrange(group.order)]
        w = group.elements[rng.randrange(group.order)]
        lhs = restrict_aut(cut, compose(d, w), "B")
        rhs = compose(restrict_aut(cut, d, "B"), restrict_aut(cut, w, "B"))
        assert lhs == rhs


def test_glue_order_is_lcm(double_fork_tree):
    group = enumerate_aut(double_fork_tree)
    fx = fixed_set(group, double_fork_tree)
    cut = cut_tree_at(double_fork_tree, fx.edge_ids[0])
    ga, gb = oracle_side_groups(cut)
    rng = random.Random(1)
    from math import lcm

    for _ in range(20):
        a = ga.elements[rng.randrange(ga.order)]
        b = gb.elements[rng.randrange(gb.order)]
        assert perm_order(glue_aut(cut, a, b)) == lcm(perm_order(a), perm_order(b))


def test_side_not_invariant_raises(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    swap = next(g for g in group.elements if g != identity_perm(5))
    # cutting a peak edge: elements moving that peak break both conditions
    cut = cut_tree_at(three_bump_tree, 1)
    mover = next(g for g in group.elements if g[2] != 2)
    with pytest.raises(SideNotInvariant):
        restrict_aut(cut, mover, "A")


def test_verify_isomorphism_trivial():
    tree = LabeledTree([0.0, 1.0], [(0, 1)])
    group = enumerate_aut(tree)
    cut = cut_tree_at(tree, 0)
    ga, gb = oracle_side_groups(cut)
    verdict = verify_isomorphism(cut, group, ga, gb)
    assert verdict.passed
    assert group.order == ga.order * gb.order == 1


def test_verify_isomorphism_three_bump(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    cut = cut_tree_at(three_bump_tree, 0)
    ga, gb = oracle_side_groups(cut)
    verdict = verify_isomorphism(cut, group, ga, gb)
    assert verdict.passed
    assert (ga.order, gb.order) == (1, 6)


def test_verify_isomorphism_detects_missing_element(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    cut = cut_tree_at(three_bump_tree, 0)
    ga, gb = oracle_side_groups(cut)
    dropped = [g for g in group.elements if g != group.elements[-1]]

    def pair_of(g):
        return (restrict_aut(cut, g, "A"), restrict_aut(cut, g, "B"))

    verdict = verify_isomorphism_pairs(dropped, ga, gb, pair_of)
    assert not verdict.surjective
    assert not verdict.homomorphism
    assert not verdict.passed
    # the only product that can leave a group minus one element is that element
    missing = group.elements[-1]
    g, t, gt = witness(verdict.notes, "not closed", "g", "t", "gives")
    assert g in dropped and t in dropped
    assert compose(g, t) == gt == missing
    assert witness(verdict.notes, "no preimage", "alpha", "beta") \
        == pair_of(missing)


def test_setwise_invariant_edges_pointwise_fixed():
    for tree in oracle_corpus(40):
        group = enumerate_aut(tree)
        for p in group.elements:
            for u, v in tree.edges:
                if {p[u], p[v]} == {u, v}:
                    assert p[u] == u and p[v] == v


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_label_scaling_leaves_group_unchanged(seed):
    rng = random.Random(seed)
    from reebsplit.gen import random_realizable_tree

    tree = random_realizable_tree(2 + seed % 7, symmetry=(1, 2, 3)[seed % 3],
                                  seed=seed)
    a = rng.choice([0.5, 2.0, 4.0])  # powers of two scale exactly
    b = float(rng.randrange(-5, 6))
    moved = LabeledTree([a * x + b for x in tree.labels], tree.edges)
    assert enumerate_aut(tree).elements == enumerate_aut(moved).elements


def distinct_leaf_star(k):
    """A center with k leaves of distinct labels: trivial labelled group,
    k! automorphisms with labels ignored."""
    return LabeledTree([0.0] + [1.0 + i for i in range(k)], [(0, 1 + i) for i in range(k)])


def test_group_order_bound_enforced(monkeypatch):
    with pytest.raises(GroupTooLarge):
        enumerate_aut(star_tree(8))  # 8! = 40320 exceeds the explicit bound
    assert enumerate_aut(star_tree(8), max_order=50_000).order == 40_320
    # the bound itself is listed, one element fewer is refused; the
    # selftest lists general groups up to 5040
    assert enumerate_aut(star_tree(5), max_order=120).order == 120
    with pytest.raises(GroupTooLarge, match="group exceeds 119 elements"):
        enumerate_aut(star_tree(5), max_order=119)
    assert enumerate_general_aut(distinct_leaf_star(7), max_order=5040).order == 5040
    with pytest.raises(GroupTooLarge, match="group exceeds 5039 elements"):
        enumerate_general_aut(distinct_leaf_star(7), max_order=5039)

    # the order is checked before anything is listed
    def listing(*args, **kwargs):
        raise AssertionError("listed a group beyond the bound")

    monkeypatch.setattr(treeaut, "close_under_composition", listing)
    t0 = time.perf_counter()
    with pytest.raises(GroupTooLarge, match="group exceeds 10000 elements"):
        enumerate_aut(star_tree(12))  # 12! = 479001600
    with pytest.raises(GroupTooLarge, match="group exceeds 5040 elements"):
        enumerate_general_aut(distinct_leaf_star(12), max_order=5040)
    assert time.perf_counter() - t0 < 0.1


def test_group_too_large_names_its_order():
    # the refusal ends in the order of the rooted pass, which Schreier-Sims
    # finds from the generators too, with nothing listed
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for tree, max_order, order in ((bumps_tree(8), 10_000, factorial(8)),
                                   (star_tree(5), 119, factorial(5)),
                                   (star_tree(12), 10_000, factorial(12))):
        with pytest.raises(GroupTooLarge, match=f"group exceeds {max_order} elements") as no:
            enumerate_aut(tree, max_order=max_order)
        assert str(no.value).endswith(f" (order {order})")
        group = unmarked_group(tree)
        span = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p))
             for p in (identity_perm(group.n), *group.generators)])
        assert span.order() == order


def half_swap(kids, a, b, *rest):
    """Exchanges ``a`` and ``b`` alone, leaving their children behind."""
    p = list(range(len(kids)))
    p[a], p[b] = b, a
    return tuple(p)


def short_span(gens, n, max_order=treeaut.MAX_GROUP_ORDER):
    return treeaut._greedy_span(gens, n, max_order=max_order)[0][:-1]


def escaping_closure(group):
    ident = group.elements[0]
    return list(group.elements[1:]), (ident, ident, ident)


@pytest.mark.parametrize("owner,name,fault,message", [
    (treeaut, "_swap", half_swap, "is no automorphism"),
    (treeaut, "close_under_composition", short_span, "generators span 1 elements"),
    (AutGroup, "closure", property(escaping_closure), "not closed"),
], ids=["swap", "span", "closure"])
def test_listing_self_checks_name_their_fault(monkeypatch, owner, name, fault, message):
    # a root of label 5 with two children of label 1, each with a leaf of
    # label 3: the one swap exchanges both children and both leaves
    tree = LabeledTree([5.0, 1.0, 1.0, 3.0, 3.0], [(0, 1), (0, 2), (1, 3), (2, 4)])
    assert enumerate_aut(tree).elements == ((0, 1, 2, 3, 4), (0, 2, 1, 4, 3))
    monkeypatch.setattr(owner, name, fault)
    with pytest.raises(InternalInconsistency, match=message):
        enumerate_aut(tree)


def test_group_json_dump_is_deterministic(three_bump_tree):
    g1 = enumerate_aut(three_bump_tree).to_dict()
    g2 = enumerate_aut(three_bump_tree).to_dict()
    assert g1 == g2
    assert g1["order"] == 6
    assert g1["schema"] == "reeb-split/1"


# ----------------------------------------------------------------------
# generator-level checks against the exhaustive |G|^2 loops

def witness(notes, marker, *names):
    """The permutations named ``name=(...)`` in the one note containing
    ``marker``."""
    [note] = [x for x in notes if marker in x]
    return tuple(ast.literal_eval(re.search(rf"\b{name}[= ](\([^)]*\))", note)[1])
                 for name in names)


def oracle_group_axioms(elems):
    """Exhaustive closure / identity / inverse check over all |G|^2 pairs."""
    elems = list(elems)
    if not elems:
        return False
    n = len(elems[0])
    s = set(elems)
    if identity_perm(n) not in s:
        return False
    for p in elems:
        if invert(p) not in s:
            return False
    for p in elems:
        for q in elems:
            if compose(p, q) not in s:
                return False
    return True


def oracle_isomorphism_pairs(elements, side_a, side_b, pair_of, glue):
    """(injective, surjective, homomorphism) by exhaustive loops, with
    closure and multiplicativity checked on all |G|^2 pairs."""
    elements = list(elements)
    try:
        pairs = {g: pair_of(g) for g in elements}
    except SideNotInvariant:
        return (False, False, False)
    a_set, b_set = set(side_a.elements), set(side_b.elements)
    if any(pa not in a_set or pb not in b_set for pa, pb in pairs.values()):
        return (False, False, False)
    n = len(elements[0])
    ident = identity_perm(n)
    injective = all(g == ident for g in elements
                    if pairs[g] == (identity_perm(side_a.n), identity_perm(side_b.n)))
    homomorphism = True
    elem_set = set(elements)
    for g, h in product(elements, repeat=2):
        gh = compose(g, h)
        if gh not in elem_set:
            homomorphism = False
            break
        want = (compose(pairs[g][0], pairs[h][0]), compose(pairs[g][1], pairs[h][1]))
        if pairs[gh] != want:
            homomorphism = False
            break
    surjective = True
    hit = set(pairs.values())
    for pa, pb in product(side_a.elements, side_b.elements):
        if (pa, pb) in hit:
            continue
        glued = glue(pa, pb)
        if glued not in elem_set or pairs.get(glued) != (pa, pb):
            surjective = False
            break
    return (injective, surjective, homomorphism)


def restriction(cut):
    def pair_of(g):
        return (restrict_aut(cut, g, "A"), restrict_aut(cut, g, "B"))
    return pair_of


def assert_checks_agree(elements, cut, ga, gb, pair_of=None):
    """The isomorphism verdict and the oracle's agree; returns the verdict."""
    pair_of = pair_of or restriction(cut)
    verdict = verify_isomorphism_pairs(elements, ga, gb, pair_of)
    want = oracle_isomorphism_pairs(elements, ga, gb, pair_of,
                                    lambda a, b: glue_aut(cut, a, b))
    assert (verdict.injective, verdict.surjective, verdict.homomorphism) == want
    return verdict


def fixed_edge_cuts(tree):
    """The group of a tree and, for every fixed edge, (cut, side A group,
    side B group), each listed by the backtracking oracle."""
    group = backtrack_group(tree)
    cuts = []
    for eid in fixed_set(group, tree).edge_ids:
        cut = cut_tree_at(tree, eid)
        cuts.append((cut, *oracle_side_groups(cut)))
    return group, cuts


@lru_cache(maxsize=None)
def symmetric_trees():
    """The twelve trees with five identical branches, as fixed_edge_cuts."""
    return tuple(fixed_edge_cuts(random_realizable_tree(2 + s % 9, symmetry=5, seed=s))
                 for s in range(12))


def assert_groups(*groups):
    for group in groups:
        assert verify_group_axioms(group) and oracle_group_axioms(group.elements)


def test_generator_checks_match_oracles_on_split_corpus():
    count = 0
    for seed, n, symmetry in split_corpus_seeds(200):
        group, cuts = fixed_edge_cuts(
            random_realizable_tree(n, symmetry=symmetry, seed=seed))
        assert_groups(group)
        for cut, ga, gb in cuts:
            assert_groups(ga, gb)
            assert assert_checks_agree(group.elements, cut, ga, gb).passed
            count += 1
    assert count > 200


def test_generator_checks_match_oracles_on_symmetric_trees():
    # the |G|^2 oracles take about 0.1 s a cut, so they run on the first
    # cut of each tree
    for group, cuts in symmetric_trees():
        cut, ga, gb = cuts[0]
        assert group.order == 120
        assert_groups(group, ga, gb)
        assert assert_checks_agree(group.elements, cut, ga, gb).passed


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["drop", "foreign", "no identity"]))
def test_generator_checks_match_oracles_on_non_groups(data, kind):
    trees = symmetric_trees()
    group, cuts = trees[data.draw(st.integers(0, len(trees) - 1))]
    cut, ga, gb = cuts[data.draw(st.integers(0, len(cuts) - 1))]
    elements = list(group.elements)
    if kind == "drop":
        del elements[data.draw(st.integers(1, len(elements) - 1))]
    elif kind == "foreign":
        p = tuple(data.draw(st.permutations(range(group.n))))
        if p in group:
            return
        elements.insert(data.draw(st.integers(0, len(elements))), p)
    else:
        elements.remove(identity_perm(group.n))
    assert not verify_group_axioms(elements)
    assert not oracle_group_axioms(elements)
    assert not assert_checks_agree(elements, cut, ga, gb).passed


def test_non_multiplicative_pairing_detected():
    for group, cuts in symmetric_trees()[:6]:
        cut, ga, gb = cuts[0]
        honest = restriction(cut)
        # exchange the images of two elements outside the kernel: the map
        # stays a bijection onto the side groups but is no homomorphism
        movers = [g for g in group.elements if honest(g) != honest(group.elements[0])]
        x, y = movers[0], movers[-1]
        swap = {x: y, y: x}

        def pair_of(g):
            return honest(swap.get(g, g))

        verdict = assert_checks_agree(group.elements, cut, ga, gb, pair_of)
        assert verdict.injective and verdict.surjective
        assert not verdict.homomorphism
        g, t = witness(verdict.notes, "not multiplicative", "g", "t")
        (ga_, gb_), (ta, tb) = pair_of(g), pair_of(t)
        assert pair_of(compose(g, t)) != (compose(ga_, ta), compose(gb_, tb))


def test_multiplicativity_checked_on_every_generator(three_bump_tree):
    # pair_of(g) = honest(sigma(g)), where sigma swaps two left cosets of
    # <t1> other than <t1> itself: pair_of(g o t1) = pair_of(g) o pair_of(t1)
    # for every g, so only a later generator can expose the fault
    trees = [fixed_edge_cuts(three_bump_tree)] + list(symmetric_trees()[:3])
    for group, cuts in trees:
        cut, ga, gb = cuts[0]
        honest = restriction(cut)
        t1 = group.generators[0]
        cyclic = close_under_composition([t1], group.n)
        reps, rep_of = [], {}
        for g in group.elements:
            if g not in rep_of:
                reps.append(g)
                rep_of.update((compose(g, h), g) for h in cyclic)
        r1, r2 = reps[1], reps[2]
        other = {r1: r2, r2: r1}

        def pair_of(g):
            r = rep_of[g]
            if r in other:
                g = compose(other[r], compose(invert(r), g))
            return honest(g)

        verdict = assert_checks_agree(group.elements, cut, ga, gb, pair_of)
        assert not verdict.homomorphism
        g, t = witness(verdict.notes, "not multiplicative", "g", "t")
        assert t != t1 and t in group.generators


def test_trivial_group_with_non_identity_pair_is_no_homomorphism():
    side = AutGroup(elements=((0, 1), (1, 0)))
    verdict = verify_isomorphism_pairs([(0, 1)], side, side,
                                       lambda g: ((1, 0), (0, 1)))
    assert not verdict.homomorphism
    assert witness(verdict.notes, "not multiplicative", "g", "t") == ((0, 1), (0, 1))


# ----------------------------------------------------------------------
# the splitting certificate on generators against the element-wise checks

def element_wise_splitting(cut, group, ga, gb):
    """(injective, surjective, homomorphism) of ``verify_isomorphism`` and
    whether every element keeps both sides' base vertices."""
    verdict = verify_isomorphism(cut, group, ga, gb)
    invariant = all({g[v] for v in side} == set(side)
                    for g in group.elements for side in cut.sides)
    return (verdict.injective, verdict.surjective, verdict.homomorphism), invariant


def assert_certificate_agrees(cut, group, ga, gb):
    """The certificate and the element-wise checks agree; returns the
    certificate's verdict."""
    verdict, leaver = certify_splitting(cut, group, ga, gb)
    assert ((verdict.injective, verdict.surjective, verdict.homomorphism),
            leaver is None) == element_wise_splitting(cut, group, ga, gb)
    return verdict


def bumps_tree(k):
    return LabeledTree([0.0, 1.0] + [2.0] * k, [(0, 1)] + [(1, 2 + i) for i in range(k)])


@lru_cache(maxsize=None)
def certificate_trees():
    """The split corpus, the twelve five-branch trees, bumps 1-7 and the
    double fork."""
    trees = [random_realizable_tree(n, symmetry=symmetry, seed=seed)
             for seed, n, symmetry in split_corpus_seeds(200)]
    trees += [random_realizable_tree(2 + s % 9, symmetry=5, seed=s) for s in range(12)]
    return trees + [bumps_tree(k) for k in range(1, 8)] + [selftest.double_fork_tree()]


def test_certificate_matches_element_wise_checks():
    cuts_seen = 0
    for tree in certificate_trees():
        group, cuts = fixed_edge_cuts(tree)
        for cut, ga, gb in cuts:
            verdict = assert_certificate_agrees(cut, group, ga, gb)
            assert verdict.passed and verdict.notes == ()
            cuts_seen += 1
    assert cuts_seen > 250


def fixed_set_by_elements(group, tree):
    """The fixed set from the fixed points of every element."""
    fixed = [all(p[v] == v for p in group.elements) for v in range(tree.n)]
    if any(fixed):
        return FixedSet(variant="subtree",
                        vertices=tuple(v for v in range(tree.n) if fixed[v]),
                        edge_ids=tuple(eid for eid, (u, v) in enumerate(tree.edges)
                                       if fixed[u] and fixed[v]))
    [(eid, witness_)] = [
        (eid, next(p for p in group.elements if p[u] == v))
        for eid, (u, v) in enumerate(tree.edges)
        if all({p[u], p[v]} == {u, v} for p in group.elements)
        and any(p[u] == v for p in group.elements)]
    return FixedSet(variant="midpoint", midpoint_edge=eid, flip_witness=witness_)


def test_fixed_set_from_generators_matches_the_element_scan():
    variants = Counter()
    trees = certificate_trees() + oracle_corpus(100)
    for tree in trees:
        for enumerate_group in (enumerate_aut, enumerate_general_aut):
            try:
                group = enumerate_group(tree)
            except GroupTooLarge:
                continue
            fx = fixed_set(group, tree)
            assert fx == fixed_set_by_elements(group, tree)
            variants[fx.variant] += 1
    assert variants["midpoint"] > 10 and variants["subtree"] > 500


@pytest.fixture
def three_bump_cut(three_bump_tree):
    group, [(cut, ga, gb)] = fixed_edge_cuts(three_bump_tree)
    assert (group.order, ga.order, gb.order) == (6, 1, 6)
    return group, cut, ga, gb


def test_certificate_names_a_generator_outside_the_side_group(three_bump_cut):
    group, cut, ga, gb = three_bump_cut
    # side B's group cut down to <s> for one generator s: another generator
    # restricts outside it
    s = restrict_aut(cut, group.generators[0], "B")
    smaller = AutGroup(tuple(close_under_composition([s], gb.n)))
    verdict = assert_certificate_agrees(cut, group, ga, smaller)
    assert not (verdict.injective or verdict.surjective or verdict.homomorphism)
    [t] = witness(verdict.notes, "leaves the side group", "t")
    assert t in group.generators and restrict_aut(cut, t, "B") not in smaller


def test_certificate_names_a_generator_moving_the_cut_edge(three_bump_tree):
    group = enumerate_aut(three_bump_tree)
    # edge 1 joins the saddle to a peak that the group moves
    assert 1 not in fixed_set(group, three_bump_tree).edge_ids
    cut = cut_tree_at(three_bump_tree, 1)
    ga, gb = oracle_side_groups(cut)
    verdict = assert_certificate_agrees(cut, group, ga, gb)
    assert not (verdict.injective or verdict.surjective or verdict.homomorphism)
    [t] = witness(verdict.notes, "restriction undefined", "t")
    u, v = three_bump_tree.edges[1]
    assert t in group.generators and (t[u], t[v]) != (u, v)
    # the first generator moving a vertex off its side, and that vertex
    note = certify_splitting(cut, group, ga, gb)[1]
    [s] = witness([note], "sides not invariant", "t")
    w, name = re.search(r"moves vertex (\d+) of side ([AB])", note).groups()
    side = cut.sides["AB".index(name)]
    assert s in group.generators and int(w) in side and s[int(w)] not in side


def test_certificate_names_the_orders_of_a_wrong_product(three_bump_cut):
    group, cut, ga, gb = three_bump_cut
    # a subgroup of G of order 2, and side B's group grown to all 24
    # permutations of its four vertices
    swap = group.generators[0]
    subgroup = AutGroup(tuple(close_under_composition([swap], group.n)))
    free = cut.sides[1]
    larger = AutGroup(tuple(sorted(
        tuple(dict(zip(free, p)).get(i, i) for i in range(gb.n))
        for p in permutations(free))))
    for args, orders in (((subgroup, ga, gb), (2, 1, 6)),
                         ((group, ga, larger), (6, 1, 24))):
        verdict = assert_certificate_agrees(cut, *args)
        assert verdict.injective and verdict.homomorphism
        assert not verdict.surjective
        assert verdict.notes == ("|G| = %d != |G_A| * |G_B| = %d * %d" % orders,)


def test_certificate_needs_a_group(three_bump_cut):
    group, cut, ga, gb = three_bump_cut
    with pytest.raises(ValueError):
        certify_splitting(cut, AutGroup(group.elements[:-1]), ga, gb)


def naive_closure(gens, n):
    """Identity and generators, multiplied pairwise until nothing new turns up."""
    elems = {identity_perm(n), *gens}
    while True:
        more = {compose(p, q) for p in elems for q in elems} - elems
        if not more:
            return sorted(elems)
        elems |= more


def test_close_under_composition_matches_naive_closure(three_bump_tree):
    rng = random.Random(2)
    group, _ = symmetric_trees()[0]
    for elements in (enumerate_aut(three_bump_tree).elements, group.elements):
        n = len(elements[0])
        for k in (0, 1, 1, 2, 3):
            gens = [elements[rng.randrange(len(elements))] for _ in range(k)]
            assert close_under_composition(gens, n) == naive_closure(gens, n)


# ----------------------------------------------------------------------
# trees far deeper than the interpreter's recursion limit

def symmetric_path(n):
    """A path whose labels mirror around its middle vertex (n odd)."""
    labels = [float(min(i, n - 1 - i)) for i in range(n)]
    return LabeledTree(labels, [(i, i + 1) for i in range(n - 1)])


def test_long_path_group_enumerates():
    n = 5001
    group = enumerate_aut(symmetric_path(n))
    assert group.elements == (identity_perm(n), tuple(range(n - 1, -1, -1)))
    assert group.generators == (tuple(range(n - 1, -1, -1)),)


def renumbered(tree, seed):
    """A copy of ``tree`` with shuffled vertex ids and the map old -> new."""
    new = list(range(tree.n))
    random.Random(seed).shuffle(new)
    labels = [0.0] * tree.n
    for v in range(tree.n):
        labels[new[v]] = tree.labels[v]
    return LabeledTree(labels, [(new[u], new[v]) for u, v in tree.edges]), new


def test_isomorphism_of_renumbered_trees():
    for seed, tree in enumerate(oracle_corpus(60)):
        copy, new = renumbered(tree, seed)
        assert tree_isomorphic(tree, copy)
        for v in range(tree.n):
            assert RootedGroup(tree, v).root_form_is(copy, new[v], tree.labels[v])
        # one leaf label moved off every other label breaks it
        leaf = next(v for v in range(tree.n) if tree.degree(v) == 1)
        labels = list(copy.labels)
        labels[new[leaf]] = 1000.0
        assert not tree_isomorphic(tree, LabeledTree(labels, copy.edges))


def test_long_path_pinned_isomorphism():
    n = 5001
    path = symmetric_path(n)
    copy, new = renumbered(path, 3)
    assert tree_isomorphic(path, copy)

    def match(v, w):
        return RootedGroup(path, v).root_form_is(copy, w, path.labels[v])

    assert match(0, new[0])
    assert match(0, new[n - 1])  # the mirror
    assert not match(0, new[1])
    assert not match(1, new[2])
    # a copy whose end is relabelled matches the end relabelled alike
    labels = list(copy.labels)
    labels[new[0]] = 0.5
    moved = LabeledTree(labels, copy.edges)
    assert RootedGroup(path, 0).root_form_is(moved, new[0], 0.5)
    assert not RootedGroup(path, 0).root_form_is(moved, new[0], path.labels[0])


def test_permutation_tuples_return_to_their_free_list():
    # a tuple built from an iterator of unknown length starts with ten slots
    # and is resized, so when freed it lands on the free list of another
    # length; those lists only shrink at a full collection, and between
    # them they held up to 2.8 MB in a split_corpus round.  Built at their
    # final length, the tuples go back where they came from.
    def work():
        for tree in (star_tree(3), star_tree(5)):
            group = enumerate_aut(LabeledTree(tree.labels, tree.edges))
            for g in group.elements:
                compose(g, g)

    gc.disable()
    try:
        work()
        before = sys.getallocatedblocks()
        for _ in range(300):
            work()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 100, grown


def tuples_from_generators(source):
    """Lines that call ``tuple`` on a generator expression."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "tuple" and node.args
            and isinstance(node.args[0], ast.GeneratorExp)]


def test_no_tuple_is_built_from_a_generator():
    # the free-list test above runs two star trees; this reads every tuple
    # the module builds, as ``compose`` asks
    assert tuples_from_generators("x = tuple([g for g in y])\nz = tuple(y)") == []
    assert tuples_from_generators("x = 1\nz = tuple(g for g in y)") == [2]
    assert tuples_from_generators(inspect.getsource(treeaut)) == []


# ----------------------------------------------------------------------
# groups by structure against the backtracking oracle

def span(group, n):
    """The sorted span of a structural group's generators."""
    return close_under_composition(group.generators, n, max_order=10**6)


def brute_force_general_aut(tree):
    """All-permutations filtering with labels ignored."""
    edges = {frozenset(e) for e in tree.edges}
    return sorted(p for p in permutations(range(tree.n))
                  if (tree.marked is None or p[tree.marked] == tree.marked)
                  and all(frozenset((p[u], p[v])) in edges for u, v in tree.edges))


def test_structural_side_groups_match_enumeration():
    sides = 0
    for tree in certificate_trees():
        group, cuts = fixed_edge_cuts(tree)
        sphere = unmarked_group(tree)
        assert sphere.order == group.order
        assert span(sphere, tree.n) == list(group.elements)
        assert fixed_set(sphere, tree) == fixed_set(group, tree)
        for cut, ga, gb in cuts:
            structural = [RootedGroup(cut.tree, tree.n, end) for end in reversed(cut.ends)]
            for k, (rooted, enumerated) in enumerate(zip(structural, (ga, gb))):
                assert rooted.order == enumerated.order
                assert span(rooted, cut.tree.n) == list(enumerated.elements)
                assert all(p in rooted for p in enumerated.elements)
                assert rooted.unmarked_order == rooted.order * len(vf2_side_orbit(cut, k))
                sides += 1
            assert certify_splitting(cut, sphere, *structural) == \
                certify_splitting(cut, group, ga, gb)
    assert sides > 2250, sides


def test_rooted_orders_match_enumeration_at_every_vertex():
    rooted = 0
    for tree in oracle_corpus(200):
        assert unmarked_group(tree).order == len(backtrack_aut(tree))
        for v in range(tree.n):
            want = backtrack_aut(LabeledTree(tree.labels, tree.edges, marked=v))
            group = RootedGroup(tree, v)
            assert group.order == len(want), (tree, v)
            assert span(group, tree.n) == want, (tree, v)
            rooted += 1
    assert rooted > 1000, rooted


def test_listed_groups_match_the_oracles_on_corpus():
    # each tree labelled and unlabelled, unmarked and with vertex 0 marked;
    # the all-permutations filter also where it is quick
    flips = 0
    for tree in oracle_corpus(210):
        for t in (tree, LabeledTree(tree.labels, tree.edges, marked=0)):
            for use_labels, listed, brute in (
                    (True, enumerate_aut, brute_force_aut),
                    (False, enumerate_general_aut, brute_force_general_aut)):
                want = backtrack_aut(t, use_labels)
                assert list(listed(t, max_order=10**6).elements) == want, (t, use_labels)
                if t.n <= 7:
                    assert brute(t) == want
        centers = _centers(tree)
        flips += len(centers) == 2 and any(
            p[centers[0]] == centers[1] for p in backtrack_aut(tree, False))
    assert flips > 10, flips


# sha256 over the unlabelled groups of random_realizable_tree(n, k, s), each
# unmarked and with vertex 0 marked; a refused group counts as one token
GENERAL_AUT_DIGEST = "b0afd500e64b716369cff93a9cdcdadac847b62a1b666d1a1bb890958a1ade2d"


def test_general_group_digest():
    h = hashlib.sha256()
    for n, k, s in product(range(2, 15), (1, 2, 3), range(3)):
        tree = random_realizable_tree(n, symmetry=k, seed=s)
        for t in (tree, LabeledTree(tree.labels, tree.edges, marked=0)):
            try:
                elements = enumerate_general_aut(t, max_order=5040).elements
            except GroupTooLarge:
                h.update(b"GroupTooLarge;")
            else:
                h.update(repr(elements).encode() + b";")
    assert h.hexdigest() == GENERAL_AUT_DIGEST


def double_broom(k, labels=None):
    """Two adjacent centers with k leaves each."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(k)] + [(1, 2 + k + i) for i in range(k)]
    return LabeledTree(labels or [float(v) for v in range(2 + 2 * k)], edges)


@pytest.mark.parametrize("tree,order", [
    (LabeledTree([0.0, 1.0], [(0, 1)]), 2),
    (LabeledTree([float(v) for v in range(6)], [(v, v + 1) for v in range(5)]), 2),
    (double_broom(1), 2),
    (double_broom(3), 2 * 6 * 6),
    # unequal halves: no flip
    (LabeledTree([float(v) for v in range(5)], [(0, 1), (0, 2), (0, 3), (1, 4)]), 2),
], ids=["edge", "path-6", "broom-1", "broom-3", "uneven"])
def test_flip_of_two_centers_with_equal_halves(tree, order):
    assert len(_centers(tree)) == 2
    group = enumerate_general_aut(tree)
    assert group.order == order
    assert list(group.elements) == backtrack_aut(tree, False) == brute_force_general_aut(tree)
    # the tree's own labels differ on the two centers, so they never swap
    labelled = enumerate_aut(tree)
    assert all(p[0] == 0 for p in labelled.elements)
    assert list(labelled.elements) == brute_force_aut(tree)


def nested_stars(k, m):
    """A root with m children, each with k leaves of one label."""
    labels = [0.0] + [1.0] * m + [2.0] * (k * m)
    edges = [(0, 1 + i) for i in range(m)]
    edges += [(1 + i, 1 + m + i * k + j) for i in range(m) for j in range(k)]
    return LabeledTree(labels, edges)


NESTED_STARS = [(k, 1) for k in range(1, 13)] + [(2, 5), (3, 3), (3, 4), (4, 3),
                                                 (5, 4), (6, 6)]


@pytest.mark.parametrize("k,m", NESTED_STARS)
def test_rooted_orders_of_nested_stars_have_closed_forms(k, m):
    # the root's m children are swapped in m! ways, and each one's k leaves
    # in k! ways; at m = 1 the child and its leaves are bumps --n k
    order = factorial(k) ** m * factorial(m)
    tree = nested_stars(k, m)
    assert RootedGroup(tree, 0).order == order
    assert unmarked_group(tree).order == order
    if m == 1:
        assert RootedGroup(bumps_tree(k), 0).order == factorial(k)
    if order <= 50_000:
        assert enumerate_aut(tree, max_order=10**6).order == order


def test_rooted_orders_equal_schreier_sims_orders():
    # the order of the span of the generators by Schreier-Sims, an oracle
    # that lists no element: it also shows that the generators span the
    # whole group, past the 7! that listing reaches
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def assert_order(group):
        span = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p))
             for p in (identity_perm(group.n), *group.generators)])
        assert span.order() == group.order, group.tree

    for k in (8, 10, 12):
        assert_order(unmarked_group(bumps_tree(k)))
    for k, m in NESTED_STARS:
        assert_order(unmarked_group(nested_stars(k, m)))
    sides = 0
    for seed, n, symmetry in split_corpus_seeds(200):
        tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
        for eid in fixed_set(unmarked_group(tree), tree).edge_ids:
            cut = cut_tree_at(tree, eid)
            for end in cut.ends:
                group = RootedGroup(cut.tree, tree.n, end)
                if group.order > 1:
                    assert_order(group)
                    sides += 1
    assert sides == 533


def test_membership_rejects_each_broken_condition():
    # a root of label 5 with two children of label 1, one of which has a
    # leaf: swapping the two children keeps labels and the root, but sends
    # the leaf's edge to a non-edge
    tree = LabeledTree([5.0, 1.0, 1.0, 3.0], [(0, 1), (0, 2), (1, 3)], marked=0)
    group = RootedGroup(tree, 0)
    assert group.order == 1 and (0, 1, 2, 3) in group
    for p in ((0, 2, 1, 3), (0, 1, 1, 3), (0, 1, 2), (0, 1, 2, 3, 4)):
        assert p not in group, p
    # swapping two peaks of three bumps is an automorphism, but moves a
    # root at a peak
    bumps = bumps_tree(3)
    assert (0, 1, 3, 2, 4) in RootedGroup(bumps, 0)
    assert (0, 1, 3, 2, 4) not in RootedGroup(bumps, 2)
    # reversing a path keeps its edges and its middle vertex, not its labels
    path = LabeledTree([0.0, 1.0, 2.0], [(0, 1), (1, 2)])
    assert (2, 1, 0) not in RootedGroup(path, 1)
    # a side's group is the identity off its branch: swapping two peaks of
    # side B fixes the cut point, but is no element of side A's group
    cut = cut_tree_at(bumps, 0)
    assert (0, 1, 3, 2, 4, 5) in RootedGroup(cut.tree, 5, 0)
    assert (0, 1, 3, 2, 4, 5) not in RootedGroup(cut.tree, 5, 1)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), symmetry=st.integers(1, 4), seed=st.integers(0, 10_000),
       data=st.data())
def test_rooted_groups_match_enumeration_on_random_trees(n, symmetry, seed, data):
    tree = random_realizable_tree(n, symmetry=symmetry, seed=seed)
    root = data.draw(st.integers(0, tree.n - 1))
    group = backtrack_group(LabeledTree(tree.labels, tree.edges, marked=root))
    rooted = RootedGroup(tree, root)
    assert rooted.order == group.order
    assert span(rooted, tree.n) == list(group.elements)
    assert all(p in rooted for p in group.elements)
    try:
        general = enumerate_general_aut(tree)
    except GroupTooLarge:
        pass
    else:
        assert list(general.elements) == backtrack_aut(tree, False)
    # an element followed by a swap of two vertices is a member exactly
    # when it is an element
    g = data.draw(st.sampled_from(group.elements))
    a, b = data.draw(st.lists(st.integers(0, tree.n - 1), min_size=2, max_size=2,
                              unique=True))
    swapped = list(g)
    swapped[a], swapped[b] = g[b], g[a]
    assert (tuple(swapped) in rooted) == (tuple(swapped) in group)
