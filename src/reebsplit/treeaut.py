"""Labeled trees, their label-preserving automorphism groups, fixed sets,
and the cut and restriction maps used by the splitting pipeline.

Automorphisms are explicit vertex permutations (tuples).  One bottom-up AHU
pass, rooted at the mark or else at a center, gives a tree's group
(``RootedGroup``): its order, a product of factorials, and generators that
swap equal-form siblings.  A tree cut inside an edge is one tree, the edge
subdivided by a cut point, and each cut side is a branch at that point.  A
group that fixes a vertex, a level-set tree's or a branch's, is held that
way alone, in the tree's own vertex ids, with membership as an O(n) test;
its forms also match another rooted tree and give the unmarked order by
orbit-stabilizer.  An enumerated group
(``AutGroup``) is the sorted span of the generators, for output and audits;
an order above 10^4 (``bumps --n 8`` has 40320) raises GroupTooLarge before
anything is listed, unless ``max_order`` is higher.  Labels ignored, the
group is the labelled group of the subdivided tree.

Group checks run on generators: one incremental span (``_greedy_span``)
grows the subgroup generated by a greedy generating set T, optionally
confined to a set of permutations.  Each element list builds that span
once, as its cached ``closure``, and takes its generators from it.  Closure
(``verify_group_axioms``) is checked on G x T, |T| <= log2 |G|, instead of
on all |G|^2 pairs.  Once a group has passed it, its splitting across a
cut (``certify_splitting``) and its fixed vertices (``fixed_set``) are read
off T alone.  A claimed element list, which need not be a group, is
audited on G x T (``verify_isomorphism_pairs``); its restriction map is
onto when the image has |G_A| * |G_B| pairs, so no preimage is ever glued.

Canonical forms, generators and every walk over a tree are iterative, so
trees of any depth are handled without recursion; every walk is the one
breadth-first ``walk``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd

from .errors import (
    EdgeNotFound,
    GroupTooLarge,
    InternalInconsistency,
    InvalidTree,
    SideNotInvariant,
)

Perm = tuple[int, ...]

MAX_GROUP_ORDER = 10_000


# ----------------------------------------------------------------------
# trees

def walk(adj, root: int, avoid: int = -1) -> tuple[list[int], list[int]]:
    """Breadth-first order of the vertices reached from ``root`` without
    passing ``avoid``, and each vertex's parent (-1 at the root and at the
    vertices not reached).  ``adj`` lists each vertex's neighbours."""
    parent = [-1] * len(adj)
    seen = [False] * len(adj)
    seen[root] = True
    order = [root]
    for v in order:
        for w in adj[v]:
            if not seen[w] and w != avoid:
                seen[w] = True
                parent[w] = v
                order.append(w)
    return order, parent


class LabeledTree:
    """Tree with one real label per vertex; adjacent labels must differ.

    An optional marked vertex constrains listed automorphisms to fix it.
    ``bfs`` is the breadth-first order from vertex 0 that the connectivity
    check makes.
    """

    def __init__(self, labels, edges, marked: int | None = None):
        self.labels = tuple([float(x) for x in labels])
        n = len(self.labels)
        es = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidTree(f"bad edge {(u, v)}")
            es.append((u, v) if u < v else (v, u))
        if len(set(es)) != len(es):
            raise InvalidTree("duplicate edge")
        self.edges = tuple(es)
        self.marked = marked
        if marked is not None and not 0 <= marked < n:
            raise InvalidTree(f"marked vertex {marked} out of range")
        self.adj = [[] for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for a in self.adj:
            a.sort()
        if len(self.edges) != n - 1:
            raise InvalidTree("not a tree")
        self.bfs = walk(self.adj, 0)[0]
        if len(self.bfs) != n:
            raise InvalidTree("not a tree")
        for u, v in self.edges:
            if self.labels[u] == self.labels[v]:
                raise InvalidTree(f"adjacent vertices {(u, v)} share a label")

    @property
    def n(self) -> int:
        return len(self.labels)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Each edge in both directions."""
        return frozenset(self.edges) | {(v, u) for u, v in self.edges}

    def __repr__(self):
        mk = f", marked={self.marked}" if self.marked is not None else ""
        return f"LabeledTree(n={self.n}{mk})"


def _rooted_form(tree: LabeledTree, root: int, ids: dict, avoid: int = -1):
    """Bottom-up AHU from ``root`` over its branch away from ``avoid``: each
    vertex's form, each vertex's children sorted by (form, id), the order
    of the group of label-preserving automorphisms of the branch that fix
    ``root``, and the branch's vertices in BFS order.

    A vertex's form is its label and its children's sorted form ids,
    interned in ``ids`` as one int; children precede parents in reverse BFS
    order.  Children with equal forms have isomorphic labelled subtrees, and
    the group permutes each class of k of them in all k! ways, independently
    at every vertex, so its order is the product of those factorials.
    """
    order, parent = walk(tree.adj, root, avoid)
    forms = [0] * tree.n
    kids: list[list[int]] = [[] for _ in range(tree.n)]
    size = 1
    for v in reversed(order):
        ks = kids[v]
        if len(ks) > 1:
            ks.sort()
            ks.sort(key=forms.__getitem__)
            run = 1
            for a, b in zip(ks, ks[1:]):  # a run of k equal forms gives k!
                run = run + 1 if forms[a] == forms[b] else 1
                size *= run
        forms[v] = ids.setdefault((tree.labels[v], tuple([forms[w] for w in ks])), len(ids))
        if v != root:
            kids[parent[v]].append(v)
    return forms, kids, size, order


def _swap(kids, a: int, b: int) -> Perm:
    """The involution exchanging ``a`` with ``b``, the children of ``a``
    with those of ``b``, and so on down, children paired in (form, id)
    order; the two subtrees must have equal forms."""
    p = list(range(len(kids)))
    p[a], p[b] = b, a
    pairs = list(zip(kids[a], kids[b]))
    for x, y in pairs:
        p[x], p[y] = y, x
        pairs.extend(zip(kids[x], kids[y]))
    return tuple(p)


def tree_isomorphic(t1: LabeledTree, t2: LabeledTree) -> bool:
    """Label-preserving isomorphism test via canonical forms rooted at the
    centers, which every isomorphism maps onto each other; marks ignored."""
    if t1.n != t2.n or sorted(t1.labels) != sorted(t2.labels):
        return False
    ids: dict[tuple, int] = {}  # shared by both trees, so their forms compare
    return (sorted(_rooted_form(t1, r, ids)[0][r] for r in _centers(t1))
            == sorted(_rooted_form(t2, r, ids)[0][r] for r in _centers(t2)))


def _centers(tree: LabeledTree) -> list[int]:
    """The middle one or two vertices of a longest path, which runs from
    the vertex farthest from any vertex to the one farthest from it."""
    order, parent = walk(tree.adj, tree.bfs[-1])
    path = [order[-1]]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    k = len(path)
    return sorted(path[(k - 1) // 2:k // 2 + 1])


# ----------------------------------------------------------------------
# permutations and groups

def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i)).

    Permutations here are built from lists, at their final length: a tuple
    grown from an iterator is resized, and when freed it piles up on the
    free list of another length until the next full garbage collection.
    """
    return tuple([p[i] for i in q])


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = order * length // gcd(order, length)
    return order


def _greedy_span(elements, n: int, within=None, max_order: int | None = None):
    """The span of the greedy generators of ``elements``: in the given
    order, each element outside the span of the earlier picks is picked.
    Picking ``t`` multiplies the elements already there by ``t``, and every
    element that turns up by every pick.  A set of permutations that holds
    the identity and is closed under multiplication by the picks is their
    span.

    Returns the span's elements, the picks and the escape.  With ``within``
    every product must lie in that set (the identity too); the first one
    that does not is the escape ``(g, t, g o t)``, and growth stops there.
    Otherwise the escape is None and the span covers every element.
    ``max_order`` bounds an unconfined span.
    """
    ident = identity_perm(n)
    elems, gens = [ident], []
    seen = {ident} if within is None or ident in within else set()
    for t in elements:
        if t in seen:
            continue
        gens.append(t)
        old = len(elems)
        for i, g in enumerate(elems):  # grows while it is read
            for s in (gens if i >= old else (t,)):
                gs = tuple([g[k] for k in s])
                if gs in seen:
                    continue
                if within is not None and gs not in within:
                    return elems, gens, (g, s, gs)
                seen.add(gs)
                elems.append(gs)
                if max_order is not None and len(elems) > max_order:
                    raise GroupTooLarge(f"group exceeds {max_order} elements")
    return elems, gens, None


def close_under_composition(gens, n: int, max_order: int = MAX_GROUP_ORDER) -> list[Perm]:
    """Subgroup generated by ``gens``, sorted."""
    return sorted(_greedy_span(gens, n, max_order=max_order)[0])


@dataclass(frozen=True)
class AutGroup:
    """Explicit finite permutation group as its sorted element list.

    The group checks also wrap a bare list of permutations, which need not
    be a group, in one, to reach the same cached closure check.
    """

    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return len(self.elements[0])

    @cached_property
    def element_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)

    @cached_property
    def closure(self) -> tuple[list[Perm], tuple[Perm, Perm, Perm] | None]:
        """The greedy generators T of the elements and the first product
        (g, t, g o t) of their span that leaves the elements, or None when
        the elements are a group.  Worked out once for every closure check
        on this group; the span's own element list is not kept."""
        return _greedy_span(self.elements, self.n, self.element_set)[1:]

    @property
    def generators(self) -> tuple[Perm, ...]:
        """The greedy generators T, read from the cached closure span."""
        return tuple(self.closure[0])

    def __contains__(self, p: Perm) -> bool:
        return p in self.element_set

    def to_dict(self) -> dict:
        return {
            "schema": "reeb-split/1",
            "order": self.order,
            "histogram": {str(k): v for k, v in
                          sorted(element_order_histogram(self).items())},
            "generators": [list(g) for g in self.generators],
            "elements": [list(p) for p in self.elements],
        }


def element_order_histogram(group: AutGroup) -> dict[int, int]:
    return dict(Counter(perm_order(p) for p in group.elements))


def verify_group_axioms(group) -> bool:
    """Whether a finite set of equal-length permutations is a group.

    It is exactly when no product of the span of its greedy generators T
    leaves the set: every element is in that span, so the span is then the
    set, and a finite nonempty set closed under composition is a group.  A
    missing identity shows up as a product leaving the set.  Costs |G|·|T|
    compositions, with |T| <= log2 |G|.
    """
    if not isinstance(group, AutGroup):
        group = AutGroup(tuple(group))
    return bool(group.elements) and group.closure[1] is None


# ----------------------------------------------------------------------
# groups by structure

@dataclass(frozen=True)
class RootedGroup:
    """The label-preserving automorphisms of ``root``'s branch away from
    ``avoid`` (the whole tree when ``avoid`` is -1) that fix ``root``, as
    permutations of the tree's vertices that are the identity off the
    branch.  Held by the branch's structure instead of an element list: its
    order and generators from the rooted AHU forms, whose pass is kept, and
    membership by an O(n) test.  The tree's own mark is ignored; a cut
    side's group is rooted at the cut point, away from the other side.
    """

    tree: LabeledTree
    root: int
    avoid: int = -1

    @cached_property
    def _pass(self):
        """The ``_rooted_form`` pass from the root, with one swap per
        adjacent pair of equal-form siblings, and the branch as a set.  At
        each vertex these generate every permutation of each class of
        equal-form children, and they pair subtrees consistently, so they
        span the group."""
        ids: dict[tuple, int] = {}
        forms, kids, size, branch = _rooted_form(self.tree, self.root, ids, self.avoid)
        gens = tuple([_swap(kids, a, b) for ks in kids
                      for a, b in zip(ks, ks[1:]) if forms[a] == forms[b]])
        return forms, kids, ids, size, gens, frozenset(branch)

    @property
    def order(self) -> int:
        return self._pass[3]

    @property
    def generators(self) -> tuple[Perm, ...]:
        """The sibling swaps, which span the group."""
        return self._pass[4]

    def root_form_is(self, other: LabeledTree, at: int, label: float) -> bool:
        """Whether ``other`` rooted at ``at`` is this branch rooted here with
        the root relabelled to ``label``: one pass over ``other`` in this
        pass's table, whose root form must be (label, the root's children's
        forms)."""
        forms, kids, ids = self._pass[:3]
        key = (label, tuple([forms[w] for w in kids[self.root]]))
        return _rooted_form(other, at, ids)[0][at] == ids.setdefault(key, len(ids))

    def parting(self, other: LabeledTree, at: int, label: float) -> tuple[int, int]:
        """Where ``other`` rooted at ``at`` parts from this branch rooted
        here with the root relabelled to ``label``, when ``root_form_is`` is
        false: a vertex here and one there whose children's forms differ, or
        the roots if their labels do.  From the roots, the walk steps to the
        children that matching by equal forms leaves over, while that is one
        child on each side and the two share a label."""
        forms, kids, ids = self._pass[:3]
        theirs, their_kids = _rooted_form(other, at, ids)[:2]
        x, y = self.root, at
        if label != other.labels[at]:
            return x, y
        while True:
            mine = Counter([forms[w] for w in kids[x]])
            yours = Counter([theirs[w] for w in their_kids[y]])
            a = [w for w in kids[x] if (mine - yours)[forms[w]]]
            b = [w for w in their_kids[y] if (yours - mine)[theirs[w]]]
            if len(a) != 1 or len(b) != 1 or self.tree.labels[a[0]] != other.labels[b[0]]:
                return x, y
            x, y = a[0], b[0]

    @property
    def unmarked_order(self) -> int:
        """The order of the branch's whole label-preserving group, this
        one's times the root's orbit (orbit-stabilizer): the root and the
        branch's other vertices of its label and of its degree in the
        branch whose rooted form, one pass each in this table, is its."""
        forms, kids, ids = self._pass[:3]
        tree, x = self.tree, self.root
        return self.order * sum(
            y == x or (tree.labels[y] == tree.labels[x] and tree.degree(y) == len(kids[x])
                       and _rooted_form(tree, y, ids, self.avoid)[0][y] == forms[x])
            for y in self._pass[5])

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def elements(self) -> tuple[Perm, ...]:
        """The sorted element list, spanned from the generators when read;
        GroupTooLarge above ``MAX_GROUP_ORDER``."""
        return tuple(close_under_composition(self.generators, self.n))

    def __contains__(self, p: Perm) -> bool:
        branch = self._pass[5]
        return (_is_automorphism(self.tree, p) and p[self.root] == self.root
                and all(p[v] == v or v in branch for v in range(self.n)))


def _is_automorphism(tree: LabeledTree, p: Perm) -> bool:
    """Whether ``p`` permutes the vertices, keeps the labels and maps every
    edge to an edge.  The n - 1 edges then go to n - 1 distinct edges,
    which are all of them, so ``p`` is an automorphism."""
    arcs, labels = tree.arcs, tree.labels
    return (sorted(p) == list(range(tree.n))
            and all(labels[w] == label for w, label in zip(p, labels))
            and all((p[u], p[v]) in arcs for u, v in tree.edges))


def unmarked_group(tree: LabeledTree) -> RootedGroup:
    """The tree's label-preserving group, its mark ignored.

    Every automorphism maps the one or two centers onto themselves, and
    does not swap two: they are adjacent, so their labels differ.  The
    group therefore fixes a center, and is the group rooted there.
    """
    return RootedGroup(tree, _centers(tree)[0])


def enumerate_aut(tree: LabeledTree, max_order: int = MAX_GROUP_ORDER) -> AutGroup:
    """All label-preserving automorphisms (fixing the mark when present),
    listed from the generators of the group rooted at the mark, or else at
    a center, and checked; GroupTooLarge from the order above ``max_order``,
    before anything is listed."""
    rooted = unmarked_group(tree) if tree.marked is None else RootedGroup(tree, tree.marked)
    if rooted.order > max_order:
        raise GroupTooLarge(f"group exceeds {max_order} elements (order {rooted.order})")
    for t in rooted.generators:
        if t not in rooted:
            raise InternalInconsistency(f"structural generator {t} is no automorphism")
    group = AutGroup(tuple(close_under_composition(rooted.generators, tree.n, max_order)))
    if group.order != rooted.order:
        raise InternalInconsistency(
            f"generators span {group.order} elements, not the order {rooted.order}")
    if group.closure[1] is not None:
        raise InternalInconsistency("enumerated maps are not closed under composition")
    return group


def enumerate_general_aut(tree: LabeledTree,
                          max_order: int = MAX_GROUP_ORDER) -> AutGroup:
    """All cellular automorphisms (fixing the mark when present), labels
    ignored: the labelled group of the tree with a point of label 1 inside
    each edge i, numbered n + i, and label 0 on the vertices, where two
    centers are siblings under the one center between them.  Each element's
    first n entries fix the rest, so the list keeps its order and
    ``max_order`` counts the same group."""
    n = tree.n
    sub = LabeledTree([0.0] * n + [1.0] * len(tree.edges),
                      [e for i, (u, v) in enumerate(tree.edges)
                       for e in ((u, n + i), (n + i, v))], tree.marked)
    return AutGroup(tuple([p[:n] for p in enumerate_aut(sub, max_order).elements]))


# ----------------------------------------------------------------------
# fixed sets

@dataclass(frozen=True)
class FixedSet:
    """Common fixed points of a group acting on a tree.

    Either a nonempty connected subtree (vertices plus the edges joining
    them) or, when no vertex is fixed, the single invariant edge whose
    midpoint is fixed, together with an element reversing that edge.
    """

    variant: str  # "subtree" | "midpoint"
    vertices: tuple[int, ...] = ()
    edge_ids: tuple[int, ...] = ()
    midpoint_edge: int | None = None
    flip_witness: Perm | None = None

    @property
    def has_edge(self) -> bool:
        return self.variant == "subtree" and bool(self.edge_ids)


def fixed_set(group, tree: LabeledTree) -> FixedSet:
    """Fixed vertices and pointwise-fixed edges of a group of automorphisms:
    an element list, which must pass its closure check, or a
    ``RootedGroup``, a group by construction.

    A vertex is fixed when each generator fixes it.  Only when no vertex is
    fixed, which a ``RootedGroup`` rules out, are the elements scanned, for
    the flipped invariant edge and the first element that flips it.

    Raises InternalInconsistency when neither a nonempty subtree nor a single
    flipped invariant edge exists, which would contradict the fixed-point
    property of finite groups acting on trees.
    """
    if not isinstance(group, RootedGroup):
        group = group if isinstance(group, AutGroup) else AutGroup(tuple(group))
        if not verify_group_axioms(group):
            raise ValueError("fixed_set needs a group (closure check failed)")
    gens = group.generators
    n = tree.n
    fixed = [all(t[v] == v for t in gens) for v in range(n)]
    fixed_vertices = [v for v in range(n) if fixed[v]]
    if fixed_vertices:
        # the fixed edges are the tree edges inside the fixed vertices, which
        # span a subtree exactly when they are one fewer than the vertices
        fixed_edges = [eid for eid, (u, v) in enumerate(tree.edges)
                       if fixed[u] and fixed[v]]
        if len(fixed_edges) != len(fixed_vertices) - 1:
            raise InternalInconsistency("fixed vertex set is not connected")
        return FixedSet(variant="subtree",
                        vertices=tuple(fixed_vertices),
                        edge_ids=tuple(fixed_edges))
    elems = group.elements
    candidates = []
    for eid, (u, v) in enumerate(tree.edges):
        if all({p[u], p[v]} == {u, v} for p in elems):
            witness = next((p for p in elems if p[u] == v), None)
            if witness is not None:
                candidates.append((eid, witness))
    if len(candidates) != 1:
        raise InternalInconsistency(
            f"no fixed vertex and {len(candidates)} flipped invariant edges")
    eid, witness = candidates[0]
    return FixedSet(variant="midpoint", midpoint_edge=eid, flip_witness=witness)


# ----------------------------------------------------------------------
# cutting, restriction, gluing

@dataclass(frozen=True)
class TreeCut:
    """A tree cut inside an edge: ``tree`` is the base tree with the edge
    subdivided by a cut point numbered ``base.n``.  The sides are the two
    branches at the cut point, A holding the lower end ``ends[0]`` of the
    edge, by (label, id); ``sides`` lists each one's base vertices."""

    base: LabeledTree
    edge_id: int
    tree: LabeledTree
    ends: tuple[int, int]
    sides: tuple[tuple[int, ...], tuple[int, ...]]


def cut_tree_at(tree: LabeledTree, edge_id: int) -> TreeCut:
    """Cut a tree inside an edge; the cut point's label is the midpoint of
    the endpoint labels."""
    if not 0 <= edge_id < len(tree.edges):
        raise EdgeNotFound(f"no edge {edge_id}")
    u, v = tree.edges[edge_id]
    ends = (u, v) if (tree.labels[u], u) < (tree.labels[v], v) else (v, u)
    x = tree.n
    cut = LabeledTree(tree.labels + ((tree.labels[u] + tree.labels[v]) / 2.0,),
                      tree.edges[:edge_id] + tree.edges[edge_id + 1:] + ((u, x), (v, x)))
    sides = tuple([tuple(sorted(walk(tree.adj, a, b)[0])) for a, b in (ends, ends[::-1])])
    return TreeCut(tree, edge_id, cut, ends, sides)


def restrict_aut(cut: TreeCut, gamma: Perm, which: str) -> Perm:
    """Restriction of a base-tree automorphism to one cut side: the cut
    tree's permutation that is the identity off the side.

    The automorphism must fix both endpoints of the cut edge and map the
    side's vertex set to itself; otherwise SideNotInvariant is raised.
    """
    lo, hi = cut.ends
    if gamma[lo] != lo or gamma[hi] != hi:
        raise SideNotInvariant("cut edge endpoints move")
    side = cut.sides[("A", "B").index(which)]
    members = set(side)
    out = list(range(cut.tree.n))
    for v in side:
        if gamma[v] not in members:
            raise SideNotInvariant(f"vertex {v} leaves side {which}")
        out[v] = gamma[v]
    return tuple(out)


# ----------------------------------------------------------------------
# isomorphism verification

@dataclass(frozen=True)
class IsoVerdict:
    injective: bool
    surjective: bool
    homomorphism: bool
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.injective and self.surjective and self.homomorphism

    def to_dict(self) -> dict:
        return {**vars(self), "passed": self.passed}


def verify_isomorphism_pairs(elements, side_a: AutGroup | RootedGroup,
                             side_b: AutGroup | RootedGroup, pair_of) -> IsoVerdict:
    """Check that element -> (pair_of(element)) is a group isomorphism onto
    side_a x side_b.

    Closure and multiplicativity are checked on G x T, where T is the greedy
    generating set of the elements: the span of T stays inside the set and
    covers it, and pair_of(g o t) = pair_of(g) o pair_of(t) for every g in G
    and t in T, which by induction on word length covers every pair of G.
    Every pair lies in side_a x side_b, so the map is onto exactly when it
    hits |side_a| * |side_b| distinct pairs.  A list that holds an element
    twice is not injective.  A failing check names its witness in
    ``notes``.  ``elements`` may be an AutGroup, whose closure check is then
    made once for all the cuts checked with it.  Of the side groups only
    ``n``, ``order`` and ``in`` are read, and their sorted elements only to
    name the first pair a list misses, so a ``RootedGroup`` serves; where
    one is too large to list, the note names the counts instead.
    """
    group = elements if isinstance(elements, AutGroup) else AutGroup(tuple(elements))
    elements = group.elements
    notes = []
    pairs = {}
    ok_map = True
    for g in elements:
        try:
            pairs[g] = pair_of(g)
        except SideNotInvariant as exc:
            notes.append(f"restriction undefined: {exc}")
            ok_map = False
    if not ok_map:
        return IsoVerdict(False, False, False, tuple(notes))
    for g, (pa, pb) in pairs.items():
        if pa not in side_a or pb not in side_b:
            notes.append(f"restriction of g={g} leaves the side group")
            return IsoVerdict(False, False, False, tuple(notes))

    n = len(elements[0])
    ident = identity_perm(n)
    ident_pair = (identity_perm(side_a.n), identity_perm(side_b.n))
    injective = all(g == ident for g in elements if pairs[g] == ident_pair)
    first: dict[Perm, int] = {}
    for j, g in enumerate(elements):
        i = first.setdefault(g, j)
        if i != j:
            injective = False
            notes.append(f"elements {i} and {j} are the same map g={g}")
            break

    homomorphism = True
    gens, escape = group.closure
    if escape is not None:
        homomorphism = False
        g, t, gt = escape
        notes.append(f"element set not closed under composition: "
                     f"g={g} times t={t} gives {gt}, which is missing")
    else:
        # the trivial group has no generators; its one product is e o e
        for g, t in product(elements, gens or [ident]):
            (ga, gb), (ta, tb) = pairs[g], pairs[t]
            if pairs[compose(g, t)] != (compose(ga, ta), compose(gb, tb)):
                homomorphism = False
                notes.append(f"pairing is not multiplicative at g={g}, t={t}")
                break

    hit = set(pairs.values())
    surjective = len(hit) == side_a.order * side_b.order
    if not surjective:
        try:
            pa, pb = next(p for p in product(side_a.elements, side_b.elements)
                          if p not in hit)
            notes.append(f"a side pair has no preimage: alpha={_on_side(side_a, pa)}, "
                         f"beta={_on_side(side_b, pb)}")
        except GroupTooLarge:  # too many to list: name the counts instead
            notes.append(f"the image has {len(hit)} side pairs, not |G_A| * |G_B| "
                         f"= {side_a.order} * {side_b.order}")

    return IsoVerdict(injective, surjective, homomorphism, tuple(notes))


def _on_side(group, p: Perm) -> Perm:
    """An element of a side group as a note names it: a ``RootedGroup``'s
    on its branch alone, numbered in ascending order, which puts a cut
    point last; an element list's as listed."""
    branch = sorted(group._pass[5]) if isinstance(group, RootedGroup) else range(len(p))
    at = {v: i for i, v in enumerate(branch)}
    return tuple([at[p[v]] for v in branch])


def verify_isomorphism(cut: TreeCut, group: AutGroup,
                       side_a_group: AutGroup | RootedGroup,
                       side_b_group: AutGroup | RootedGroup) -> IsoVerdict:
    """Check that restriction to the two cut sides is an isomorphism of the
    full group onto the product of the side groups."""
    def pair_of(g: Perm):
        return (restrict_aut(cut, g, "A"), restrict_aut(cut, g, "B"))

    return verify_isomorphism_pairs(group, side_a_group, side_b_group, pair_of)


def side_leaver(cut: TreeCut, perms, kind: str) -> str | None:
    """The note naming the first map in ``perms``, as ``kind``, that moves
    a vertex of a cut side off that side, and that vertex; None when every
    map keeps both sides."""
    side_of = {v: name for name, side in zip("AB", cut.sides) for v in side}
    return next((f"sides not invariant: {kind}={p} moves vertex {v} of side {side_of[v]} "
                 f"to vertex {p[v]}, off that side" for p in perms
                 for v in range(cut.base.n) if side_of[p[v]] != side_of[v]), None)


def certify_splitting(cut: TreeCut, group: AutGroup | RootedGroup,
                      side_a: AutGroup | RootedGroup,
                      side_b: AutGroup | RootedGroup
                      ) -> tuple[IsoVerdict, str | None]:
    """The verdict of ``verify_isomorphism`` on a group, and the note of
    ``side_leaver`` on its generators T, read off T alone: an element
    list's greedy generators, or a ``RootedGroup``'s sibling swaps.

    T spans the group (by an element list's closure check, or by
    construction), and restricting maps that keep both sides is
    multiplicative, so three facts settle the verdict:

    * the restrictions are defined and lie in side_a x side_b when those of
      every generator are and do: the side groups are groups;
    * the map is injective, since the two sides hold every base vertex and
      the two restrictions give the image of each;
    * being injective, it is onto exactly when |G| = |side_a| * |side_b|.

    The map is then a homomorphism without a check.  Costs at most 2|T|
    restrictions and membership tests; of the side groups only ``order``
    and ``in`` are read, so a ``RootedGroup`` serves.  A failing check
    names its generator or the three orders.  Raises ValueError when an
    element list ``group`` is not closed.
    """
    if isinstance(group, AutGroup) and group.closure[1] is not None:
        raise ValueError("certify_splitting needs a group (closure check failed)")
    gens = group.generators
    leaver = side_leaver(cut, gens, "generator t")
    for t in gens:
        try:
            pa, pb = restrict_aut(cut, t, "A"), restrict_aut(cut, t, "B")
        except SideNotInvariant as exc:
            note = f"restriction undefined: generator t={t}: {exc}"
        else:
            if pa in side_a and pb in side_b:
                continue
            note = f"restriction of generator t={t} leaves the side group"
        return IsoVerdict(False, False, False, (note,)), leaver

    surjective = group.order == side_a.order * side_b.order
    notes = () if surjective else (f"|G| = {group.order} != |G_A| * |G_B| = "
                                   f"{side_a.order} * {side_b.order}",)
    return IsoVerdict(True, surjective, True, notes), leaver
