"""The benchmark's three workloads: how their inputs are made from a seed and
what one operation on an input is.

Every input is a mesh+field in canonical JSON text, as ``reebsplit gen``
writes it.  One operation starts from that text and ends with the canonical
JSON text of its result, as the CLI does without the file system:

* ``split``: parse, ``verify_all_fixed_edges``, canonical JSON of the report
  list (``reebsplit split --all-edges --json``);
* ``aut``: parse, ``build_reeb``, ``enumerate_aut`` on the level-set tree,
  canonical JSON of the group (``reebsplit aut --json``).

Program functions are looked up through their modules at call time, so the
traced run's wrappers are seen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from reebsplit import gen, reeb, split, treeaut
from reebsplit import io as rio

RESOLUTION = 4                 # split_corpus and symmetric_split
CORPUS_SIZE = 200
CORPUS_STRIDE = 1000           # seed n starts the corpus walk at n * stride
LARGE_TREE = dict(n=14, symmetry=2, seed=1)
LARGE_RESOLUTION = 48
LARGE_RANDOM_FIELDS = 4        # aut operations per large_sphere round
SYMMETRIC_TREES = 12
BUMPS = 6


@dataclass
class Input:
    """One input field of a workload."""

    name: str
    kind: str                      # "split" | "aut"
    text: str                      # canonical mesh+field JSON
    tree: tuple | None = None      # (labels, edges) of the tree gen realized


def split_op(text: str) -> str:
    mesh, field = rio.mesh_field_from_dict(json.loads(text))
    reports = split.verify_all_fixed_edges(mesh, field)
    return rio.dumps_canonical([r.to_dict() for r in reports])


def aut_op(text: str) -> str:
    mesh, field = rio.mesh_field_from_dict(json.loads(text))
    graph = reeb.build_reeb(mesh, field)
    group = treeaut.enumerate_aut(split.reeb_to_tree(graph))
    return rio.dumps_canonical(group.to_dict())


OPS = {"split": split_op, "aut": aut_op}


def _relabeled(data: dict, seed: int) -> dict:
    """The same mesh+field with its vertices renumbered, its triangles
    reordered and each triangle's corners rotated, all drawn from ``seed``;
    seed 0 changes nothing."""
    if seed == 0:
        return data
    rng = random.Random(seed)
    n = len(data["vertices"])
    new = list(range(n))
    rng.shuffle(new)
    vertices = [None] * n
    values = [None] * n
    for v in range(n):
        vertices[new[v]] = data["vertices"][v]
        values[new[v]] = data["values"][v]
    triangles = []
    for tri in data["triangles"]:
        t = [new[v] for v in tri]
        k = rng.randrange(3)
        triangles.append(t[k:] + t[:k])
    rng.shuffle(triangles)
    return dict(data, vertices=vertices, triangles=triangles, values=values)


def _serialize(mesh, field, relabel: int = 0) -> str:
    return rio.dumps_canonical(_relabeled(rio.mesh_field_to_dict(mesh, field),
                                          relabel))


def _realized(name: str, tree, resolution: int, relabel: int = 0) -> Input:
    mesh, field = gen.realize_tree(tree, resolution)
    return Input(name, "split", _serialize(mesh, field, relabel),
                 (tree.labels, tree.edges))


def corpus_walk(start: int, wanted: int) -> list[tuple[int, int, int]]:
    """Seeds whose realizable tree has an edge in its fixed set.

    The walk of ``selftest.split_corpus_seeds`` begun at ``start``; from 0 it
    yields exactly that corpus.  Choosing seeds is not part of set-up time.
    """
    out = []
    seed = start
    while len(out) < wanted:
        n = 2 + seed % 9
        symmetry = (1, 1, 2, 3)[seed % 4]
        tree = gen.random_realizable_tree(n, symmetry=symmetry, seed=seed)
        if treeaut.fixed_set(treeaut.enumerate_aut(tree), tree).has_edge:
            out.append((seed, n, symmetry))
        seed += 1
    return out


class SplitCorpus:
    """The acceptance corpus: 200 generated fields at resolution 4."""

    name = "split_corpus"

    def __init__(self, seed: int):
        self.walk = corpus_walk(seed * CORPUS_STRIDE, CORPUS_SIZE)

    def make_inputs(self) -> list[Input]:
        return [_realized(f"corpus_seed{s}",
                          gen.random_realizable_tree(n, symmetry=k, seed=s),
                          RESOLUTION)
                for s, n, k in self.walk]


class LargeSphere:
    """One 4148-vertex sphere: its realized field and random fields on it."""

    name = "large_sphere"

    def __init__(self, seed: int):
        first = seed * LARGE_RANDOM_FIELDS
        self.field_seeds = list(range(first, first + LARGE_RANDOM_FIELDS))

    def make_inputs(self) -> list[Input]:
        tree = gen.random_realizable_tree(**LARGE_TREE)
        mesh, field = gen.realize_tree(tree, LARGE_RESOLUTION)
        out = [Input("large_realized", "split", _serialize(mesh, field),
                     (tree.labels, tree.edges))]
        for s in self.field_seeds:
            out.append(Input(f"large_random{s}", "aut",
                             _serialize(mesh, gen.random_field(mesh, s))))
        return out


class SymmetricSplit:
    """Twelve trees with five identical branches (|G| = 120) and the
    six-bump field (|G| = 720).

    The trees are the same for every seed; the seed renumbers each mesh.
    Shifting the tree seeds instead changed a round's work by up to a third
    from seed to seed, because the twelve trees differ widely in size.
    """

    name = "symmetric_split"

    def __init__(self, seed: int):
        self.seed = seed

    def make_inputs(self) -> list[Input]:
        out = [_realized(f"symmetric_seed{s}",
                         gen.random_realizable_tree(2 + s % 9, symmetry=5,
                                                    seed=s),
                         RESOLUTION, self.seed)
               for s in range(SYMMETRIC_TREES)]
        bumps = treeaut.LabeledTree([0.0, 1.0] + [2.0] * BUMPS,
                                    [(0, 1)] + [(1, 2 + i) for i in range(BUMPS)])
        out.append(_realized(f"bumps{BUMPS}", bumps, RESOLUTION, self.seed))
        return out


WORKLOADS = {w.name: w for w in (SplitCorpus, LargeSphere, SymmetricSplit)}
