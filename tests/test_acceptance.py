"""Acceptance gate: every criterion at full scale, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``reebsplit selftest``
for the CLI equivalent).  Budgeted criteria enforce their own wall-clock
limits inside the selftest module.
"""

import hashlib
import json

import pytest

from reebsplit import selftest


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in selftest.run_all(quick=False)}


NAMES = [
    "round-trip oracle",
    "automorphism oracle equivalence",
    "canonical group orders",
    "fixed-set structure",
    "splitting across every fixed edge",
    "extrema/multiplicity identity",
    "setwise-invariant edges are fixed pointwise",
    "byte-identical reruns",
]


@pytest.mark.parametrize("name", NAMES)
def test_criterion(results, name):
    r = results[name]
    print(f"{'PASS' if r.passed else 'FAIL'} {name}: {r.detail} [{r.seconds:.1f}s]")
    assert r.passed, r.detail


def test_oracle_corpus_builds_past_the_acceptance_trees():
    # a repaired label once met a neighbour checked earlier, so the corpus
    # raised InvalidTree at tree 300; the 210 trees the criteria use stay
    # as they were
    trees = selftest.oracle_corpus(1000)
    assert len(trees) == 1000
    blob = json.dumps([[t.labels, t.edges] for t in trees[:210]]).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "d53a344b7885610a16f9c6036695350e05b56c4ec71b06370f7807fed57a1db6"
