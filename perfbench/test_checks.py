"""Tests of the benchmark's own checks and tracer.

Each check must pass on the program's real output and reject a deliberately
wrong one, so that none of them passes vacuously.  Run from the root of a
source checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reebsplit import gen, reeb, selftest, split  # noqa: E402
from reebsplit import io as rio  # noqa: E402


def _built(text):
    data = json.loads(text)
    graph = reeb.build_reeb(*rio.mesh_field_from_dict(data))
    return data, graph


@pytest.fixture(scope="module")
def split_case():
    # five identical branches on a 9-vertex tree: |G| = 120, three fixed
    # edges, side groups of different orders
    tree = gen.random_realizable_tree(3, symmetry=5, seed=1)
    inp = workloads._realized("case", tree, workloads.RESOLUTION)
    data, graph = _built(inp.text)
    built = ([v.label for v in graph.vertices],
             [(e.lower, e.upper) for e in graph.edges])
    return inp, data, built, workloads.split_op(inp.text)


def _split_problems(case, tamper=None, tamper_built=None):
    inp, data, built, out = case
    reports = json.loads(out)
    if tamper:
        tamper(reports)
    built = copy.deepcopy(built)
    if tamper_built:
        tamper_built(built)
    found = checks.check_split(inp.tree, built, data,
                               rio.dumps_canonical(reports))
    return {name for name, problems in found.items() if problems}


def test_split_case_is_informative(split_case):
    reports = json.loads(split_case[3])
    assert len(reports) >= 2
    assert reports[0]["group_order"] == 120
    assert any(r["side_orders"][0] != r["side_orders"][1] for r in reports)


def test_split_checks_pass_on_real_output(split_case):
    assert _split_problems(split_case) == set()


def _first_asymmetric(reports):
    return next(r for r in reports if r["side_orders"][0] != r["side_orders"][1])


def _vertex_value_inside(case):
    inp, data, _, out = case
    r = json.loads(out)[0]
    lo, hi = r["edge_labels"]
    return next(v for v in data["values"] if lo < v < hi)


def _set(key, value, index=0):
    def tamper(reports):
        reports[index][key] = value
    return tamper


def _disk(key, value):
    def tamper(reports):
        reports[0]["disks"][0][key] = value
    return tamper


def _swap_disk_contents(reports):
    r = _first_asymmetric(reports)
    a, b = r["disks"]
    r["disks"] = [dict(b, side="A"), dict(a, side="B")]


@pytest.mark.parametrize("tamper, rejected_by", [
    (lambda rs: rs[0].update(group_order=rs[0]["group_order"] + 1),
     {"group_order", "order_product"}),
    (lambda rs: rs.pop(), {"fixed_edges"}),
    (lambda rs: rs.append(copy.deepcopy(rs[0])), {"fixed_edges"}),
    (lambda rs: rs[0].update(edge_id=rs[1]["edge_id"]), {"fixed_edges"}),
    (lambda rs: rs[0]["disks"].reverse(), {"disks"}),
    (_swap_disk_contents, {"disks"}),
    (lambda rs: _first_asymmetric(rs)["side_orders"].reverse(), {"side_orders"}),
    (lambda rs: rs[0].update(side_orders=[rs[0]["side_orders"][0] * 2,
                                          rs[0]["side_orders"][1]]),
     {"side_orders", "order_product"}),
    (lambda rs: rs[0].update(cut_value=rs[0]["edge_labels"][1] + 1.0), {"cut_value"}),
    (lambda rs: rs[0].update(edge_labels=rs[0]["edge_labels"][::-1]), {"cut_value"}),
    (lambda rs: rs[0].update(crossings=rs[0]["crossings"] + 1),
     {"cut_counts", "disks"}),
    (_disk("euler", 2), {"disks"}),
    (_disk("boundary_constant", False), {"disks"}),
    (_disk("interior_minima", 7), {"disks"}),
    (_disk("vertex_count", 1), {"disks", "cut_counts"}),
    (_set("passed", False), {"passed"}),
    (lambda rs: rs[0].update(reeb_vertices=rs[0]["reeb_vertices"] + 1),
     {"tree_isomorphic"}),
])
def test_split_checks_reject_tampered_output(split_case, tamper, rejected_by):
    assert rejected_by <= _split_problems(split_case, tamper)


def test_cut_value_at_a_vertex_value_is_rejected(split_case):
    value = _vertex_value_inside(split_case)
    assert "cut_value" in _split_problems(split_case, _set("cut_value", value))


def test_wrong_built_tree_is_rejected(split_case):
    def relabel(built):
        built[0][0] += 0.5
    assert _split_problems(split_case, tamper_built=relabel) == {"tree_isomorphic"}


@pytest.fixture(scope="module")
def aut_case():
    # a random field small enough for the group operation to succeed
    tree = gen.random_realizable_tree(4, seed=2)
    mesh, _ = gen.realize_tree(tree, 3)
    text = rio.dumps_canonical(rio.mesh_field_to_dict(mesh, gen.random_field(mesh, 5)))
    data, graph = _built(text)
    kinds = [(v.kind, v.preimage) for v in graph.vertices]
    labels = [v.label for v in graph.vertices]
    return data, kinds, labels, workloads.aut_op(text)


def _aut_problems(case, kinds=None, output=None):
    data, real_kinds, labels, real_output = case
    found = checks.check_aut(kinds or real_kinds, labels, data,
                             real_output if output is None else output)
    return {name for name, problems in found.items() if problems}


def test_aut_checks_pass_on_real_output(aut_case):
    data, kinds, labels, output = aut_case
    assert sum(k == "minimum" for k, _ in kinds) >= 2
    assert json.loads(output)["order"] == 1
    assert _aut_problems(aut_case) == set()


def test_missing_extremum_is_rejected(aut_case):
    kinds = list(aut_case[1])
    i = next(i for i, (k, _) in enumerate(kinds) if k == "minimum")
    kinds[i] = ("saddle", kinds[i][1])
    assert _aut_problems(aut_case, kinds=kinds) == {"extrema"}


def test_nontrivial_group_on_distinct_labels_is_rejected(aut_case):
    group = json.loads(aut_case[3])
    group["order"] = 2
    assert _aut_problems(aut_case, output=rio.dumps_canonical(group)) == {"trivial_group"}


def test_byte_identical_names_the_changed_output():
    first = ["a", "b", "c"]
    assert checks.byte_identical(first, [["a", "b", "c"]]) == []
    assert [i for i, _ in checks.byte_identical(first, [first, ["a", "x", "c"]])] == [1]


def test_only_the_named_failure_is_tolerated():
    inputs = [workloads.Input("s", "split", ""), workloads.Input("a", "aut", "")]
    rec = run.Rounds(2)
    rec.errors = [set(), {"RecursionError"}]
    assert run.check_failures(inputs, rec) == {}
    rec.errors = [{"RecursionError"}, {"GroupTooLarge"}]
    assert sorted(run.check_failures(inputs, rec)) == [0, 1]


def test_default_corpus_walk_is_the_acceptance_corpus():
    assert workloads.corpus_walk(0, 200) == list(selftest.split_corpus_seeds(200))


def test_tracer_wraps_every_reference_and_restores_it():
    original = reeb.build_reeb
    tree = gen.random_realizable_tree(3, symmetry=2, seed=0)
    text = workloads._realized("t", tree, 4).text
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert split.build_reeb is reeb.build_reeb is not original
        tracer.run(tracing.OP, 0, workloads.split_op, text)
    finally:
        tracer.uninstall()
    assert split.build_reeb is reeb.build_reeb is original
    totals = tracer.totals(0, len(tracer.spans))
    reports = len(json.loads(workloads.split_op(text)))
    assert totals["split.verify_theorem"]["calls"] == reports
    # every verify_theorem rebuilds the sphere's tree that
    # verify_all_fixed_edges already built
    assert totals["reeb.build_reeb"]["repeat_calls"] >= reports
    op = totals[tracing.OP]
    whole = tracer.spans[0][4] - tracer.spans[0][3]
    assert abs(sum(t["self_s"] for t in totals.values()) - whole) < 1e-6
    assert op["calls"] == 1


def test_benchmark_json_lists_what_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == tracing.PER_LAYER
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["fields_per_s", "peak_rss_mb", "setup_s"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_host_clock_scales_own_time_by_nearby_samples():
    clock = hostclock.HostClock()
    nominal = hostclock.NOMINAL_ITERATION_S * hostclock.SAMPLE_ITERATIONS
    # samples twice as slow as nominal, one of them inside [10, 11]
    clock.starts = [9.8, 10.4, 11.2]
    clock.ends = [s + 2 * nominal for s in clock.starts]
    assert clock.own_seconds(10.0, 11.0) == pytest.approx(1.0 - 2 * nominal)
    assert clock.slowdown(10.0, 11.0) == pytest.approx(2.0)
    assert clock.nominal(10.0, 11.0) == pytest.approx(
        (1.0 - 2 * nominal) / 2.0 ** hostclock.SENSITIVITY)
    # far from every sample: the nearest ones stand in
    assert clock.slowdown(20.0, 21.0) == pytest.approx(2.0)
