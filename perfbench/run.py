"""Benchmark of reebsplit: one workload per process, single-threaded.

    python3 perfbench/run.py --workload split_corpus --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run makes the workload's inputs from the seed (set-up, timed
several times), runs whole rounds of operations until ``--seconds`` have
passed, checks every output against computations made apart from the program
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Times are in nominal seconds
(see ``hostclock.py``).  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the untraced rounds are followed by traced rounds
for ``--seconds`` more, and the metrics are the per-layer ones and the
tracing overhead.  Run records and spans go to ``.perfbench_out/``.  See
README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5           # set-up runs at least this often ...
SETUP_MIN_SECONDS = 3.0     # ... and until this much time has gone into it
# the one failure kept in the benchmark: the group of a level-set tree with
# more than about 1000 vertices, whose enumeration recurses once per vertex
EXPECTED_FAILURE = ("aut", "RecursionError")


def import_program():
    if not (SRC / "reebsplit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no reebsplit sources under {SRC}; run from the "
                 "root of a source checkout")
    sys.path.insert(0, str(SRC))
    import reebsplit

    if Path(reebsplit.__file__).resolve().parent != (SRC / "reebsplit").resolve():
        sys.exit(f"perfbench: imported reebsplit from {reebsplit.__file__}, "
                 f"not from {SRC}")


def set_up(workload) -> tuple[list, list[tuple[float, float]]]:
    """Make the inputs repeatedly; returns the last inputs and the interval
    of every repetition."""
    intervals = []
    while (len(intervals) < SETUP_REPEATS
           or sum(b - a for a, b in intervals) < SETUP_MIN_SECONDS):
        a = perf_counter()
        inputs = workload.make_inputs()
        intervals.append((a, perf_counter()))
    return inputs, intervals


class Rounds:
    """Outcome of the timed rounds of one phase."""

    def __init__(self, n: int):
        self.intervals: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        self.errors = [set() for _ in range(n)]
        self.first: list[str | None] = [None] * n
        self.later: list[list[str | None]] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0

    def round_seconds(self, to_seconds) -> float:
        """One round's time: per input the median of its operation times,
        each interval (a, b) converted by ``to_seconds(a, b)``."""
        return sum(statistics.median(to_seconds(a, b) for a, b in spans)
                   for spans in self.intervals)


def wall(a: float, b: float) -> float:
    return b - a


def run_rounds(inputs, ops, seconds: float, tracer=None, op_span=None) -> Rounds:
    """Whole rounds over every input until ``seconds`` have passed, so each
    run attempts the same mix of operations."""
    rec = Rounds(len(inputs))
    start = perf_counter()
    while True:
        outputs = []
        for i, inp in enumerate(inputs):
            op = ops[inp.kind]
            a = perf_counter()
            try:
                if tracer is None:
                    out = op(inp.text)
                else:
                    out = tracer.run(op_span, i, op, inp.text)
            except Exception as exc:  # counted, and judged in check_failures
                out = None
                rec.errors[i].add(type(exc).__name__)
                rec.failed += 1
            rec.intervals[i].append((a, perf_counter()))
            rec.attempted += 1
            outputs.append(out)
        if rec.rounds == 0:
            rec.first = outputs
        else:
            rec.later.append(outputs)
        rec.rounds += 1
        if perf_counter() - start >= seconds:
            return rec


def check_failures(inputs, rec: Rounds) -> dict[int, list[str]]:
    return {i: [f"{inp.name}: {inp.kind} operation raised {err}"]
            for i, inp in enumerate(inputs)
            for err in sorted(rec.errors[i]) if (inp.kind, err) != EXPECTED_FAILURE}


def check_outputs(inputs, rec: Rounds, later: list[list]
                  ) -> tuple[dict[str, int], list[str], set[int]]:
    """Run every check on the first round's outputs, and compare ``later``
    rounds with it; returns problem counts per check, the first problems and
    the indices of inputs that failed a check."""
    from reebsplit import reeb
    from reebsplit import io as rio

    import checks

    counts: dict[str, int] = {}
    shown: list[str] = []
    bad: set[int] = set()

    def record(i, name, problems):
        counts[name] = counts.get(name, 0) + len(problems)
        if problems:
            bad.add(i)
            shown.extend(f"[{name}] {inputs[i].name}: {p}" for p in problems[:3])

    for i, problems in check_failures(inputs, rec).items():
        record(i, "failure_kind", problems)
    for i, problem in checks.byte_identical(rec.first, later):
        record(i, "byte_identical", [problem])
    for i, inp in enumerate(inputs):
        data = json.loads(inp.text)
        mesh, field = rio.mesh_field_from_dict(data)
        graph = reeb.build_reeb(mesh, field)
        if inp.kind == "split":
            if rec.first[i] is None:
                continue
            built = ([v.label for v in graph.vertices],
                     [(e.lower, e.upper) for e in graph.edges])
            found = checks.check_split(inp.tree, built, data, rec.first[i])
        else:
            kinds = [(v.kind, v.preimage) for v in graph.vertices]
            found = checks.check_aut(kinds, [v.label for v in graph.vertices],
                                     data, rec.first[i])
        for name, problems in found.items():
            record(i, name, problems)
    return counts, shown, bad


def output_digest(inputs, rec: Rounds) -> str:
    h = hashlib.sha256()
    for inp, out in zip(inputs, rec.first):
        h.update(f"{inp.name}\n".encode())
        h.update((out if out is not None else "FAILED").encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import tracing
    import workloads
    from hostclock import (NOMINAL_ITERATION_S, REFERENCE_ITERATIONS, HostClock,
                           reference_loop)

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ref_before = reference_loop()

    clock = HostClock()
    traced = None
    with clock:
        inputs, setup_intervals = set_up(workload)
        rec = run_rounds(inputs, workloads.OPS, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.run(tracing.SETUP, -1, workload.make_inputs)
                setup_end = len(tracer.spans)
                traced = run_rounds(inputs, workloads.OPS, args.seconds, tracer,
                                    tracing.OP)
            finally:
                tracer.uninstall()
    ref_after = reference_loop()

    later = rec.later + ([traced.first] + traced.later if traced else [])
    counts, shown, bad = check_outputs(inputs, rec, later)
    completed = sum(1 for i in range(len(inputs))
                    if not rec.errors[i] and i not in bad)
    correct = not any(counts.values())

    setup_s = statistics.median(clock.nominal(a, b) for a, b in setup_intervals)
    round_s = rec.round_seconds(clock.nominal)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": len(inputs), "rounds": rec.rounds,
        "reference_loop_s": {"before": ref_before, "after": ref_after},
        "host_samples": len(clock.starts),
        "host_sample_mean_s": clock.mean_sample(),
        "setup_wall_s": [b - a for a, b in setup_intervals],
        "setup_nominal_s": [clock.nominal(a, b) for a, b in setup_intervals],
        "round_wall_s": rec.round_seconds(wall),
        "round_nominal_s": round_s,
        "wall_fields_per_s": completed / rec.round_seconds(wall),
        "median_op_nominal_s": {
            inp.name: statistics.median(clock.nominal(a, b) for a, b in spans)
            for inp, spans in zip(inputs, rec.intervals)},
        "errors": {inp.name: sorted(e) for inp, e in zip(inputs, rec.errors) if e},
        "host_samples_s": [clock.starts, clock.ends],
        "op_intervals_s": rec.intervals,
        "setup_intervals_s": setup_intervals,
        "check_problems": counts, "first_problems": shown[:20],
        "output_sha256": output_digest(inputs, rec),
    }
    if traced is None:
        metrics = {
            "fields_per_s": (completed / round_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        attempted, failed = rec.attempted, rec.failed
    else:
        traced_s = traced.round_seconds(clock.nominal)
        values = tracing.per_layer(
            tracer.totals(setup_end, len(tracer.spans)), traced.rounds,
            tracer.totals(0, setup_end), 100.0 * (traced_s / round_s - 1.0))
        metrics = {k: (v, tracing.PER_LAYER[k][0]) for k, v in values.items()}
        attempted = rec.attempted + traced.attempted
        failed = rec.failed + traced.failed
        record["traced_rounds"] = traced.rounds
        record["traced_round_nominal_s"] = traced_s

    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced is not None:
        tracer.dump(OUT / f"{stem}-spans.jsonl")

    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} inputs, "
          f"{rec.rounds} rounds, {rec.attempted} attempted, {rec.failed} failed")
    print(f"reference_loop_s before {ref_before:.4f} after {ref_after:.4f} "
          f"(nominal {NOMINAL_ITERATION_S * REFERENCE_ITERATIONS:.2f})")
    print(f"round_s wall {record['round_wall_s']:.3f} nominal {round_s:.3f}; "
          f"wall_fields_per_s {record['wall_fields_per_s']:.4f}")
    print(f"output_sha256 {record['output_sha256']}")
    for line in shown[:20]:
        print(f"problem {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
