"""The benchmark reaches the program through names and call shapes that a
refactor could break without any program test noticing: the traced run wraps
program functions by name, and the workloads call the program directly."""

import contextlib
import hashlib
import importlib
import importlib.util
import io as stdio
import sys
from pathlib import Path

from reebsplit.cli import main
from reebsplit.io import save_mesh_field

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # the workloads' dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load("tracing")
    assert tracing.TARGETS
    for name, modname, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"reebsplit.{modname}")
        for part in attr.split("."):
            assert hasattr(owner, part), (name, modname, attr)
            owner = getattr(owner, part)
        assert callable(owner), name


def test_workload_operations_match_the_cli(three_bump, octahedron, tmp_path):
    workloads = load("workloads")
    for op, argv, (mesh, field) in ((workloads.split_op, ["split", "--all-edges"],
                                     three_bump),
                                    (workloads.aut_op, ["aut"], octahedron)):
        source, report = tmp_path / "in.json", tmp_path / "out.json"
        save_mesh_field(source, mesh, field)
        with contextlib.redirect_stdout(stdio.StringIO()):
            code = main(argv + ["--input", str(source), "--json", str(report)])
        assert code == 0
        assert op(source.read_text()) + "\n" == report.read_text(), argv[0]


# sha256 over the seed-0 input texts of each workload, in order, each
# followed by a newline: the coordinates and values of every generated
# field, which the outputs do not carry
INPUT_DIGESTS = {
    "split_corpus": "dad6f09d44bf50ec8ad5814356077709dac13238d661bf2f1ead6ac229a7ccb2",
    "large_sphere": "ed2cb13ad80a34958830304d8b721c4636a13cca3c491909b2421391f2081b77",
    "symmetric_split": "e0b5f3e2e3da4028adcf0f0d88f7e3f4b1c61902af7cc8d9e65a1c228bbb4877",
}

SEED0_DIGESTS = {
    "split_corpus": "e1d604cb0de401afc422f777438a525e31259e8034f4ca4828ecac0f86eb9064",
    "large_sphere": "01c12832d156e18d6679141d90c5c60d893beb1dfbd11f3713c30c44bc63cb6d",
    "symmetric_split": "272d0b495dc97d99e0d380d09e0159307bcc065e616a5876b21d85bd3ab28d87",
}


def test_seed0_output_digests(monkeypatch):
    # one round of each workload at seed 0, hashed as the benchmark's run
    # record does, so any change to an output shows here; the benchmark's
    # own correctness checks then judge that round, as a run does
    monkeypatch.syspath_prepend(str(PERFBENCH))    # run.py imports checks
    workloads, run = load("workloads"), load("run")
    for name, digest in SEED0_DIGESTS.items():
        inputs = workloads.WORKLOADS[name](0).make_inputs()
        texts = hashlib.sha256(b"".join(i.text.encode() + b"\n" for i in inputs))
        assert texts.hexdigest() == INPUT_DIGESTS[name], name
        rec = run.run_rounds(inputs, workloads.OPS, seconds=0)
        assert (rec.rounds, rec.failed) == (1, 0), name
        assert run.output_digest(inputs, rec) == digest, name
        counts, shown, bad = run.check_outputs(inputs, rec, rec.later)
        assert (sum(counts.values()), shown, bad) == (0, [], set()), name
