import contextlib
import hashlib
import io as stdio
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reebsplit import selftest
from reebsplit.cli import main
from reebsplit.gen import octahedron_height, realize_tree
from reebsplit.io import load_mesh_field, save_mesh_field


def run(argv):
    buf = stdio.StringIO()
    err = stdio.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


@pytest.fixture
def octa_file(tmp_path):
    path = tmp_path / "octa.json"
    code, _, _ = run(["gen", "octahedron", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture
def bumps_file(tmp_path):
    path = tmp_path / "bumps3.json"
    code, _, _ = run(["gen", "bumps", "--n", "3", "--out", str(path)])
    assert code == 0
    return path


def test_validate_ok(octa_file):
    code, out, _ = run(["validate", "--input", str(octa_file)])
    assert code == 0
    assert "Morse" in out


def test_validate_rejects_nonmanifold(tmp_path):
    bad = {"schema": "reeb-split/1",
           "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
           "triangles": [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
           "values": [0, 1, 2, 3, 4]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["validate", "--input", str(path)])
    assert code == 1
    assert "NonManifoldEdge" in err


def test_validate_rejects_critical_boundary(tmp_path):
    disk = {"schema": "reeb-split/1",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "triangles": [[0, 1, 2]],
            "values": [0.0, 1.0, 2.0]}
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(disk))
    code, out, _ = run(["validate", "--input", str(path)])
    assert code == 1
    assert "CriticalBoundary" in out


def test_reeb_counts_and_dot(octa_file, bumps_file, tmp_path):
    dot = tmp_path / "octa.dot"
    code, out, _ = run(["reeb", "--input", str(octa_file), "--dot", str(dot)])
    assert code == 0
    assert "2 vertices, 1 edges" in out
    assert dot.read_text().count("->") == 1

    code, out, _ = run(["reeb", "--input", str(bumps_file)])
    assert code == 0
    assert "5 vertices, 4 edges" in out


def test_reeb_deterministic_bytes(bumps_file, tmp_path):
    outs = []
    for i in (0, 1):
        dot = tmp_path / f"b{i}.dot"
        jsn = tmp_path / f"b{i}.json"
        code, out, _ = run(["reeb", "--input", str(bumps_file),
                            "--dot", str(dot), "--json", str(jsn)])
        assert code == 0
        outs.append((out, dot.read_text(), jsn.read_text()))
    assert outs[0] == outs[1]


# `gen` arguments of each fixture; the random field is drawn on the tree's mesh
REEB_FIXTURES = {
    "octahedron": ["octahedron"],
    "bumps-3": ["bumps", "--n", "3"],
    "tree-8": ["tree", "--n", "8", "--symmetry", "2", "--seed", "5"],
    "random-field": ["tree", "--n", "14", "--symmetry", "2", "--seed", "1",
                     "--resolution", "8"],
}
# sha256 of `reeb` stdout, --json and --dot; the JSON holds every tree
# vertex's preimage, so a change to one shows here
REEB_DIGESTS = {
    "octahedron": (
        "724df8132a0c166ee2ffb3c9da6e3ef7cd53d4487a9b3d22b1d73b00e85cfe3c",
        "84e4ff9d2151662a4a65b84421f44cf09a3a265d37c451ac66d1b904c8bf51d0",
        "11f1ad2222928dd67c2f1f3c625fb8a57d8b9eea3a88005eca2870928a3a6ba3",
    ),
    "bumps-3": (
        "b06df92186b165dee423b5542e50bb0ea79723ccfcc7292087c23a025835e352",
        "bb94d7a82117ed8d3242102816cbf240e6cab0866e23f21dae43a9d6fc6bf410",
        "5d131d5896cb0224c3e6b512b79fcd652bd10dc007b130d8cbbf910a0334c731",
    ),
    "tree-8": (
        "f444235a8ac84f769a8ee6326ecd77437b3862e68a119baa93272ea629dac21b",
        "d266431020c239b7b80f8d3beb119dc3f927118f6aba3902ec094db808176608",
        "238a1ce7c472e430cff7c53b9b7e935f8e26a378e07d7e012f16bb22e4edc632",
    ),
    "random-field": (
        "242b115ede26fcd965320ee8099e3f4af002939bd6c8fa699ab2e9bebe243f03",
        "70446bc00b1f824d29e3dadc1a00b871363fb5d15aec0c2750e306f29427f4fa",
        "b81eb00c29c8b9af58a05c4e00955d97a6fb284de85a32fe77044db68f06b2fe",
    ),
}


@pytest.mark.parametrize("name", sorted(REEB_FIXTURES))
def test_reeb_output_digests(tmp_path, name):
    path = tmp_path / "in.json"
    assert run(["gen", *REEB_FIXTURES[name], "--out", str(path)])[0] == 0
    if name == "random-field":
        tree, path = path, tmp_path / "rf.json"
        assert run(["gen", "random-field", "--input", str(tree), "--seed", "3",
                    "--out", str(path)])[0] == 0
    dot, jsn = tmp_path / "g.dot", tmp_path / "g.json"
    code, out, _ = run(["reeb", "--input", str(path), "--dot", str(dot),
                        "--json", str(jsn)])
    assert code == 0
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (out, jsn.read_text(), dot.read_text()))
    assert digests == REEB_DIGESTS[name]


def _split_fixture(tmp_path, name) -> Path:
    path = tmp_path / f"{name}.json"
    if name == "double-fork":
        save_mesh_field(path, *realize_tree(selftest.double_fork_tree(), 4))
    else:
        kind, *n = name.split("-")
        assert run(["gen", kind, *(["--n", *n] if n else []),
                    "--out", str(path)])[0] == 0
    return path


# sha256 of `split --json` text per fixture and flags: the plain run, a
# replay of the honest `aut --json` dump, a replay of that dump without its
# last element (the octahedron's one-element group has no such dump), and
# `--all-edges`; with the exit code each run must give
SPLIT_DIGESTS = {
    ("octahedron", "split"): (0,
        "0e37ce7edc8fd952b894085c49d1f963f4ae935a55c34e0b35e08369e4cf5d0c"),
    ("octahedron", "replay"): (0,
        "0e37ce7edc8fd952b894085c49d1f963f4ae935a55c34e0b35e08369e4cf5d0c"),
    ("octahedron", "all-edges"): (0,
        "10a85016666ba2b29018002d0a1fec24f94e7856b17fce1af54da4649417e0f3"),
    ("bumps-3", "split"): (0,
        "2bb4dd19534161f3e7f3937c3e158b816c2c795623b9efc56e9a7e40c88cffe4"),
    ("bumps-3", "replay"): (0,
        "2bb4dd19534161f3e7f3937c3e158b816c2c795623b9efc56e9a7e40c88cffe4"),
    ("bumps-3", "replay-missing"): (2,
        "5ad7ebf25eeb2fb23dc66ee80128d156a5e8c9884422e6a70e0255752c8ad014"),
    ("bumps-3", "all-edges"): (0,
        "9cdef8f3ecd757ddadeb252f7d527fab483ff0f4e05522945293e41b2e12f180"),
    ("bumps-7", "split"): (0,
        "703fa0ca8f755e38f7e239815dbb0e1cdec95ee7b7d4eb38947fa84ceabc3e5f"),
    ("bumps-7", "replay"): (0,
        "703fa0ca8f755e38f7e239815dbb0e1cdec95ee7b7d4eb38947fa84ceabc3e5f"),
    ("bumps-7", "replay-missing"): (2,
        "45a62d95799a4f9bf2644983622f6e92a4d67ef6c75cfd8a78e56089d741201e"),
    ("bumps-7", "all-edges"): (0,
        "86db82b1ca3da3810fd2b49c225bf48ec5d71110e2576e6d6436f286406d2021"),
    ("double-fork", "split"): (0,
        "30d90f46847bdd5116c3ba4f2db7e905113aba5c03daaf30c21d06db4892685c"),
    ("double-fork", "replay"): (0,
        "30d90f46847bdd5116c3ba4f2db7e905113aba5c03daaf30c21d06db4892685c"),
    ("double-fork", "replay-missing"): (2,
        "dc5d7e8db385e6d75544eda95164aa28747da27df974de2b4f2513614a8e1d38"),
    ("double-fork", "all-edges"): (0,
        "5fc401fd0ec59bbd909832715d51c3ce1527dd7f843c4295ba654206605bfa06"),
}


@pytest.mark.parametrize("name,flags", sorted(SPLIT_DIGESTS),
                         ids=["-".join(k) for k in sorted(SPLIT_DIGESTS)])
def test_split_output_digests(tmp_path, name, flags):
    path = _split_fixture(tmp_path, name)
    argv = ["split", "--input", str(path)]
    if flags == "all-edges":
        argv.append("--all-edges")
    elif flags.startswith("replay"):
        gdump = tmp_path / "group.json"
        assert run(["aut", "--input", str(path), "--json", str(gdump)])[0] == 0
        if flags == "replay-missing":
            data = json.loads(gdump.read_text())
            data["elements"] = data["elements"][:-1]
            gdump.write_text(json.dumps(data))
        argv += ["--replay-group", str(gdump)]
    jsn = tmp_path / "split.json"
    code, _, _ = run(argv + ["--json", str(jsn)])
    digest = hashlib.sha256(jsn.read_text().encode()).hexdigest()
    assert (code, digest) == SPLIT_DIGESTS[name, flags]


def test_aut_output(bumps_file, tmp_path):
    jsn = tmp_path / "g.json"
    code, out, _ = run(["aut", "--input", str(bumps_file), "--json", str(jsn)])
    assert code == 0
    assert "group order: 6" in out
    data = json.loads(jsn.read_text())
    assert data["order"] == 6
    assert data["histogram"] == {"1": 1, "2": 3, "3": 2}
    assert len(data["elements"]) == 6


def test_split_pass_and_exit_codes(octa_file, bumps_file, tmp_path):
    code, out, _ = run(["split", "--input", str(octa_file)])
    assert code == 0 and "PASS" in out
    jsn = tmp_path / "split.json"
    code, out, _ = run(["split", "--input", str(bumps_file), "--all-edges",
                        "--json", str(jsn)])
    assert code == 0
    data = json.loads(jsn.read_text())
    assert isinstance(data, list) and data[0]["group_order"] == 6

    # a tampered group dump replay must fail verification with exit 2
    gdump = tmp_path / "group.json"
    code, _, _ = run(["aut", "--input", str(bumps_file), "--json", str(gdump)])
    data = json.loads(gdump.read_text())
    data["elements"] = data["elements"][:-1]
    gdump.write_text(json.dumps(data))
    code, out, _ = run(["split", "--input", str(bumps_file),
                        "--replay-group", str(gdump)])
    assert code == 2
    assert "FAIL" in out


def test_replayed_repeated_element_is_not_injective(bumps_file, tmp_path):
    gdump = tmp_path / "group.json"
    assert run(["aut", "--input", str(bumps_file), "--json", str(gdump)])[0] == 0
    data = json.loads(gdump.read_text())
    data["elements"].append(data["elements"][0])
    gdump.write_text(json.dumps(data))
    jsn = tmp_path / "split.json"
    code, out, _ = run(["split", "--input", str(bumps_file),
                        "--replay-group", str(gdump), "--json", str(jsn)])
    assert code == 2
    assert out.startswith("FAIL") and "|G| = 7 != 1 * 6" in out
    report = json.loads(jsn.read_text())
    assert report["order_product_ok"] is False
    phi = report["phi"]
    assert (phi["injective"], phi["surjective"], phi["homomorphism"]) == \
        (False, True, True)
    assert phi["notes"] == ["elements 0 and 6 are the same map g=(0, 1, 2, 3, 4)"]


def test_split_verifies_bumps_seven(tmp_path):
    # |G| = 7! = 5040: closure and the homomorphism are checked on generators
    path = tmp_path / "bumps7.json"
    code, _, _ = run(["gen", "bumps", "--n", "7", "--out", str(path)])
    assert code == 0
    code, out, _ = run(["split", "--input", str(path), "--all-edges"])
    assert code == 0
    assert out.startswith("PASS") and "|G| = 5040 = 1 * 5040" in out


@pytest.mark.parametrize("n", [8, 10, 12])
def test_split_passes_beyond_the_group_bound(tmp_path, n):
    # |G| = n! > 10^4: split reads the sphere's and the sides' groups off
    # their structure, while aut, whose output is the element list, refuses
    path = tmp_path / f"bumps{n}.json"
    assert run(["gen", "bumps", "--n", str(n), "--out", str(path)])[0] == 0
    jsn = tmp_path / "split.json"
    code, out, _ = run(["split", "--input", str(path), "--all-edges", "--json", str(jsn)])
    assert code == 0
    reports = json.loads(jsn.read_text())
    assert reports and all(r["passed"] for r in reports)
    assert {r["group_order"] for r in reports} == {math.factorial(n)}
    if n == 8:
        code, out, err = run(["aut", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: GroupTooLarge: group exceeds 10000 elements")


def test_split_unmarked_side_beyond_the_group_bound(tmp_path):
    # |G| = 7! = 5040, but on edge 0 the unmarked side B also swaps the cut
    # leaf with the other label-1 leaf: 10080 elements, an order that comes
    # from the side tree's AHU forms rooted at a centre, not from enumeration
    from reebsplit.gen import realize_tree
    from reebsplit.treeaut import LabeledTree

    tree = LabeledTree([0.0, 2.0] + [5.0] * 7 + [1.0],
                       [(0, 1)] + [(1, v) for v in range(2, 9)] + [(1, 9)])
    path = tmp_path / "wide.json"
    save_mesh_field(path, *realize_tree(tree, 4))
    jsn = tmp_path / "wide.split.json"
    code, out, _ = run(["split", "--input", str(path), "--all-edges",
                        "--json", str(jsn)])
    assert code == 0
    reports = json.loads(jsn.read_text())
    assert [r["passed"] for r in reports] == [True, True]
    gap = {g["side"]: g for g in reports[0]["subtree_group_gap"]}
    assert reports[0]["edge_id"] == 0
    assert (gap["B"]["marked_order"], gap["B"]["unmarked_order"]) == (5040, 10080)


def test_split_hypothesis_failure_exit_zero(tmp_path):
    from reebsplit.gen import realize_tree
    from reebsplit.treeaut import LabeledTree

    tree = LabeledTree([1.0, 0.0, 0.0, 2.0, 2.0],
                       [(0, 1), (0, 2), (0, 3), (0, 4)])
    mesh, field = realize_tree(tree, 4)
    path = tmp_path / "hf.json"
    save_mesh_field(path, mesh, field)
    code, out, _ = run(["split", "--input", str(path)])
    assert code == 0
    assert "hypothesis fails" in out
    code, out, _ = run(["split", "--input", str(path), "--all-edges"])
    assert code == 0


def test_gen_corpus_deterministic(tmp_path):
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    for d in (d1, d2):
        code, _, _ = run(["gen", "corpus", "--size", "5", "--seed", "1",
                          "--out", str(d)])
        assert code == 0
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_text() == (d2 / name).read_text()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert len(manifest["items"]) == 5


def test_gen_tree_roundtrip_file(tmp_path):
    path = tmp_path / "t.json"
    code, _, _ = run(["gen", "tree", "--n", "9", "--symmetry", "2",
                      "--seed", "4", "--out", str(path)])
    assert code == 0
    mesh, field = load_mesh_field(path)
    assert mesh.n_vertices == len(field.values)


def test_gen_random_field(octa_file, tmp_path):
    path = tmp_path / "rf.json"
    code, _, _ = run(["gen", "random-field", "--input", str(octa_file),
                      "--seed", "42", "--out", str(path)])
    assert code == 0
    mesh, field = load_mesh_field(path)
    assert mesh.n_vertices == 6
    assert len(set(map(float, field.values))) == 6


def test_replay_group_excludes_all_edges(octa_file, tmp_path):
    gdump = tmp_path / "g.json"
    run(["aut", "--input", str(octa_file), "--json", str(gdump)])
    code, _, err = run(["split", "--input", str(octa_file), "--all-edges",
                        "--replay-group", str(gdump)])
    assert code == 1
    assert "drop --all-edges" in err


@pytest.mark.parametrize("dump", [
    {"order": 6},
    [],
    {"elements": []},
    {"elements": 5},
    {"elements": [5]},
    {"elements": [[0, 1, 2, 3, "4"]]},
    {"elements": [[0, 1, 2, 3, 4], [0, 1, 2]]},
    {"elements": [[0, 1, 2, 3, 3]]},
], ids=["no-elements", "top-level-list", "empty-elements", "elements-not-list",
        "entry-not-list", "string-entry", "short-permutation", "repeated-vertex"])
def test_replay_group_malformed_file(bumps_file, tmp_path, dump):
    gdump = tmp_path / "g.json"
    gdump.write_text(json.dumps(dump))
    code, _, err = run(["split", "--input", str(bumps_file),
                        "--replay-group", str(gdump)])
    assert code == 1
    assert err.startswith("error: ValueError: ")
    assert "Traceback" not in err


@pytest.fixture
def cut_disk(octahedron):
    """The lower disk of the octahedron cut across its only edge."""
    from reebsplit.mesh import cut_along_cycle
    from reebsplit.reeb import build_reeb, choose_cut_value, level_cycle

    mesh, field = octahedron
    graph = build_reeb(mesh, field)
    cycle = level_cycle(mesh, field, graph, 0, choose_cut_value(field, graph, 0))
    piece = cut_along_cycle(mesh, field, cycle)[0]
    return piece.mesh, piece.field


@pytest.mark.parametrize("surface", ["torus", "cut_disk"])
@pytest.mark.parametrize("flags", [[], ["--all-edges"]], ids=["first-edge", "all-edges"])
def test_split_rejects_a_surface_that_is_no_sphere(request, tmp_path, surface, flags):
    path = tmp_path / "surface.json"
    save_mesh_field(path, *request.getfixturevalue(surface))
    code, out, err = run(["split", "--input", str(path), *flags])
    assert code == 1
    assert out == ""
    assert err.startswith("error: GenusNotZero: need a closed connected genus-0 surface")


@pytest.mark.parametrize("argv, message", [
    (["gen", "random-field", "--out", "{out}"], "gen random-field needs --input"),
    (["gen", "bumps", "--n", "-1", "--out", "{out}"], "--n must not be negative"),
    (["gen", "corpus", "--size", "-1", "--out", "{out}"], "--size must not be negative"),
    (["validate", "--input", "{octa}", "--values", "{octa}"],
     "a sidecar value file is read only with OFF input"),
    (["gen", "tree", "--n", "5", "--symmetry", "0", "--out", "{out}"],
     "symmetry must be at least 1, got 0"),
    (["gen", "tree", "--n", "5", "--symmetry", "-1", "--out", "{out}"],
     "symmetry must be at least 1, got -1"),
], ids=["random-field-without-input", "negative-bumps", "negative-corpus-size",
        "values-with-json-input", "zero-symmetry", "negative-symmetry"])
def test_bad_arguments_are_invalid(octa_file, tmp_path, argv, message):
    out = tmp_path / "out"
    code, _, err = run([a.format(octa=octa_file, out=out) for a in argv])
    assert code == 1
    assert err == f"error: ValueError: {message}\n"
    assert not out.exists()


def test_missing_input_is_invalid(tmp_path):
    code, _, err = run(["reeb", "--input", str(tmp_path / "nope.json")])
    assert code == 1


def test_length_mismatch_rejected(tmp_path):
    bad = {"schema": "reeb-split/1",
           "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
           "triangles": [[0, 1, 2]],
           "values": [0.0, 1.0]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["validate", "--input", str(path)])
    assert code == 1
    assert "different lengths" in err


def test_off_import(tmp_path):
    off = tmp_path / "tri.off"
    off.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    vals = tmp_path / "tri.vals"
    vals.write_text("0.0\n0.0\n0.0\n")
    code, out, _ = run(["validate", "--input", str(off),
                        "--values", str(vals)])
    # constant disk boundary is the whole triangle: flat zone leaks, invalid
    assert code == 1

    mesh, field = load_mesh_field(off, vals)
    assert mesh.n_triangles == 1
    assert list(field.values) == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("text", [
    "OFF\n",
    "OFF\n4 4\n",
    "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n",
    "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
    "3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2\n",
], ids=["bare-header", "short-counts", "few-vertex-tokens", "few-face-tokens"])
def test_off_import_truncated(tmp_path, text):
    off = tmp_path / "cut.off"
    off.write_text(text)
    vals = tmp_path / "cut.vals"
    vals.write_text("0.0\n1.0\n2.0\n3.0\n")
    code, _, err = run(["validate", "--input", str(off), "--values", str(vals)])
    assert code == 1
    assert err.startswith("error: ValueError: ")
    assert "Traceback" not in err


def octa_rows(value):
    return [[value, 0.0, 0.0]] + [[float(i), 1.0, 0.0] for i in range(5)]


@pytest.mark.parametrize("change", [
    {"values": 5},
    {"values": [[float(i)] for i in range(6)]},
    {"values": [True] * 6},
    {"values": [0.0, 1.0, 2.0, 3.0, 4.0, "5"]},
    {"values": [10 ** 400] + [1.0] * 5},
    {"vertices": 5},
    {"vertices": [[0.0, 0.0, 0.0, 0.0]] * 6},
    {"vertices": [0.0, 0.0, 0.0] * 6},
    {"vertices": octa_rows(True)},
    {"vertices": octa_rows("1")},
    {"vertices": octa_rows(10 ** 400)},
], ids=["scalar-values", "nested-values", "bool-values", "string-value",
        "huge-int-value", "scalar-vertices", "four-coordinate-rows",
        "flat-vertices", "bool-coordinate", "string-coordinate",
        "huge-int-coordinate"])
def test_validate_rejects_malformed_values_and_vertices(octa_file, tmp_path,
                                                        change):
    data = json.loads(octa_file.read_text())
    data.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["validate", "--input", str(path)])
    assert code == 1
    assert err.startswith("error: ValueError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["5", "[]", "\"mesh\""],
                         ids=["number", "list", "string"])
def test_validate_rejects_non_object_json(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(["validate", "--input", str(path)])
    assert code == 1
    assert err.startswith("error: ValueError: ")


OCTA_TRIANGLES = [[0, 2, 1], [0, 3, 2], [0, 4, 3], [0, 1, 4],
                  [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]


@pytest.mark.parametrize("triangles", [
    [[0, 2, 4.7]] + OCTA_TRIANGLES[1:],
    [[False, 2, 1]] + OCTA_TRIANGLES[1:],
    [[0, 2, True]] + OCTA_TRIANGLES[1:],
    [i for t in OCTA_TRIANGLES for i in t],
    [t[:2] for t in OCTA_TRIANGLES],
    [["0", "2", "1"]] + OCTA_TRIANGLES[1:],
], ids=["float-index", "false-index", "true-index", "flat-list", "pairs",
        "string-index"])
def test_validate_rejects_malformed_triangles(octa_file, tmp_path, triangles):
    data = json.loads(octa_file.read_text())
    data["triangles"] = triangles
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["validate", "--input", str(path)])
    assert code == 1
    assert err.startswith("error: ValueError: ")
    assert "Traceback" not in err


def test_internal_inconsistency_exits_three(octa_file, monkeypatch):
    from reebsplit import cli
    from reebsplit.errors import InternalInconsistency

    def boom(*args, **kwargs):
        raise InternalInconsistency("trap")

    monkeypatch.setattr(cli, "verify_theorem", boom)
    code, _, err = run(["split", "--input", str(octa_file)])
    assert code == 3
    assert "internal inconsistency" in err


def test_quick_selftest_via_cli(tmp_path):
    jsn = tmp_path / "self.json"
    code, out, _ = run(["selftest", "--quick", "--json", str(jsn)])
    assert code == 0
    data = json.loads(jsn.read_text())
    assert len(data["results"]) == 8
    assert all(r["passed"] for r in data["results"])


# ----------------------------------------------------------------------
# the exit-code contract: every input ends in exit 0-3, never a traceback

TETRA_TRIANGLES = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
BASES = {
    "octahedron": {"vertices": octa_rows(0.0), "triangles": OCTA_TRIANGLES,
                   "values": [-1.0, 0.0, 2e-6, 4e-6, 6e-6, 1.0]},
    "tetrahedron": {"vertices": [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                    "triangles": TETRA_TRIANGLES, "values": [0.0, 1.0, 2.0, 3.0]},
}
# extreme magnitudes, and neighbours one ulp apart
EXTREMES = [0.0, -0.0, 1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)),
            1.7e308, -1.7e308, float(np.nextafter(1.7e308, 0.0)), 1e308, -1e308,
            1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, 1e-323]
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 8), st.text(max_size=2),
                 st.floats(), st.just({}), st.just([]))


@st.composite
def mutated_mesh_fields(draw):
    """A small sphere's mesh+field object, its values maybe replaced by
    distinct extreme ones, with up to two structural mutations."""
    data = json.loads(json.dumps(BASES[draw(st.sampled_from(sorted(BASES)))]))
    if draw(st.booleans()):
        n = len(data["values"])
        data["values"] = draw(st.lists(st.sampled_from(EXTREMES), min_size=n,
                                       max_size=n, unique=True))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["vertices", "triangles", "values"]))
        rows = data[key]
        kind = draw(st.sampled_from(["truncate", "retype", "row"]))
        if kind == "truncate" and isinstance(rows, list):
            data[key] = rows[:draw(st.integers(0, max(len(rows) - 1, 0)))]
        elif kind == "retype":
            data[key] = draw(JUNK)
        elif isinstance(rows, list) and rows:
            # a ragged, nested or junk row or entry
            rows[draw(st.integers(0, len(rows) - 1))] = draw(st.one_of(
                JUNK, st.lists(st.one_of(st.integers(-1, 6), JUNK,
                                         st.lists(st.integers(0, 5), max_size=2)),
                               max_size=4)))
    return data


@pytest.mark.parametrize("flags", [[], ["--all-edges"]], ids=["first-edge", "all-edges"])
def test_split_refuses_a_cut_value_on_an_end_of_its_gap(tmp_path, flags):
    # every gap is one subnormal step wide, so each midpoint rounds onto an end
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps(dict(BASES["tetrahedron"],
                                    values=[0.0, 5e-324, 1e-323, 1.5e-323])))
    assert run(["validate", "--input", str(path)])[0] == 0
    code, _, err = run(["split", *flags, "--input", str(path)])
    assert code == 1
    assert err.startswith("error: ValueCollision: ")


def test_split_passes_where_a_cut_point_rounds_onto_a_vertex(tmp_path):
    # edge 1 is cut at 2.5, and its crossing on mesh edge (0, 2), from -1e17
    # to 3, has parameter 1.0
    path = tmp_path / "octa.json"
    path.write_text(json.dumps(dict(BASES["octahedron"],
                                    values=[-1e17, 0.0, 3.0, 1.0, 1e17, 2.0])))
    code, out, err = run(["split", "--all-edges", "--input", str(path)])
    assert (code, err) == (0, "")
    assert [line[:13] for line in out.splitlines()] == [
        "PASS: edge 0 ", "PASS: edge 1 ", "PASS: edge 2 "]


@settings(max_examples=150, deadline=None)
@given(data=mutated_mesh_fields(),
       argv=st.sampled_from([["validate"], ["reeb"], ["aut"], ["split"],
                             ["split", "--all-edges"]]))
def test_every_input_ends_in_a_documented_exit_code(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(data))
        code, _, err = run([*argv, "--input", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


OFF_JUNK = ["nan", "inf", "-inf", "1e400", "99999999999999999999", "-1", "0x1", "#",
            "1.5", "6", "OFF", "x"]


@st.composite
def mutated_off_files(draw):
    """The octahedron's OFF text and sidecar value text, built as lines of
    tokens, with one to three token replacements, deletions or insertions,
    truncations or 4-gon faces."""
    mesh, field = octahedron_height()
    off = ([["OFF"], ["6", "8", "0"]] + [list(map(repr, row)) for row in mesh.vertices.tolist()]
           + [["3", *map(str, tri)] for tri in mesh.triangles.tolist()])
    files = [off, [[repr(x)] for x in field.values.tolist()]]
    for _ in range(draw(st.integers(1, 3))):
        lines = files[draw(st.integers(0, 1))]
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kind = draw(st.sampled_from(["replace", "delete", "insert", "truncate", "quad"]))
        j = draw(st.integers(0, max(len(line) - 1, 0)))
        if kind == "replace" and line:
            line[j] = draw(st.sampled_from(OFF_JUNK))
        elif kind == "delete" and line:
            del line[j]
        elif kind == "insert":
            line.insert(j, draw(st.sampled_from(OFF_JUNK)))
        elif kind == "truncate":
            del lines[i + 1:]
            del line[j:]
        elif kind == "quad":
            lines[i] = ["4", "0", "1", "2", "3"]
    return ["".join(" ".join(line) + "\n" for line in lines) for lines in files]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=mutated_off_files(),
       argv=st.sampled_from([["validate"], ["reeb"], ["aut"], ["split", "--all-edges"]]))
def test_every_off_input_ends_in_a_documented_exit_code(tmp_path, files, argv):
    off, vals = tmp_path / "in.off", tmp_path / "in.vals"
    off.write_text(files[0])
    vals.write_text(files[1])
    code, _, err = run([*argv, "--input", str(off), "--values", str(vals)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
