"""The package runs on numpy alone.

Importing ``scipy.sparse.csgraph`` adds about 33 MB of resident memory, on
top of a split-corpus benchmark run that peaks near 42 MB, so connectivity
is computed with numpy and nothing on the verification path may pull in
scipy or networkx.  ``numpy.ma``, which ``np.unique`` imports, adds about
1.3 MB, so the verification path uses ``mesh.distinct`` instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reebsplit

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys
from reebsplit.gen import octahedron_height
from reebsplit.split import verify_all_fixed_edges

mesh, field = octahedron_height()
assert all(r.passed for r in verify_all_fixed_edges(mesh, field))
print(sorted(m for m in ("scipy", "networkx", "numpy.ma") if m in sys.modules))
"""


def test_tests_import_the_checkout_sources():
    assert Path(reebsplit.__file__).resolve().is_relative_to(ROOT / "src")


def test_verification_imports_neither_scipy_nor_networkx():
    src = str(Path(reebsplit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0].split("=")[0] for d in project["dependencies"]] == ["numpy"]
