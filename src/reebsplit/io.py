"""Shared file formats: the mesh+field JSON object and OFF import.

All JSON emitted by the package carries the schema string ``reeb-split/1``
and is serialized deterministically (sorted keys, no whitespace variation),
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .field import ScalarField
from .mesh import TriangleMesh

SCHEMA = "reeb-split/1"


def dumps_canonical(obj) -> str:
    """Deterministic JSON text (sorted keys, compact separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def mesh_field_to_dict(mesh: TriangleMesh, field: ScalarField) -> dict:
    return {
        "schema": SCHEMA,
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "values": field.values.tolist(),
    }


def save_mesh_field(path, mesh: TriangleMesh, field: ScalarField) -> None:
    Path(path).write_text(dumps_canonical(mesh_field_to_dict(mesh, field)) + "\n")


def load_json(path):
    """The JSON value in a file.  The decoder recurses once per level of
    nesting, so a file nested too deeply for it is a ValueError."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def _numbers(items) -> bool:
    """Whether every item is an int or a float; numpy would take booleans
    and numeric strings for numbers without a trace."""
    return {int, float}.issuperset(map(type, items))


def mesh_field_from_dict(data: dict) -> tuple[TriangleMesh, ScalarField]:
    """The mesh and field of a mesh+field object; ValueError unless
    ``values`` is a flat list of numbers, ``vertices`` a list of [x, y, z]
    number rows of the same length and ``triangles`` a list of vertex index
    triples."""
    if not isinstance(data, dict):
        raise ValueError("a mesh+field object must be a JSON object")
    for key in ("vertices", "triangles", "values"):
        if key not in data:
            raise ValueError(f"mesh+field object lacks '{key}'")
    vertices, values = data["vertices"], data["values"]
    if type(values) is not list or not _numbers(values):
        raise ValueError("values must be a flat list of numbers")
    # the rows are read through one flat list of their entries, which numpy
    # converts far faster than nested rows
    if (type(vertices) is not list or not {list}.issuperset(map(type, vertices))
            or not {3}.issuperset(map(len, vertices))
            or not _numbers(coords := list(chain.from_iterable(vertices)))):
        raise ValueError("vertices must be a list of [x, y, z] number rows")
    if len(values) != len(vertices):
        raise ValueError("values and vertices have different lengths")
    try:
        vertices = np.array(coords, dtype=float).reshape(-1, 3)
        values = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError("an integer is too large for a float") from None
    return TriangleMesh(vertices, data["triangles"]), ScalarField(values)


def load_mesh_field(path, values_path=None) -> tuple[TriangleMesh, ScalarField]:
    """Load a mesh+field JSON file, or an OFF file with a sidecar value file."""
    path = Path(path)
    if path.suffix.lower() == ".off":
        return load_off(path, values_path)
    if values_path is not None:
        raise ValueError("a sidecar value file is read only with OFF input")
    return mesh_field_from_dict(load_json(path))


def load_off(path, values_path=None) -> tuple[TriangleMesh, ScalarField]:
    """OFF import: positions only; one value per line in the sidecar file."""
    tokens = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise ValueError("not an OFF file")
    if len(tokens) < 4:
        raise ValueError("OFF header needs vertex, face and edge counts")
    nv, nf = int(tokens[1]), int(tokens[2])
    if nv < 0 or nf < 0:
        raise ValueError("OFF counts must not be negative")

    def take(pos: int, count: int, what: str) -> list[str]:
        if pos + count > len(tokens):
            raise ValueError(f"OFF file ends inside {what}")
        return tokens[pos:pos + count]

    pos = 4
    verts = []
    for i in range(nv):
        verts.append([float(t) for t in take(pos, 3, f"vertex {i}")])
        pos += 3
    tris = []
    for i in range(nf):
        if int(take(pos, 1, f"face {i}")[0]) != 3:
            raise ValueError("OFF import supports triangles only")
        tris.append([int(t) for t in take(pos + 1, 3, f"face {i}")])
        pos += 4
    if values_path is None:
        raise ValueError("OFF input needs a sidecar value file")
    vals = [float(s) for s in Path(values_path).read_text().split()]
    if len(vals) != nv:
        raise ValueError("sidecar value count does not match vertex count")
    return TriangleMesh(np.asarray(verts), tris), ScalarField(np.asarray(vals))
