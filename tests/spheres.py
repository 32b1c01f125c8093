"""Irregular triangulated spheres that do not come from ``gen``.

``gen`` builds most test meshes from tree gadgets of stacked rings, so a
bug that those gadgets never trigger would pass them; the convex hull of
random points on S^2 has no such structure.
"""

import numpy as np
from scipy.spatial import ConvexHull

from reebsplit.mesh import TriangleMesh


def hull_sphere(n: int, seed: int) -> TriangleMesh:
    """The convex hull of ``n`` normalized Gaussian points, each triangle
    wound outward.  Every point lies on the unit sphere, so every point is
    a hull vertex."""
    points = np.random.default_rng(seed).normal(size=(n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    triangles = ConvexHull(points).simplices
    a, b, c = points[triangles].transpose(1, 0, 2)
    # the origin is inside the hull, so an outward normal points away from it
    inward = (np.cross(b - a, c - a) * a).sum(axis=1) < 0
    triangles[inward] = triangles[inward][:, ::-1]
    return TriangleMesh(points, triangles)


def flipped_sphere(mesh: TriangleMesh, flips: int, seed: int) -> TriangleMesh:
    """A closed ``mesh`` after ``flips`` tries at a random edge flip.

    Each try takes a random side (a, b) of a random triangle (a, b, c) and
    the triangle (b, a, d) across it, and replaces the two by (c, a, d) and
    (d, b, c), which keeps their winding, unless c and d already share an
    edge.  Flips change which vertices are adjacent, so the rings and
    gadgets of a ``gen`` mesh lose their regular links.
    """
    rng = np.random.default_rng(seed)
    tris = mesh.triangles.copy()
    owner = {(a, b): t for t, (x, y, z) in enumerate(tris.tolist())
             for a, b in ((x, y), (y, z), (z, x))}    # each side's triangle
    for t, k in zip(rng.integers(len(tris), size=flips).tolist(),
                    rng.integers(3, size=flips).tolist()):
        a, b, c = np.roll(tris[t], -k).tolist()
        u = owner[b, a]
        d = (set(tris[u].tolist()) - {a, b}).pop()
        if (c, d) in owner:
            continue
        tris[t], tris[u] = (c, a, d), (d, b, c)
        del owner[a, b], owner[b, a]
        owner.update({(a, d): t, (d, c): t, (b, c): u, (c, d): u})
    return TriangleMesh(mesh.vertices, tris)
