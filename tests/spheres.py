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
