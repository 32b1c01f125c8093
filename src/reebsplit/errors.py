"""Exception types shared across the package."""


class ReebSplitError(Exception):
    """Base class for all package-specific errors."""


class DegenerateTriangle(ReebSplitError):
    """A triangle repeats a vertex index."""


class NonManifoldEdge(ReebSplitError):
    """An undirected edge belongs to three or more triangles."""


class PinchedVertex(ReebSplitError):
    """A vertex link is not a single cycle (interior) or a single path (boundary)."""


class NonOrientable(ReebSplitError):
    """No globally consistent triangle winding exists."""


class CycleNotLevel(ReebSplitError):
    """Crossing data of a level cycle is inconsistent with its stated value."""


class CutNotSeparating(ReebSplitError):
    """Cutting along a cycle did not produce exactly two pieces."""


class InvalidFieldClass(ReebSplitError):
    """Field is unusable for level-set sweeps (flat zones, critical boundary,
    or several critical vertices sharing one level component)."""


class GenusNotZero(ReebSplitError):
    """Surface is not a connected genus-zero one, whose level-set graph is a
    tree, or not closed where a sphere is needed."""


class ValueCollision(ReebSplitError):
    """Requested level value collides with a vertex value."""


class EdgeNotFound(ReebSplitError):
    pass


class InvalidTree(ReebSplitError):
    """Labeled tree violates structural constraints."""


class SideNotInvariant(ReebSplitError):
    """An automorphism does not preserve a cut side's vertex set."""


class GroupTooLarge(ReebSplitError):
    """Automorphism group exceeds the supported explicit-element bound."""


class InternalInconsistency(ReebSplitError):
    """A structural guarantee failed; indicates a bug, not bad input."""
