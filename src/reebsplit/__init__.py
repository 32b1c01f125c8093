"""reebsplit: level-set trees of PL scalar fields on triangulated spheres,
their label-preserving automorphism groups, and the product splitting of
those groups across a cut along a regular level circle inside a fixed edge.
"""

from . import errors
from .field import (
    ScalarField,
    classify_field,
    euler_identity_holds,
    flat_contract,
)
from .gen import octahedron_height, random_field, random_realizable_tree, realize_tree
from .mesh import LevelCycle, TriangleMesh, cut_along_cycle, validate_surface
from .reeb import ReebGraph, build_reeb, choose_cut_value, export_dot, level_cycle
from .split import (
    SphereAnalysis,
    SplitReport,
    analyze_sphere,
    check_subtree_group_gap,
    reeb_to_tree,
    verify_all_fixed_edges,
    verify_theorem,
)
from .treeaut import (
    AutGroup,
    LabeledTree,
    certify_splitting,
    cut_tree_at,
    element_order_histogram,
    enumerate_aut,
    enumerate_general_aut,
    fixed_set,
    restrict_aut,
    tree_isomorphic,
    verify_group_axioms,
    verify_isomorphism,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "AutGroup",
    "LabeledTree",
    "LevelCycle",
    "ReebGraph",
    "ScalarField",
    "SphereAnalysis",
    "SplitReport",
    "TriangleMesh",
    "analyze_sphere",
    "build_reeb",
    "certify_splitting",
    "check_subtree_group_gap",
    "choose_cut_value",
    "classify_field",
    "cut_along_cycle",
    "cut_tree_at",
    "element_order_histogram",
    "enumerate_aut",
    "enumerate_general_aut",
    "euler_identity_holds",
    "export_dot",
    "fixed_set",
    "flat_contract",
    "level_cycle",
    "octahedron_height",
    "random_field",
    "random_realizable_tree",
    "realize_tree",
    "reeb_to_tree",
    "restrict_aut",
    "tree_isomorphic",
    "validate_surface",
    "verify_all_fixed_edges",
    "verify_group_axioms",
    "verify_isomorphism",
    "verify_theorem",
    "__version__",
]
