"""Axisymmetric skin-effect solver for the orthoradial magnetic field.

High-order Q_p finite elements on block-structured quad meshes of the
meridian half-plane, with boundary-layer diagnostics: conductor norms,
curvature-corrected decay slopes, and corner profiles.
"""

from .physics import PhysicalParams, skin_depth, theoretical_slope, curv_ratio
from .fem import FeSpace, SourceSpec, assemble, solve, solve_all, evaluate
from .mesh import mesh_for, square_mesh_A, layered_mesh_B

__all__ = [
    "PhysicalParams",
    "skin_depth",
    "theoretical_slope",
    "curv_ratio",
    "FeSpace",
    "SourceSpec",
    "assemble",
    "solve",
    "solve_all",
    "evaluate",
    "mesh_for",
    "square_mesh_A",
    "layered_mesh_B",
]

__version__ = "0.1.0"
