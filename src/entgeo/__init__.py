"""Hilbert-Schmidt geometry of entangled states.

Projection of a state's partial transpose onto the trace-1 PSD cone, the
negativity and robustness measures derived from the PT spectrum, and 2-D
slices of the two-qubit state body scanned as data grids.
"""

from .linalg import eig_hermitian
from .states import (
    DensityMatrix,
    make_named,
    max_mixed,
    partial_transpose,
    sample_hs_random_stack,
    state_from_json,
    validate_state,
)
from .projection import (
    closest_pt_states,
    distance_closed_form,
    project_simplex_psd,
    pt_negativity,
    pt_robustness,
)
from .geometry import (
    Plane,
    ScanGrid,
    boundary_contours,
    build_plane,
    contours_to_json,
    grid_to_csv,
    scan_plane,
    state_at,
)

__all__ = [
    "eig_hermitian",
    "DensityMatrix",
    "make_named",
    "max_mixed",
    "partial_transpose",
    "sample_hs_random_stack",
    "state_from_json",
    "validate_state",
    "closest_pt_states",
    "distance_closed_form",
    "project_simplex_psd",
    "pt_negativity",
    "pt_robustness",
    "Plane",
    "ScanGrid",
    "boundary_contours",
    "build_plane",
    "contours_to_json",
    "grid_to_csv",
    "scan_plane",
    "state_at",
]

__version__ = "0.1.0"
