"""Per-cell reference implementations of the plane points and the CSV export.

:func:`state_at` builds the matrix of any plane point directly from the
frame, so a test can solve each cell or contour vertex on its own.
:func:`grid_to_csv` is a row-at-a-time version of ``entgeo.geometry``'s CSV
export, used as a test oracle: the vectorised library code must reproduce
its bytes exactly.
"""

from __future__ import annotations

import numpy as np

from entgeo.geometry import Plane, ScanGrid


def state_at(plane: Plane, a, b) -> np.ndarray:
    """The plane points I/n + a*A1 + b*A2 (Hermitian, trace 1; PSD not guaranteed).

    ``a`` and ``b`` are scalars or arrays of one shape s; the result has shape
    s + (n, n).
    """
    a = np.asarray(a, dtype=float)[..., None, None]
    b = np.asarray(b, dtype=float)[..., None, None]
    return np.eye(plane.n) / plane.n + a * plane.a1 + b * plane.a2


# ---------------------------------------------------------------------------
# Export formats


def grid_to_csv(grid: ScanGrid) -> str:
    """CSV of the grid: one row per cell, b outer / a inner, 17 significant digits."""
    lines = ["a,b,min_eig,min_eig_pt,negativity,is_state,is_ppt"]
    # the flags are properties computed over the whole grid: read them once
    is_state, is_ppt = grid.is_state, grid.is_ppt
    for j in range(len(grid.b_values)):
        for i in range(len(grid.a_values)):
            lines.append(
                "%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d"
                % (
                    grid.a_values[i],
                    grid.b_values[j],
                    grid.min_eig[i, j],
                    grid.min_eig_pt[i, j],
                    grid.negativity[i, j],
                    int(is_state[i, j]),
                    int(is_ppt[i, j]),
                )
            )
    return "\n".join(lines) + "\n"
