"""Per-cell reference implementations of the contour and CSV export code.

These are loop versions of ``entgeo.geometry``'s marching squares, segment
chaining, state-body restriction and grid CSV export, one cell or one row at
a time, used as a test oracle: the vectorised library code must reproduce
their output exactly (same polylines in the same order, same bytes). A
contour crossing is named ``("node", (i, j))`` when it falls on grid node
(i, j) (t = 0 or 1) and ``("edge", lower, axis)`` otherwise; it is
interpolated from the lower end of its grid edge, so both cells on an edge
compute the same point.
"""

from __future__ import annotations

import numpy as np

from entgeo.geometry import ScanGrid


def _marching_squares(a_values, b_values, f):
    """Zero-level polylines of a scalar field sampled on a rectangular grid.

    Corner signs pick one of 16 cases; crossings are placed by linear
    interpolation along grid edges; the two saddle cases are disambiguated by
    the sign of the corner sum, opposite corners added first. Segments are
    chained into ordered polylines.
    """
    na, nb = f.shape
    segments = []

    def crossing(lower, upper):
        """(name, point) of the crossing on the grid edge from lower to upper."""
        p0 = (a_values[lower[0]], b_values[lower[1]])
        p1 = (a_values[upper[0]], b_values[upper[1]])
        t = f[lower] / (f[lower] - f[upper])
        if t == 0:
            return ("node", lower), p0
        if t == 1:
            return ("node", upper), p1
        axis = 0 if lower[1] == upper[1] else 1
        return ("edge", lower, axis), (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))

    for i in range(na - 1):
        for j in range(nb - 1):
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            vals = [f[c] for c in corners]
            case = sum(1 << k for k, v in enumerate(vals) if v >= 0)
            if case in (0, 15):
                continue
            # edge k joins corner k and corner (k+1) % 4
            crossings = {}
            for k in range(4):
                c0, c1 = corners[k], corners[(k + 1) % 4]
                if (f[c0] >= 0) != (f[c1] >= 0):
                    crossings[k] = crossing(*sorted((c0, c1)))
            edges = sorted(crossings)
            if len(edges) == 2:
                pairs = [(edges[0], edges[1])]
            else:
                center_pos = (vals[0] + vals[2]) + (vals[1] + vals[3]) >= 0
                # pair crossings so the positive region stays connected iff the
                # center sample is positive
                if (case == 5) == center_pos:
                    pairs = [(0, 1), (2, 3)]
                else:
                    pairs = [(0, 3), (1, 2)]
            for e0, e1 in pairs:
                p, q = crossings[e0], crossings[e1]
                if p[0] != q[0]:  # both crossings on one grid node degenerate
                    segments.append((p, q))
    return _chain_segments(segments)


def _chain_segments(segments):
    """Join shared-endpoint segments into polylines (closed loops or open arcs).

    Each segment is a pair of (name, point) ends; ends with equal names are joined.
    """
    if not segments:
        return []
    point = {name: pt for segment in segments for name, pt in segment}
    adjacency: dict[tuple, list] = {}
    for idx, (p, q) in enumerate(segments):
        adjacency.setdefault(p[0], []).append((idx, q[0]))
        adjacency.setdefault(q[0], []).append((idx, p[0]))

    used = [False] * len(segments)
    polylines = []

    def walk(start):
        line = [point[start]]
        cur = start
        while True:
            nxt = None
            for idx, other in adjacency[cur]:
                if not used[idx]:
                    used[idx] = True
                    nxt = other
                    break
            if nxt is None:
                return line
            line.append(point[nxt])
            cur = nxt

    # open chains first: start from endpoints of odd degree
    endpoints = [name for name, links in adjacency.items() if len(links) % 2 == 1]
    for ep in endpoints:
        if any(not used[idx] for idx, _ in adjacency[ep]):
            polylines.append(walk(ep))
    # remaining are closed loops
    for idx, (p, q) in enumerate(segments):
        if not used[idx]:
            used[idx] = True
            line = [p[1]]
            line.extend(walk(q[0]))
            polylines.append(line)
    return [np.array(line) for line in polylines]


def boundary_contours(grid: ScanGrid, kind: str, level: float = 0.0):
    """Extract iso-polylines from a scan.

    kind: 'state_boundary' (min_eig = 0), 'ppt_boundary' (min_eig_pt = 0
    restricted to the state body), or 'negativity' at the given level.
    Returns a list of (k, 2) arrays of (a, b) points; empty list if no contour.
    """
    if kind == "state_boundary":
        f = grid.min_eig
    elif kind == "ppt_boundary":
        f = grid.min_eig_pt
    elif kind == "negativity":
        f = grid.negativity - level
    else:
        raise ValueError(f"unknown contour kind {kind!r}")
    lines = _marching_squares(grid.a_values, grid.b_values, np.asarray(f, dtype=float))
    if kind == "ppt_boundary":
        lines = _restrict_to_state_body(grid, lines)
    return lines


def _bilinear(grid: ScanGrid, f: np.ndarray, a: float, b: float) -> float:
    ia = np.clip(np.searchsorted(grid.a_values, a) - 1, 0, len(grid.a_values) - 2)
    ib = np.clip(np.searchsorted(grid.b_values, b) - 1, 0, len(grid.b_values) - 2)
    ta = (a - grid.a_values[ia]) / (grid.a_values[ia + 1] - grid.a_values[ia])
    tb = (b - grid.b_values[ib]) / (grid.b_values[ib + 1] - grid.b_values[ib])
    return float(
        f[ia, ib] * (1 - ta) * (1 - tb)
        + f[ia + 1, ib] * ta * (1 - tb)
        + f[ia, ib + 1] * (1 - ta) * tb
        + f[ia + 1, ib + 1] * ta * tb
    )


def _restrict_to_state_body(grid: ScanGrid, lines, slack: float = 1e-6):
    """Keep only polyline points inside the state body, splitting where cut."""
    out = []
    for line in lines:
        run = []
        for a, b in line:
            if _bilinear(grid, grid.min_eig, a, b) >= -slack:
                run.append((a, b))
            else:
                if len(run) >= 2:
                    out.append(np.array(run))
                run = []
        if len(run) >= 2:
            out.append(np.array(run))
    return out


def points_in_state_body(grid: ScanGrid, points, slack: float = 1e-6) -> np.ndarray:
    """Subset of (a, b) points whose interpolated min eigenvalue is nonnegative."""
    kept = [p for p in points if _bilinear(grid, grid.min_eig, p[0], p[1]) >= -slack]
    return np.array(kept) if kept else np.empty((0, 2))


# ---------------------------------------------------------------------------
# Export formats


def grid_to_csv(grid: ScanGrid) -> str:
    """CSV of the grid: one row per cell, b outer / a inner, 17 significant digits."""
    lines = ["a,b,min_eig,min_eig_pt,negativity,is_state,is_ppt"]
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
                    int(grid.is_state[i, j]),
                    int(grid.is_ppt[i, j]),
                )
            )
    return "\n".join(lines) + "\n"
