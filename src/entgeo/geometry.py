"""2-D affine slices of the state-space body through the maximally mixed state.

A plane is spanned by two traceless, HS-orthonormal Hermitian directions built
from a pair of anchor states by Gram-Schmidt. Scanning a plane evaluates, per
grid cell, the minimal eigenvalue of the matrix and of its partial transpose,
from which the state body, the PPT body, and negativity level sets follow.
Contours are extracted by marching squares with linear edge interpolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .projection import STATE_BODY_SLACK, above_noise_floor, pt_negativity
from .states import DensityMatrix, partial_transpose

# Cells per batched eigensolve in scan_plane at n = 4. A block holds
# _SCAN_BLOCK * 16 matrix elements whatever n, so the complex matrix stacks
# stay a few MB whatever the resolution and the plane's dimension. eigvalsh
# works matrix by matrix, so the block size does not change any value.
_SCAN_BLOCK = 16384

# Most steps per axis of a scan, checked before anything is built. The grid
# and its CSV text take ~250 B per cell: `entgeo scan --plane random:1
# --resolution 1601` with 5 contour levels peaks at 629 MB RSS (x86-64,
# NumPy 2.4, OpenBLAS 1 thread).
MAX_RESOLUTION = 1601

# Largest |a| or |b| a scan may reach. Every state lies within HS radius 1 of
# I/n, and bounds near 1e284 overflow the contour crossings.
_MAX_COORDINATE = 1e6


@dataclass(frozen=True)
class Plane:
    """An affine 2-plane through I/n with an HS-orthonormal traceless frame (A1, A2).

    ``dims`` is the anchors' bipartition, the one the partial transpose uses.
    The anchors satisfy rho_i = I/n + a*A1 + b*A2 for some coordinates (a, b),
    so HS distances in the plane equal Euclidean distances in (a, b).
    """

    dims: tuple[int, int]
    a1: np.ndarray
    a2: np.ndarray

    @property
    def n(self) -> int:
        return len(self.a1)


def build_plane(rho1: DensityMatrix, rho2: DensityMatrix) -> Plane:
    """Gram-Schmidt frame for the plane spanned by I/n, rho1, rho2."""
    if rho1.dims != rho2.dims:
        raise ValueError(f"anchors must share the bipartition, got dimensions {rho1.dims} and {rho2.dims}")
    n = rho1.dim
    center = np.eye(n) / n
    v1 = rho1.matrix - center
    norm1 = np.linalg.norm(v1)
    if norm1 < 1e-12:
        raise ValueError("first anchor coincides with the maximally mixed state")
    a1 = v1 / norm1
    v2 = rho2.matrix - center
    # tr(A1^dagger v2) written out: np.vdot sums in another order, off in the last bit
    v2 = v2 - np.trace(a1.conj().T @ v2) * a1
    norm2 = np.linalg.norm(v2)
    if norm2 < 1e-12:
        raise ValueError("anchors are linearly dependent around I/n (degenerate plane)")
    a2 = v2 / norm2
    return Plane(dims=rho1.dims, a1=a1, a2=a2)


def state_at(plane: Plane, a, b) -> np.ndarray:
    """The plane points I/n + a*A1 + b*A2 (Hermitian, trace 1; PSD not guaranteed).

    ``a`` and ``b`` are scalars or arrays of one shape s; the result has shape
    s + (n, n).
    """
    a = np.asarray(a, dtype=float)[..., None, None]
    b = np.asarray(b, dtype=float)[..., None, None]
    return np.eye(plane.n) / plane.n + a * plane.a1 + b * plane.a2


@dataclass(frozen=True)
class ScanGrid:
    """Per-cell fields over a rectangular (a, b) grid; arrays indexed [i_a, i_b]."""

    plane: Plane
    a_values: np.ndarray
    b_values: np.ndarray
    min_eig: np.ndarray
    min_eig_pt: np.ndarray
    negativity: np.ndarray
    is_state: np.ndarray = field(init=False)
    is_ppt: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "is_state", above_noise_floor(self.min_eig))
        object.__setattr__(self, "is_ppt", self.is_state & above_noise_floor(self.min_eig_pt))


def _scan_block(plane: Plane, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ms = state_at(plane, pts[:, 0], pts[:, 1])
    eigs = np.linalg.eigvalsh(ms)
    eigs_pt = np.linalg.eigvalsh(partial_transpose(ms, plane.dims))
    return eigs[:, 0], eigs_pt[:, 0], pt_negativity(eigs_pt)


def scan_plane(plane: Plane, a_range: tuple[float, float, int], b_range: tuple[float, float, int]) -> ScanGrid:
    """Evaluate the spectral fields over the grid; deterministic, in fixed-size blocks."""
    a_min, a_max, na = a_range
    b_min, b_max, nb = b_range
    if not (2 <= na <= MAX_RESOLUTION and 2 <= nb <= MAX_RESOLUTION):
        raise ValueError(f"need 2 to {MAX_RESOLUTION} steps per axis, got {na}x{nb}")
    # NaN fails the comparison too
    if not ((np.abs([a_min, a_max, b_min, b_max]) <= _MAX_COORDINATE).all() and a_min < a_max and b_min < b_max):
        raise ValueError(
            f"axis ranges need lo < hi within [-{_MAX_COORDINATE:g}, {_MAX_COORDINATE:g}], got {a_min}:{a_max}, {b_min}:{b_max}"
        )
    a_values = np.linspace(a_min, a_max, na)
    b_values = np.linspace(b_min, b_max, nb)
    aa, bb = np.meshgrid(a_values, b_values, indexing="ij")
    pts = np.stack([aa.ravel(), bb.ravel()], axis=1)

    min_eig = np.empty(len(pts))
    min_eig_pt = np.empty(len(pts))
    neg = np.empty(len(pts))
    rows = max(1, _SCAN_BLOCK * 16 // plane.n**2)
    for start in range(0, len(pts), rows):
        block = slice(start, start + rows)
        min_eig[block], min_eig_pt[block], neg[block] = _scan_block(plane, pts[block])

    shape = (na, nb)
    return ScanGrid(
        plane=plane,
        a_values=a_values,
        b_values=b_values,
        min_eig=min_eig.reshape(shape),
        min_eig_pt=min_eig_pt.reshape(shape),
        negativity=neg.reshape(shape),
    )


# ---------------------------------------------------------------------------
# Marching squares

# For each non-saddle case code, the two edges whose corners differ in sign
# (edge k joins corner k and corner (k+1) % 4), lowest edge first. Cases 0
# and 15 cross no edge and are never looked up.
_CASE_EDGES = np.array(
    [
        [k for k in range(4) if ((case >> k) & 1) != ((case >> ((k + 1) % 4)) & 1)][:2]
        or [0, 0]
        for case in range(16)
    ]
)


def _marching_squares(a_values, b_values, f):
    """Zero-level polylines of a scalar field sampled on a rectangular grid.

    Corner signs pick one of 16 cases; the two saddle cases are disambiguated
    by the sign of the corner sum. Each crossed grid edge gets one crossing,
    interpolated linearly from its lower grid node, so the two cells sharing
    an edge share its point bitwise. Nodes are integers: grid node (i, j) is
    i * nb + j, and a crossing at t = 0 or 1 is that grid node, at its exact
    (a, b); any other crossing is f.size + 2 * (lower node) + axis. Segments
    are chained into ordered polylines. Only the cells the contour crosses are
    visited, in row-major order.
    """
    a_values = np.asarray(a_values, dtype=float)
    b_values = np.asarray(b_values, dtype=float)
    f = np.asarray(f, dtype=float)
    nb = f.shape[1]
    # corner k of cell (i, j): (i, j), (i+1, j), (i+1, j+1), (i, j+1)
    corners = (f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:])
    case = sum((c >= 0).astype(np.intp) << k for k, c in enumerate(corners))
    ii, jj = np.nonzero((case != 0) & (case != 15))
    if len(ii) == 0:
        return []
    case = case[ii, jj]
    vals = [c[ii, jj] for c in corners]

    # up to two segments per cell, as (edge, edge) pairs
    edges = np.zeros((len(ii), 2, 2), dtype=np.intp)
    edges[:, 0] = _CASE_EDGES[case]
    saddle = (case == 5) | (case == 10)
    # opposite corners summed first: the same sum for every rotation and flip of the cell
    center_pos = (vals[0] + vals[2]) + (vals[1] + vals[3]) >= 0
    # pair crossings so the positive region stays connected iff the center
    # sample is positive
    joined = (case == 5) == center_pos
    edges[saddle, 0] = np.where(joined[saddle, None], [0, 1], [0, 3])
    edges[saddle, 1] = np.where(joined[saddle, None], [2, 3], [1, 2])
    present = np.zeros((len(ii), 2), dtype=bool)
    present[:, 0] = True
    present[:, 1] = saddle

    # edge k of cell (i, j) as 2 * (lower node) + axis, with lower nodes
    # (i, j), (i+1, j), (i, j+1), (i, j) and axes 0, 1, 0, 1
    cell = np.nonzero(present)[0]
    offsets = np.array([0, 2 * nb + 1, 2, 1])
    seg_edges = 2 * (ii[cell] * nb + jj[cell])[:, None] + offsets[edges[present]]
    edge_ids, inverse = np.unique(seg_edges.ravel(), return_inverse=True)
    lower, axis = np.divmod(edge_ids, 2)
    upper = lower + np.where(axis == 0, nb, 1)
    flat = f.ravel()
    t = flat[lower] / (flat[lower] - flat[upper])
    nodes = np.where(t == 0, lower, np.where(t == 1, upper, f.size + edge_ids))
    p_lower = np.stack([a_values[lower // nb], b_values[lower % nb]], axis=1)
    p_upper = np.stack([a_values[upper // nb], b_values[upper % nb]], axis=1)
    points = np.where((t == 1)[:, None], p_upper, p_lower + t[:, None] * (p_upper - p_lower))

    seg_nodes = nodes[inverse].reshape(-1, 2)
    # both ends on one grid node: a degenerate segment
    keep = seg_nodes[:, 0] != seg_nodes[:, 1]
    return _chain_segments(points[inverse].reshape(-1, 2, 2)[keep], seg_nodes[keep])


def _chain_segments(ends, nodes):
    """Join shared-endpoint segments into polylines (closed loops or open arcs).

    ends[s] holds the two endpoint coordinates of segment s and nodes[s] their
    integer node ids; endpoints with equal ids are joined.
    """
    if len(ends) == 0:
        return []
    ends = ends.tolist()
    nodes = nodes.tolist()
    adjacency: dict[int, list] = {}
    for idx, (p, q) in enumerate(nodes):
        adjacency.setdefault(p, []).append((idx, 1))
        adjacency.setdefault(q, []).append((idx, 0))

    used = [False] * len(ends)
    polylines = []

    def walk(line, cur):
        while True:
            for idx, end in adjacency[cur]:
                if not used[idx]:
                    used[idx] = True
                    line.append(ends[idx][end])
                    cur = nodes[idx][end]
                    break
            else:
                return line

    # open chains first: start from nodes of odd degree, at the node's point
    for node, links in adjacency.items():
        if len(links) % 2 == 1 and any(not used[idx] for idx, _ in links):
            idx, end = links[0]
            polylines.append(walk([ends[idx][1 - end]], node))
    # remaining are closed loops
    for idx, (p, q) in enumerate(ends):
        if not used[idx]:
            used[idx] = True
            polylines.append(walk([p, q], nodes[idx][1]))
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


def _in_state_body(grid: ScanGrid, pts: np.ndarray) -> np.ndarray:
    """True where min_eig, interpolated bilinearly at (a, b) points, is >= -STATE_BODY_SLACK."""
    a, b, f = pts[:, 0], pts[:, 1], grid.min_eig
    ia = np.clip(np.searchsorted(grid.a_values, a) - 1, 0, len(grid.a_values) - 2)
    ib = np.clip(np.searchsorted(grid.b_values, b) - 1, 0, len(grid.b_values) - 2)
    ta = (a - grid.a_values[ia]) / (grid.a_values[ia + 1] - grid.a_values[ia])
    tb = (b - grid.b_values[ib]) / (grid.b_values[ib + 1] - grid.b_values[ib])
    interpolated = (
        f[ia, ib] * (1 - ta) * (1 - tb)
        + f[ia + 1, ib] * ta * (1 - tb)
        + f[ia, ib + 1] * (1 - ta) * tb
        + f[ia + 1, ib + 1] * ta * tb
    )
    return interpolated >= -STATE_BODY_SLACK


def _restrict_to_state_body(grid: ScanGrid, lines):
    """Keep only polyline points inside the state body, splitting where cut."""
    out = []
    for line in lines:
        inside = np.concatenate(([False], _in_state_body(grid, line), [False]))
        # runs of inside points start and stop where the padded mask flips
        flips = np.flatnonzero(inside[1:] != inside[:-1])
        for start, stop in zip(flips[::2].tolist(), flips[1::2].tolist()):
            if stop - start >= 2:
                out.append(line[start:stop])
    return out


# ---------------------------------------------------------------------------
# Export formats


def grid_to_csv(grid: ScanGrid) -> str:
    """CSV of the grid: one row per cell, b outer / a inner, 17 significant digits."""
    a_text = ["%.17g" % x for x in grid.a_values.tolist()]
    flags = ("0,0", "0,1", "1,0", "1,1")
    flag_codes = 2 * grid.is_state.astype(np.intp) + grid.is_ppt
    # one text block per b value, so that only one grid column of Python
    # floats and row strings is alive at a time
    blocks = ["a,b,min_eig,min_eig_pt,negativity,is_state,is_ppt"]
    for j, b in enumerate(grid.b_values.tolist()):
        rows = zip(
            a_text,
            repeat("%.17g" % b),
            grid.min_eig[:, j].tolist(),
            grid.min_eig_pt[:, j].tolist(),
            grid.negativity[:, j].tolist(),
            [flags[c] for c in flag_codes[:, j].tolist()],
        )
        blocks.append("\n".join(["%s,%s,%.17g,%.17g,%.17g,%s" % row for row in rows]))
    blocks.append("")  # trailing newline without copying the joined text
    return "\n".join(blocks)


def contours_to_json(entries) -> str:
    """Serialize contour sets: [{"field":..., "level":..., "polylines":[...]}, ...]."""
    doc = [
        {
            "field": field_name,
            "level": level,
            "polylines": [[[float(a), float(b)] for a, b in line] for line in lines],
        }
        for field_name, level, lines in entries
    ]
    return json.dumps(doc)
