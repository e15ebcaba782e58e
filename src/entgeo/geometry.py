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

from .linalg import hs_inner, hs_norm
from .projection import above_noise_floor, pt_negativity
from .states import DensityMatrix, partial_transpose

# Cells per batched eigensolve in scan_plane; bounds the complex matrix stacks
# to a few MB whatever the resolution. eigvalsh works matrix by matrix, so the
# block size does not change any value.
_SCAN_BLOCK = 16384


@dataclass(frozen=True)
class Plane:
    """An affine 2-plane through I/n with an HS-orthonormal traceless frame.

    The anchors satisfy rho_i = I/n + a*A1 + b*A2 for some coordinates (a, b),
    so HS distances in the plane equal Euclidean distances in (a, b).
    """

    n: int
    anchor1: DensityMatrix
    anchor2: DensityMatrix
    a1: np.ndarray
    a2: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return self.anchor1.dims

    def coordinates_of(self, m: np.ndarray) -> tuple[float, float]:
        """(a, b) frame coordinates of a matrix (its in-plane component)."""
        centered = m - np.eye(self.n) / self.n
        return (
            float(hs_inner(self.a1, centered).real),
            float(hs_inner(self.a2, centered).real),
        )


def build_plane(rho1: DensityMatrix, rho2: DensityMatrix) -> Plane:
    """Gram-Schmidt frame for the plane spanned by I/n, rho1, rho2."""
    if rho1.dim != rho2.dim:
        raise ValueError("anchors must share the total dimension")
    n = rho1.dim
    center = np.eye(n) / n
    v1 = rho1.matrix - center
    norm1 = hs_norm(v1)
    if norm1 < 1e-12:
        raise ValueError("first anchor coincides with the maximally mixed state")
    a1 = v1 / norm1
    v2 = rho2.matrix - center
    v2 = v2 - hs_inner(a1, v2) * a1
    norm2 = hs_norm(v2)
    if norm2 < 1e-12:
        raise ValueError("anchors are linearly dependent around I/n (degenerate plane)")
    a2 = v2 / norm2
    return Plane(n=n, anchor1=rho1, anchor2=rho2, a1=a1, a2=a2)


def state_at(plane: Plane, a: float, b: float) -> np.ndarray:
    """The plane point I/n + a*A1 + b*A2 (Hermitian, trace 1; PSD not guaranteed)."""
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

    @property
    def cell_size(self) -> float:
        da = float(self.a_values[1] - self.a_values[0])
        db = float(self.b_values[1] - self.b_values[0])
        return max(da, db)


def _scan_block(plane: Plane, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = plane.n
    ms = (
        np.eye(n) / n
        + pts[:, 0, None, None] * plane.a1
        + pts[:, 1, None, None] * plane.a2
    )
    eigs = np.linalg.eigvalsh(ms)
    eigs_pt = np.linalg.eigvalsh(partial_transpose(ms, "B", plane.dims))
    return eigs[:, 0], eigs_pt[:, 0], pt_negativity(eigs_pt, plane.dims)


def scan_plane(plane: Plane, a_range: tuple[float, float, int], b_range: tuple[float, float, int]) -> ScanGrid:
    """Evaluate the spectral fields over the grid; deterministic, in fixed-size blocks."""
    a_min, a_max, na = a_range
    b_min, b_max, nb = b_range
    if na < 2 or nb < 2:
        raise ValueError("need at least 2 steps per axis")
    if not (np.isfinite([a_min, a_max, b_min, b_max]).all() and a_min < a_max and b_min < b_max):
        raise ValueError(f"axis ranges need finite bounds with lo < hi, got {a_min}:{a_max}, {b_min}:{b_max}")
    a_values = np.linspace(a_min, a_max, na)
    b_values = np.linspace(b_min, b_max, nb)
    aa, bb = np.meshgrid(a_values, b_values, indexing="ij")
    pts = np.stack([aa.ravel(), bb.ravel()], axis=1)

    min_eig = np.empty(len(pts))
    min_eig_pt = np.empty(len(pts))
    neg = np.empty(len(pts))
    for start in range(0, len(pts), _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
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

# Crossings closer than this many decimals are one node: they meet when a
# contour passes through a grid node, where the two cells' interpolations
# differ only by rounding.
_NODE_DECIMALS = 9

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

    Corner signs pick one of 16 cases; crossings are placed by linear
    interpolation along cell edges; the two saddle cases are disambiguated by
    the cell-center average. Segments are chained into ordered polylines.
    Only the cells the contour crosses are visited, in row-major order.
    """
    a_values = np.asarray(a_values, dtype=float)
    b_values = np.asarray(b_values, dtype=float)
    f = np.asarray(f, dtype=float)
    # corner k of cell (i, j): (i, j), (i+1, j), (i+1, j+1), (i, j+1)
    corners = (f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:])
    case = sum((c >= 0).astype(np.intp) << k for k, c in enumerate(corners))
    ii, jj = np.nonzero((case != 0) & (case != 15))
    if len(ii) == 0:
        return []
    case = case[ii, jj]
    vals = [c[ii, jj] for c in corners]
    xs = (a_values[ii], a_values[ii + 1], a_values[ii + 1], a_values[ii])
    ys = (b_values[jj], b_values[jj], b_values[jj + 1], b_values[jj + 1])

    # crossing point on every edge of every active cell; only the edges whose
    # ends differ in sign are used below
    points = np.empty((4, len(ii), 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(4):
            k1 = (k + 1) % 4
            t = vals[k] / (vals[k] - vals[k1])
            points[k, :, 0] = xs[k] + t * (xs[k1] - xs[k])
            points[k, :, 1] = ys[k] + t * (ys[k1] - ys[k])
    # numpy's rounding of float64, not Python's round() of floats: the two
    # disagree on near-ties, which would change which crossings are joined
    keys = np.round(points, _NODE_DECIMALS)

    # up to two segments per cell, as (edge, edge) pairs
    edges = np.zeros((len(ii), 2, 2), dtype=np.intp)
    edges[:, 0] = _CASE_EDGES[case]
    saddle = (case == 5) | (case == 10)
    center_pos = (((vals[0] + vals[1]) + vals[2]) + vals[3]) / 4 >= 0
    # pair crossings so the positive region stays connected iff the center
    # sample is positive
    joined = (case == 5) == center_pos
    edges[saddle, 0] = np.where(joined[saddle, None], [0, 1], [0, 3])
    edges[saddle, 1] = np.where(joined[saddle, None], [2, 3], [1, 2])
    present = np.zeros((len(ii), 2), dtype=bool)
    present[:, 0] = True
    present[:, 1] = saddle

    cell = np.arange(len(ii))[:, None, None]
    seg_keys = keys[edges, cell]  # (cells, 2 slots, 2 ends, 2 coords)
    # crossings on a shared grid node degenerate
    present &= np.any(seg_keys[:, :, 0] != seg_keys[:, :, 1], axis=-1)
    return _chain_segments(points[edges, cell][present], seg_keys[present])


def _chain_segments(ends, keys):
    """Join shared-endpoint segments into polylines (closed loops or open arcs).

    ends[s] holds the two endpoints of segment s and keys[s] the same points
    rounded to _NODE_DECIMALS; endpoints with equal keys are joined.
    """
    if len(ends) == 0:
        return []
    ends = ends.tolist()
    keys = [tuple(map(tuple, k)) for k in keys.tolist()]
    adjacency: dict[tuple, list] = {}
    for idx, (kp, kq) in enumerate(keys):
        adjacency.setdefault(kp, []).append((idx, 1))
        adjacency.setdefault(kq, []).append((idx, 0))

    used = [False] * len(ends)
    polylines = []

    def walk(start_pt, start_key):
        line = [start_pt]
        cur = start_key
        while True:
            nxt = None
            for idx, end in adjacency.get(cur, ()):
                if not used[idx]:
                    used[idx] = True
                    nxt = idx, end
                    break
            if nxt is None:
                return line
            line.append(ends[nxt[0]][nxt[1]])
            cur = keys[nxt[0]][nxt[1]]

    # open chains first: start from endpoints of odd degree, at the rounded
    # node itself
    endpoints = [p for p, links in adjacency.items() if len(links) % 2 == 1]
    for ep in endpoints:
        if any(not used[idx] for idx, _ in adjacency[ep]):
            polylines.append(walk(ep, tuple(np.round(ep, _NODE_DECIMALS).tolist())))
    # remaining are closed loops
    for idx, (p, q) in enumerate(ends):
        if not used[idx]:
            used[idx] = True
            line = [p, q]
            rest = walk(q, keys[idx][1])
            line.extend(rest[1:])
            polylines.append(line)
    return [np.array(line) for line in polylines if len(line) >= 2]


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


def _bilinear(grid: ScanGrid, f: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a grid field at arrays of (a, b) points."""
    ia = np.clip(np.searchsorted(grid.a_values, a) - 1, 0, len(grid.a_values) - 2)
    ib = np.clip(np.searchsorted(grid.b_values, b) - 1, 0, len(grid.b_values) - 2)
    ta = (a - grid.a_values[ia]) / (grid.a_values[ia + 1] - grid.a_values[ia])
    tb = (b - grid.b_values[ib]) / (grid.b_values[ib + 1] - grid.b_values[ib])
    return (
        f[ia, ib] * (1 - ta) * (1 - tb)
        + f[ia + 1, ib] * ta * (1 - tb)
        + f[ia, ib + 1] * (1 - ta) * tb
        + f[ia + 1, ib + 1] * ta * tb
    )


def _in_state_body(grid: ScanGrid, pts: np.ndarray, slack: float) -> np.ndarray:
    return _bilinear(grid, grid.min_eig, pts[:, 0], pts[:, 1]) >= -slack


def _restrict_to_state_body(grid: ScanGrid, lines, slack: float = 1e-6):
    """Keep only polyline points inside the state body, splitting where cut."""
    out = []
    for line in lines:
        inside = np.concatenate(([False], _in_state_body(grid, line, slack), [False]))
        # runs of inside points start and stop where the padded mask flips
        flips = np.flatnonzero(inside[1:] != inside[:-1])
        for start, stop in zip(flips[::2].tolist(), flips[1::2].tolist()):
            if stop - start >= 2:
                out.append(line[start:stop])
    return out


def points_in_state_body(grid: ScanGrid, points, slack: float = 1e-6) -> np.ndarray:
    """Subset of (a, b) points whose interpolated min eigenvalue is nonnegative."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return pts[_in_state_body(grid, pts, slack)]


def radial_similarity_residual(grid: ScanGrid, level: float) -> float:
    """Worst radial misfit between a negativity contour and the scaled PPT boundary.

    Along any ray from I/n the PT spectrum is affine, so the negativity-N level
    set sits at radius r0(theta) * (1 + n*N/2) where r0 is the PPT boundary
    radius. Returns max |r - predicted| over in-body contour points (0.0 if
    either contour is empty).
    """
    boundary = boundary_contours(grid, "ppt_boundary")
    contour = boundary_contours(grid, "negativity", level)
    if not boundary or not contour:
        return 0.0
    pts = points_in_state_body(grid, np.vstack(contour))
    if len(pts) == 0:
        return 0.0
    bpts = np.vstack(boundary)
    bth = np.arctan2(bpts[:, 1], bpts[:, 0])
    br = np.hypot(bpts[:, 0], bpts[:, 1])
    order = np.argsort(bth)
    bth, br = bth[order], br[order]
    th = np.arctan2(pts[:, 1], pts[:, 0])
    r = np.hypot(pts[:, 0], pts[:, 1])
    r0 = np.interp(th, bth, br, period=2 * np.pi)
    predicted = r0 * (1.0 + grid.plane.n * level / 2.0)
    return float(np.max(np.abs(r - predicted)))


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
