"""2-D affine slices of the state-space body through the maximally mixed state.

A plane is spanned by two traceless, HS-orthonormal Hermitian directions built
from a pair of anchor states by Gram-Schmidt. Scanning a plane evaluates, per
grid cell, the minimal eigenvalue of the matrix and of its partial transpose,
from which the state body, the PPT body, and negativity level sets follow.
The spectra are computed once per ray from I/n, by the paper's similarity law:
I/n + kX has the spectrum 1/n + k spec(X), and so has its partial transpose
with spec(X^PT), so every cell on a ray reads its values off one solve. The
same law puts each contour at a closed-form radius on every ray, so contours
are polylines through exact points, one per angle, not read off the grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import stack_rows
from .projection import above_noise_floor, pt_negativity
from .states import DensityMatrix, partial_transpose

# Most steps per axis of a scan, checked before anything is built. The grid
# and its CSV text take ~256 B per cell: `entgeo scan --plane random:1
# --resolution 1601` with 5 contour levels peaks at 626 MB RSS, the child's
# ru_maxrss (x86-64, NumPy 2.4, OpenBLAS 1 thread). grid_to_csv formats
# blocks of about this many cells.
MAX_RESOLUTION = 1601

# Largest |a| or |b| a scan may reach. Every state lies within HS radius 1 of
# I/n, so wider bounds add only non-states, and near 1e308 the span hi - lo
# overflows.
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


@dataclass(frozen=True)
class ScanGrid:
    """Per-cell fields over a rectangular (a, b) grid; arrays indexed [i_a, i_b]."""

    plane: Plane
    a_values: np.ndarray
    b_values: np.ndarray
    min_eig: np.ndarray
    min_eig_pt: np.ndarray
    negativity: np.ndarray

    @property
    def is_state(self) -> np.ndarray:
        """True where the cell is a state: its least eigenvalue is above the noise floor."""
        return above_noise_floor(self.min_eig)

    @property
    def is_ppt(self) -> np.ndarray:
        """True where the cell is a PPT state: a state whose partial transpose is above the noise floor too."""
        return self.is_state & above_noise_floor(self.min_eig_pt)


def _rays(a_values, b_values):
    """The ray from I/n of every grid cell, and the cell's place on it.

    Cell (i, j) is the point k * (u_a[r // nb], u_b[r % nb]) of the ray with
    integer key r. On a grid symmetric about 0 in both axes (lo = -hi) the
    cell sits at (h_a P, h_b Q) with integer offsets P = 2i - (na - 1) and
    Q = 2j - (nb - 1). Its ray is (P, Q) over their gcd, turned into the upper
    half plane so that a ray and its negative share one solve, and k is the
    gcd, negative where the cell was turned and 0 at the center. On any other
    grid every cell is its own ray, at k = 1.

    Returns u_a, u_b and the flat int32 arrays of ray keys and k, cell (i, j)
    at index i * nb + j.
    """
    na, nb = len(a_values), len(b_values)
    if a_values[0] == -a_values[-1] and b_values[0] == -b_values[-1]:
        p = np.arange(1 - na, na, 2, dtype=np.int32)[:, None]
        q = np.arange(1 - nb, nb, 2, dtype=np.int32)
        gcd = np.gcd(p, q)
        k = np.where((q > 0) | ((q == 0) & (p > 0)), gcd, -gcd)
        unit = np.where(k == 0, 1, k)
        keys = (p // unit + (na - 1)) * nb + q // unit
        u_a = a_values[-1] / (na - 1) * np.arange(1 - na, na)
        u_b = b_values[-1] / (nb - 1) * np.arange(nb)
        return u_a, u_b, keys.ravel(), k.ravel()
    return a_values, b_values, np.arange(na * nb, dtype=np.int32), np.ones(na * nb, dtype=np.int32)


def _spectra(plane, u, v, pt):
    """Ascending spectra of u[i] A1 + v[i] A2, or of their partial transposes, in stacks of stack_rows(n).

    A partial transpose permutes entries, so u A1^PT + v A2^PT has the bits of (u A1 + v A2)^PT.
    """
    f1, f2 = partial_transpose(np.stack([plane.a1, plane.a2]), plane.dims) if pt else (plane.a1, plane.a2)
    rows = stack_rows(plane.n)
    out = np.empty((len(u), plane.n))
    for start in range(0, len(u), rows):
        at = slice(start, start + rows)
        out[at] = np.linalg.eigvalsh(u[at, None, None] * f1 + v[at, None, None] * f2)
    return out


def _on_rays(eigs, eigs_pt, ray, k):
    """min_eig, min_eig_pt and negativity of the points I/n + k X, X the matrix with spectra eigs[ray], eigs_pt[ray]."""
    n = eigs.shape[1]
    # spec(I/n + kX) is 1/n + k spec(X), in reverse order where k < 0
    flip = k < 0
    lam = np.where(flip, eigs[ray, -1], eigs[ray, 0])
    mu = eigs_pt[ray]
    mu[flip] = mu[flip, ::-1]
    d_pt = 1 / n + k[:, None] * mu
    return 1 / n + k * lam, d_pt[:, 0], pt_negativity(d_pt)


def scan_plane(plane: Plane, a_range: tuple[float, float, int], b_range: tuple[float, float, int]) -> ScanGrid:
    """Evaluate the spectral fields over the grid; one solve per ray from I/n, in fixed-size blocks."""
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
    u_a, u_b, keys, scale = _rays(a_values, b_values)
    # the cells sorted by ray: ray[s] is the ray of cells[s], first[r] its first place
    cells = np.argsort(keys)
    keys, scale = keys[cells], scale[cells]
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    ray_keys = keys[new]
    ray = np.cumsum(new, dtype=np.int32) - 1
    first = np.append(np.flatnonzero(new), len(keys))

    # min_eig, min_eig_pt and negativity of every cell
    fields = np.empty((3, na * nb))
    rows = stack_rows(plane.n)
    for start in range(0, len(ray_keys), rows):
        block = ray_keys[start : start + rows]
        u, v = u_a[block // nb], u_b[block % nb]
        eigs, eigs_pt = _spectra(plane, u, v, pt=False), _spectra(plane, u, v, pt=True)
        stop = first[start + len(block)]
        for lo in range(first[start], stop, rows):
            at = slice(lo, min(lo + rows, stop))
            fields[:, cells[at]] = _on_rays(eigs, eigs_pt, ray[at] - start, scale[at])
    return ScanGrid(plane, a_values, b_values, *fields.reshape(3, na, nb))


def boundary_contours(grid: ScanGrid, kind: str, level: float = 0.0):
    """Contour polylines of a scan's plane inside its window, exact at every vertex.

    kind: 'state_boundary' (least eigenvalue 0), 'ppt_boundary' (least PT
    eigenvalue 0, inside the state body), or 'negativity' at the given level.
    Along the ray I/n + rB, B = cos(t) A1 + sin(t) A2, the spectra are
    1/n + r spec(B) and 1/n + r spec(B^PT), so each contour meets the ray once,
    at a closed-form radius; the spectra are solved in stacks of stack_rows(n).
    With m = 2 * (max(na, nb) - 1), the m angles spread over the whole turn
    when I/n is strictly inside the window, else over the window's angular
    extent seen from I/n. The vertices inside the window split into runs; a
    whole turn inside is one closed loop, its first point repeated. Returns a
    list of (k, 2) arrays of (a, b) points, k >= 2.
    """
    if kind not in ("state_boundary", "ppt_boundary", "negativity"):
        raise ValueError(f"unknown contour kind {kind!r}")
    # N - L >= 0 on the whole plane
    if kind == "negativity" and level <= 0:
        return []
    plane, n = grid.plane, grid.plane.n
    lo = np.array([grid.a_values[0], grid.b_values[0]])
    hi = np.array([grid.a_values[-1], grid.b_values[-1]])
    m = 2 * (max(len(grid.a_values), len(grid.b_values)) - 1)
    whole_turn = (lo < 0).all() and (hi > 0).all()
    if whole_turn:
        theta = np.arange(m) * (2 * np.pi / m)
    else:
        # at most half a turn about I/n: measure the corners from the center's angle; a corner at I/n
        # has no direction, and arctan2(0, 0) = 0 would widen the range
        mid = np.arctan2(lo[1] + hi[1], lo[0] + hi[0])
        corners = np.array([(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) if x or y])
        turn = np.angle(np.exp(1j * (np.arctan2(corners[:, 1], corners[:, 0]) - mid)))
        theta = mid + np.linspace(turn.min(), turn.max(), m)
    rays = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # B and B^PT are traceless and nonzero: their least eigenvalue is negative
    if kind != "negativity":
        r_state = -1 / (n * _spectra(plane, *rays.T, pt=False)[:, 0])
    if kind == "state_boundary":
        r = r_state
    else:
        mu = _spectra(plane, *rays.T, pt=True)
        if kind == "ppt_boundary":
            r = -1 / (n * mu[:, 0])
        else:
            # with j negative PT eigenvalues N = -2 sum_{i<j} (1/n + r mu_i); N is the
            # largest of these lines over j, so it first reaches the level at their least root
            with np.errstate(divide="ignore"):
                roots = (level / 2 + np.arange(1, n + 1) / n) / np.maximum(-np.cumsum(mu, axis=1), 0)
            r = roots.min(axis=1)
    pts = r[:, None] * rays
    inside = ((pts >= lo) & (pts <= hi)).all(axis=1)
    if kind == "ppt_boundary":
        inside &= r <= r_state
    if whole_turn:
        if inside.all():
            return [np.vstack([pts, pts[:1]])]
        # start at an outside angle, so that no arc is cut at theta = 0
        start = np.argmin(inside)
        pts, inside = np.roll(pts, -start, axis=0), np.roll(inside, -start)
    # runs of inside points start and stop where the padded mask flips
    flips = np.flatnonzero(np.diff(np.concatenate(([False], inside, [False]))))
    return [pts[start:stop] for start, stop in zip(flips[::2].tolist(), flips[1::2].tolist()) if stop - start >= 2]


# ---------------------------------------------------------------------------
# Export formats


def _g17_fields(x, quads, ends):
    """',' and '%.17g' of each float in x, as rows of 25 ASCII bytes padded with NUL.

    Zeros and |x| in [1e-4, 1e17), where '%.17g' writes fixed notation, are
    formatted here. With E = floor(log10 |x|), x * 10^(16 - E) is formed
    exactly as hi + lo by Dekker's two-product (10^k is a double up to
    k = 22), and rounded half to even to 17 digits. The values are sorted by
    E and by the last digit they write, so that each layout is one slice of
    rows: the lead (NUL padding, ',', the sign and any "0.000"), then the
    digits, with a '.' after the integer ones if a nonzero digit follows.
    Any other value is formatted by '%.17g' itself. quads[k] holds the 4
    ASCII digits of k < 10^4, and ends[k] the place of its last nonzero
    digit, or -17 for k = 0.
    """
    tens = np.array([float(f"1e{k}") for k in range(-4, 21)])  # tens[k + 4] == 10^k
    ax = np.abs(x)
    zero = ax == 0
    fast = zero | (ax >= 1e-4) & (ax < 1e17)
    # laid out as 1 (E = 0), then overwritten
    ax[zero | ~fast] = 1.0
    # the doubles nearest 1e-3, 1e-2 and 1e-1 lie above those powers, so
    # comparing against the doubles gives floor(log10 |x|) exactly
    exp = np.searchsorted(tens[1:21], ax, side="right") - 4
    scale = tens[20 - exp]
    hi = ax * scale
    a1 = 134217729.0 * ax  # Veltkamp split at 2^27 + 1
    a1 -= a1 - ax
    a2 = ax - a1
    b1 = 134217729.0 * scale
    b1 -= b1 - scale
    b2 = scale - b1
    lo = a2 * b2 - (((hi - a1 * b1) - a2 * b1) - a1 * b2)
    # hi >= 1e16 > 2^53 is an even integer, so rounding lo half to even rounds
    # hi + lo. It never rounds up to 10^17: the double below each 10^(E + 1)
    # is more than 8 units of the 17th digit below it.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    n[zero] = 0

    # the 17 digits in 4-digit chunks, the first "000d"
    chunks = np.empty((5, len(x)), dtype=np.intp)
    for k in (4, 3, 2, 1):
        top = n // 10**4
        chunks[k] = n - 10**4 * top
        n = top
    chunks[0] = n
    # the last digit written: the last nonzero one, or the last integer one
    last = np.maximum((ends[chunks] + np.array([[-3], [1], [5], [9], [13]], dtype=np.int8)).max(axis=0), exp)
    layout = (exp + 4) * 17 + last
    order = np.argsort(layout.astype(np.int16), kind="stable")
    digits = np.ascontiguousarray(quads[chunks].T).view("V20")[order].view(np.uint8)[:, 3:]
    leads = [b"," + sign + zeros for sign in (b"", b"-") for zeros in (b"", b"0.", b"0.0", b"0.00", b"0.000")]
    leads = np.array([lead.rjust(7, b"\0") for lead in leads])[5 * np.signbit(x) + np.clip(-exp, 0, 4)]
    text = np.zeros((len(x), 25), dtype=np.uint8)
    text[:, :7] = leads[order, None].view(np.uint8)
    counts = np.bincount(layout)
    stops = np.cumsum(counts)
    for key in np.flatnonzero(counts).tolist():
        rows = slice(stops[key] - counts[key], stops[key])
        e, end = divmod(key, 17)
        e -= 4
        if e < 0 or end == e:
            text[rows, 7 : 8 + end] = digits[rows, : end + 1]
        else:
            text[rows, 7 : 8 + e] = digits[rows, : e + 1]
            text[rows, 8 + e] = ord(".")
            text[rows, 9 + e : 9 + end] = digits[rows, e + 1 : end + 1]
    out = np.empty_like(text)
    out.view("V25")[order] = text.view("V25")
    slow = ~fast
    if slow.any():
        out[slow] = np.array([b",%.17g" % v for v in x[slow].tolist()], dtype="S25")[:, None].view(np.uint8)
    return out


def grid_to_csv(grid: ScanGrid) -> str:
    """CSV of the grid: one row per cell, b outer / a inner, '%.17g' numbers.

    The rows are built in blocks of whole b columns, each block about
    MAX_RESOLUTION cells or one column. A block is laid out as byte rows
    padded with NUL, then squeezed to text; no Python object is made per cell.
    """
    na = len(grid.a_values)
    a_text = np.array([b"%.17g" % x for x in grid.a_values.tolist()])[:, None].view(np.uint8)
    b_text = np.array([b",%.17g" % x for x in grid.b_values.tolist()])[:, None, None].view(np.uint8)
    flags = np.array([b",0,0\n", b",0,1\n", b",1,0\n", b",1,1\n"])[2 * grid.is_state.astype(np.intp) + grid.is_ppt]
    flags = np.ascontiguousarray(flags.T)[..., None].view(np.uint8)
    digits = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    quads = digits.view(np.uint32)[:, 0]
    ends = (3 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)).astype(np.int8)
    ends[0] = -17
    edges = np.cumsum([0, a_text.shape[-1], b_text.shape[-1], 3 * 25, 5])
    blocks = ["a,b,min_eig,min_eig_pt,negativity,is_state,is_ppt\n"]
    step = max(1, MAX_RESOLUTION // na)
    for j in range(0, len(b_text), step):
        cols = slice(j, j + step)
        fields = np.stack([grid.min_eig[:, cols].T, grid.min_eig_pt[:, cols].T, grid.negativity[:, cols].T], axis=-1)
        rows = np.empty(fields.shape[:2] + (edges[-1],), dtype=np.uint8)
        rows[..., edges[0] : edges[1]] = a_text
        rows[..., edges[1] : edges[2]] = b_text[cols]
        rows[..., edges[2] : edges[3]] = _g17_fields(fields.ravel(), quads, ends).reshape(len(fields), na, -1)
        rows[..., edges[3] : edges[4]] = flags[cols]
        blocks.append(rows[rows != 0].tobytes().decode("ascii"))
    return "".join(blocks)


def contours_to_json(entries) -> str:
    """Serialize contour sets: [{"field":..., "level":..., "polylines":[...]}, ...]."""
    doc = [
        {
            "field": field_name,
            "level": level,
            "polylines": [line.tolist() for line in lines],
        }
        for field_name, level, lines in entries
    ]
    return json.dumps(doc)
