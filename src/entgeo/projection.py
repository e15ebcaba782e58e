"""Projection of a partially transposed state onto the trace-1 PSD cone.

Implements the three-step closest-partially-transposed-state algorithm
(eigendecompose rho^PT, project the spectrum onto the probability simplex,
undo the partial transpose). The ascending PT spectrum of step 1 is the one
spectral core: negativity, robustness against mixing with the identity and
the two-qubit closed-form distance are pure functions of it.

Tolerance policy: inputs may be off Hermitian, unit trace and PSD by
``linalg.DEFAULT_TOL`` (1e-9). ``PPT_EIG_TOL`` (1e-10) is the eigensolver
noise floor: a least eigenvalue >= -1e-10 counts as PSD, for PT spectra
(robustness, two-qubit negativity and distance read 0) and for scan cells
(``ScanGrid.is_state``, ``is_ppt``). rho_s is positive at >= -``PSD_REPORT_TOL``
(1e-9), borderline in [-1e-9, 0). Contour points whose interpolated least
eigenvalue is >= -1e-6 are in the state body; contour crossings equal to
``geometry._NODE_DECIMALS`` (9) decimals are one node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EigenDecomposition, eig_hermitian, hs_norm
from .states import DensityMatrix, partial_transpose

PPT_EIG_TOL = 1e-10
PSD_REPORT_TOL = 1e-9


@dataclass(frozen=True)
class ProjectionResult:
    """Closest partially transposed state plus all diagnostics.

    ``closest_pt_state`` is trace-1 Hermitian but not necessarily PSD; when
    ``rho_s_is_positive`` it is the closest PPT state outright, otherwise
    ``distance_exact`` is a lower bound on the distance to the PPT set.
    """

    closest_pt_state: np.ndarray
    e_squared: np.ndarray        # simplex-projected PT spectrum, descending
    lam: float                   # Lagrange shift
    kept_indices: tuple[int, ...]  # support w.r.t. the ascending PT spectrum
    distance_exact: float
    distance_closed_form: float
    pt_spectrum: np.ndarray      # eigenvalues of rho^PT, ascending
    rho_s_min_eig: float         # least eigenvalue of closest_pt_state

    @property
    def rank(self) -> int:
        return len(self.kept_indices)

    @property
    def d_min(self) -> float:
        return float(self.pt_spectrum[0])

    @property
    def rho_s_is_positive(self) -> bool:
        return bool(self.rho_s_min_eig >= -PSD_REPORT_TOL)


def project_simplex_psd(d, trace_target: float = 1.0):
    """Euclidean projection of spectra onto {x >= 0, sum x = trace_target}, along the last axis.

    Returns (e_squared, lam, kept) with e2_i = max(d_i + lam, 0) and lam the
    unique shift normalizing the sum. Sort-and-scan, exact in one pass: lam
    comes from the largest k with ds_k + (trace_target - sum_{j<=k} ds_j)/k > 0
    over the descending spectrum ds (Duchi et al. 2008; Condat 2016); ties
    d_i + lam == 0 resolve to the zero branch. For one spectrum lam is a float
    and kept the ascending tuple of support indices; for a (..., n) stack lam
    is an array and kept a boolean support mask of the spectra's shape.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(d).all() or trace_target <= 0:
        raise ValueError("spectrum must be finite and trace_target > 0")
    n = d.shape[-1]
    flat = d.reshape(-1, n)
    rows = np.arange(len(flat))
    order = np.argsort(flat, axis=1)[:, ::-1]  # descending
    ds = flat[rows[:, None], order]
    cand = (trace_target - np.cumsum(ds, axis=1)) / np.arange(1, n + 1)
    holds = ds + cand > 0
    # the last k where the condition holds; if it holds nowhere, lam = 0 and
    # one index is kept
    last = n - np.argmax(holds[:, ::-1], axis=1)
    found = holds[rows, last - 1]
    lam = np.where(found, cand[rows, last - 1], 0.0)
    n_keep = np.where(found, last, 1)
    shifted = flat + lam[:, None]
    e2 = np.maximum(shifted, 0.0)
    e2[shifted <= 0] = 0.0
    kept = np.zeros(flat.shape, dtype=bool)
    kept[rows[:, None], order] = np.arange(n) < n_keep[:, None]
    if d.ndim == 1:
        return e2[0], float(lam[0]), tuple(np.flatnonzero(kept).tolist())
    return e2.reshape(d.shape), lam.reshape(d.shape[:-1]), kept.reshape(d.shape)


def distance_closed_form(d, kept) -> float:
    """Spectral distance formula sqrt((sum_{Ip} d + sum_{In} d)^2/n_p + sum_{In} d^2).

    I_n are the negative eigenvalue indices, I_p the dropped nonnegative ones,
    n_p the kept count. Exact whenever every dropped nonnegative eigenvalue is
    zero; for strictly positive dropped eigenvalues it omits their quadratic
    residual and slightly undershoots ``distance_exact``.
    """
    d = np.asarray(d, dtype=float)
    kept = set(kept)
    n_p = len(kept)
    if n_p == 0:
        raise ValueError("kept set is empty")
    neg = [x for i, x in enumerate(d) if x < 0]
    dropped_pos = [x for i, x in enumerate(d) if i not in kept and x >= 0]
    s = sum(dropped_pos) + sum(neg)
    return float(np.sqrt(s * s / n_p + sum(x * x for x in neg)))


@dataclass(frozen=True)
class ProjectionBatch:
    """Per-state projection arrays for a stack of states, one row per state.

    ``d`` is the ascending PT spectrum, ``e2`` the simplex-projected spectrum
    in the same eigenbasis order, ``kept`` its support mask, and ``rho_s`` the
    closest partially transposed states with their min eigenvalues.
    """

    d: np.ndarray
    e2: np.ndarray
    lam: np.ndarray
    kept: np.ndarray
    rho_s: np.ndarray
    rho_s_min_eig: np.ndarray

    @property
    def rank(self) -> np.ndarray:
        return self.kept.sum(axis=-1)


def project_pt_spectra(pt: EigenDecomposition, dims: tuple[int, int], subsystem: str = "B") -> ProjectionBatch:
    """Steps 2 and 3 of the projection for a stack of decomposed partial transposes.

    Simplex-project each PT spectrum, rebuild sigma* = U E^2 U^dagger, map it
    back through the PT and take the min eigenvalue of the result.
    """
    e2, lam, kept = project_simplex_psd(pt.eigenvalues)
    rho_s = partial_transpose(pt.rebuild(e2), subsystem, dims)
    return ProjectionBatch(
        d=pt.eigenvalues,
        e2=e2,
        lam=lam,
        kept=kept,
        rho_s=rho_s,
        rho_s_min_eig=eig_hermitian(rho_s, PSD_REPORT_TOL).eigenvalues[..., 0],
    )


def closest_pt_states(rhos, dims: tuple[int, int], subsystem: str = "B") -> ProjectionBatch:
    """Closest partially transposed states for a (k, n, n) stack of states."""
    return project_pt_spectra(eig_hermitian(partial_transpose(rhos, subsystem, dims)), dims, subsystem)


def closest_pt_state(rho: DensityMatrix, subsystem: str = "B") -> ProjectionResult:
    """Project rho^PT onto the trace-1 PSD cone and map back through the PT.

    Steps: eigendecompose rho^PT = U D U^dagger, simplex-project D into E^2,
    reconstruct sigma* = U E^2 U^dagger, return rho_s = (sigma*)^PT. The
    one-state case of :func:`closest_pt_states`.
    """
    res = closest_pt_states(rho.matrix[None], rho.dims, subsystem)
    d = res.d[0]
    rho_s = res.rho_s[0]
    kept = tuple(np.flatnonzero(res.kept[0]).tolist())
    return ProjectionResult(
        closest_pt_state=rho_s,
        e_squared=np.sort(res.e2[0])[::-1],
        lam=float(res.lam[0]),
        kept_indices=kept,
        distance_exact=hs_norm(rho.matrix - rho_s),
        distance_closed_form=distance_closed_form(d, kept),
        pt_spectrum=d,
        rho_s_min_eig=float(res.rho_s_min_eig[0]),
    )


def pt_negativity(d, dims=None):
    """Negativity of ascending PT spectra ``d`` (..., n); the one place its convention is set.

    dims (2, 2): the paper's 2|d_min|, 0 where d_min >= -PPT_EIG_TOL. Other or
    no dims: Vidal and Werner's sum of |negative eigenvalues|, added in
    ascending order, no floor. One convention for every dims is planned.
    """
    d = np.asarray(d, dtype=float)
    if dims == (2, 2):
        return np.where(d[..., 0] < -PPT_EIG_TOL, -2.0 * d[..., 0], 0.0)
    return -np.cumsum(np.minimum(d, 0.0), axis=-1)[..., -1]


def pt_robustness(d) -> float:
    """Minimal t with (1-t) rho^PT + (t/n) I PSD, from the ascending PT spectrum ``d``.

    Equals |d_min| / (|d_min| + 1/n) for NPT spectra, 0 for PPT ones; at the
    returned t the mixture's min eigenvalue is 0.
    """
    neg = -float(d[0])
    return neg / (neg + 1.0 / len(d)) if neg > PPT_EIG_TOL else 0.0


def _pt_spectrum(rho: DensityMatrix) -> np.ndarray:
    return eig_hermitian(partial_transpose(rho, "B")).eigenvalues


def general_negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of rho^PT; any bipartition."""
    return float(pt_negativity(_pt_spectrum(rho)))


def negativity(rho: DensityMatrix) -> float:
    """Two-qubit negativity N = 2|d_min|, zero for PPT states."""
    if rho.dims != (2, 2):
        raise ValueError("negativity is defined for dims (2,2); use general_negativity")
    return float(pt_negativity(_pt_spectrum(rho), rho.dims))


def robustness_to_identity(rho: DensityMatrix) -> float:
    """Minimal t with (1-t) rho^PT + (t/n) I positive semidefinite; see :func:`pt_robustness`."""
    return pt_robustness(_pt_spectrum(rho))


def two_qubit_distance(rho: DensityMatrix) -> tuple[float, bool]:
    """Two-qubit distance (2/sqrt(3))|d_min| and whether the formula is exact.

    The closed form holds exactly when the projected spectrum has rank 3;
    ``formula_applies`` reports that condition.
    """
    if rho.dims != (2, 2):
        raise ValueError("two_qubit_distance requires dims (2,2)")
    d = _pt_spectrum(rho)
    if d[0] >= -PPT_EIG_TOL:
        return 0.0, True
    return float(2.0 / np.sqrt(3.0) * -d[0]), len(project_simplex_psd(d)[2]) == 3
