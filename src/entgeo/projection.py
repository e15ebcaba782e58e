"""Projection of a partially transposed state onto the trace-1 PSD cone.

Implements the three-step closest-partially-transposed-state algorithm
(eigendecompose rho^PT, project the spectrum onto the probability simplex,
undo the partial transpose). The ascending PT spectrum of step 1 is the one
spectral core: negativity, robustness against mixing with the identity and
the two-qubit closed-form distance are pure functions of it.

Tolerance policy: inputs may be off Hermitian, unit trace and PSD by
``linalg.DEFAULT_TOL`` (1e-9). ``PPT_EIG_TOL`` (1e-10) is the eigensolver
noise floor of the one predicate :func:`above_noise_floor`: a least eigenvalue
>= -1e-10 counts as PSD, for PT spectra (PPT; robustness, two-qubit negativity
and distance read 0) and scan cells (``ScanGrid.is_state``, ``is_ppt``). rho_s
is positive at >= -``PSD_REPORT_TOL`` (1e-9), borderline in [-1e-9, 0). Contour
points whose interpolated least eigenvalue is >= -1e-6 are in the state body;
crossings equal to ``geometry._NODE_DECIMALS`` (9) decimals are one node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EigenDecomposition, eig_hermitian, hs_norm
from .states import DensityMatrix, partial_transpose

PPT_EIG_TOL = 1e-10
PSD_REPORT_TOL = 1e-9


def above_noise_floor(min_eig):
    """True where a least eigenvalue counts as PSD: >= -PPT_EIG_TOL, elementwise."""
    return np.asarray(min_eig) >= -PPT_EIG_TOL


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
    rank: int                    # size of the support
    distance_exact: float
    distance_closed_form: float
    pt_spectrum: np.ndarray      # eigenvalues of rho^PT, ascending
    rho_s_min_eig: float         # least eigenvalue of closest_pt_state
    rho_s_is_positive: bool

    @property
    def d_min(self) -> float:
        return float(self.pt_spectrum[0])


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


def distance_closed_form(d, kept):
    """Spectral distance formula sqrt((sum_{Ip} d + sum_{In} d)^2/n_p + sum_{In} d^2), along the last axis.

    I_n are the negative eigenvalue indices, I_p the dropped nonnegative ones,
    n_p the kept count; ``kept`` is a support mask of ``d``'s shape or one
    spectrum's index tuple, as from :func:`project_simplex_psd`. Exact whenever
    every dropped nonnegative eigenvalue is zero; for strictly positive ones it
    omits their quadratic residual and slightly undershoots ``distance_exact``.
    """
    d = np.asarray(d, dtype=float)
    kept = np.asarray(kept)
    if kept.dtype != bool:
        kept = (np.arange(d.shape[-1])[:, None] == kept).any(axis=-1)
    n_p = kept.sum(axis=-1)
    if (n_p == 0).any():
        raise ValueError("kept set is empty")
    neg = np.minimum(d, 0.0)
    dropped_pos = np.where(~kept & (d >= 0), d, 0.0)
    s = np.cumsum(dropped_pos, axis=-1)[..., -1] + np.cumsum(neg, axis=-1)[..., -1]
    return np.sqrt(s * s / n_p + np.cumsum(neg * neg, axis=-1)[..., -1])


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

    @property
    def rho_s_is_positive(self) -> np.ndarray:
        return self.rho_s_min_eig >= -PSD_REPORT_TOL


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
    return ProjectionResult(
        closest_pt_state=res.rho_s[0],
        e_squared=np.sort(res.e2[0])[::-1],
        lam=float(res.lam[0]),
        kept_indices=tuple(np.flatnonzero(res.kept[0]).tolist()),
        rank=int(res.rank[0]),
        distance_exact=hs_norm(rho.matrix - res.rho_s[0]),
        distance_closed_form=float(distance_closed_form(res.d[0], res.kept[0])),
        pt_spectrum=res.d[0],
        rho_s_min_eig=float(res.rho_s_min_eig[0]),
        rho_s_is_positive=bool(res.rho_s_is_positive[0]),
    )


def pt_negativity(d, dims=None):
    """Negativity of ascending PT spectra ``d`` (..., n); the one place its convention is set.

    dims (2, 2): the paper's 2|d_min|, 0 above the noise floor. Other or no
    dims: Vidal and Werner's sum of |negative eigenvalues| in ascending order,
    no floor, +0 if there are none. One convention for every dims is planned.
    """
    d = np.asarray(d, dtype=float)
    if dims == (2, 2):
        return np.where(above_noise_floor(d[..., 0]), 0.0, -2.0 * d[..., 0])
    return np.cumsum(np.maximum(-d, 0.0), axis=-1)[..., -1]


def pt_robustness(d):
    """Minimal t with (1-t) rho^PT + (t/n) I PSD, from ascending PT spectra ``d`` (..., n).

    Equals |d_min| / (|d_min| + 1/n) for NPT spectra, 0 for PPT ones; at the
    returned t the mixture's min eigenvalue is 0.
    """
    d = np.asarray(d, dtype=float)
    neg = -d[..., 0]
    return np.divide(neg, neg + 1.0 / d.shape[-1], out=np.zeros_like(neg), where=~above_noise_floor(d[..., 0]))


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
    return float(pt_robustness(_pt_spectrum(rho)))


def two_qubit_distance(rho: DensityMatrix) -> tuple[float, bool]:
    """Two-qubit distance (2/sqrt(3))|d_min| and whether the formula is exact.

    The closed form holds exactly when the projected spectrum has rank 3;
    ``formula_applies`` reports that condition.
    """
    if rho.dims != (2, 2):
        raise ValueError("two_qubit_distance requires dims (2,2)")
    d = _pt_spectrum(rho)
    if above_noise_floor(d[0]):
        return 0.0, True
    return float(2.0 / np.sqrt(3.0) * -d[0]), len(project_simplex_psd(d)[2]) == 3
