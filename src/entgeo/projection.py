"""Projection of a partially transposed state onto the trace-1 PSD cone.

Implements the three-step closest-partially-transposed-state algorithm
(eigendecompose rho^PT, project the spectrum onto the probability simplex,
undo the partial transpose). The ascending PT spectrum of step 1 is the one
spectral core: the negativity (:func:`pt_negativity`), the robustness against
mixing with the identity (:func:`pt_robustness`) and the closed-form distance
(:func:`distance_closed_form`) are pure functions of it. The PT is over B;
over A all agree: sigma^{T_A} = (sigma^T)^{T_B}, and sigma^T is a state.

Tolerance policy: inputs may be off Hermitian, unit trace and PSD by
``linalg.DEFAULT_TOL`` (1e-9), and rho_s is positive by the same rule: at
>= -1e-9, borderline in [-1e-9, 0). ``PPT_EIG_TOL`` (1e-10) is the eigensolver
noise floor of the one predicate :func:`above_noise_floor`: a least eigenvalue
>= -1e-10 counts as PSD, for PT spectra (PPT; the negativity and the
robustness read 0) and scan cells (``ScanGrid.is_state``, ``is_ppt``). Contour
points whose interpolated least eigenvalue is >= -``STATE_BODY_SLACK`` (1e-6)
are in the state body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, eig_hermitian
from .states import partial_transpose

PPT_EIG_TOL = 1e-10
STATE_BODY_SLACK = 1e-6


def above_noise_floor(min_eig):
    """True where a least eigenvalue counts as PSD: >= -PPT_EIG_TOL, elementwise."""
    return np.asarray(min_eig) >= -PPT_EIG_TOL


def project_simplex_psd(d):
    """Euclidean projection of spectra onto the probability simplex {x >= 0, sum x = 1}, along the last axis.

    Returns (e_squared, lam, kept) with e2_i = max(d_i + lam, 0) and lam the
    unique shift normalizing the sum. Sort-and-scan, exact in one pass: lam
    comes from the largest k with ds_k + (1 - sum_{j<=k} ds_j)/k > 0
    over the descending spectrum ds (Duchi et al. 2008; Condat 2016); ties
    d_i + lam == 0 resolve to the zero branch. e_squared and the boolean
    support mask kept have the spectra's shape (..., n), lam its leading shape.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(d).all():
        raise ValueError("spectrum must be finite")
    n = d.shape[-1]
    flat = d.reshape(-1, n)
    rows = np.arange(len(flat))
    order = np.argsort(flat, axis=1)[:, ::-1]  # descending
    ds = flat[rows[:, None], order]
    cand = (1.0 - np.cumsum(ds, axis=1)) / np.arange(1, n + 1)
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
    return e2.reshape(d.shape), lam.reshape(d.shape[:-1]), kept.reshape(d.shape)


def distance_closed_form(d, kept):
    """Spectral distance formula sqrt((sum_{Ip} d + sum_{In} d)^2/n_p + sum_{In} d^2), along the last axis.

    I_n are the negative eigenvalue indices, I_p the dropped nonnegative ones,
    n_p the kept count; ``kept`` is the support mask of ``d``'s shape from
    :func:`project_simplex_psd`. Exact whenever every dropped nonnegative
    eigenvalue is zero; for strictly positive ones it omits their quadratic
    residual and slightly undershoots ||rho - rho_s||_2.
    """
    d = np.asarray(d, dtype=float)
    kept = np.asarray(kept)
    if kept.dtype != bool:
        raise ValueError(f"kept must be a boolean support mask, got dtype {kept.dtype}")
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
    closest partially transposed states with their min eigenvalues. Each rho_s
    is trace-1 Hermitian but not necessarily PSD; where ``rho_s_is_positive``
    it is the closest PPT state outright, elsewhere ||rho - rho_s||_2 is a
    lower bound on the distance to the PPT set.
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
        return self.rho_s_min_eig >= -DEFAULT_TOL


def project_pt_spectra(d: np.ndarray, u: np.ndarray, dims: tuple[int, int]) -> ProjectionBatch:
    """Steps 2 and 3 of the projection for a stack of decomposed partial transposes rho^PT = U D U^dagger.

    Simplex-project each PT spectrum d, rebuild sigma* = U E^2 U^dagger from
    the eigenvectors u, map it back through the PT and take the min eigenvalue
    of the result.
    """
    e2, lam, kept = project_simplex_psd(d)
    rho_s = partial_transpose((u * e2[..., None, :]) @ u.conj().swapaxes(-1, -2), dims)
    return ProjectionBatch(
        d=d,
        e2=e2,
        lam=lam,
        kept=kept,
        rho_s=rho_s,
        rho_s_min_eig=eig_hermitian(rho_s)[0][..., 0],
    )


def closest_pt_states(rhos, dims: tuple[int, int]) -> ProjectionBatch:
    """Project each rho^PT of a (k, n, n) stack onto the trace-1 PSD cone and map back through the PT.

    Steps: eigendecompose rho^PT = U D U^dagger, simplex-project D into E^2,
    reconstruct sigma* = U E^2 U^dagger, return rho_s = (sigma*)^PT. One
    state is the stack ``rho.matrix[None]``, a batch of one row.
    """
    return project_pt_spectra(*eig_hermitian(partial_transpose(rhos, dims)), dims)


def pt_negativity(d):
    """Negativity N = ||rho^PT||_1 - 1 of ascending PT spectra ``d`` (..., n), for every bipartition.

    N is twice the sum of the |negative eigenvalues| in ascending order, 0 above the noise floor. A
    two-qubit PT has at most one negative eigenvalue (Sanpera, Tarrach and Vidal 1998), so there N
    is the paper's 2|d_min|. Vidal and Werner's negativity is N/2.
    """
    d = np.asarray(d, dtype=float)
    neg = 2.0 * np.cumsum(np.maximum(-d, 0.0), axis=-1)[..., -1]
    return np.where(above_noise_floor(d[..., 0]), 0.0, neg)


def pt_robustness(d):
    """Minimal t with (1-t) rho^PT + (t/n) I PSD, from ascending PT spectra ``d`` (..., n).

    Equals |d_min| / (|d_min| + 1/n) for NPT spectra, 0 for PPT ones; at the
    returned t the mixture's min eigenvalue is 0.
    """
    d = np.asarray(d, dtype=float)
    neg = -d[..., 0]
    return np.divide(neg, neg + 1.0 / d.shape[-1], out=np.zeros_like(neg), where=~above_noise_floor(d[..., 0]))
