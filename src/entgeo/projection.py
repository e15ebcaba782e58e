"""Projection of a partially transposed state onto the trace-1 PSD cone.

Implements the three-step closest-partially-transposed-state algorithm
(eigendecompose rho^PT, project the spectrum onto the probability simplex,
undo the partial transpose). The ascending PT spectrum of step 1 is the one
spectral core: the negativity (:func:`pt_negativity`), the robustness against
mixing with the identity (:func:`pt_robustness`) and the closed-form distance
to rho_s (:func:`distance_closed_form`, exact for every bipartition) are pure
functions of it. The PT is over B; over A all agree: sigma^{T_A} =
(sigma^T)^{T_B}, and sigma^T is a state.

Tolerance policy: inputs may be off Hermitian, unit trace and PSD by
``linalg.DEFAULT_TOL`` (1e-9), and rho_s is positive by the same rule: at
>= -1e-9. ``PPT_EIG_TOL`` (1e-10) is the eigensolver noise floor of the one
predicate :func:`above_noise_floor`: a least eigenvalue >= -1e-10 counts as
PSD, for PT spectra (PPT; the negativity and the robustness read 0), scan
cells (``ScanGrid.is_state``, ``is_ppt``) and rho_s, which is borderline
(``ProjectionBatch.borderline``: PSD only by the input tolerance) in [-1e-9,
-1e-10): exact zero eigenvalues read as roundoff of either sign are not
borderline. Contours need no tolerance: ``geometry.boundary_contours``
compares exact radii. Two thresholds are display and geometry bounds, not
part of this policy: the printed rho_s shows an imaginary part only above
5e-7, half a unit in the last printed place of ``%+9.6f``, and
``build_plane`` rejects an anchor, or the second anchor's part orthogonal to
the first, of HS norm below 1e-12 around I/n as a degenerate plane. Only
:func:`closest_pt_states` checks a matrix, the caller's stack; the rho_s
built here goes straight to LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, eig_hermitian
from .states import partial_transpose

PPT_EIG_TOL = 1e-10


def above_noise_floor(min_eig):
    """True where a least eigenvalue counts as PSD: >= -PPT_EIG_TOL, elementwise."""
    return np.asarray(min_eig) >= -PPT_EIG_TOL


def project_simplex_psd(d):
    """Euclidean projection of spectra onto the probability simplex {x >= 0, sum x = 1}, along the last axis.

    Returns (e_squared, lam, kept) with e2_i = max(d_i + lam, 0) and lam the
    unique shift normalizing the sum. Closed form (Duchi et al. 2008; Condat
    2016): over the descending spectrum ds, every candidate (1 - sum_{j<=k}
    ds_j)/k bounds lam from above, and the true support's size attains it, so
    lam is the least candidate. The support is kept = d + lam > 0: ties
    d_i + lam == 0 stay on the zero branch, and kept == (e2 > 0) holds on every
    input. e_squared and the boolean support mask kept have the spectra's shape
    (..., n), lam its leading shape. Raises ValueError where a row's support is
    empty, which only happens where 1 - sum_{j<=k} ds_j loses every digit
    (|d| near or above 2^53).
    """
    d = np.asarray(d, dtype=float)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(d).all():
        raise ValueError("spectrum must be finite")
    ds = np.sort(d, axis=-1)[..., ::-1]
    lam = ((1.0 - np.cumsum(ds, axis=-1)) / np.arange(1, d.shape[-1] + 1)).min(axis=-1)
    shifted = d + lam[..., None]
    kept = shifted > 0
    if not kept.any(axis=-1).all():
        raise ValueError("spectrum has no simplex projection in floating point: empty support")
    return np.where(kept, shifted, 0.0), lam, kept


def distance_closed_form(d, kept):
    """Spectral distance ||rho - rho_s||_2 = sqrt((sum_{dropped} d)^2/n_p + sum_{dropped} d^2), along the last axis.

    The dropped eigenvalues are those outside the support mask ``kept`` of
    :func:`project_simplex_psd`, of ``d``'s shape, and n_p is the kept count.
    The PT and the eigenbasis keep the Hilbert-Schmidt norm, so for a trace-1
    spectrum this is ||d - e2||_2 = sqrt(sum_{dropped} d^2 + n_p lam^2) with
    lam = (sum_{dropped} d)/n_p: exact for every bipartition. Where the
    dropped set is the negative set, it is the paper's formula.
    """
    d = np.asarray(d, dtype=float)
    kept = np.asarray(kept)
    if kept.dtype != bool:
        raise ValueError(f"kept must be a boolean support mask, got dtype {kept.dtype}")
    n_p = kept.sum(axis=-1)
    if (n_p == 0).any():
        raise ValueError("kept set is empty")
    dropped = np.where(kept, 0.0, d)
    s = np.cumsum(dropped, axis=-1)[..., -1]
    return np.sqrt(s * s / n_p + np.cumsum(dropped * dropped, axis=-1)[..., -1])


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

    @property
    def borderline(self) -> np.ndarray:
        """PSD only by grace of the input tolerance: least eigenvalue in [-1e-9, -1e-10)."""
        return self.rho_s_is_positive & ~above_noise_floor(self.rho_s_min_eig)


def project_pt_spectra(d: np.ndarray, u: np.ndarray, dims: tuple[int, int]) -> ProjectionBatch:
    """Steps 2 and 3 of the projection for a stack of decomposed partial transposes rho^PT = U D U^dagger.

    Simplex-project each PT spectrum d, rebuild sigma* = U E^2 U^dagger from
    the eigenvectors u, map it back through the PT and take the min eigenvalue
    of the result. ``d`` and ``u`` are an eigensolver's output, and rho_s is
    built here, so it goes to LAPACK unchecked.
    """
    e2, lam, kept = project_simplex_psd(d)
    rho_s = partial_transpose((u * e2[..., None, :]) @ u.conj().swapaxes(-1, -2), dims)
    return ProjectionBatch(
        d=d,
        e2=e2,
        lam=lam,
        kept=kept,
        rho_s=rho_s,
        rho_s_min_eig=np.linalg.eigvalsh(rho_s)[..., 0],
    )


def closest_pt_states(rhos, dims: tuple[int, int]) -> ProjectionBatch:
    """Project each rho^PT of a (k, n, n) stack onto the trace-1 PSD cone and map back through the PT.

    Steps: eigendecompose rho^PT = U D U^dagger, simplex-project D into E^2,
    reconstruct sigma* = U E^2 U^dagger, return rho_s = (sigma*)^PT. One
    state is the stack ``rho.matrix[None]``, a batch of one row. The stack is
    the caller's, so :func:`linalg.eig_hermitian` checks it: finite and
    Hermitian within ``DEFAULT_TOL``.
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
