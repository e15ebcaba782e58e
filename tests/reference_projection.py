"""Per-state reference implementations of the projection and Monte-Carlo code.

These are the original one-matrix-at-a-time versions of ``entgeo``'s
Hilbert-Schmidt sampler, partial transpose, Hermitian eigensolver, simplex
projection, the paper's closed-form distance, ``closest_pt_state`` with its
result type, the ``entgeo stats`` loop and the ``entgeo project`` matrix
printer, kept as a test oracle: the batched library code must reproduce their
output exactly (same bits, same printed lines). The sampler and the stats loop
draw one state at a time from one stream; the paper's distance formula is the
library's wherever the dropped eigenvalues are the negative ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entgeo.linalg import DEFAULT_TOL
from entgeo.projection import PPT_EIG_TOL
from entgeo.states import DensityMatrix


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
    rho_s_is_positive: bool
    d_min: float

    @property
    def rank(self) -> int:
        return len(self.kept_indices)


def sample_hs_random(n: int, rng, dims: tuple[int, int] | None = None) -> DensityMatrix:
    """The next state of ``rng``: a Generator, or a seed for a new one."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    if dims is None:
        dims = (2, n // 2) if n % 2 == 0 else (1, n)
    return DensityMatrix(matrix=rho, dims=dims)


def partial_transpose(rho: DensityMatrix, subsystem: str = "B") -> np.ndarray:
    da, db = rho.dims
    t = rho.matrix.reshape(da, db, da, db)
    if subsystem == "B":
        t = t.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return t.reshape(da * db, da * db)


def eig_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL):
    a = np.asarray(a, dtype=np.complex128)
    asym = float(np.linalg.norm(a - a.conj().T))
    if asym > tol:
        raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} > tol {tol:.3e}")
    h = (a + a.conj().T) / 2
    return np.linalg.eigh(h)


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    w, _ = eig_hermitian(a, tol)
    return bool(w[0] >= -tol)


def project_simplex_psd(d, trace_target: float = 1.0):
    d = np.asarray(d, dtype=float)
    if d.size == 0:
        raise ValueError("empty spectrum")
    if not np.all(np.isfinite(d)) or trace_target <= 0:
        raise ValueError("spectrum must be finite and trace_target > 0")
    order = np.argsort(d)[::-1]  # descending
    ds = d[order]
    csum = np.cumsum(ds)
    lam = 0.0
    n_keep = 1
    for k in range(1, d.size + 1):
        cand = (trace_target - csum[k - 1]) / k
        if ds[k - 1] + cand > 0:
            lam, n_keep = cand, k
    e2 = np.maximum(d + lam, 0.0)
    e2[d + lam <= 0] = 0.0
    kept = tuple(sorted(int(i) for i in order[:n_keep]))
    return e2, float(lam), kept


def distance_closed_form(d, kept) -> float:
    """The paper's spectral distance formula sqrt((sum_{Ip} d + sum_{In} d)^2/n_p + sum_{In} d^2).

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


def drops_only_negatives(d, kept) -> bool:
    """True when the indices outside ``kept`` are exactly the negative ones of ``d``: there the paper's formula is exact."""
    return set(range(len(d))) - set(kept) == {i for i, x in enumerate(d) if x < 0}


def closest_pt_state(rho: DensityMatrix, subsystem: str = "B") -> ProjectionResult:
    pt = partial_transpose(rho, subsystem)
    d, u = eig_hermitian(pt)
    e2, lam, kept = project_simplex_psd(d)
    sigma = (u * e2) @ u.conj().T
    rho_s = DensityMatrix(matrix=sigma, dims=rho.dims)
    rho_s_mat = partial_transpose(rho_s, subsystem)
    return ProjectionResult(
        closest_pt_state=rho_s_mat,
        e_squared=np.sort(e2)[::-1],
        lam=lam,
        kept_indices=kept,
        distance_exact=float(np.linalg.norm(rho.matrix - rho_s_mat)),
        distance_closed_form=distance_closed_form(d, kept),
        rho_s_is_positive=is_psd(rho_s_mat, DEFAULT_TOL),
        d_min=float(d[0]),
    )


def negativity(rho: DensityMatrix) -> float:
    """||rho^PT||_1 - 1: twice the sum of the |negative PT eigenvalues|, in ascending order."""
    d, _ = eig_hermitian(partial_transpose(rho, "B"))
    return 2.0 * sum(-x for x in d.tolist() if x < 0)


def stats_lines(samples: int, seed: int, dims: tuple[int, int]) -> list[str]:
    """The lines ``entgeo stats`` printed, one state at a time."""
    da, db = dims
    n = da * db
    npt = 0
    positive = 0
    rank2 = 0
    rank2_positive = 0
    neg_sum = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        rho = sample_hs_random(n, rng, dims=(da, db))
        res = closest_pt_state(rho)
        if res.d_min >= -PPT_EIG_TOL:
            continue
        npt += 1
        neg_sum += negativity(rho)
        if res.rho_s_is_positive:
            positive += 1
        if res.rank == 2:
            rank2 += 1
            if res.rho_s_is_positive:
                rank2_positive += 1

    lines = [
        f"samples:                  {samples}  (seed {seed}, dims {da}x{db})",
        f"NPT fraction:             {npt / samples:.4f}  ({npt}/{samples})",
    ]
    if npt:
        lines += [
            f"positive rho_s fraction:  {positive / npt:.4f}  (of NPT)",
            f"mean negativity (NPT):    {neg_sum / npt:.6f}",
            f"rank-2 fraction (NPT):    {rank2 / npt:.4f}  ({rank2_positive} of {rank2} with PSD rho_s)",
        ]
    return lines


def format_matrix(m: np.ndarray) -> str:
    """The rho_s block of ``entgeo project`` stdout, one f-string per cell."""
    rows = []
    for row in m.tolist():
        cells = []
        for z in row:
            if abs(z.imag) > 5e-7:
                cells.append(f"{z.real:+9.6f}{z.imag:+9.6f}i")
            else:
                cells.append(f"{z.real:+9.6f}")
        rows.append("  ".join(cells))
    return "\n".join(rows)
