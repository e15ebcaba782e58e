"""Dense complex-matrix helpers: Hilbert-Schmidt geometry and Hermitian eigensolving.

Matrices are plain square ``numpy`` arrays of ``complex128``; every routine
here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix (copies only if needed)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def asymmetry(a: np.ndarray):
    """Hilbert-Schmidt norm of the anti-Hermitian part, ||A - A^dagger||_2.

    A scalar for one matrix, an array of per-matrix norms for a (..., n, n) stack.
    """
    a = np.asarray(a, dtype=np.complex128)
    return np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(A^dagger B)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.trace(a.conj().T @ b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr A^dagger A)."""
    return float(np.linalg.norm(as_matrix(a)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = U diag(eigenvalues) U^dagger.

    Eigenvalues are real and sorted ascending; columns of ``unitary`` are the
    matching eigenvectors. For a stack of matrices both arrays carry the
    stack's leading axes.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.rebuild(self.eigenvalues)

    def rebuild(self, new_eigenvalues: np.ndarray) -> np.ndarray:
        """U diag(new_eigenvalues) U^dagger in the same eigenbasis."""
        u = self.unitary
        return (u * np.asarray(new_eigenvalues)[..., None, :]) @ u.conj().swapaxes(-1, -2)


def eig_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix or a (..., n, n) stack of them.

    Every matrix must be Hermitian within ``tol`` (measured as
    ||A - A^dagger||_2; the error reports the worst one); it is symmetrized
    before decomposition so roundoff asymmetry cannot leak into the spectrum.
    Eigenvalues come back sorted ascending, and repeated calls on the same
    input give bitwise-identical results, stacked or one matrix at a time.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    asym = asymmetry(a).max(initial=0.0)
    if asym > tol:
        raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} > tol {tol:.3e}")
    h = (a + a.conj().swapaxes(-1, -2)) / 2
    w, u = np.linalg.eigh(h)
    return EigenDecomposition(eigenvalues=w, unitary=u)


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Hermitian matrix ``a`` has min eigenvalue >= -tol."""
    dec = eig_hermitian(a, tol)
    return bool(dec.eigenvalues[0] >= -tol)
