"""Dense complex-matrix helpers: the Hermiticity residual and the checked Hermitian eigensolver.

Matrices are plain square ``numpy`` arrays of ``complex128``, or (..., n, n)
stacks of them where noted; both functions are pure functions of their
inputs. :func:`asymmetry` is the Hermiticity residual that
:func:`eig_hermitian` and ``validate_state`` test against ``DEFAULT_TOL``.
:func:`eig_hermitian` checks shape, finiteness and Hermiticity, in that
order, then hands (A + A^dagger)/2 to ``np.linalg.eigh`` and returns its
(eigenvalues, eigenvectors) pair.
The checks run once, where a matrix enters: :func:`eig_hermitian` for a
caller's stack (``closest_pt_states``), ``validate_state`` for a state
(``state_from_json`` goes through it). Stacks the program builds itself
(sampled states, rho_s, plane rays, contour angles) go straight to
``np.linalg.eigh`` or ``eigvalsh``, :func:`stack_rows` matrices at a time, so
their memory is bounded whatever the sample count, resolution or n. Each
matrix is solved on its own, so the stack size changes no value.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
# matrix elements per stack the program builds itself; 128 kB of complex128
STACK_ELEMENTS = 2**13


def stack_rows(n: int) -> int:
    """Matrices per stack of n x n matrices: STACK_ELEMENTS // n^2, and at least one."""
    return max(1, STACK_ELEMENTS // n**2)


def asymmetry(a: np.ndarray):
    """Hilbert-Schmidt norm of the anti-Hermitian part, ||A - A^dagger||_2.

    A scalar for one matrix, an array of per-matrix norms for a (..., n, n) stack.
    """
    a = np.asarray(a, dtype=np.complex128)
    return np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, u) of a Hermitian matrix or a (..., n, n) stack of them, A = u diag(w) u^dagger.

    Every entry must be finite and every matrix Hermitian within
    ``DEFAULT_TOL`` (measured as ||A - A^dagger||_2; the error reports the
    worst one); it is symmetrized before decomposition so roundoff asymmetry
    cannot leak into the spectrum.
    Eigenvalues come back sorted ascending with the stack's leading axes, the
    columns of u are the matching eigenvectors, and repeated calls on the same
    input give bitwise-identical results, stacked or one matrix at a time.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    asym = asymmetry(a).max(initial=0.0)
    if asym > DEFAULT_TOL:
        raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} > tol {DEFAULT_TOL:.3e}")
    # halve before adding: A + A^dagger overflows for entries near 1e308
    half = a / 2
    half += half.conj().swapaxes(-1, -2)
    return np.linalg.eigh(half)
