"""Bipartite density matrices: partial transpose, named fixtures, sampling, JSON I/O."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, as_matrix, asymmetry, eig_hermitian

SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state with an explicit bipartition (dA, dB).

    Composite row index convention: a * dB + b for subsystem indices (a, b).
    Construct through :func:`validate_state` (or the named constructors) so the
    Hermiticity / trace / positivity checks always run.
    """

    matrix: np.ndarray
    dims: tuple[int, int]

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]


def validate_state(m, dims: tuple[int, int], tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Check finiteness, Hermiticity, unit trace, and positivity; return a DensityMatrix.

    The first violated property is reported with its magnitude.
    """
    m = as_matrix(m)
    if not np.isfinite(m).all():
        raise ValueError("state has non-finite entries")
    da, db = dims
    if da * db != m.shape[0]:
        raise ValueError(f"dims {dims} inconsistent with matrix size {m.shape[0]}")
    asym = asymmetry(m)
    if asym > tol:
        raise ValueError(f"not Hermitian, asymmetry {asym:.4g}")
    tr = complex(np.trace(m))
    if abs(tr - 1) > tol:
        raise ValueError(f"trace != 1, got {tr.real:.6g}")
    min_eig = eig_hermitian(m, tol).eigenvalues[0]
    if min_eig < -tol:
        raise ValueError(f"not PSD, min eigenvalue {min_eig:.4g}")
    return DensityMatrix(matrix=m, dims=(da, db))


def partial_transpose(rho, subsystem: str = "B", dims: tuple[int, int] | None = None) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator.

    ``rho`` is a DensityMatrix, or an array of shape (..., n, n) with its
    bipartition given by ``dims``; stacks are transposed matrix by matrix.
    Hermiticity, trace, and the Hilbert-Schmidt norm are preserved; positivity
    is not. Applying the map twice returns the input exactly.
    """
    if isinstance(rho, DensityMatrix):
        m, dims = rho.matrix, rho.dims
    elif dims is None:
        raise ValueError("dims are required for a matrix stack")
    else:
        m = np.asarray(rho)
    da, db = dims
    lead = m.shape[:-2]
    t = m.reshape(*lead, da, db, da, db)
    k = len(lead)
    if subsystem == "B":
        axes = (k, k + 3, k + 2, k + 1)
    elif subsystem == "A":
        axes = (k + 2, k + 1, k, k + 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return t.transpose(*range(k), *axes).reshape(*lead, da * db, da * db)


def _pure(vec, dims) -> DensityMatrix:
    # divide the outer product by the squared norm so rational entries stay exact
    v = np.asarray(vec, dtype=np.complex128)
    m = np.outer(v, v.conj()) / float(np.vdot(v, v).real)
    return DensityMatrix(matrix=m, dims=dims)


def _w_state() -> DensityMatrix:
    # (|001> + |010> + |100>)/sqrt(3), qubit 1 vs qubits 2+3 bipartition
    v = np.zeros(8)
    v[[1, 2, 4]] = 1 / SQRT3
    return _pure(v, (2, 4))


def _quasi_distillable() -> DensityMatrix:
    m = np.zeros((4, 4), dtype=np.complex128)
    m[1, 1] = m[2, 2] = 0.25
    m[1, 2] = m[2, 1] = -0.25
    m[3, 3] = 0.5
    return DensityMatrix(matrix=m, dims=(2, 2))


# Two-qubit plane anchors. rho1 of every plane is the Bell state (|01>+|10>)/sqrt(2);
# these are the rho2 partners. ff3/ff4 appear in print with non-unit trace /
# non-Hermitian outer products; the projector onto the printed vector is intended.
_NAMED: dict[str, callable] = {
    "w_state": _w_state,
    "bell_psi_plus": lambda: _pure([0, 1, 1, 0], (2, 2)),
    "bell_psi_minus_like": lambda: _pure([0, 1, -1, 0], (2, 2)),
    "ff1_rho2": lambda: _pure([1, 0, 0, 0], (2, 2)),
    "ff2_rho2": lambda: _pure([1, 1, 0, 0], (2, 2)),
    "ff3_rho2": lambda: _pure([0, 1, 0, 0], (2, 2)),
    "ff4_rho2": lambda: _pure([10, 0, 0, 1], (2, 2)),
    "ff8_rho2": lambda: _pure([0, 1, -1, 0], (2, 2)),
    "quasi_distillable": _quasi_distillable,
}

NAMED_STATE_TAGS = tuple(_NAMED) + ("max_mixed(n)",)


def max_mixed(n: int, dims: tuple[int, int] | None = None) -> DensityMatrix:
    """The maximally mixed state I/n."""
    if dims is None:
        dims = (2, n // 2) if n % 2 == 0 else (1, n)
    return DensityMatrix(matrix=np.eye(n, dtype=np.complex128) / n, dims=dims)


def make_named(name: str) -> DensityMatrix:
    """Build a named state; ``max_mixed(n)`` takes the dimension inline."""
    key = name.strip().lower().replace("-", "_")
    m = re.fullmatch(r"max_mixed\((\d+)\)|max_mixed(\d+)", key)
    if m:
        return max_mixed(int(m.group(1) or m.group(2)))
    if key in _NAMED:
        return _NAMED[key]()
    raise ValueError(f"unknown named state {name!r}; known: {', '.join(NAMED_STATE_TAGS)}")


def sample_hs_random_stack(n: int, seeds) -> np.ndarray:
    """Stack of Hilbert-Schmidt-random states, one (n, n) matrix per seed in ``seeds``.

    Row i is rho = G G^dagger / tr(G G^dagger) for the square Ginibre matrix G
    drawn from ``np.random.default_rng(seeds[i])``: the real part first, then
    the imaginary part. Deterministic per seed, whatever the other seeds.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    x = np.empty((len(seeds), 2, n, n))
    for i, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=x[i])
    g = x[:, 0] + 1j * x[:, 1]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def sample_hs_random(n: int, rng_seed: int, dims: tuple[int, int] | None = None) -> DensityMatrix:
    """Hilbert-Schmidt-random state: rho = G G^dagger / tr(G G^dagger), G square Ginibre.

    Deterministic per seed; identical seeds give bitwise-identical matrices,
    equal to the matching row of :func:`sample_hs_random_stack`.
    """
    rho = sample_hs_random_stack(n, [rng_seed])[0]
    if dims is None:
        dims = (2, n // 2) if n % 2 == 0 else (1, n)
    return DensityMatrix(matrix=rho, dims=dims)


def state_to_dict(rho: DensityMatrix) -> dict:
    """The interchange schema {"dims":[dA,dB],"matrix":[[[re,im],...],...]} as a JSON-ready dict."""
    return {"dims": list(rho.dims), "matrix": np.stack((rho.matrix.real, rho.matrix.imag), axis=-1).tolist()}


def state_to_json(rho: DensityMatrix) -> str:
    """Serialize to the interchange schema of :func:`state_to_dict`."""
    return json.dumps(state_to_dict(rho))


def state_from_json(text: str) -> DensityMatrix:
    """Parse the interchange schema and validate the state."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    try:
        da, db = (int(d) for d in doc["dims"])
        rows = doc["matrix"]
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != da * db:
        raise ValueError(f"dims [{da},{db}] inconsistent with a {m.shape} matrix")
    return validate_state(m, (da, db))
