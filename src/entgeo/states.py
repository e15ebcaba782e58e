"""Bipartite density matrices: partial transpose, named fixtures, sampling, JSON I/O."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, asymmetry

SQRT3 = np.sqrt(3.0)


def _checked_dims(dims) -> tuple[int, int]:
    """``dims`` as two Python ints >= 1: no floats to truncate, no bools."""
    try:
        da, db = dims
    except (TypeError, ValueError):
        da = db = None
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0 for d in (da, db)):
        raise ValueError(f"dims must be two positive integers, got {dims!r}")
    return int(da), int(db)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state with an explicit bipartition (dA, dB).

    Composite row index convention: a * dB + b for subsystem indices (a, b).
    Construct through :func:`validate_state` (or the named constructors) so the
    Hermiticity / trace / positivity checks always run. The dims are checked
    on every construction: two positive integers with dA * dB the matrix size.
    """

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        if self.matrix.shape != (dims[0] * dims[1],) * 2:
            raise ValueError(f"dims {dims} inconsistent with a {self.matrix.shape} matrix")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]


def validate_state(m, dims: tuple[int, int]) -> DensityMatrix:
    """Check finiteness, dims, entry size, Hermiticity, unit trace, and positivity; return a DensityMatrix.

    The first property violated by more than ``DEFAULT_TOL`` is reported with its magnitude.
    """
    m = np.asarray(m, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValueError("state has non-finite entries")
    rho = DensityMatrix(matrix=m, dims=dims)
    # no entry of a state exceeds 1 in magnitude; larger ones could overflow the norms below
    peak = max(np.abs(m.real).max(), np.abs(m.imag).max())
    if peak > 1 + DEFAULT_TOL:
        raise ValueError(f"not a state, |Re| or |Im| of an entry is {peak:.4g} > 1")
    asym = asymmetry(m)
    if asym > DEFAULT_TOL:
        raise ValueError(f"not Hermitian, asymmetry {asym:.4g}")
    tr = complex(np.trace(m))
    if abs(tr - 1) > DEFAULT_TOL:
        raise ValueError(f"trace != 1, got {tr.real:.6g}")
    # eigvalsh reads the lower triangle; m is Hermitian within DEFAULT_TOL, so that is its spectrum to tolerance
    min_eig = np.linalg.eigvalsh(m)[0]
    if min_eig < -DEFAULT_TOL:
        raise ValueError(f"not PSD, min eigenvalue {min_eig:.4g}")
    return rho


def partial_transpose(m, dims: tuple[int, int]) -> np.ndarray:
    """Transpose factor B of a bipartite operator, or of each matrix in a (..., n, n) stack.

    ``dims`` = (dA, dB) is the bipartition. Hermiticity, trace, and the
    Hilbert-Schmidt norm are preserved; positivity is not. Applying the map
    twice returns the input exactly. For factor A, m^{T_A} = (m^T)^{T_B} is
    ``partial_transpose(m.swapaxes(-1, -2), dims)``.
    """
    m = np.asarray(m)
    da, db = dims
    lead = m.shape[:-2]
    k = len(lead)
    t = m.reshape(*lead, da, db, da, db).transpose(*range(k), k, k + 3, k + 2, k + 1)
    return t.reshape(*lead, da * db, da * db)


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
    "ff1_rho2": lambda: _pure([1, 0, 0, 0], (2, 2)),
    "ff2_rho2": lambda: _pure([1, 1, 0, 0], (2, 2)),
    "ff3_rho2": lambda: _pure([0, 1, 0, 0], (2, 2)),
    "ff4_rho2": lambda: _pure([10, 0, 0, 1], (2, 2)),
    "ff8_rho2": lambda: _pure([0, 1, -1, 0], (2, 2)),
    "quasi_distillable": _quasi_distillable,
}

NAMED_STATE_TAGS = tuple(_NAMED) + ("max_mixed(n)",)

# Largest dA*dB of a state built from its size alone (max_mixed, `entgeo stats
# --dims`): one complex matrix is then at most 16 MiB. A JSON state is bounded
# by its file.
MAX_DIM = 1024


def max_mixed(n: int) -> DensityMatrix:
    """The maximally mixed state I/n for 1 <= n <= MAX_DIM, dims (2, n/2) for even n, else (1, n)."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"max_mixed(n) needs 1 <= n <= {MAX_DIM}, got {n}")
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


def sample_hs_random_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Stack of ``count`` Hilbert-Schmidt-random (n, n) states, drawn in order from ``rng``.

    Each state is rho = G G^dagger / tr(G G^dagger) for a square Ginibre
    matrix G, the real part drawn first, then the imaginary part. NumPy's
    normal draws do not depend on how a stream is split into calls, so
    ``count = a + b`` states are the next ``a`` states and then the ``b``
    after them.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    x = rng.standard_normal((count, 2, n, n))
    g = x[:, 0] + 1j * x[:, 1]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def state_to_dict(rho: DensityMatrix) -> dict:
    """The interchange schema {"dims":[dA,dB],"matrix":[[[re,im],...],...]} as a JSON-ready dict."""
    return {"dims": list(rho.dims), "matrix": np.stack((rho.matrix.real, rho.matrix.imag), axis=-1).tolist()}


def state_from_json(text: str) -> DensityMatrix:
    """Parse the interchange schema and validate the state."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integer literals too long to convert, and deep nesting
        raise ValueError(f"malformed state document: {exc}") from exc
    try:
        dims = _checked_dims(doc["dims"])
        pairs = np.array(doc["matrix"])
        # integers beyond 64 bits make an object array; too large for a float, they raise OverflowError
        if pairs.dtype == object and all(type(x) in (int, float, bool) for x in pairs.flat):
            pairs = pairs.astype(float)
        if pairs.dtype.kind not in "biuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
            raise ValueError("matrix must be rows of [re, im] number pairs")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    # set the parts apart: re + 1j*im would turn an imaginary -0.0 into +0.0
    m = np.empty(pairs.shape[:2], dtype=np.complex128)
    m.real, m.imag = pairs[..., 0], pairs[..., 1]
    return validate_state(m, dims)
