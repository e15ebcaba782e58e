import os

# OpenBLAS reads its thread count when numpy is first imported: pin it, as CI
# does, so the stacked eigensolves of the suite do not contend for the cores
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from entgeo import make_named, partial_transpose

SQRT2 = np.sqrt(2.0)


@pytest.fixture
def w_state():
    return make_named("w_state")


@pytest.fixture
def bell():
    return make_named("bell_psi_plus")


@pytest.fixture
def w_pt_spectrum():
    # ascending PT spectrum of the W state
    return np.array([-SQRT2 / 3, 0, 0, 0, 0, 1 / 3, SQRT2 / 3, 2 / 3])


@pytest.fixture
def w_rho_s():
    # the closest partially transposed state to the W state, c = sqrt(2)/18
    c = SQRT2 / 18
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 2 * c
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 1 / 3 - c
    m[1, 4] = m[4, 1] = m[2, 4] = m[4, 2] = 1 / 9
    m[4, 4] = 1 / 3 - 2 * c
    m[5, 5] = m[6, 6] = m[5, 6] = m[6, 5] = c
    return m


@pytest.fixture
def bell_rho_s():
    m = np.diag([1 / 6, 1 / 3, 1 / 3, 1 / 6]).astype(complex)
    m[1, 2] = m[2, 1] = 1 / 6
    return m


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


@pytest.fixture
def w_pt(w_state):
    return partial_transpose(w_state.matrix, w_state.dims)
