
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import (
    closest_pt_states,
    eig_hermitian,
    partial_transpose,
    sample_hs_random_stack,
)
from entgeo.linalg import DEFAULT_TOL, asymmetry
from entgeo.projection import above_noise_floor

from conftest import random_hermitian

I4 = np.eye(4, dtype=complex)


def hermitian_strategy(max_dim=8):
    return st.builds(
        lambda seed, n: random_hermitian(np.random.default_rng(seed), n),
        st.integers(0, 2**32 - 1),
        st.integers(2, max_dim),
    )


class TestEigHermitian:
    def test_diagonal(self):
        w, u = eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1, 2, 3])
        assert np.allclose(np.abs(u), np.eye(3)[:, [1, 2, 0]])

    def test_w_pt_spectrum(self, w_pt, w_pt_spectrum):
        w, _ = eig_hermitian(w_pt)
        assert np.allclose(w, w_pt_spectrum, atol=1e-12)

    def test_bell_pt_spectrum(self, bell):
        w, _ = eig_hermitian(partial_transpose(bell.matrix, bell.dims))
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_non_hermitian_rejected(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="asymmetry"):
            eig_hermitian(a)
        assert asymmetry(a) == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1j * np.inf], ids=["nan", "inf", "imaginary-inf"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_non_finite_rejected(self, value, stacked):
        # NaN passed the Hermiticity check and inf warned in the asymmetry norm
        a = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        a[1, 2, 0] = value
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            eig_hermitian(a if stacked else a[1])

    def test_projection_of_a_nan_stack_is_a_value_error(self):
        stack = sample_hs_random_stack(np.random.default_rng(0), 4, 3)
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            closest_pt_states(stack, (2, 2))

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (5, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix or a stack of them"):
            eig_hermitian(np.zeros(shape))

    @given(hermitian_strategy())
    @settings(max_examples=200)
    def test_reconstruction_and_unitarity(self, a):
        w, u = eig_hermitian(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(a - (u * w) @ u.conj().T) <= 1e-10 * scale
        n = a.shape[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    @given(hermitian_strategy())
    def test_spectral_norm_consistency(self, a):
        w, _ = eig_hermitian(a)
        assert np.linalg.norm(a) ** 2 == pytest.approx(np.sum(w**2), abs=1e-9)

    def test_largest_finite_entries(self):
        w, _ = eig_hermitian(np.diag([1e308, 1e308]))
        assert w.tolist() == [1e308, 1e308]

    def test_deterministic_bitwise(self, w_pt):
        d1 = eig_hermitian(w_pt)[0]
        d2 = eig_hermitian(w_pt)[0]
        assert all(x == y for x, y in zip(d1, d2))

    def test_trace_consistency(self, w_pt):
        w, _ = eig_hermitian(w_pt)
        assert w.sum() == pytest.approx(1.0, abs=1e-12 * 8)


class TestIsPsd:
    """Positive semidefiniteness read off the least eigenvalue, at the noise floor."""

    def test_max_mixed(self):
        assert above_noise_floor(eig_hermitian(I4 / 4)[0][0])

    def test_w_pt_is_not_psd(self, w_pt):
        assert not above_noise_floor(eig_hermitian(w_pt)[0][0])

    def test_w_closest_state_is_psd(self, w_state, w_rho_s):
        res = closest_pt_states(w_state.matrix[None], w_state.dims)
        assert res.rho_s_is_positive[0]
        assert np.max(np.abs(res.rho_s[0] - w_rho_s)) <= 1e-10
        assert above_noise_floor(eig_hermitian(w_rho_s)[0][0])

    def test_non_hermitian_rejected(self):
        # the Hermiticity tolerance is DEFAULT_TOL: just inside it passes, just outside it does not
        skew = np.array([[0, 1], [0, 0]], dtype=complex)
        eig_hermitian(np.eye(2) / 2 + 0.7 * DEFAULT_TOL * skew)
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(np.eye(2) / 2 + 1.5 * DEFAULT_TOL * skew)
