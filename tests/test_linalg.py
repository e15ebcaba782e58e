
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import (
    build_plane,
    closest_pt_states,
    eig_hermitian,
    partial_transpose,
    sample_hs_random_stack,
)
from entgeo.linalg import DEFAULT_TOL, asymmetry
from entgeo.projection import above_noise_floor

from conftest import random_hermitian

I4 = np.eye(4, dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def hermitian_strategy(max_dim=8):
    return st.builds(
        lambda seed, n: random_hermitian(np.random.default_rng(seed), n),
        st.integers(0, 2**32 - 1),
        st.integers(2, max_dim),
    )


def hermitian_pair_strategy(max_dim=6):
    def build(seed, n):
        rng = np.random.default_rng(seed)
        return random_hermitian(rng, n), random_hermitian(rng, n)

    return st.builds(build, st.integers(0, 2**32 - 1), st.integers(2, max_dim))


def hs_inner(a, b):
    """tr(A^dagger B), written out as build_plane's Gram-Schmidt step computes it."""
    return np.trace(a.conj().T @ b)


class TestHsInner:
    """The Hilbert-Schmidt inner product the plane frame is built with."""

    def test_identity(self):
        assert hs_inner(I4, I4) == pytest.approx(4 + 0j)

    def test_orthogonal_pauli_directions(self):
        assert hs_inner(np.kron(SZ, np.eye(2)), np.kron(SX, np.eye(2))) == pytest.approx(0)

    def test_pure_state_purity(self, w_state):
        # tr(rho^2) = 1 for a pure state; cross-check by direct multiplication
        rho = w_state.matrix
        assert hs_inner(rho, rho) == pytest.approx(np.trace(rho @ rho))
        assert hs_inner(rho, rho).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, w_state, bell):
        # build_plane checks the anchors' bipartition before taking any inner product
        with pytest.raises(ValueError, match="anchors must share the bipartition"):
            build_plane(bell, w_state)

    @given(hermitian_pair_strategy())
    def test_conjugate_symmetry(self, pair):
        a, b = pair
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


class TestHsNorm:
    """The Hilbert-Schmidt norm, np.linalg.norm of a matrix, as the plane frame and the project report take it."""

    def test_zero(self):
        assert np.linalg.norm(np.zeros((4, 4))) == 0.0

    def test_normalized_identity(self):
        assert np.linalg.norm(I4 / 4) == pytest.approx(0.5)

    def test_w_distance_to_reference_closest_state(self, w_state, w_rho_s):
        assert np.linalg.norm(w_state.matrix - w_rho_s) == pytest.approx((2 / 3) ** 1.5, abs=1e-12)
        rho_s = closest_pt_states(w_state.matrix[None], w_state.dims).rho_s[0]
        assert np.linalg.norm(w_state.matrix - rho_s) == pytest.approx((2 / 3) ** 1.5, abs=1e-12)

    @given(hermitian_strategy(6), st.floats(-3, 3))
    def test_homogeneity(self, a, s):
        assert np.linalg.norm(s * a) == pytest.approx(abs(s) * np.linalg.norm(a))

    @given(hermitian_pair_strategy())
    def test_triangle_inequality(self, pair):
        a, b = pair
        assert np.linalg.norm(a + b) <= np.linalg.norm(a) + np.linalg.norm(b) + 1e-12


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
        stack = sample_hs_random_stack(4, range(3))
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
