import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import (
    closest_pt_state,
    distance_closed_form,
    eig_hermitian,
    general_negativity,
    hs_norm,
    make_named,
    max_mixed,
    negativity,
    partial_transpose,
    project_simplex_psd,
    robustness_to_identity,
    sample_hs_random,
    two_qubit_distance,
    validate_state,
)
from entgeo.projection import pt_negativity, pt_robustness
from entgeo.states import DensityMatrix

import reference_projection as ref

SQRT2 = np.sqrt(2.0)


def simplex_oracle(d, target=1.0):
    """Brute-force simplex projection: enumerate every nonempty support set,
    solve for the shift on each, keep the feasible minimum-residual candidate."""
    d = np.asarray(d, dtype=float)
    n = d.size
    best = None
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            lam = (target - d[list(support)].sum()) / r
            x = np.zeros(n)
            x[list(support)] = d[list(support)] + lam
            if np.any(x[list(support)] <= 0):
                continue
            residual = np.sum((x - d) ** 2)
            if best is None or residual < best[0]:
                best = (residual, x, lam, support)
    return best


def spectrum_strategy(max_len=6):
    return st.lists(
        st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False), min_size=1, max_size=max_len
    )


class TestProjectSimplexPsd:
    def test_w_spectrum_golden(self, w_pt_spectrum):
        e2, lam, kept = project_simplex_psd(w_pt_spectrum)
        assert lam == pytest.approx(-SQRT2 / 9, abs=1e-12)
        expected = np.zeros(8)
        expected[5] = 1 / 3 - SQRT2 / 9
        expected[6] = 2 * SQRT2 / 9
        expected[7] = 2 / 3 - SQRT2 / 9
        assert np.allclose(e2, expected, atol=1e-12)
        assert kept == (5, 6, 7)

    def test_already_on_simplex(self):
        e2, lam, kept = project_simplex_psd([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(e2, [1, 0, 0, 0])
        assert lam == 0.0
        assert kept == (0,)

    def test_derived_example(self):
        e2, lam, kept = project_simplex_psd([1.1, 0.04, -0.14])
        assert np.allclose(e2, [1.0, 0.0, 0.0], atol=1e-12)
        assert lam == pytest.approx(-0.1, abs=1e-12)
        assert kept == (0,)

    def test_empty_vector(self):
        with pytest.raises(ValueError, match="empty"):
            project_simplex_psd([])

    def test_negative_entries_never_kept_for_unit_trace_spectra(self):
        # PT spectra always sum to 1; that forces lam <= 0, so negative
        # eigenvalues can never make it into the support
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.standard_normal(6)
            d += (1.0 - d.sum()) / 6
            e2, lam, kept = project_simplex_psd(d)
            assert lam <= 1e-15
            assert all(d[i] >= 0 for i in kept)
            assert e2.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(e2 >= 0)

    @given(spectrum_strategy())
    @settings(max_examples=300)
    def test_matches_brute_force_oracle(self, d):
        e2, lam, kept = project_simplex_psd(d)
        residual, x, lam_o, support = simplex_oracle(d)
        assert np.allclose(e2, x, atol=1e-10)
        assert lam == pytest.approx(lam_o, abs=1e-10)
        # at a tie (d_i + lam == 0 up to roundoff) the support is ambiguous in
        # floating point while the projection value is not; compare supports
        # only away from ties
        if min(abs(di + lam) for di in d) > 1e-9:
            assert set(kept) == set(support)


class TestClosestPtState:
    def test_w_state_golden(self, w_state, w_rho_s):
        res = closest_pt_state(w_state)
        assert np.max(np.abs(res.closest_pt_state - w_rho_s)) <= 1e-10
        assert res.distance_exact == pytest.approx((2 / 3) ** 1.5, abs=1e-12)
        assert res.distance_closed_form == pytest.approx((2 / 3) ** 1.5, abs=1e-12)
        assert res.rho_s_is_positive
        assert res.d_min == pytest.approx(-SQRT2 / 3, abs=1e-12)
        expected_e2 = sorted([2 / 3 - SQRT2 / 9, 2 * SQRT2 / 9, 1 / 3 - SQRT2 / 9], reverse=True)
        assert np.allclose(res.e_squared[:3], expected_e2, atol=1e-10)
        assert np.allclose(res.e_squared[3:], 0.0)

    def test_bell_golden(self, bell, bell_rho_s):
        res = closest_pt_state(bell)
        assert np.max(np.abs(res.closest_pt_state - bell_rho_s)) <= 1e-10
        assert res.distance_exact == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert res.rank == 3

    def test_ppt_fixed_point(self):
        sigma = make_named("ff2_rho2")  # product state, PPT
        res = closest_pt_state(sigma)
        assert res.distance_exact <= 1e-10
        assert np.max(np.abs(res.closest_pt_state - sigma.matrix)) <= 1e-10

    def test_ppt_idempotence_random(self):
        hit = 0
        for seed in range(300):
            rho = sample_hs_random(4, seed)
            d_min = np.linalg.eigvalsh(partial_transpose(rho, "B"))[0]
            if d_min < 0:
                continue
            hit += 1
            res = closest_pt_state(rho)
            assert res.distance_exact <= 1e-10
        assert hit > 10

    def test_invariants_random(self):
        for seed in range(500):
            rho = sample_hs_random(4, seed)
            res = closest_pt_state(rho)
            assert np.all(res.e_squared >= 0)
            assert res.e_squared.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.trace(res.closest_pt_state).real == pytest.approx(1.0, abs=1e-10)
            assert hs_norm(res.closest_pt_state - res.closest_pt_state.conj().T) <= 1e-10
            # PT isometry: distance computed in PT space equals state space
            pt = partial_transpose(rho, "B")
            sigma = partial_transpose(DensityMatrix(res.closest_pt_state, rho.dims), "B")
            assert abs(res.distance_exact - hs_norm(pt - sigma)) <= 1e-12

    def test_rank2_cases_have_indefinite_rho_s(self):
        # rank-2 projections are vanishingly rare under the HS measure; rank-2
        # random states hit them often, and every such case should have an
        # indefinite rho_s
        rank2 = 0
        violations = []
        for seed in range(3000):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            res = closest_pt_state(DensityMatrix(rho, (2, 2)))
            if res.d_min >= -1e-10 or res.rank != 2:
                continue
            rank2 += 1
            if res.rho_s_is_positive:
                violations.append(seed)
        assert rank2 > 20
        assert not violations, f"{len(violations)}/{rank2} rank-2 cases had PSD rho_s"


class TestDistanceClosedForm:
    def test_w_spectrum(self, w_pt_spectrum):
        _, _, kept = project_simplex_psd(w_pt_spectrum)
        val = distance_closed_form(w_pt_spectrum, kept)
        assert val == pytest.approx(np.sqrt(2 / 9 + 3 * 2 / 81), abs=1e-12)
        assert val == pytest.approx((2 / 3) ** 1.5, abs=1e-12)

    def test_ppt_spectrum_is_zero(self):
        _, _, kept = project_simplex_psd([1.0, 0.0, 0.0, 0.0])
        assert distance_closed_form([1.0, 0.0, 0.0, 0.0], kept) == 0.0

    def test_derived_three_level(self):
        d = [0.9, 0.2, -0.1]
        e2, _, kept = project_simplex_psd(d)
        assert np.allclose(e2, [0.85, 0.15, 0.0])
        val = distance_closed_form(d, kept)
        assert val == pytest.approx(np.sqrt(0.01 / 2 + 0.01), abs=1e-12)
        # here every dropped eigenvalue is negative, so the formula is exact
        assert val == pytest.approx(np.linalg.norm(e2 - d), abs=1e-12)

    def test_undershoots_when_positive_eigenvalues_dropped(self):
        d = np.array([1.1, 0.04, -0.14])
        e2, _, kept = project_simplex_psd(d)
        exact = np.linalg.norm(e2 - d)
        closed = distance_closed_form(d, kept)
        assert closed < exact
        assert exact == pytest.approx(np.sqrt(0.01 + 0.04**2 + 0.14**2), abs=1e-12)

    def test_empty_kept(self):
        with pytest.raises(ValueError, match="empty"):
            distance_closed_form([1.0, -0.5], ())


class TestNegativity:
    def test_bell(self, bell):
        assert negativity(bell) == pytest.approx(1.0, abs=1e-12)

    def test_max_mixed(self):
        assert negativity(max_mixed(4)) == 0.0

    def test_werner_boundary(self, bell):
        t = 2 / 3
        mix = validate_state((1 - t) * bell.matrix + t * np.eye(4) / 4, (2, 2))
        assert negativity(mix) == pytest.approx(0.0, abs=1e-10)
        barely = validate_state(0.4 * bell.matrix + 0.6 * np.eye(4) / 4, (2, 2))
        assert negativity(barely) == pytest.approx(2 * (0.4 * 0.5 - 0.15), abs=1e-12)

    def test_wrong_dims(self, w_state):
        with pytest.raises(ValueError, match="general_negativity"):
            negativity(w_state)


class TestGeneralNegativity:
    def test_w_state(self, w_state):
        assert general_negativity(w_state) == pytest.approx(SQRT2 / 3, abs=1e-12)

    def test_max_mixed_8(self):
        assert general_negativity(max_mixed(8)) == 0.0

    def test_bell_matches_half_negativity(self, bell):
        assert general_negativity(bell) == pytest.approx(negativity(bell) / 2, abs=1e-12)


class TestSpectralMeasures:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_stack_matches_per_state_formulas(self, dims):
        n = dims[0] * dims[1]
        hs = np.stack(
            [eig_hermitian(partial_transpose(sample_hs_random(n, seed, dims=dims), "B")).eigenvalues for seed in range(200)]
        )
        # trace-1 spectra with large negative parts, where the projection also
        # drops positive eigenvalues
        x = np.random.default_rng(n).normal(size=(200, n))
        d = np.concatenate([hs, np.sort(x - x.mean(axis=1, keepdims=True) + 1.0 / n, axis=1)])
        neg = pt_negativity(d, dims)
        neg_sum = pt_negativity(d)
        robustness = pt_robustness(d)
        distance = distance_closed_form(d, project_simplex_psd(d)[2])
        dropped_positive = 0
        for i, row in enumerate(d):
            npt = row[0] < -1e-10
            assert neg_sum[i] == -row[row < 0].sum()
            if dims == (2, 2):
                assert neg[i] == (-2.0 * row[0] if npt else 0.0)
            want = -row[0] / (-row[0] + 1.0 / n) if npt else 0.0
            assert pt_robustness(row) == want
            assert robustness[i] == want
            kept = ref.project_simplex_psd(row)[2]
            dropped_positive += any(row[j] > 0 for j in set(range(n)) - set(kept))
            assert distance[i] == ref.distance_closed_form(row, kept)
            assert distance_closed_form(row, kept) == distance[i]
        assert dropped_positive > 0

    def test_two_qubit_ppt_floor(self):
        d = np.array([[-2e-10, 0.3, 0.3, 0.4], [-5e-11, 0.3, 0.3, 0.4], [0.0, 0.25, 0.25, 0.5]])
        neg = pt_negativity(d, (2, 2))
        assert neg.tolist() == [4e-10, 0.0, 0.0]
        assert not np.signbit(neg).any()
        # the sum convention has no floor, and a PPT spectrum reads +0
        assert pt_negativity(d).tolist() == [2e-10, 5e-11, 0.0]
        assert not np.signbit(pt_negativity(d)).any()


def robustness_bisection_oracle(rho, tol=1e-12):
    pt = partial_transpose(rho, "B")
    n = rho.dim
    eye = np.eye(n)

    def min_eig(t):
        return np.linalg.eigvalsh((1 - t) * pt + t / n * eye)[0]

    if min_eig(0.0) >= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if min_eig(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


class TestRobustness:
    def test_bell(self, bell):
        assert robustness_to_identity(bell) == pytest.approx(2 / 3, abs=1e-12)
        assert robustness_to_identity(bell) == pytest.approx(
            robustness_bisection_oracle(bell), abs=1e-9
        )

    def test_max_mixed(self):
        assert robustness_to_identity(max_mixed(4)) == 0.0

    def test_w_state(self, w_state):
        t = robustness_to_identity(w_state)
        assert t == pytest.approx((SQRT2 / 3) / (SQRT2 / 3 + 1 / 8), abs=1e-12)
        assert t == pytest.approx(0.79041, abs=1e-5)
        assert t == pytest.approx(robustness_bisection_oracle(w_state), abs=1e-9)

    def test_certificate_and_monotonicity(self):
        for seed in range(50):
            rho = sample_hs_random(4, seed)
            t = robustness_to_identity(rho)
            pt = partial_transpose(rho, "B")
            mix = lambda s: (1 - s) * pt + s / 4 * np.eye(4)
            if t == 0.0:
                assert np.linalg.eigvalsh(pt)[0] >= -1e-10
                continue
            assert np.linalg.eigvalsh(mix(t))[0] == pytest.approx(0.0, abs=1e-10)
            ts = np.linspace(0, 1, 11)
            mins = [np.linalg.eigvalsh(mix(s))[0] for s in ts]
            assert np.all(np.diff(mins) > 0)


class TestTwoQubitDistance:
    def test_bell(self, bell):
        value, applies = two_qubit_distance(bell)
        assert applies
        assert value == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_ppt(self):
        value, _ = two_qubit_distance(max_mixed(4))
        assert value == 0.0

    def test_wrong_dims(self, w_state):
        with pytest.raises(ValueError):
            two_qubit_distance(w_state)

    def test_formula_matches_exact_whenever_rank3(self):
        checked = 0
        for seed in range(2000):
            rho = sample_hs_random(4, seed)
            value, applies = two_qubit_distance(rho)
            if value == 0.0:
                continue
            if applies:
                checked += 1
                res = closest_pt_state(rho)
                assert abs(value - res.distance_exact) <= 1e-10
        assert checked > 1000


class TestInterpolationLaw:
    def test_pt_spectrum_of_identity_mixture_is_affine(self):
        # eigenvalues of ((1-u) I/n + u rho)^PT are (1-u)/n + u d_i, sorted
        for seed in range(50):
            rho = sample_hs_random(4, seed)
            d = np.linalg.eigvalsh(partial_transpose(rho, "B"))
            for u in (0.0, 0.25, 0.5, 0.75, 1.0):
                mixed = validate_state((1 - u) * np.eye(4) / 4 + u * rho.matrix, (2, 2))
                dm = np.linalg.eigvalsh(partial_transpose(mixed, "B"))
                assert np.allclose(dm, (1 - u) / 4 + u * d, atol=1e-10)
