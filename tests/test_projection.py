import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entgeo import (
    DensityMatrix,
    closest_pt_states,
    distance_closed_form,
    eig_hermitian,
    make_named,
    max_mixed,
    partial_transpose,
    project_simplex_psd,
    pt_negativity,
    pt_robustness,
    sample_hs_random_stack,
    scan_plane,
    validate_state,
)
from entgeo.cli import main, resolve_plane
from entgeo.linalg import DEFAULT_TOL
from entgeo.projection import above_noise_floor
from entgeo.states import state_to_dict

import reference_projection as ref
from reference_geometry import state_at

SQRT2 = np.sqrt(2.0)


def pt_spectrum(rho):
    """Ascending spectrum of rho^PT, as the projection computes it."""
    return closest_pt_states(rho.matrix[None], rho.dims).d[0]


def hs_states(n, count):
    """The first ``count`` HS-random states of dims (2, n/2) from stream 0, and their projections."""
    rhos = sample_hs_random_stack(np.random.default_rng(0), n, count)
    return rhos, closest_pt_states(rhos, (2, n // 2))


def support(kept):
    """Support indices of a boolean support mask."""
    return np.flatnonzero(kept).tolist()


def simplex_oracle(d, target=1.0, tie=1e-12):
    """Brute-force simplex projection by its KKT conditions: enumerate every
    nonempty support, solve for the shift lam on it, and keep the support whose
    entries stay positive, d_i + lam > 0, while every dropped entry has
    d_j + lam <= 0. Returns (x, lam, support).

    Exactly one support qualifies, up to ties d_i + lam = 0, which the
    conditions allow within rounding (``tie``); tied entries are 0 in every
    qualifying support, and the smallest one is returned.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    found = []
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            kept = np.isin(np.arange(n), support)
            lam = (target - d[kept].sum()) / r
            if np.all(d[kept] + lam > -tie) and np.all(d[~kept] + lam <= tie):
                found.append((np.where(kept, d + lam, 0.0), lam, support))
    assert found and all(np.allclose(x, found[0][0], rtol=0, atol=1e-10) for x, _, _ in found), d
    return found[0]


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
        # one spectrum in, the stack's shapes out: a 0-d shift and a support mask
        assert np.shape(lam) == () and kept.dtype == bool and kept.shape == (8,)
        assert support(kept) == [5, 6, 7]

    def test_already_on_simplex(self):
        e2, lam, kept = project_simplex_psd([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(e2, [1, 0, 0, 0])
        assert lam == 0.0
        assert support(kept) == [0]

    def test_derived_example(self):
        e2, lam, kept = project_simplex_psd([1.1, 0.04, -0.14])
        assert np.allclose(e2, [1.0, 0.0, 0.0], atol=1e-12)
        assert lam == pytest.approx(-0.1, abs=1e-12)
        assert support(kept) == [0]

    def test_empty_vector(self):
        with pytest.raises(ValueError, match="empty"):
            project_simplex_psd([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spectrum(self, bad):
        with pytest.raises(ValueError, match="spectrum must be finite"):
            project_simplex_psd([0.5, bad, 0.5])
        with pytest.raises(ValueError, match="spectrum must be finite"):
            project_simplex_psd([[0.5, 0.5], [bad, 1.0]])

    def test_negative_entries_never_kept_for_unit_trace_spectra(self):
        # PT spectra always sum to 1; that forces lam <= 0, so negative
        # eigenvalues can never make it into the support
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.standard_normal(6)
            d += (1.0 - d.sum()) / 6
            e2, lam, kept = project_simplex_psd(d)
            assert lam <= 1e-15
            assert np.all(d[kept] >= 0)
            assert e2.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(e2 >= 0)

    @given(spectrum_strategy())
    @settings(max_examples=300)
    @example([0.5, 0.5, 1e-9, -1.0])  # both supports' residuals round to 1.0; only (0, 1, 2) meets KKT
    def test_matches_brute_force_oracle(self, d):
        e2, lam, kept = project_simplex_psd(d)
        x, lam_o, oracle_support = simplex_oracle(d)
        assert np.allclose(e2, x, atol=1e-10)
        assert lam == pytest.approx(lam_o, abs=1e-10)
        # at a tie (d_i + lam == 0 up to roundoff) the support is ambiguous in
        # floating point while the projection value is not; compare supports
        # only away from ties
        if min(abs(di + lam) for di in d) > 1e-9:
            assert set(support(kept)) == set(oracle_support)

    @given(spectrum_strategy())
    @settings(max_examples=500)
    @example([-2 / 3, 1 / 3])  # the per-index loop kept a stray 1.1e-16 outside its support
    def test_matches_per_index_loop(self, d):
        e2, lam, kept = project_simplex_psd(d)
        ref_e2, ref_lam, ref_kept = ref.project_simplex_psd(d)
        if np.min(np.abs(np.asarray(d) + lam)) > 1e-12:
            assert np.array_equal(e2, ref_e2) and lam == ref_lam and support(kept) == list(ref_kept)
        else:
            # at a tie d_i + lam == 0 the least candidate and the loop's last
            # holding one may round apart
            assert abs(lam - ref_lam) <= 2 * np.spacing(abs(ref_lam))
        assert np.array_equal(kept, e2 > 0) and (e2 >= 0).all()
        assert abs(e2.sum() - 1.0) <= 1e-12

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n), min_size=6, max_size=6)
        )
    )
    @settings(max_examples=100)
    def test_stack_matches_rows(self, rows):
        d = np.reshape(rows, (3, 2, -1))
        e2, lam, kept = project_simplex_psd(d)
        assert e2.shape == kept.shape == d.shape and lam.shape == (3, 2)
        for i, j in np.ndindex(3, 2):
            row_e2, row_lam, row_kept = project_simplex_psd(d[i, j])
            assert np.array_equal(e2[i, j], row_e2) and lam[i, j] == row_lam and np.array_equal(kept[i, j], row_kept)

    def test_empty_support_rejected(self):
        # 1 - 1e17 rounds to -1e17, and every candidate shift leaves d + lam <= 0
        with pytest.raises(ValueError, match="empty support"):
            project_simplex_psd([1e17, 1.0, -1e17])
        with pytest.raises(ValueError, match="empty support"):
            project_simplex_psd([[0.5, 0.5, 0.0], [1e17, 1.0, -1e17]])


class TestClosestPtState:
    def test_w_state_golden(self, w_state, w_rho_s):
        res = closest_pt_states(w_state.matrix[None], w_state.dims)
        assert np.max(np.abs(res.rho_s[0] - w_rho_s)) <= 1e-10
        assert np.linalg.norm(w_state.matrix - res.rho_s[0]) == pytest.approx((2 / 3) ** 1.5, abs=1e-12)
        assert distance_closed_form(res.d, res.kept)[0] == pytest.approx((2 / 3) ** 1.5, abs=1e-12)
        assert res.rho_s_is_positive[0]
        assert res.d[0, 0] == pytest.approx(-SQRT2 / 3, abs=1e-12)
        expected_e2 = sorted([2 / 3 - SQRT2 / 9, 2 * SQRT2 / 9, 1 / 3 - SQRT2 / 9], reverse=True)
        e_squared = np.sort(res.e2[0])[::-1]
        assert np.allclose(e_squared[:3], expected_e2, atol=1e-10)
        assert np.allclose(e_squared[3:], 0.0)

    def test_bell_golden(self, bell, bell_rho_s):
        res = closest_pt_states(bell.matrix[None], bell.dims)
        assert np.max(np.abs(res.rho_s[0] - bell_rho_s)) <= 1e-10
        assert np.linalg.norm(bell.matrix - res.rho_s[0]) == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert res.rank[0] == 3

    def test_ppt_fixed_point(self):
        sigma = make_named("ff2_rho2")  # product state, PPT
        res = closest_pt_states(sigma.matrix[None], sigma.dims)
        assert np.linalg.norm(sigma.matrix - res.rho_s[0]) <= 1e-10
        assert np.max(np.abs(res.rho_s[0] - sigma.matrix)) <= 1e-10

    def test_ppt_idempotence_random(self):
        rhos, res = hs_states(4, 300)
        ppt = np.linalg.eigvalsh(partial_transpose(rhos, (2, 2)))[:, 0] >= 0
        assert ppt.sum() > 10
        for rho, rho_s in zip(rhos[ppt], res.rho_s[ppt]):
            assert np.linalg.norm(rho - rho_s) <= 1e-10

    def test_invariants_random(self):
        rhos, res = hs_states(4, 500)
        for rho, rho_s, e2 in zip(rhos, res.rho_s, res.e2):
            assert np.all(e2 >= 0)
            assert e2.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.trace(rho_s).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(rho_s - rho_s.conj().T) <= 1e-10
            # PT isometry: distance computed in PT space equals state space
            pt = partial_transpose(rho, (2, 2))
            sigma = partial_transpose(rho_s, (2, 2))
            assert abs(np.linalg.norm(rho - rho_s) - np.linalg.norm(pt - sigma)) <= 1e-12

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
            res = closest_pt_states(rho[None], (2, 2))
            if res.d[0, 0] >= -1e-10 or res.rank[0] != 2:
                continue
            rank2 += 1
            if res.rho_s_is_positive[0]:
                violations.append(seed)
        assert rank2 > 20
        assert not violations, f"{len(violations)}/{rank2} rank-2 cases had PSD rho_s"


def haar_unitaries(rng, d, count):
    """``count`` Haar-random d x d unitaries: QR of complex Ginibre matrices, each column's phase fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d)))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


CERTIFICATE_DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]


class TestCertificates:
    """Properties of the projection from its mathematics, whatever algorithm computes it."""

    @pytest.mark.parametrize("dims", CERTIFICATE_DIMS)
    def test_projection_is_optimal(self, dims):
        # sigma* = rho_s^PT is the projection of rho^PT onto the trace-1 PSD set iff it
        # lies in the set and lambda_max(G) <= tr(G sigma*) for G = rho^PT - sigma*: the
        # variational inequality on the pure states, whose hull is the set
        rhos = sample_hs_random_stack(np.random.default_rng(1), dims[0] * dims[1], 500)
        sigma = partial_transpose(closest_pt_states(rhos, dims).rho_s, dims)
        assert np.max(np.abs(np.trace(sigma, axis1=1, axis2=2) - 1)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(sigma)[:, 0]) >= -1e-12
        g = partial_transpose(rhos, dims) - sigma
        excess = np.linalg.eigvalsh(g)[:, -1] - np.einsum("kij,kji->k", g, sigma).real
        assert np.max(excess) <= 1e-12

    @pytest.mark.parametrize("dims", CERTIFICATE_DIMS)
    def test_local_unitary_covariance(self, dims):
        # (U_A x U_B) rho (U_A x U_B)^dagger has the closest PT state (U_A x U_B) rho_s (U_A x U_B)^dagger
        n, count = dims[0] * dims[1], 500
        rng = np.random.default_rng(2)
        rhos = sample_hs_random_stack(rng, n, count)
        ua, ub = haar_unitaries(rng, dims[0], count), haar_unitaries(rng, dims[1], count)
        u = np.einsum("kij,kab->kiajb", ua, ub).reshape(count, n, n)

        def turned(m):
            return u @ m @ u.conj().swapaxes(-1, -2)

        got = closest_pt_states(turned(rhos), dims).rho_s
        assert np.max(np.abs(got - turned(closest_pt_states(rhos, dims).rho_s))) <= 1e-12


class TestRhoSLeastEigenvalue:
    """rho_s's least eigenvalue comes from the eigenvalue-only solver; its flags read as eigh's."""

    @pytest.mark.parametrize(
        "dims, count",
        [((2, 2), 10**4), ((2, 3), 1000), ((3, 3), 1000), ((2, 4), 1000), ((3, 4), 1000), ((4, 4), 1000)],
        ids=["2x2", "2x3", "3x3", "2x4", "3x4", "4x4"],
    )
    def test_flags_match_eigh(self, dims, count):
        res = closest_pt_states(sample_hs_random_stack(np.random.default_rng(0), dims[0] * dims[1], count), dims)
        want = np.linalg.eigh(res.rho_s)[0][:, 0]
        assert np.abs(res.rho_s_min_eig - want).max() <= 1e-15
        positive = want >= -DEFAULT_TOL
        assert np.array_equal(res.rho_s_is_positive, positive)
        assert np.array_equal(res.borderline, positive & ~above_noise_floor(want))

    def test_w_is_not_borderline(self, w_state, tmp_path, capsys):
        # rho_s has exact zero eigenvalues, read as roundoff of either sign: above the noise floor
        res = closest_pt_states(w_state.matrix[None], w_state.dims)
        assert abs(res.rho_s_min_eig[0]) < 1e-16
        assert main(["project", "--state", "w", "--json", str(tmp_path / "w.json")]) == 0
        assert "rho_s PSD:            yes\n" in capsys.readouterr().out
        assert json.loads((tmp_path / "w.json").read_text())["borderline"] is False

    @pytest.mark.parametrize("dims", [(1, 3), (1, 4)], ids=["1x3", "1x4"])
    def test_rank_deficient_rho_s_reads_alike_under_either_solver(self, dims, tmp_path, capsys):
        # with dA = 1 the PT is the full transpose and rho_s = rho, so a rank-2 rho has n - 2
        # exact zero eigenvalues; eigh and eigvalsh read their least with either sign
        n = dims[0] * dims[1]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            res = closest_pt_states(rho[None], dims)
            for min_eig in (res.rho_s_min_eig[0], np.linalg.eigh(res.rho_s[0])[0][0]):
                assert abs(min_eig) < 1e-15
                assert above_noise_floor(min_eig)
            path = tmp_path / "rank2.json"
            path.write_text(json.dumps(state_to_dict(DensityMatrix(rho, dims))))
            assert main(["project", "--state", str(path), "--json", str(tmp_path / "r.json")]) == 0
            assert "rho_s PSD:            yes\n" in capsys.readouterr().out
            assert json.loads((tmp_path / "r.json").read_text())["borderline"] is False


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

    def test_exact_when_positive_eigenvalues_dropped(self):
        d = np.array([1.1, 0.04, -0.14])
        e2, _, kept = project_simplex_psd(d)
        exact = np.linalg.norm(e2 - d)
        assert exact == pytest.approx(np.sqrt(0.01 + 0.04**2 + 0.14**2), abs=1e-12)
        assert distance_closed_form(d, kept) == pytest.approx(exact, abs=1e-15)
        # the paper's formula leaves out the dropped 0.04^2 and undershoots
        assert ref.distance_closed_form(d, np.flatnonzero(kept)) < exact - 1e-3

    def test_empty_kept(self):
        with pytest.raises(ValueError, match="empty"):
            distance_closed_form([1.0, -0.5], [False, False])

    def test_support_indices_rejected(self):
        # an index list as long as the spectrum has a mask's shape; it must not pass for one
        d = [0.9, 0.2, -0.1]
        with pytest.raises(ValueError, match="boolean support mask"):
            distance_closed_form(d, [0, 1, 2])
        assert distance_closed_form(d, [True, True, False]) == pytest.approx(np.sqrt(0.01 / 2 + 0.01), abs=1e-12)


class TestNegativity:
    """N = ||rho^PT||_1 - 1 = 2 * sum of |negative PT eigenvalues|, for every bipartition."""

    def test_bell(self, bell):
        assert pt_negativity(pt_spectrum(bell)) == pytest.approx(1.0, abs=1e-12)

    def test_w_state(self, w_state):
        # Vidal and Werner's negativity, N/2, is the W state's sqrt(2)/3
        assert pt_negativity(pt_spectrum(w_state)) / 2 == pytest.approx(SQRT2 / 3, abs=1e-12)

    def test_max_mixed(self):
        assert pt_negativity(pt_spectrum(max_mixed(4))) == 0.0

    def test_max_mixed_8(self):
        assert pt_negativity(pt_spectrum(max_mixed(8))) == 0.0

    def test_werner_boundary(self, bell):
        t = 2 / 3
        mix = validate_state((1 - t) * bell.matrix + t * np.eye(4) / 4, (2, 2))
        assert pt_negativity(pt_spectrum(mix)) == pytest.approx(0.0, abs=1e-10)
        barely = validate_state(0.4 * bell.matrix + 0.6 * np.eye(4) / 4, (2, 2))
        assert pt_negativity(pt_spectrum(barely)) == pytest.approx(2 * (0.4 * 0.5 - 0.15), abs=1e-12)

    def test_is_the_trace_norm_minus_one(self):
        # the definition, with numpy only: ||M^PT||_1 - 1 for trace-1 Hermitian
        # M, states or not (ff3 scan cells outside the state body)
        cases = []
        for dims in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]:
            stack = sample_hs_random_stack(np.random.default_rng(0), dims[0] * dims[1], 40)
            cases.append((stack, dims, pt_negativity(eig_hermitian(partial_transpose(stack, dims))[0])))
        for rho in (make_named("w_state"), make_named("bell_psi_plus")):
            cases.append((rho.matrix[None], rho.dims, pt_negativity(pt_spectrum(rho))))
        grid = scan_plane(resolve_plane("ff3"), (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        outside = ~grid.is_state
        cells = state_at(grid.plane, *np.meshgrid(grid.a_values, grid.b_values, indexing="ij"))[outside]
        cases.append((cells, (2, 2), grid.negativity[outside]))
        most_negative = 0
        for stack, (da, db), got in cases:
            pt = stack.reshape(-1, da, db, da, db).transpose(0, 1, 4, 3, 2).reshape(-1, da * db, da * db)
            assert np.max(np.abs(got - (np.linalg.norm(pt, "nuc", axis=(-2, -1)) - 1))) <= 1e-12
            most_negative = max(most_negative, (np.linalg.eigvalsh(pt) < -1e-10).sum(axis=-1).max())
        # more than one negative eigenvalue: N is not 2|d_min| here
        assert most_negative >= 2

    def test_noise_floor(self):
        # at or above -PPT_EIG_TOL the least eigenvalue reads +0, whatever the
        # dims; below it every negative eigenvalue counts
        for n in (4, 6, 8, 9, 12, 16):
            pad = [1.0 / n] * (n - 2)
            d = np.array([[-2e-10, -5e-11] + pad, [-1e-10, 0.0] + pad, [-5e-11, -1e-11] + pad, [0.0, 0.0] + pad])
            neg = pt_negativity(d)
            assert neg.tolist() == [2 * (2e-10 + 5e-11), 0.0, 0.0, 0.0]
            assert not np.signbit(neg).any()


class TestSpectralMeasures:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_stack_matches_per_state_formulas(self, dims):
        n = dims[0] * dims[1]
        hs = eig_hermitian(partial_transpose(sample_hs_random_stack(np.random.default_rng(0), n, 200), dims))[0]
        # trace-1 spectra with large negative parts, where the projection also
        # drops positive eigenvalues
        x = np.random.default_rng(n).normal(size=(200, n))
        d = np.concatenate([hs, np.sort(x - x.mean(axis=1, keepdims=True) + 1.0 / n, axis=1)])
        neg = pt_negativity(d)
        robustness = pt_robustness(d)
        distance = distance_closed_form(d, project_simplex_psd(d)[2])
        dropped_positive = 0
        for i, row in enumerate(d):
            npt = row[0] < -1e-10
            assert neg[i] == (2.0 * sum(-x for x in row if x < 0) if npt else 0.0)
            want = -row[0] / (-row[0] + 1.0 / n) if npt else 0.0
            assert pt_robustness(row) == want
            assert robustness[i] == want
            e2, _, kept = ref.project_simplex_psd(row)
            if ref.drops_only_negatives(row, kept):
                assert distance[i] == ref.distance_closed_form(row, kept)
            else:
                dropped_positive += 1
                assert abs(distance[i] - np.linalg.norm(row - e2)) <= 1e-14
            assert distance_closed_form(row, np.isin(np.arange(n), kept)) == distance[i]
        assert dropped_positive > 0


def robustness_bisection_oracle(rho, tol=1e-12):
    pt = partial_transpose(rho.matrix, rho.dims)
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
        t = pt_robustness(pt_spectrum(bell))
        assert t == pytest.approx(2 / 3, abs=1e-12)
        assert t == pytest.approx(robustness_bisection_oracle(bell), abs=1e-9)

    def test_max_mixed(self):
        assert pt_robustness(pt_spectrum(max_mixed(4))) == 0.0

    def test_w_state(self, w_state):
        t = pt_robustness(pt_spectrum(w_state))
        assert t == pytest.approx((SQRT2 / 3) / (SQRT2 / 3 + 1 / 8), abs=1e-12)
        assert t == pytest.approx(0.79041, abs=1e-5)
        assert t == pytest.approx(robustness_bisection_oracle(w_state), abs=1e-9)

    def test_certificate_and_monotonicity(self):
        rhos, res = hs_states(4, 50)
        for rho, d in zip(rhos, res.d):
            t = pt_robustness(d)
            pt = partial_transpose(rho, (2, 2))
            mix = lambda s: (1 - s) * pt + s / 4 * np.eye(4)
            if t == 0.0:
                assert np.linalg.eigvalsh(pt)[0] >= -1e-10
                continue
            assert np.linalg.eigvalsh(mix(t))[0] == pytest.approx(0.0, abs=1e-10)
            ts = np.linspace(0, 1, 11)
            mins = [np.linalg.eigvalsh(mix(s))[0] for s in ts]
            assert np.all(np.diff(mins) > 0)


def two_qubit_formula(d_min):
    """The paper's two-qubit distance (2/sqrt(3))|d_min|, exact when the support has rank 3."""
    return 2.0 / np.sqrt(3.0) * abs(d_min)


class TestTwoQubitDistance:
    def test_bell(self, bell):
        res = closest_pt_states(bell.matrix[None], bell.dims)
        d_min = res.d[0, 0]
        assert res.rank[0] == 3
        assert two_qubit_formula(d_min) == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert np.linalg.norm(bell.matrix - res.rho_s[0]) == pytest.approx(two_qubit_formula(d_min), abs=1e-12)
        assert distance_closed_form(res.d, res.kept)[0] == pytest.approx(two_qubit_formula(d_min), abs=1e-12)

    def test_ppt(self):
        rho = max_mixed(4)
        res = closest_pt_states(rho.matrix[None], rho.dims)
        assert distance_closed_form(res.d, res.kept)[0] == 0.0
        assert np.linalg.norm(rho.matrix - res.rho_s[0]) <= 1e-15

    def test_wrong_dims(self):
        # the formula is the two-qubit case n = 4 of sqrt(n/(n-1))|d_min|, the
        # distance of a spectrum with one negative eigenvalue and rank n - 1;
        # on 2x3 it overshoots by sqrt((4/3) / (6/5))
        rhos, res = hs_states(6, 200)
        checked = (res.rank == 5) & (res.d[:, 1] >= 0)
        assert checked.sum() > 10
        for rho, rho_s, d in zip(rhos[checked], res.rho_s[checked], res.d[checked]):
            distance = np.linalg.norm(rho - rho_s)
            assert distance == pytest.approx(np.sqrt(6 / 5) * -d[0], abs=1e-12)
            assert two_qubit_formula(d[0]) == pytest.approx(np.sqrt(10 / 9) * distance, rel=1e-12)

    def test_formula_matches_exact_whenever_rank3(self):
        rhos, res = hs_states(4, 2000)
        checked = (res.d[:, 0] < -1e-10) & (res.rank == 3)
        assert checked.sum() > 1000
        formula = two_qubit_formula(res.d[checked, 0])
        distance = np.linalg.norm(rhos - res.rho_s, axis=(1, 2))[checked]
        assert np.abs(formula - distance).max() <= 1e-10
        assert np.abs(formula - distance_closed_form(res.d, res.kept)[checked]).max() <= 1e-10


class TestInterpolationLaw:
    def test_pt_spectrum_of_identity_mixture_is_affine(self):
        # eigenvalues of ((1-u) I/n + u rho)^PT are (1-u)/n + u d_i, sorted
        for rho in sample_hs_random_stack(np.random.default_rng(0), 4, 50):
            d = np.linalg.eigvalsh(partial_transpose(rho, (2, 2)))
            for u in (0.0, 0.25, 0.5, 0.75, 1.0):
                mixed = validate_state((1 - u) * np.eye(4) / 4 + u * rho, (2, 2))
                dm = np.linalg.eigvalsh(partial_transpose(mixed.matrix, mixed.dims))
                assert np.allclose(dm, (1 - u) / 4 + u * d, atol=1e-10)


class TestAnalyticOracles:
    def test_rebit_ppt_probability(self):
        # Under the Hilbert-Schmidt measure on real two-qubit states the PPT
        # probability is 29/64 (Lovas & Andai, J. Phys. A 50, 295303, 2017).
        # rho = G G^T / tr(G G^T) with G a real 4x5 Gaussian matrix samples that
        # measure (a square G gives another one); real input runs through the
        # complex PT and noise-floor path.
        samples = 40_000
        g = np.random.default_rng(2017).standard_normal((samples, 4, 5))
        rhos = g @ g.swapaxes(-1, -2)
        rhos /= np.trace(rhos, axis1=-2, axis2=-1)[:, None, None]
        d = eig_hermitian(partial_transpose(rhos, (2, 2)))[0]
        p = 29 / 64
        z = (above_noise_floor(d[:, 0]).mean() - p) / np.sqrt(p * (1 - p) / samples)
        assert abs(z) < 4
