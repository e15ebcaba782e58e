import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entgeo import (
    boundary_contours,
    build_plane,
    contours_to_json,
    grid_to_csv,
    make_named,
    max_mixed,
    pt_negativity,
    sample_hs_random_stack,
    scan_plane,
)
from entgeo import geometry, linalg
from entgeo.cli import resolve_plane
from entgeo.projection import above_noise_floor
from entgeo.states import DensityMatrix, partial_transpose

from reference_geometry import state_at

SQRT3 = np.sqrt(3.0)


def ff_anchors(tag):
    return make_named("bell_psi_plus"), make_named(f"{tag}_rho2")


def ff_plane(tag):
    return build_plane(*ff_anchors(tag))


def coordinates(plane, m):
    """(a, b) frame coordinates of a matrix (its in-plane component)."""
    centered = m - np.eye(plane.n) / plane.n
    return np.vdot(plane.a1, centered).real, np.vdot(plane.a2, centered).real


def grid_step(grid):
    return max(grid.a_values[1] - grid.a_values[0], grid.b_values[1] - grid.b_values[0])


def exact_radius(plane, theta, kind, level=0.0):
    """Radius of a contour along the ray from I/n at angle theta, by the paper's similarity law.

    Every eigenvalue of I/n + r*B, with B = cos(theta)*A1 + sin(theta)*A2, and
    of its PT is 1/n + r*mu for mu an eigenvalue of B or of B^PT. Both are
    traceless, so their least eigenvalue is negative and each contour is met
    once: the state boundary at r = 1/(n|lambda_min(B)|), the PPT boundary at
    r = 1/(n|mu_min(B^PT)|), and two-qubit negativity N = -2(1/n + r*mu_min)
    inside the state body at r = (N/2 + 1/n)/|mu_min(B^PT)|, which is
    r_PPT*(1 + n*N/2).
    """
    theta = np.asarray(theta, dtype=float)[..., None, None]
    b = np.cos(theta) * plane.a1 + np.sin(theta) * plane.a2
    if kind == "state_boundary":
        return 1 / (plane.n * -np.linalg.eigvalsh(b)[..., 0])
    mu = np.linalg.eigvalsh(partial_transpose(b, plane.dims))[..., 0]
    return (level / 2 + 1 / plane.n) / -mu


def in_state_body(plane, pts):
    """The (a, b) points no farther from I/n than the state boundary on their ray."""
    pts = np.asarray(pts).reshape(-1, 2)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= exact_radius(plane, theta, "state_boundary")]


def radial_errors(grid, kind, level=0.0):
    """|r - exact radius| at every contour point; negativity points only inside the state body."""
    lines = boundary_contours(grid, kind, level)
    pts = np.vstack(lines) if lines else np.empty((0, 2))
    if kind == "negativity":
        pts = in_state_body(grid.plane, pts)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    return np.abs(np.hypot(pts[:, 0], pts[:, 1]) - exact_radius(grid.plane, theta, kind, level))


def law_residuals(plane, kind, level, lines):
    """At every vertex, from eigvalsh of its own matrix: |least eigenvalue| (state
    boundary), |least PT eigenvalue| (PPT boundary) or |negativity - level|."""
    pts = np.vstack(lines)
    m = state_at(plane, pts[:, 0], pts[:, 1])
    if kind == "state_boundary":
        return np.abs(np.linalg.eigvalsh(m)[:, 0])
    d = np.linalg.eigvalsh(partial_transpose(m, plane.dims))
    return np.abs(d[:, 0] if kind == "ppt_boundary" else pt_negativity(d) - level)


def chord_sags(plane, kind, level, line):
    """Per chord of a polyline, the largest distance from the exact curve to it, at 8 angles between its ends."""
    theta = np.arctan2(line[:, 1], line[:, 0])
    step = np.angle(np.exp(1j * np.diff(theta)))
    phi = theta[:-1, None] + step[:, None] * (np.arange(1, 9) / 9)
    curve = exact_radius(plane, phi, kind, level)[..., None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    rel = curve - line[:-1, None]
    chord = (line[1:] - line[:-1])[:, None]
    cross = rel[..., 0] * chord[..., 1] - rel[..., 1] * chord[..., 0]
    return np.max(np.abs(cross) / np.hypot(chord[..., 0], chord[..., 1]), axis=1)


def hs_plane(dims, seeds=(1, 2)):
    n = dims[0] * dims[1]
    rho1, rho2 = (sample_hs_random_stack(np.random.default_rng(s), n, 1)[0] for s in seeds)
    return build_plane(DensityMatrix(rho1, dims), DensityMatrix(rho2, dims))


def assert_matches_direct_solves(plane, a_range, b_range):
    """Every cell of the scan against eigvalsh of its own matrix and of its PT."""
    grid = scan_plane(plane, a_range, b_range)
    aa, bb = np.meshgrid(grid.a_values, grid.b_values, indexing="ij")
    m = state_at(plane, aa, bb)
    eigs = np.linalg.eigvalsh(m)
    eigs_pt = np.linalg.eigvalsh(partial_transpose(m, plane.dims))
    assert np.max(np.abs(grid.min_eig - eigs[..., 0])) <= 1e-14
    assert np.max(np.abs(grid.min_eig_pt - eigs_pt[..., 0])) <= 1e-14
    assert np.max(np.abs(grid.negativity - pt_negativity(eigs_pt))) <= 1e-14
    assert np.array_equal(grid.is_state, above_noise_floor(eigs[..., 0]))
    assert np.array_equal(grid.is_ppt, grid.is_state & above_noise_floor(eigs_pt[..., 0]))


def record_solves(monkeypatch):
    """The shapes of the stacks geometry hands to eigvalsh from now on."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(m):
        shapes.append(np.shape(m))
        return eigvalsh(m)

    monkeypatch.setattr(geometry.np.linalg, "eigvalsh", recorded)
    return shapes


def max_perpendicular_deviation(pts):
    pts = np.asarray(pts)
    c = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(c, full_matrices=False)
    return float(np.max(np.abs(c @ vt[1])))


def split_into_straight_runs(pts, tol):
    """Split a polyline at its kinks until every run is collinear within tol.

    Douglas-Peucker style: recurse at the point farthest from the chord, which
    lands on the junction when two straight pieces are chained together.
    """
    runs = []

    def rec(p):
        if len(p) < 3 or max_perpendicular_deviation(p) <= tol:
            runs.append(p)
            return
        chord = p[-1] - p[0]
        norm = np.hypot(*chord)
        if norm < 1e-12:
            dist = np.hypot(*(p - p[0]).T)
        else:
            rel = p - p[0]
            dist = np.abs(rel[:, 0] * chord[1] - rel[:, 1] * chord[0]) / norm
        i = int(np.argmax(dist))
        i = max(1, min(len(p) - 2, i))
        rec(p[: i + 1])
        rec(p[i:])

    rec(np.asarray(pts))
    return runs


class TestBuildPlane:
    def test_ff2_anchors_hs_orthogonal(self):
        rho1 = make_named("bell_psi_plus")
        rho2 = make_named("ff2_rho2")
        center = np.eye(4) / 4
        assert np.vdot(rho1.matrix - center, rho2.matrix - center) == pytest.approx(0)
        plane = build_plane(rho1, rho2)
        direct = (rho2.matrix - center) / np.linalg.norm(rho2.matrix - center)
        assert np.max(np.abs(plane.a2 - direct)) <= 1e-12

    def test_frame_invariants(self):
        for tag in ("ff1", "ff2", "ff3", "ff4", "ff8"):
            plane = ff_plane(tag)
            assert abs(np.vdot(plane.a1, plane.a2)) <= 1e-12
            for a in (plane.a1, plane.a2):
                assert abs(np.linalg.norm(a) - 1) <= 1e-12
                assert abs(np.trace(a)) <= 1e-12
                assert np.linalg.norm(a - a.conj().T) <= 1e-12
            # anchors are exactly representable in the frame
            for rho in ff_anchors(tag):
                a, b = coordinates(plane, rho.matrix)
                assert np.linalg.norm(rho.matrix - state_at(plane, a, b)) <= 1e-10

    def test_ff1_bell_radius(self):
        plane = ff_plane("ff1")
        a, b = coordinates(plane, make_named("bell_psi_plus").matrix)
        assert a == pytest.approx(SQRT3 / 2, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_plane(self):
        rho = make_named("bell_psi_plus")
        with pytest.raises(ValueError, match="degenerate"):
            build_plane(rho, rho)

    def test_dim_mismatch(self):
        bell = make_named("bell_psi_plus")
        # a (4, 1) state has bell's size but not its PT, so the PPT cells
        # would depend on which anchor comes first
        s41 = DensityMatrix(sample_hs_random_stack(np.random.default_rng(3), 4, 1)[0], (4, 1))
        for rho1, rho2 in [(make_named("w_state"), bell), (s41, bell), (bell, s41)]:
            with pytest.raises(ValueError, match="anchors must share the bipartition, got dimensions"):
                build_plane(rho1, rho2)

    def test_first_anchor_at_the_center(self):
        with pytest.raises(ValueError, match="first anchor coincides with the maximally mixed state"):
            build_plane(max_mixed(4), make_named("bell_psi_plus"))


class TestStateAt:
    def test_origin_is_max_mixed(self):
        plane = ff_plane("ff1")
        assert np.allclose(state_at(plane, 0, 0), np.eye(4) / 4)

    def test_bell_recovered(self):
        plane = ff_plane("ff1")
        m = state_at(plane, SQRT3 / 2, 0)
        assert np.max(np.abs(m - make_named("bell_psi_plus").matrix)) <= 1e-12

    def test_frame_is_isometric(self):
        plane = ff_plane("ff3")
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, a2, b2 = rng.uniform(-1, 1, 4)
            dist = np.linalg.norm(state_at(plane, a, b) - state_at(plane, a2, b2))
            assert dist == pytest.approx(np.hypot(a - a2, b - b2), abs=1e-12)


@pytest.fixture(scope="module")
def ff1_grid():
    return scan_plane(ff_plane("ff1"), (-0.9, 0.9, 401), (-0.9, 0.9, 401))


class TestScanPlane:
    def test_center_cell(self, ff1_grid):
        i = int(np.argmin(np.abs(ff1_grid.a_values)))
        j = int(np.argmin(np.abs(ff1_grid.b_values)))
        assert ff1_grid.is_state[i, j]
        assert ff1_grid.negativity[i, j] == 0.0

    def test_field_invariants(self, ff1_grid):
        g = ff1_grid
        assert np.array_equal(g.is_state, g.min_eig >= -1e-10)
        assert np.array_equal(g.is_ppt, g.is_state & (g.min_eig_pt >= -1e-10))
        # a two-qubit state has at most one negative PT eigenvalue, so N = 2|min_eig_pt| there
        state = g.is_state
        assert np.allclose(g.negativity[state], 2 * np.maximum(0, -g.min_eig_pt[state]))

    def test_werner_ppt_crossing(self, ff1_grid):
        # along b = 0 the PPT flip happens exactly where negativity reaches 0,
        # at radius sqrt(3)/6 by the affine interpolation law
        g = ff1_grid
        j = int(np.argmin(np.abs(g.b_values)))
        row = g.min_eig_pt[:, j]
        a = g.a_values
        crossing = None
        for i in range(len(a) - 1):
            if a[i] > 0 and row[i] >= 0 and row[i + 1] < 0:
                t = row[i] / (row[i] - row[i + 1])
                crossing = a[i] + t * (a[i + 1] - a[i])
        assert crossing == pytest.approx(SQRT3 / 6, abs=1e-10)
        neg_zero = g.negativity[:, j][a > 0]
        flips = np.flatnonzero(np.diff(neg_zero > 0))
        assert len(flips) == 1

    def test_minimal_resolution(self):
        grid = scan_plane(ff_plane("ff2"), (-0.5, 0.5, 2), (-0.5, 0.5, 2))
        csv = grid_to_csv(grid)
        lines = csv.strip().split("\n")
        assert lines[0] == "a,b,min_eig,min_eig_pt,negativity,is_state,is_ppt"
        assert len(lines) == 5

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            scan_plane(ff_plane("ff1"), (-0.5, 0.5, 1), (-0.5, 0.5, 2))
        # empty, reversed and unbounded axis ranges, and one whose span overflows
        bad = [(0.9, -0.9), (0.5, 0.5), (np.nan, 0.5), (-0.5, np.inf), (-np.inf, 0.5), (-1e308, 1e308)]
        for lo, hi in bad:
            with pytest.raises(ValueError, match="lo < hi"):
                scan_plane(ff_plane("ff3"), (lo, hi, 41), (-0.9, 0.9, 41))
            with pytest.raises(ValueError, match="lo < hi"):
                scan_plane(ff_plane("ff3"), (-0.9, 0.9, 41), (lo, hi, 41))

    def test_deterministic_csv(self):
        g1 = scan_plane(ff_plane("ff3"), (-0.9, 0.9, 31), (-0.9, 0.9, 31))
        g2 = scan_plane(ff_plane("ff3"), (-0.9, 0.9, 31), (-0.9, 0.9, 31))
        assert grid_to_csv(g1) == grid_to_csv(g2)

    def test_block_size_does_not_change_output(self, monkeypatch):
        plane = ff_plane("ff2")
        g1 = scan_plane(plane, (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        monkeypatch.setattr(linalg, "STACK_ELEMENTS", 7 * 16)
        g2 = scan_plane(plane, (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        assert grid_to_csv(g1) == grid_to_csv(g2)

    @pytest.mark.parametrize(
        "dims, block, resolution",
        [((2, 2), 16384, 129), ((2, 4), 16384, 65), ((4, 4), 16384, 33), ((6, 6), 16384, 15), ((2, 4), 3, 3)]
        + [((2, 2), 512, 129), ((6, 6), 512, 15)],
    )
    def test_eigensolve_stacks_bound_matrix_elements(self, monkeypatch, dims, block, resolution):
        # block matrices per stack at n = 4: STACK_ELEMENTS // n^2, and at least one
        n = dims[0] * dims[1]
        plane = hs_plane(dims)
        monkeypatch.setattr(linalg, "STACK_ELEMENTS", block * 16)
        shapes = record_solves(monkeypatch)
        for lo in (-0.1, -0.05):
            scan_plane(plane, (lo, 0.1, resolution), (-0.1, 0.1, resolution))
        assert shapes and all(shape[1:] == (n, n) for shape in shapes)
        assert max(np.prod(shape) for shape in shapes) <= max(block * 16, n * n)

    def test_symmetric_grids_solve_once_per_ray(self, monkeypatch):
        # the cells of a 401^2 grid over -0.9:0.9 sit at 0.0045 * (P, Q) with P
        # and Q even in -400..400: 48 928 primitive directions up to sign,
        # plus the center, each solved for the matrix and for its PT
        plane = ff_plane("ff3")
        shapes = record_solves(monkeypatch)
        scan_plane(plane, (-0.9, 0.9, 401), (-0.9, 0.9, 401))
        assert sum(shape[0] for shape in shapes) == 2 * 48929
        # any other grid solves every cell
        shapes.clear()
        scan_plane(plane, (-0.3, 0.9, 101), (-0.9, 0.9, 57))
        assert sum(shape[0] for shape in shapes) == 2 * 101 * 57

    def test_resolution_cap_is_checked_before_anything_is_built(self, monkeypatch):
        plane = ff_plane("ff1")

        def unreachable(*args, **kwargs):
            raise AssertionError("scan went past the resolution check")

        monkeypatch.setattr(geometry, "_rays", unreachable)
        monkeypatch.setattr(geometry.np.linalg, "eigvalsh", unreachable)
        cap = geometry.MAX_RESOLUTION
        for na, nb in [(cap + 1, 2), (2, cap + 1)]:
            with pytest.raises(ValueError, match=f"need 2 to {cap} steps per axis, got {na}x{nb}"):
                scan_plane(plane, (-0.9, 0.9, na), (-0.9, 0.9, nb))


class TestScanAgainstDirectSolves:
    """One solve per ray gives every cell what its own eigensolve gives."""

    @pytest.mark.parametrize("resolution", [100, 101])
    @pytest.mark.parametrize("spec", ["ff1", "ff2", "ff3", "ff4", "ff8", "random:1", "random:2"])
    def test_named_planes(self, spec, resolution):
        rng = (-0.9, 0.9, resolution)
        assert_matches_direct_solves(resolve_plane(spec), rng, rng)

    @pytest.mark.parametrize(
        "a_range, b_range",
        [
            ((-0.5, 0.5, 41), (-0.9, 0.9, 60)),  # symmetric, a different step per axis
            ((-0.3, 0.9, 51), (-0.3, 0.9, 51)),
            ((-0.9, 0.9, 41), (0.1, 0.7, 30)),  # one axis symmetric, the other not
            ((-0.8, -0.2, 2), (-0.9, 0.9, 3)),
        ],
    )
    @pytest.mark.parametrize("spec", ["ff8", "random:1"])
    def test_ranges(self, spec, a_range, b_range):
        assert_matches_direct_solves(resolve_plane(spec), a_range, b_range)

    @pytest.mark.parametrize(
        "a_range, b_range", [((-0.6, 0.6, 45), (-0.6, 0.6, 44)), ((-0.3, 0.9, 31), (-0.6, 0.6, 31))]
    )
    def test_two_by_three_plane(self, a_range, b_range):
        assert_matches_direct_solves(hs_plane((2, 3)), a_range, b_range)

    @given(
        st.integers(2, 40),
        st.floats(0.05, 1.0).flatmap(lambda hi: st.tuples(st.just(-hi) | st.floats(-1.0, hi - 0.01), st.just(hi))),
    )
    @settings(max_examples=40, deadline=None)
    @example(2, (-0.9, 0.9))
    @example(3, (-0.9, 0.9))
    @example(41, (-0.3, 0.9))
    def test_cli_grids(self, resolution, bounds):
        # the grids `entgeo scan` asks for: one range and resolution for both axes
        rng = (*bounds, resolution)
        assert_matches_direct_solves(resolve_plane("random:1"), rng, rng)


class TestBoundaryContours:
    def test_state_boundary_is_closed_convex(self, ff1_grid):
        lines = boundary_contours(ff1_grid, "state_boundary")
        assert len(lines) == 1
        pts = lines[0]
        # one vertex at each of 2 * (401 - 1) angles, the first repeated to close the loop
        assert len(pts) == 801
        assert np.array_equal(pts[0], pts[-1])
        # convexity defect: every point close to the hull of the curve
        center = pts.mean(axis=0)
        centered = pts - center
        th = np.arctan2(centered[:, 1], centered[:, 0])
        r = np.hypot(centered[:, 0], centered[:, 1])
        order = np.argsort(th)
        # radial function of a convex curve has no inward spikes beyond a cell
        rr = r[order]
        local_mean = (np.roll(rr, 1) + np.roll(rr, -1)) / 2
        assert np.max(local_mean - rr) <= grid_step(ff1_grid)

    def test_extremal_states_on_state_boundary(self, ff1_grid):
        # pure anchors and the rank-2 quasi-distillable corner are rank
        # deficient, so they must sit on the extracted boundary
        plane = ff1_grid.plane
        pts = np.vstack(boundary_contours(ff1_grid, "state_boundary"))
        for tag in ("bell_psi_plus", "ff1_rho2", "quasi_distillable"):
            a, b = coordinates(plane, make_named(tag).matrix)
            dist = np.min(np.hypot(pts[:, 0] - a, pts[:, 1] - b))
            assert dist <= grid_step(ff1_grid), tag

    def test_planted_rank_deficient_states_on_boundary(self, ff1_grid):
        # the state at the exact boundary radius of a ray is rank deficient
        # and must localize on the extracted boundary
        g = ff1_grid
        pts = np.vstack(boundary_contours(g, "state_boundary"))
        for theta in np.linspace(0, 2 * np.pi, 12, endpoint=False):
            edge = exact_radius(g.plane, theta, "state_boundary") * np.array([np.cos(theta), np.sin(theta)])
            assert abs(np.linalg.eigvalsh(state_at(g.plane, *edge))[0]) <= 1e-10
            assert np.min(np.hypot(pts[:, 0] - edge[0], pts[:, 1] - edge[1])) <= grid_step(g)

    def test_ppt_boundary_det_zero(self, ff1_grid):
        plane = ff1_grid.plane
        for line in boundary_contours(ff1_grid, "ppt_boundary"):
            m = state_at(plane, line[:, 0], line[:, 1])
            assert np.max(np.abs(np.linalg.det(partial_transpose(m, (2, 2))))) <= 1e-12

    def test_negativity_one_degenerates_at_bell(self, ff1_grid):
        lines = boundary_contours(ff1_grid, "negativity", 0.95)
        pts = in_state_body(ff1_grid.plane, np.vstack(lines))
        assert len(pts) > 0
        dist = np.hypot(pts[:, 0] - SQRT3 / 2, pts[:, 1])
        assert np.max(dist) <= 0.05
        top = in_state_body(ff1_grid.plane, np.vstack(boundary_contours(ff1_grid, "negativity", 1.0)))
        # the level-1 set is the single point rho_1
        assert all(np.hypot(a - SQRT3 / 2, b) <= 2 * grid_step(ff1_grid) for a, b in top)

    def test_ppt_arc_is_not_cut_at_theta_zero(self, ff1_grid):
        # the arc runs through the Werner direction theta = 0 (r = sqrt(3)/6) and
        # leaves the state body elsewhere: the turn splits at an outside angle
        lines = boundary_contours(ff1_grid, "ppt_boundary")
        assert len(lines) == 1
        assert not np.array_equal(lines[0][0], lines[0][-1])
        assert np.min(np.hypot(lines[0][:, 0] - SQRT3 / 6, lines[0][:, 1])) <= 1e-12

    def test_pure_product_state_stays_on_the_ppt_boundary(self):
        # |00><00| lies on both boundaries: on its ray r_PPT = r_state, and the PPT boundary keeps the vertex
        product = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), (2, 2))
        grid = scan_plane(build_plane(product, make_named("bell_psi_plus")), (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        for kind in ("state_boundary", "ppt_boundary"):
            pts = np.vstack(boundary_contours(grid, kind))
            assert np.min(np.hypot(pts[:, 0] - SQRT3 / 2, pts[:, 1])) <= 1e-12, kind

    @pytest.mark.parametrize("level", [0.0, -0.1])
    def test_nonpositive_levels_have_no_contour(self, ff1_grid, level):
        # N - level >= 0 on the whole plane
        assert boundary_contours(ff1_grid, "negativity", level) == []

    @pytest.mark.parametrize("level", [1e300, 1e308, np.finfo(float).max])
    @pytest.mark.parametrize("spec", ["ff1", "ff3", "random:1"])
    def test_huge_levels_have_no_contour(self, spec, level):
        # N stays far below such a level in the window. The roots of the lines with -S_j 0 or
        # denormal overflow to inf, and that raises nothing under the suite's error::RuntimeWarning
        grid = scan_plane(resolve_plane(spec), (-0.9, 0.9, 21), (-0.9, 0.9, 21))
        assert boundary_contours(grid, "negativity", level) == []

    def test_boundaries_ignore_the_level(self, ff1_grid):
        for kind in ("state_boundary", "ppt_boundary"):
            got, want = boundary_contours(ff1_grid, kind, 0.5), boundary_contours(ff1_grid, kind)
            assert len(got) == len(want) and all(np.array_equal(*p) for p in zip(got, want)), kind

    @pytest.mark.parametrize("dims, ulps", [((2, 2), 0), ((2, 4), 0), ((2, 3), 2)])
    def test_boundary_radii_are_one_over_n_least_eigenvalue(self, dims, ulps):
        # at level 0 the least root is j = 1, r = (1/n) / |b_0|: bitwise -1/(n b_0) where 1/n is a
        # power of two; where 1/n rounds, two roundings against two put it up to 2 ulps apart
        plane = hs_plane(dims)
        theta = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
        rays = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        b = np.cos(theta)[:, None, None] * plane.a1 + np.sin(theta)[:, None, None] * plane.a2
        for pt in (False, True):
            want = -1 / (plane.n * np.linalg.eigvalsh(partial_transpose(b, dims) if pt else b)[:, 0])
            got = geometry._radii(plane, rays, pt, 0.0)
            # positive doubles in order: the distance of their bits counts the ulps between them
            assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= ulps, pt

    def test_two_by_three_plane(self):
        # a 2x3 PT has up to 3 negative eigenvalues off the state body, and N is
        # linear in r on each piece between them
        plane = hs_plane((2, 3))
        grid = scan_plane(plane, (-0.9, 0.9, 61), (-0.9, 0.9, 61))
        for kind, level in [("state_boundary", 0.0), ("ppt_boundary", 0.0), ("negativity", 0.1), ("negativity", 1.0)]:
            lines = boundary_contours(grid, kind, level)
            assert lines, (kind, level)
            assert np.max(law_residuals(plane, kind, level, lines)) <= 1e-12, (kind, level)
        # the vertices of level 1
        pts = np.vstack(lines)
        d = np.linalg.eigvalsh(partial_transpose(state_at(plane, pts[:, 0], pts[:, 1]), plane.dims))
        negatives = np.sum(d < 0, axis=1)
        assert (negatives >= 2).all() and (negatives == 3).any()

    @pytest.mark.parametrize(
        "a_range, b_range",
        [((0.2, 0.9), (0.2, 0.9)), ((0.2, 0.9), (-0.3, 0.3)), ((-0.9, -0.2), (-0.3, 0.3)), ((0.5, 0.51), (0.5, 0.51))]
        + [((0.0, 0.9), (-0.3, 0.3)), ((0.0, 0.9), (0.0, 0.9)), ((-0.9, 0.0), (-0.9, 0.0))]
        + [((-0.9, 0.0), (0.0, 0.9)), ((0.0, 0.9), (-0.9, 0.0))],
    )
    @pytest.mark.parametrize("spec", ["ff1", "ff3", "random:1"])
    def test_windows_without_the_center(self, spec, a_range, b_range):
        # the angles spread over the window as seen from I/n, also where I/n is
        # on its edge or a corner; every vertex is in the closed window
        plane = resolve_plane(spec)
        grid = scan_plane(plane, (*a_range, 101), (*b_range, 101))
        lo, hi = np.array([a_range[0], b_range[0]]), np.array([a_range[1], b_range[1]])
        for kind, level in [("state_boundary", 0.0), ("ppt_boundary", 0.0), ("negativity", 0.2), ("negativity", 0.5)]:
            lines = boundary_contours(grid, kind, level)
            assert all(len(line) >= 2 and ((line >= lo) & (line <= hi)).all() for line in lines)
            if lines:
                assert np.max(law_residuals(plane, kind, level, lines)) <= 1e-12, (kind, level)
        state = boundary_contours(grid, "state_boundary")
        if a_range == (0.5, 0.51):
            # at most 0.01 wide, 0.7 away: the state boundary of ff3 crosses it
            assert bool(state) == (spec == "ff3")
        else:
            # one arc, across theta = 0 or pi where the window straddles b = 0
            assert len(state) == 1
            assert not b_range[0] < 0 < b_range[1] or state[0][:, 1].min() < 0 < state[0][:, 1].max()
        # from I/n on an edge the window spans half a turn, so most of the 200
        # angles meet it; spread over the whole turn, 50 to 67 of them would
        if (a_range, b_range) == ((0.0, 0.9), (-0.3, 0.3)):
            assert len(state[0]) >= 90, len(state[0])
        # from a corner it spans a quarter turn that the body fills: all 200
        # angles meet it, and the end vertices lie on the edges exactly,
        # though cos(pi/2) rounds to 6e-17
        if 0.0 in a_range and 0.0 in b_range:
            assert len(state[0]) == 200 and (state[0][[0, -1]] == 0).any(axis=1).all(), len(state[0])

    def test_contour_stacks_bound_matrix_elements(self, monkeypatch):
        # every kind solves its angles in stacks of STACK_ELEMENTS // n^2 matrices, bit for bit
        plane = hs_plane((4, 4))
        grid = scan_plane(plane, (-0.9, 0.9, 41), (-0.9, 0.9, 41))
        kinds = [("state_boundary", 0.0), ("ppt_boundary", 0.0), ("negativity", 0.1)]
        want = [boundary_contours(grid, kind, level) for kind, level in kinds]
        monkeypatch.setattr(linalg, "STACK_ELEMENTS", 3 * 256)
        shapes = record_solves(monkeypatch)
        got = [boundary_contours(grid, kind, level) for kind, level in kinds]
        assert shapes and all(shape[1:] == (16, 16) for shape in shapes)
        assert max(np.prod(shape) for shape in shapes) <= 3 * 256
        # 80 angles, a spectrum for the state boundary, two for the PPT boundary and one for negativity
        assert sum(shape[0] for shape in shapes) == 4 * 80
        assert all(want) and all(len(g) == len(w) and all(np.array_equal(*p) for p in zip(g, w)) for g, w in zip(got, want))

    def test_unknown_kind(self, ff1_grid):
        with pytest.raises(ValueError, match="unknown contour kind"):
            boundary_contours(ff1_grid, "nope")

    def test_contours_json(self, ff1_grid):
        import json

        lines = boundary_contours(ff1_grid, "negativity", 0.5)
        doc = json.loads(contours_to_json([("negativity", 0.5, lines)]))
        assert doc[0]["field"] == "negativity"
        assert doc[0]["level"] == 0.5
        assert len(doc[0]["polylines"]) == len(lines)


class TestReferenceFigures:
    def test_ff3_contours_are_straight_lines(self):
        grid = scan_plane(ff_plane("ff3"), (-0.9, 0.9, 401), (-0.9, 0.9, 401))
        checked = 0
        for level in (0.1, 0.3, 0.5):
            for line in boundary_contours(grid, "negativity", level):
                pts = in_state_body(grid.plane, line)
                if len(pts) < 10:
                    continue
                checked += 1
                assert max_perpendicular_deviation(pts) <= 1e-12
        assert checked >= 3

    def test_ff8_contours_are_piecewise_straight(self):
        grid = scan_plane(ff_plane("ff8"), (-0.9, 0.9, 401), (-0.9, 0.9, 401))
        for level in (0.1, 0.3, 0.5):
            for line in boundary_contours(grid, "negativity", level):
                pts = in_state_body(grid.plane, line)
                if len(pts) < 10:
                    continue
                runs = split_into_straight_runs(pts, 1e-12)
                long_runs = [r for r in runs if len(r) >= 10]
                covered = sum(len(r) for r in long_runs)
                assert covered >= 0.9 * len(pts)
                for run in long_runs:
                    assert max_perpendicular_deviation(run) <= 1e-12

    @pytest.mark.parametrize("spec", ["ff1", "ff3", "random:1"])
    def test_exact_radii_solve_the_spectral_conditions(self, spec):
        # the polar law against eigvalsh at the radii it predicts
        plane = resolve_plane(spec)
        theta = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        rays = np.stack([np.cos(theta), np.sin(theta)], axis=-1)

        def spectra(kind, level=0.0):
            m = state_at(plane, *(exact_radius(plane, theta, kind, level)[:, None] * rays).T)
            return np.linalg.eigvalsh(m), np.linalg.eigvalsh(partial_transpose(m, plane.dims))

        eigs, _ = spectra("state_boundary")
        assert np.max(np.abs(eigs[:, 0])) <= 1e-12
        _, eigs_pt = spectra("ppt_boundary")
        assert np.max(np.abs(eigs_pt[:, 0])) <= 1e-12
        r_state = exact_radius(plane, theta, "state_boundary")
        for level in (0.2, 0.5):
            inside = exact_radius(plane, theta, "negativity", level) <= r_state
            _, eigs_pt = spectra("negativity", level)
            neg = pt_negativity(eigs_pt)
            assert np.max(np.abs(neg[inside] - level), initial=0.0) <= 1e-12
            ratio = exact_radius(plane, theta, "negativity", level) / exact_radius(plane, theta, "ppt_boundary")
            assert np.allclose(ratio, 1 + plane.n * level / 2, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("spec", ["ff1", "ff2", "ff3", "ff4", "ff8", "random:1", "random:2"])
    def test_contours_follow_the_exact_polar_law(self, spec):
        # every vertex at the radius of the similarity law, solving its own spectral
        # condition, and the chords between vertices within a grid step of the curve:
        # the sharpest cut the corners of the state body at pure states
        plane = resolve_plane(spec)
        grid = scan_plane(plane, (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        for kind, level in [("state_boundary", 0.0), ("ppt_boundary", 0.0), ("negativity", 0.2), ("negativity", 0.5)]:
            errors = radial_errors(grid, kind, level)
            # both boundaries cross every plane here; random:1 has no negativity-0.2 point in the body
            assert len(errors) > 0 or kind == "negativity", kind
            assert np.max(errors, initial=0.0) <= 1e-12, (kind, level)
            lines = boundary_contours(grid, kind, level)
            assert lines and np.max(law_residuals(plane, kind, level, lines)) <= 1e-12, (kind, level)
            for line in lines:
                sags = chord_sags(plane, kind, level, line)
                if kind == "negativity":
                    # the two-qubit law holds where the PT has one negative eigenvalue: in the state body
                    theta = np.arctan2(line[:, 1], line[:, 0])
                    inside = np.hypot(line[:, 0], line[:, 1]) <= exact_radius(plane, theta, "state_boundary")
                    sags = sags[inside[:-1] & inside[1:]]
                assert np.max(sags, initial=0.0) <= grid_step(grid), (kind, level)

    def test_ff8_mirror_symmetry(self):
        # swapping the two Bell anchors is a local unitary, so the negativity
        # field is exactly mirror symmetric about the bisector of the anchors
        anchor1, anchor2 = ff_anchors("ff8")
        plane = build_plane(anchor1, anchor2)
        a1 = coordinates(plane, anchor1.matrix)
        a2 = coordinates(plane, anchor2.matrix)
        phi = (np.arctan2(a1[1], a1[0]) + np.arctan2(a2[1], a2[0])) / 2
        c, s = np.cos(2 * phi), np.sin(2 * phi)

        def neg(a, b):
            m = state_at(plane, a, b)
            d = np.linalg.eigvalsh(partial_transpose(m, (2, 2)))
            return 2 * max(0.0, -d[0])

        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = rng.uniform(-0.7, 0.7, 2)
            assert abs(neg(a, b) - neg(c * a + s * b, s * a - c * b)) <= 1e-10

    def test_random_plane_scan(self):
        rho1, rho2 = (sample_hs_random_stack(np.random.default_rng(s), 4, 1)[0] for s in (11, 12))
        plane = build_plane(DensityMatrix(rho1, (2, 2)), DensityMatrix(rho2, (2, 2)))
        grid = scan_plane(plane, (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        i = int(np.argmin(np.abs(grid.a_values)))
        j = int(np.argmin(np.abs(grid.b_values)))
        assert grid.is_state[i, j]
        assert boundary_contours(grid, "state_boundary")
