import numpy as np
import pytest

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
    state_at,
)
from entgeo import geometry
from entgeo.cli import resolve_plane
from entgeo.geometry import _marching_squares
from entgeo.states import DensityMatrix, partial_transpose

import reference_geometry as ref

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


def radial_errors(grid, kind, level=0.0):
    """|r - exact radius| at every contour point; negativity points only inside the state body."""
    lines = boundary_contours(grid, kind, level)
    pts = np.vstack(lines) if lines else np.empty((0, 2))
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    r = np.hypot(pts[:, 0], pts[:, 1])
    if kind == "negativity":
        inside = r <= exact_radius(grid.plane, theta, "state_boundary")
        theta, r = theta[inside], r[inside]
    return np.abs(r - exact_radius(grid.plane, theta, kind, level))


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
        s41 = DensityMatrix(sample_hs_random_stack(4, [3])[0], (4, 1))
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
        monkeypatch.setattr(geometry, "_SCAN_BLOCK", 7)
        g2 = scan_plane(plane, (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        assert grid_to_csv(g1) == grid_to_csv(g2)

    @pytest.mark.parametrize(
        "dims, block, resolution, sizes",
        [
            ((2, 2), 16384, 129, [16384, 257]),
            ((2, 4), 16384, 65, [4096, 129]),
            ((4, 4), 16384, 33, [1024, 65]),
            ((6, 6), 16384, 15, [202, 23]),
            ((2, 4), 3, 3, [1] * 9),
        ],
    )
    def test_blocks_bound_matrix_elements(self, monkeypatch, dims, block, resolution, sizes):
        # _SCAN_BLOCK * 16 // n^2 cells per block, and at least one
        n = dims[0] * dims[1]
        rho1, rho2 = sample_hs_random_stack(n, [1, 2])
        plane = build_plane(DensityMatrix(rho1, dims), DensityMatrix(rho2, dims))
        seen = []
        scan_block = geometry._scan_block

        def recorded(plane, pts):
            seen.append(len(pts))
            return scan_block(plane, pts)

        monkeypatch.setattr(geometry, "_scan_block", recorded)
        monkeypatch.setattr(geometry, "_SCAN_BLOCK", block)
        scan_plane(plane, (-0.1, 0.1, resolution), (-0.1, 0.1, resolution))
        assert seen == sizes

    def test_resolution_cap_is_checked_before_anything_is_built(self, monkeypatch):
        plane = ff_plane("ff1")

        def unreachable(*args, **kwargs):
            raise AssertionError("scan went past the resolution check")

        monkeypatch.setattr(geometry, "_scan_block", unreachable)
        monkeypatch.setattr(geometry.np, "meshgrid", unreachable)
        cap = geometry.MAX_RESOLUTION
        for na, nb in [(cap + 1, 2), (2, cap + 1)]:
            with pytest.raises(ValueError, match=f"need 2 to {cap} steps per axis, got {na}x{nb}"):
                scan_plane(plane, (-0.9, 0.9, na), (-0.9, 0.9, nb))


class TestMarchingSquares:
    def test_circle_field(self):
        xs = np.linspace(-2, 2, 201)
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        f = 1.0 - xx**2 - yy**2
        lines = _marching_squares(xs, xs, f)
        assert len(lines) == 1
        pts = lines[0]
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(radii - 1.0)) <= 1e-3
        # closed loop
        assert np.allclose(pts[0], pts[-1])

    def test_straight_line_field(self):
        xs = np.linspace(0, 1, 51)
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        lines = _marching_squares(xs, xs, xx + yy - 1.0)
        assert len(lines) == 1
        assert max_perpendicular_deviation(lines[0]) <= 1e-12

    def test_empty_contour(self):
        xs = np.linspace(0, 1, 11)
        f = np.ones((11, 11))
        assert _marching_squares(xs, xs, f) == []

    def test_transpose_gives_the_same_nodes(self):
        # a crossing is interpolated from its grid edge's lower node, and a
        # saddle's corner sum adds opposite corners first; transposing keeps
        # both, so the segments, and with them the nodes, agree bitwise with
        # a and b swapped
        def segments(lines, swap):
            out = []
            for line in lines:
                pts = [(b, a) if swap else (a, b) for a, b in line.tolist()]
                out += [tuple(sorted(pair)) for pair in zip(pts, pts[1:])]
            return sorted(out)

        rng = np.random.default_rng(16)
        # a saddle whose corners sum to 0.0 in one order and to -1.1e-16 in the transposed one
        fields = [np.array([[0.8132702392002724, -1.1193900407108144], [-0.6066357757671799, 0.9127555772777217]])]
        for _ in range(200):
            shape = tuple(rng.integers(2, 10, size=2))
            # half-integers put exact zeros on grid nodes
            fields.append(np.where(rng.random(shape) < 0.3, rng.integers(-2, 3, shape) / 2, rng.standard_normal(shape)))
        for f in fields:
            a_values = np.linspace(0.0, 1.0, f.shape[0])
            b_values = np.linspace(-0.5, 0.7, f.shape[1])
            got = segments(_marching_squares(a_values, b_values, f), swap=False)
            assert got == segments(_marching_squares(b_values, a_values, f.T), swap=True)

    def test_saddle_resolved_by_center(self):
        xs = np.array([0.0, 1.0])
        f = np.array([[1.0, -1.0], [-1.0, 3.0]])  # center mean = 0.5 >= 0
        lines = _marching_squares(xs, xs, f)
        assert len(lines) == 2


class TestBoundaryContours:
    def test_state_boundary_is_closed_convex(self, ff1_grid):
        lines = boundary_contours(ff1_grid, "state_boundary")
        assert len(lines) == 1
        pts = lines[0]
        assert np.allclose(pts[0], pts[-1])
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
        g = ff1_grid
        plane = g.plane
        h = grid_step(g)

        def det_pt(a, b):
            m = state_at(plane, a, b)
            return np.linalg.det(partial_transpose(m, (2, 2))).real

        for line in boundary_contours(g, "ppt_boundary"):
            for a, b in line[::5]:
                grad = np.hypot(
                    (det_pt(a + h, b) - det_pt(a - h, b)) / (2 * h),
                    (det_pt(a, b + h) - det_pt(a, b - h)) / (2 * h),
                )
                assert abs(det_pt(a, b)) <= 2 * h * grad + 1e-12

    def test_negativity_one_degenerates_at_bell(self, ff1_grid):
        lines = boundary_contours(ff1_grid, "negativity", 0.95)
        pts = ref.points_in_state_body(ff1_grid, np.vstack(lines))
        assert len(pts) > 0
        dist = np.hypot(pts[:, 0] - SQRT3 / 2, pts[:, 1])
        assert np.max(dist) <= 0.05
        top = ref.points_in_state_body(ff1_grid, np.vstack(boundary_contours(ff1_grid, "negativity", 1.0)))
        # the level-1 set is the single point rho_1
        assert all(np.hypot(a - SQRT3 / 2, b) <= 2 * grid_step(ff1_grid) for a, b in top)

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
                pts = ref.points_in_state_body(grid, line)
                if len(pts) < 10:
                    continue
                checked += 1
                assert max_perpendicular_deviation(pts) <= 2 * grid_step(grid)
        assert checked >= 3

    def test_ff8_contours_are_piecewise_straight(self):
        grid = scan_plane(ff_plane("ff8"), (-0.9, 0.9, 401), (-0.9, 0.9, 401))
        for level in (0.1, 0.3, 0.5):
            for line in boundary_contours(grid, "negativity", level):
                pts = ref.points_in_state_body(grid, line)
                if len(pts) < 10:
                    continue
                runs = split_into_straight_runs(pts, 2 * grid_step(grid))
                long_runs = [r for r in runs if len(r) >= 10]
                covered = sum(len(r) for r in long_runs)
                assert covered >= 0.9 * len(pts)
                for run in long_runs:
                    assert max_perpendicular_deviation(run) <= 2 * grid_step(grid)

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
        # marching squares against the similarity law, within one grid step
        grid = scan_plane(resolve_plane(spec), (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        for kind, level in [("state_boundary", 0.0), ("ppt_boundary", 0.0), ("negativity", 0.2), ("negativity", 0.5)]:
            errors = radial_errors(grid, kind, level)
            # both boundaries cross every plane here; random:1 has no negativity-0.2 point in the body
            assert len(errors) > 0 or kind == "negativity", kind
            assert np.max(errors, initial=0.0) <= grid_step(grid), (kind, level)

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
        rho1, rho2 = sample_hs_random_stack(4, [11, 12])
        plane = build_plane(DensityMatrix(rho1, (2, 2)), DensityMatrix(rho2, (2, 2)))
        grid = scan_plane(plane, (-0.9, 0.9, 101), (-0.9, 0.9, 101))
        i = int(np.argmin(np.abs(grid.a_values)))
        j = int(np.argmin(np.abs(grid.b_values)))
        assert grid.is_state[i, j]
        assert boundary_contours(grid, "state_boundary")
