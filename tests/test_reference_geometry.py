"""The vectorised CSV code reproduces the per-row reference exactly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_geometry as ref
from entgeo import geometry
from entgeo.cli import resolve_plane

def assert_csv_matches_reference(grid):
    got, want = geometry.grid_to_csv(grid), ref.grid_to_csv(grid)
    if got != want:
        # name the first differing row: pytest's own diff of two texts of
        # 160 000 lines runs for minutes
        got, want = got.split("\n"), want.split("\n")
        row = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
        pytest.fail(f"CSV line {row}: {got[row : row + 1]} != {want[row : row + 1]}")


def scan(plane, resolution):
    return geometry.scan_plane(resolve_plane(plane), (-0.9, 0.9, resolution), (-0.9, 0.9, resolution))


def test_ff3_full_resolution():
    assert_csv_matches_reference(scan("ff3", 401))


@pytest.mark.parametrize("plane", ["ff1", "ff2", "ff4", "ff8", "random:1", "random:2"])
def test_planes(plane):
    assert_csv_matches_reference(scan(plane, 101))


# small integers and exact zeros, among any floats
field_values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]) | st.floats(-4, 4)


@st.composite
def fields(draw):
    shape = (draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    return draw(arrays(np.float64, shape, elements=field_values))


@given(fields(), fields())
@settings(max_examples=100, deadline=None)
def test_csv_random_fields(f, g):
    shape = f.shape
    g = np.resize(g, shape)
    grid = geometry.ScanGrid(
        plane=None,
        a_values=np.linspace(-1.0, 1.0, shape[0]),
        b_values=np.linspace(0.0, 2.0, shape[1]),
        min_eig=f,
        min_eig_pt=g,
        negativity=2.0 * np.maximum(0.0, -g),
    )
    assert_csv_matches_reference(grid)


# 10^k and its neighbours one and two ulps away, around each power where
# '%.17g' switches notation or the fixed layout changes
POWERS = np.array([float(f"1e{k}") for k in range(-6, 19)])
NEAR_POWERS = np.concatenate(
    [np.nextafter(np.nextafter(POWERS, to), to) for to in (-np.inf, np.inf)]
    + [np.nextafter(POWERS, to) for to in (-np.inf, np.inf)]
)


@given(arrays(np.float64, st.integers(1, 60), elements=st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=300, deadline=None)
@example(np.array([0.0, -0.0]))
@example(np.array([1e-4, np.nextafter(1e-4, 0), -1e-4, -np.nextafter(1e-4, 0)]))  # fixed/exponent switch
@example(np.array([1e16, 1e17, 99999999999999999.0, np.nextafter(1e17, 0), -np.nextafter(1e17, 0)]))
@example(np.concatenate([POWERS, NEAR_POWERS, -NEAR_POWERS]))
@example(np.array([0.12, -0.12, 1e-14]))  # carries through the 9s to fewer digits, and into a new decade
@example(np.array([1125899906842624.25, 1125899906842624.75, -1125899906842624.25]))  # exact 18-digit ties
@example(np.array([1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]))
def test_csv_any_finite_values(values):
    # every value lands in each of the three fields
    nb = max(2, -(-len(values) // 2))
    fields = np.resize(values, (3, 2, nb))
    grid = geometry.ScanGrid(
        plane=None,
        a_values=np.array([-1.0, 1.0]),
        b_values=np.linspace(0.0, 2.0, nb),
        min_eig=fields[0],
        min_eig_pt=fields[1],
        negativity=fields[2],
    )
    assert_csv_matches_reference(grid)
