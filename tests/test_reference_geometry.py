"""The vectorised contour and CSV code reproduces the per-cell reference exactly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_geometry as ref
from entgeo import geometry
from entgeo.cli import resolve_plane

LEVELS = (0.1, 0.2, 0.3, 0.5, 0.8)
CONTOURS = [("state_boundary", 0.0), ("ppt_boundary", 0.0)] + [("negativity", x) for x in LEVELS]


def assert_same_polylines(got, want):
    assert isinstance(got, list)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def assert_grid_matches_reference(grid):
    assert geometry.grid_to_csv(grid) == ref.grid_to_csv(grid)
    got, want = [], []
    for kind, level in CONTOURS:
        lines = geometry.boundary_contours(grid, kind, level)
        ref_lines = ref.boundary_contours(grid, kind, level)
        assert_same_polylines(lines, ref_lines)
        got.append((kind, level, lines))
        want.append((kind, level, ref_lines))
    assert geometry.contours_to_json(got) == geometry.contours_to_json(want)


def scan(plane, resolution):
    return geometry.scan_plane(resolve_plane(plane), (-0.9, 0.9, resolution), (-0.9, 0.9, resolution))


def test_ff3_full_resolution():
    assert_grid_matches_reference(scan("ff3", 401))


@pytest.mark.parametrize("plane", ["ff1", "ff2", "ff4", "ff8", "random:1", "random:2"])
def test_planes(plane):
    assert_grid_matches_reference(scan(plane, 101))


# small integers put exact zeros on grid nodes and make saddle cells common
field_values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]) | st.floats(-4, 4)


@st.composite
def fields(draw):
    shape = (draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    return draw(arrays(np.float64, shape, elements=field_values))


@given(fields())
@settings(max_examples=300, deadline=None)
@example(np.array([[1.0, -1.0], [-1.0, 3.0]]))  # case 5, center positive
@example(np.array([[1.0, -2.0], [-2.0, 0.5]]))  # case 5, center negative
@example(np.array([[-1.0, 2.0], [2.0, -0.5]]))  # case 10, center positive
@example(np.array([[-1.0, 1.0], [1.0, -3.0]]))  # case 10, center negative
@example(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # saddle through two zero nodes
@example(np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, -1.0], [1.0, 0.0, 0.0]]))
@example(np.array([[1.0, -2.0], [1.0, -2.0]]))  # open arc starting at t = 1/3, a full-precision crossing
# the crossing at t = 1e-300 rounds onto grid node (1, 0), the other crossing,
# but keeps its edge id: a zero-length segment is written
@example(np.array([[-1.0, -1.0], [1e-300, -1.0]]))
def test_marching_squares_random_fields(f):
    a_values = np.linspace(0.0, 1.0, f.shape[0])
    b_values = np.linspace(-0.5, 0.7, f.shape[1])
    assert_same_polylines(
        geometry._marching_squares(a_values, b_values, f),
        ref._marching_squares(a_values, b_values, f),
    )


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
    assert geometry.grid_to_csv(grid) == ref.grid_to_csv(grid)
