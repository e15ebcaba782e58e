"""The batched projection and Monte-Carlo code reproduces the per-state reference exactly."""

import numpy as np
import pytest

import reference_projection as ref
from entgeo import (
    closest_pt_states,
    distance_closed_form,
    eig_hermitian,
    make_named,
    partial_transpose,
    sample_hs_random_stack,
)
from entgeo.cli import main

DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]


def dims_id(dims):
    return f"{dims[0]}x{dims[1]}"


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
@pytest.mark.parametrize("samples", [1, 511, 512, 513, 1025])
def test_stats_lines_match_reference(capsys, dims, samples):
    seed = 7 * samples + dims[0] * dims[1]
    argv = ["stats", "--samples", str(samples), "--seed", str(seed), "--dims", dims_id(dims)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    want = ref.stats_lines(samples, seed, dims)
    assert lines[: len(want)] == want
    # two qubits add the HS reference line, nothing else does
    assert len(lines) == len(want) + (dims == (2, 2))


def test_stats_without_npt_states_matches_reference(capsys):
    # the first two two-qubit states of stream 24 are PPT, so no row reaches
    # the projection; 24 is the least such seed, found by search
    assert main(["stats", "--samples", "2", "--seed", "24"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == ref.stats_lines(2, 24, (2, 2))
    assert lines[1].endswith("(0/2)")


def assert_rows_are_reference(rhos, batch, wants):
    """Each row of the projection batch of a stack equals its per-state reference result bit for bit.

    The distance is one norm per matrix, as the project report takes it. The
    closed-form distance is the paper's formula where that is exact, and the
    exact distance to rounding elsewhere.
    """
    closed_form = distance_closed_form(batch.d, batch.kept)
    for i, want in enumerate(wants):
        assert np.array_equal(batch.rho_s[i], want.closest_pt_state)
        assert np.array_equal(np.sort(batch.e2[i])[::-1], want.e_squared)
        assert batch.lam[i] == want.lam
        assert tuple(np.flatnonzero(batch.kept[i])) == want.kept_indices
        assert np.linalg.norm(rhos[i] - batch.rho_s[i]) == want.distance_exact
        if ref.drops_only_negatives(batch.d[i], want.kept_indices):
            assert closed_form[i] == want.distance_closed_form
        else:
            assert abs(closed_form[i] - want.distance_exact) <= 1e-14
        assert batch.rho_s_is_positive[i] == want.rho_s_is_positive
        assert batch.d[i, 0] == want.d_min


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_closest_pt_state_fields_bitwise(dims):
    n = dims[0] * dims[1]
    for seed in range(500):
        rho = ref.sample_hs_random(n, seed, dims=dims)
        one = rho.matrix[None]
        assert_rows_are_reference(one, closest_pt_states(one, dims), [ref.closest_pt_state(rho)])


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_closest_pt_states_rows_bitwise(dims):
    n = dims[0] * dims[1]
    rng = np.random.default_rng(300)
    rhos = sample_hs_random_stack(np.random.default_rng(300), n, 200)
    batch = closest_pt_states(rhos, dims)
    assert np.array_equal(batch.rank, batch.kept.sum(axis=1))
    assert_rows_are_reference(rhos, batch, [ref.closest_pt_state(ref.sample_hs_random(n, rng, dims=dims)) for _ in range(200)])


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_distance_closed_form_is_the_exact_distance(dims):
    n = dims[0] * dims[1]
    rhos = sample_hs_random_stack(np.random.default_rng(4000), n, 1000)
    batch = closest_pt_states(rhos, dims)
    closed_form = distance_closed_form(batch.d, batch.kept)
    exact = [np.linalg.norm(rho - rho_s) for rho, rho_s in zip(rhos, batch.rho_s)]
    assert np.abs(closed_form - exact).max() <= 1e-14
    # where the dropped eigenvalues are the negative ones, it is the paper's formula
    paper_rows = 0
    for d, kept, value in zip(batch.d, batch.kept, closed_form):
        if ref.drops_only_negatives(d, np.flatnonzero(kept)):
            assert value == ref.distance_closed_form(d, np.flatnonzero(kept))
            paper_rows += 1
    assert paper_rows >= 100


def _invariance_states(case):
    if case == "named":
        return [make_named(tag) for tag in ("w_state", "bell_psi_plus", "quasi_distillable", "max_mixed(6)", "max_mixed(8)")]
    return [ref.sample_hs_random(case[0] * case[1], seed, dims=case) for seed in range(200)]


@pytest.mark.parametrize(
    "case", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (1, 3), (3, 2), "named"], ids=lambda c: c if c == "named" else dims_id(c)
)
def test_projection_does_not_depend_on_the_transposed_factor(case):
    # sigma^{T_A} = (sigma^{T_B})^T and transposition maps states onto states,
    # so closest_pt_states, which transposes B, is the projection over A too
    for rho in _invariance_states(case):
        got = closest_pt_states(rho.matrix[None], rho.dims)
        want = ref.closest_pt_state(rho, "A")
        assert np.abs(got.rho_s[0] - want.closest_pt_state).max() <= 1e-14
        assert np.abs(np.sort(got.e2[0])[::-1] - want.e_squared).max() <= 1e-14
        scalars = {
            "lam": (got.lam[0], want.lam),
            "distance_exact": (np.linalg.norm(rho.matrix - got.rho_s[0]), want.distance_exact),
            "distance_closed_form": (distance_closed_form(got.d, got.kept)[0], want.distance_exact),
            "d_min": (got.d[0, 0], want.d_min),
        }
        for field, (value, want_value) in scalars.items():
            assert abs(value - want_value) <= 1e-14, field
        assert tuple(np.flatnonzero(got.kept[0])) == want.kept_indices
        assert got.rho_s_is_positive[0] == want.rho_s_is_positive


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 16])
def test_sampler_bitwise(n):
    # count = a + b states from one generator are bitwise a states, then the b
    # after them, and each is the reference's next state of the same stream
    for a, b in [(1, 1), (3, 1), (1, 5), (511, 2)]:
        whole = sample_hs_random_stack(np.random.default_rng(1000 + a), n, a + b)
        rng = np.random.default_rng(1000 + a)
        first = sample_hs_random_stack(rng, n, a)
        assert np.array_equal(np.concatenate([first, sample_hs_random_stack(rng, n, b)]), whole)
    rng = np.random.default_rng(1000)
    for row in sample_hs_random_stack(np.random.default_rng(1000), n, 20):
        assert np.array_equal(row, ref.sample_hs_random(n, rng).matrix)


@pytest.mark.parametrize("subsystem", ["A", "B"])
@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_stacked_partial_transpose(dims, subsystem):
    n = dims[0] * dims[1]
    stack = sample_hs_random_stack(np.random.default_rng(0), n, 20).reshape(4, 5, n, n)
    # the transpose of the input transposes A: m^{T_A} = (m^T)^{T_B}
    got = partial_transpose(stack if subsystem == "B" else stack.swapaxes(-1, -2), dims)
    assert got.shape == stack.shape
    rng = np.random.default_rng(0)
    for idx in np.ndindex(4, 5):
        rho = ref.sample_hs_random(n, rng, dims=dims)
        assert np.array_equal(got[idx], ref.partial_transpose(rho, subsystem))


def test_stack_with_one_non_hermitian_member_raises():
    stack = sample_hs_random_stack(np.random.default_rng(0), 4, 8)
    stack[5, 0, 1] += 1e-3
    with pytest.raises(ValueError, match=r"asymmetry 1\.414e-03"):
        eig_hermitian(stack)
    # the error reports the worst member
    stack[2, 1, 3] += 2e-3
    with pytest.raises(ValueError, match=r"asymmetry 2\.828e-03"):
        eig_hermitian(stack)
    # the rest of the stack decomposes exactly as one matrix at a time
    rest = np.delete(stack, [2, 5], axis=0)
    for row, m in zip(eig_hermitian(rest)[0], rest):
        assert np.array_equal(row, ref.eig_hermitian(m)[0])
