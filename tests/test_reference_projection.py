"""The batched projection and Monte-Carlo code reproduces the per-state reference exactly."""

import numpy as np
import pytest

import reference_projection as ref
from entgeo import (
    closest_pt_state,
    closest_pt_states,
    distance_closed_form,
    eig_hermitian,
    make_named,
    partial_transpose,
    sample_hs_random,
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
    # HS seeds 16 and 17 give PPT two-qubit states: no row reaches the projection
    assert main(["stats", "--samples", "2", "--seed", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == ref.stats_lines(2, 16, (2, 2))
    assert lines[1].endswith("(0/2)")


def assert_rows_are_reference(batch, wants):
    """Each row of a projection batch equals its per-state reference result bit for bit."""
    distance_exact = batch.distance_exact
    closed_form = distance_closed_form(batch.d, batch.kept)
    for i, want in enumerate(wants):
        assert np.array_equal(batch.rho_s[i], want.closest_pt_state)
        assert np.array_equal(np.sort(batch.e2[i])[::-1], want.e_squared)
        assert batch.lam[i] == want.lam
        assert tuple(np.flatnonzero(batch.kept[i])) == want.kept_indices
        assert distance_exact[i] == want.distance_exact
        assert closed_form[i] == want.distance_closed_form
        assert batch.rho_s_is_positive[i] == want.rho_s_is_positive
        assert batch.d[i, 0] == want.d_min


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_closest_pt_state_fields_bitwise(dims):
    n = dims[0] * dims[1]
    for seed in range(500):
        rho = ref.sample_hs_random(n, seed, dims=dims)
        assert_rows_are_reference(closest_pt_state(rho), [ref.closest_pt_state(rho)])


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_closest_pt_states_rows_bitwise(dims):
    n = dims[0] * dims[1]
    seeds = range(300, 500)
    batch = closest_pt_states(sample_hs_random_stack(n, seeds), dims)
    assert np.array_equal(batch.rank, batch.kept.sum(axis=1))
    assert_rows_are_reference(batch, [ref.closest_pt_state(ref.sample_hs_random(n, seed, dims=dims)) for seed in seeds])


def _invariance_states(case):
    if case == "named":
        return [make_named(tag) for tag in ("w_state", "bell_psi_plus", "quasi_distillable", "max_mixed(6)", "max_mixed(8)")]
    return [ref.sample_hs_random(case[0] * case[1], seed, dims=case) for seed in range(200)]


@pytest.mark.parametrize(
    "case", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (1, 3), (3, 2), "named"], ids=lambda c: c if c == "named" else dims_id(c)
)
def test_projection_does_not_depend_on_the_transposed_factor(case):
    # sigma^{T_A} = (sigma^{T_B})^T and transposition maps states onto states,
    # so closest_pt_state, which transposes B, is the projection over A too
    for rho in _invariance_states(case):
        got = closest_pt_state(rho)
        want = ref.closest_pt_state(rho, "A")
        assert np.abs(got.rho_s[0] - want.closest_pt_state).max() <= 1e-14
        assert np.abs(np.sort(got.e2[0])[::-1] - want.e_squared).max() <= 1e-14
        scalars = {
            "lam": got.lam[0],
            "distance_exact": got.distance_exact[0],
            "distance_closed_form": distance_closed_form(got.d, got.kept)[0],
            "d_min": got.d[0, 0],
        }
        for field, value in scalars.items():
            assert abs(value - getattr(want, field)) <= 1e-14, field
        assert tuple(np.flatnonzero(got.kept[0])) == want.kept_indices
        assert got.rho_s_is_positive[0] == want.rho_s_is_positive


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 16])
def test_sampler_bitwise(n):
    seeds = range(1000, 1300)
    stack = sample_hs_random_stack(n, seeds)
    for i, seed in enumerate(seeds):
        want = ref.sample_hs_random(n, seed).matrix
        assert np.array_equal(stack[i], want)
        assert np.array_equal(sample_hs_random(n, seed).matrix, want)


@pytest.mark.parametrize("subsystem", ["A", "B"])
@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_stacked_partial_transpose(dims, subsystem):
    n = dims[0] * dims[1]
    stack = sample_hs_random_stack(n, range(20)).reshape(4, 5, n, n)
    # the transpose of the input transposes A: m^{T_A} = (m^T)^{T_B}
    got = partial_transpose(stack if subsystem == "B" else stack.swapaxes(-1, -2), dims)
    assert got.shape == stack.shape
    for idx in np.ndindex(4, 5):
        rho = ref.sample_hs_random(n, 5 * idx[0] + idx[1], dims=dims)
        assert np.array_equal(got[idx], ref.partial_transpose(rho, subsystem))


def test_stack_with_one_non_hermitian_member_raises():
    stack = sample_hs_random_stack(4, range(8))
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
