import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_projection as ref
from entgeo import (
    make_named,
    max_mixed,
    partial_transpose,
    sample_hs_random_stack,
    state_from_json,
    validate_state,
)
from entgeo.states import MAX_DIM, DensityMatrix, state_to_dict

random_state = st.builds(
    lambda seed, n: DensityMatrix(sample_hs_random_stack(np.random.default_rng(seed), n, 1)[0], (2, n // 2)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([4, 6, 8]),
)


class TestNamedStates:
    def test_w_state_entries(self):
        rho = make_named("w_state")
        assert rho.dims == (2, 4)
        expected = np.zeros((8, 8))
        for i in (1, 2, 4):
            for j in (1, 2, 4):
                expected[i, j] = 1 / 3
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-12

    def test_quasi_distillable_entries(self):
        rho = make_named("quasi_distillable")
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.25
        expected[1, 2] = expected[2, 1] = -0.25
        expected[3, 3] = 0.5
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-12

    def test_bell_psi_plus(self):
        rho = make_named("bell_psi_plus")
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-12

    def test_ff_anchors_are_valid_states(self):
        for tag in ("ff1_rho2", "ff2_rho2", "ff3_rho2", "ff4_rho2", "ff8_rho2"):
            rho = make_named(tag)
            validate_state(rho.matrix, rho.dims)

    def test_ff4_anchor_entries(self):
        rho = make_named("ff4_rho2")
        assert rho.matrix[0, 0] == pytest.approx(100 / 101)
        assert rho.matrix[0, 3] == pytest.approx(10 / 101)
        assert rho.matrix[3, 3] == pytest.approx(1 / 101)

    def test_max_mixed(self):
        assert np.allclose(make_named("max_mixed(4)").matrix, np.eye(4) / 4)
        assert np.allclose(make_named("max-mixed8").matrix, np.eye(8) / 8)
        assert max_mixed(4).dims == (2, 2)

    def test_max_mixed_size_is_bounded(self):
        assert max_mixed(1).dims == (1, 1)
        assert max_mixed(MAX_DIM).dims == (2, MAX_DIM // 2)
        for n in (0, MAX_DIM + 1):
            with pytest.raises(ValueError, match=f"needs 1 <= n <= {MAX_DIM}, got {n}"):
                max_mixed(n)
        with pytest.raises(ValueError, match="needs 1 <= n"):
            make_named("max_mixed(0)")

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown named state"):
            make_named("ghz")


class TestPartialTranspose:
    def test_identity_invariant(self):
        rho = max_mixed(4)
        assert np.array_equal(partial_transpose(rho.matrix, rho.dims), rho.matrix)

    def test_w_pt_spectrum_golden_values(self, w_state, w_pt_spectrum):
        pt = partial_transpose(w_state.matrix, w_state.dims)
        assert np.allclose(np.linalg.eigvalsh(pt), w_pt_spectrum, atol=1e-12)

    def test_bell_pt_entries(self, bell):
        pt = partial_transpose(bell.matrix, bell.dims)
        expected = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        expected[0, 3] = expected[3, 0] = 0.5
        assert np.max(np.abs(pt - expected)) <= 1e-12

    @given(random_state)
    def test_involution_exact(self, rho):
        pt = partial_transpose(rho.matrix, rho.dims)
        assert np.array_equal(partial_transpose(pt, rho.dims), rho.matrix)

    @given(random_state)
    def test_hs_norm_preserved(self, rho):
        assert abs(np.linalg.norm(partial_transpose(rho.matrix, rho.dims)) - np.linalg.norm(rho.matrix)) <= 1e-12

    @given(random_state)
    def test_pt_a_is_pt_b_then_full_transpose(self, rho):
        # the transpose of the input transposes A: rho^{T_A} = (rho^T)^{T_B} = (rho^{T_B})^T
        pt_a = partial_transpose(rho.matrix.T, rho.dims)
        assert np.array_equal(pt_a, ref.partial_transpose(rho, "A"))
        assert np.array_equal(pt_a, partial_transpose(rho.matrix, rho.dims).T)

    @given(random_state)
    def test_trace_preserved(self, rho):
        assert np.trace(partial_transpose(rho.matrix, rho.dims)) == pytest.approx(1.0, abs=1e-12)

    def test_at_most_one_negative_pt_eigenvalue_two_qubits(self):
        # bulk statistical property of two-qubit PT spectra
        d = np.linalg.eigvalsh(partial_transpose(sample_hs_random_stack(np.random.default_rng(0), 4, 10_000), (2, 2)))
        violations = int(np.count_nonzero(np.sum(d < -1e-12, axis=-1) > 1))
        assert violations == 0


class TestSampling:
    def test_psd_trace_one_many_seeds(self):
        for rho in sample_hs_random_stack(np.random.default_rng(0), 4, 1000):
            validate_state(rho, (2, 2))

    def test_deterministic_per_seed(self):
        a = sample_hs_random_stack(np.random.default_rng(1234), 4, 3)
        b = sample_hs_random_stack(np.random.default_rng(1234), 4, 3)
        assert np.array_equal(a, b)

    def test_mean_purity_matches_hs_measure(self):
        # E[tr rho^2] = 2n/(n^2+1) under the Hilbert-Schmidt measure
        rhos = sample_hs_random_stack(np.random.default_rng(0), 4, 10_000)
        purities = np.trace(rhos @ rhos, axis1=-2, axis2=-1).real
        assert np.mean(purities) == pytest.approx(8 / 17, abs=0.01)

    def test_mean_purity_independent_oracle(self):
        # same moment from a stdlib-RNG Ginibre sampler
        def sample(seed):
            rng = random.Random(seed)
            g = np.array(
                [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)] for _ in range(4)]
            )
            rho = g @ g.conj().T
            return rho / np.trace(rho).real

        purities = [np.trace(sample(s) @ sample(s)).real for s in range(4000)]
        assert np.mean(purities) == pytest.approx(8 / 17, abs=0.02)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            sample_hs_random_stack(np.random.default_rng(0), 1, 1)


class TestValidateState:
    def test_max_mixed_ok(self):
        validate_state(np.eye(4) / 4, (2, 2))

    @pytest.mark.parametrize(
        "m, dims",
        [(np.eye(4) / 4, (-2, -2)), (np.zeros((0, 0)), (0, 5)), (np.eye(4) / 4, (2.0, 2)), (np.eye(4) / 4, (True, 4))],
        ids=["negative", "zero", "float", "bool"],
    )
    def test_dims_must_be_positive_integers(self, m, dims):
        with pytest.raises(ValueError, match=re.escape(f"dims must be two positive integers, got {dims!r}")):
            validate_state(m, dims)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        # dA * dB is the last axis, so only the shape is wrong
        with pytest.raises(ValueError, match=re.escape(f"inconsistent with a {shape} matrix")):
            validate_state(np.zeros(shape), (1, shape[-1]))

    def test_sampled_state_dims_must_fit(self):
        with pytest.raises(ValueError, match=re.escape("dims (3, 3) inconsistent with a (4, 4) matrix")):
            DensityMatrix(sample_hs_random_stack(np.random.default_rng(1), 4, 1)[0], (3, 3))

    def test_dims_are_python_ints(self):
        rho = DensityMatrix(np.eye(6) / 6, np.array([2, 3]))
        assert rho.dims == (2, 3) and all(type(d) is int for d in rho.dims)

    def test_w_pt_not_psd(self, w_pt):
        with pytest.raises(ValueError, match=r"not PSD, min eigenvalue -0.471"):
            validate_state(w_pt, (2, 4))

    def test_trace_one_but_indefinite(self):
        # diag(0.5, 0.6, 0, -0.1) has trace exactly 1; positivity is what fails
        with pytest.raises(ValueError, match="not PSD"):
            validate_state(np.diag([0.5, 0.6, 0.0, -0.1]), (2, 2))

    def test_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_state(np.diag([0.5, 0.6, 0.0, 0.1]), (2, 2))

    def test_not_hermitian(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.2
        with pytest.raises(ValueError, match="Hermitian"):
            validate_state(m, (2, 2))

    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            validate_state(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 0), np.nan), ((0, 1), np.nan), ((2, 2), np.inf)],
        ids=["diagonal-nan", "off-diagonal-nan", "inf"],
    )
    def test_non_finite_entries(self, entry, value):
        m = (np.eye(4) / 4).astype(complex)
        m[entry] = value
        with pytest.raises(ValueError, match="state has non-finite entries"):
            validate_state(m, (2, 2))

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 0), 1.34078079e154j), ((0, 1), 1.7e308), ((1, 1), 1e308)],
        ids=["imaginary-diagonal", "off-diagonal", "real-diagonal"],
    )
    def test_huge_entries_fail_before_any_norm(self, entry, value):
        # each once overflowed the asymmetry or trace norm, or the symmetrization before eigh
        m = (np.eye(4) / 4).astype(complex)
        m[entry] = value
        m[entry[::-1]] = np.conj(value) if entry[0] != entry[1] else value
        with pytest.raises(ValueError, match=r"^not a state, \|Re\| or \|Im\| of an entry is [0-9.e+]+ > 1$"):
            validate_state(m, (2, 2))

    def test_non_finite_checked_first(self):
        # would otherwise fail the dims check
        with pytest.raises(ValueError, match="non-finite"):
            validate_state(np.full((4, 4), np.nan), (2, 3))


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_trees = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=20,
)


@st.composite
def mutated_state_docs(draw):
    """A valid state document with one to three entries replaced by arbitrary JSON or deleted."""
    doc = state_to_dict(draw(st.sampled_from([make_named("bell_psi_plus"), max_mixed(6), make_named("w_state")])))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            if draw(st.booleans()):
                node[key] = draw(json_trees)
            else:
                del node[key]
            break
    return doc


# valid except for dims; each passed or crashed before dims had to be positive JSON integers
MAX_MIXED_4 = state_to_dict(max_mixed(4))["matrix"]
# the only nonzero entry overflowed the asymmetry norm with a RuntimeWarning
HUGE_ENTRY = [[[0, 1.34078079e154] if i == j == 0 else [0, 0] for j in range(4)] for i in range(4)]
BAD_DIMS = {"overflow": "[1e400, 2]", "negative": "[-2, -2]", "fractional": "[2.9, 2]", "bool": "[true, 4]"}


# 2x2 matrices of dims (1, 2), each wrong in one way that the parser, not validate_state, rejects
MALFORMED_MATRICES = {
    "string entry": '[[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]',
    "string pair": '[["05", [0, 0]], [[0, 0], [0.5, 0]]]',
    "null entry": "[[[0.5, null], [0, 0]], [[0, 0], [0.5, 0]]]",
    "dict pair": '[[{"re": 0.5, "im": 0}, [0, 0]], [[0, 0], [0.5, 0]]]',
    "three-element pair": "[[[0.5, 0, 0], [0, 0]], [[0, 0], [0.5, 0]]]",
    "one-element pair": "[[[0.5], [0]], [[0], [0.5]]]",
    "ragged rows": "[[[0.5, 0], [0, 0]], [[0.5, 0]]]",
    "ragged pairs": "[[[0.5, 0], [0, 0, 0]], [[0, 0], [0.5, 0]]]",
    "too-deep rows": "[[[[0.5, 0]], [[0, 0]]], [[[0, 0]], [[0.5, 0]]]]",
    "too-deep entry": "[[[[0.5], 0], [0, 0]], [[0, 0], [0.5, 0]]]",
    "integer too large for a float": f"[[[{'9' * 400}, 0], [0, 0]], [[0, 0], [0.5, 0]]]",
    "number": "0.5",
    "string": '"[[[0.5, 0]]]"',
    "object": '{"0": [[0.5, 0], [0, 0]]}',
}


def per_pair_matrix(text: str):
    """The matrix, or the error text, that the per-pair ``complex(re, im)`` parser gave."""
    doc = json.loads(text)
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        return validate_state(m, tuple(doc["dims"])).matrix
    except (TypeError, ValueError, OverflowError) as exc:
        return str(exc)


class TestJson:
    @pytest.mark.parametrize("matrix", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES.keys())
    def test_malformed_matrix(self, matrix):
        with pytest.raises(ValueError, match="^malformed state document: "):
            state_from_json(f'{{"dims": [1, 2], "matrix": {matrix}}}')

    @pytest.mark.parametrize(
        "matrix",
        [
            "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
            "[[[true, false], [false, false]], [[false, false], [false, false]]]",
            "[[[0.5, -0.0], [0, 0.5]], [[0, -0.5], [0.5, 0]]]",
            "[[[true, -0.0], [0, 0]], [[0, 0.0], [false, 0]]]",
            "[[[-0.0, 0], [0, -0.0]], [[0, -0.0], [1, -0.0]]]",
            "[[[0.5, 0], [0, 0]], [[0, 0], [18446744073709551617, 0]]]",
            "[[[0.5, 0], [0, 0]], [[0, 0], [100000000000000000000000000000, 0.5]]]",
        ],
        ids=["ints", "bools", "floats-and-ints", "bool-int-float", "signed-zeros", "beyond-64-bit-int", "beyond-64-bit-int-and-float"],
    )
    def test_numbers_parse_as_per_pair_complex(self, matrix):
        text = f'{{"dims": [1, 2], "matrix": {matrix}}}'
        want = per_pair_matrix(text)
        try:
            got = state_from_json(text).matrix
        except ValueError as exc:
            got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == np.complex128
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    @pytest.mark.parametrize("dims", BAD_DIMS.values(), ids=BAD_DIMS.keys())
    def test_dims_must_be_positive_integers(self, dims):
        text = f'{{"dims": {dims}, "matrix": {json.dumps(MAX_MIXED_4)}}}'
        with pytest.raises(ValueError, match="^malformed state document: dims must be two positive integers"):
            state_from_json(text)

    @given(st.one_of(json_trees, mutated_state_docs()).map(json.dumps))
    @example(f'{{"dims": [1e400, 2], "matrix": {json.dumps(MAX_MIXED_4)}}}')
    @example(json.dumps({"dims": [2, 2], "matrix": HUGE_ENTRY}))
    @example(f'{{"dims": [1, 1], "matrix": [[[{"9" * 400}, 0]]]}}')
    @example("[" * 100_000)
    @example(f'[{"9" * 5000}]')
    @settings(max_examples=200, deadline=None)
    def test_any_document_fails_only_with_value_error(self, text):
        try:
            state_from_json(text)
        except ValueError:
            pass

    def test_round_trip_w(self):
        rho = make_named("w_state")
        back = state_from_json(json.dumps(state_to_dict(rho)))
        assert np.array_equal(back.matrix, rho.matrix)
        assert back.dims == rho.dims

    @given(random_state)
    @settings(max_examples=25)
    def test_round_trip_random(self, rho):
        back = state_from_json(json.dumps(state_to_dict(rho)))
        assert np.array_equal(back.matrix, rho.matrix)

    def test_inconsistent_dims(self):
        doc = {"dims": [2, 3], "matrix": [[[0.2, 0.0]] * 5] * 5}
        with pytest.raises(ValueError, match="inconsistent"):
            state_from_json(json.dumps(doc))

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            state_from_json("{not json")

    def test_bell_fixture(self, bell):
        doc = {
            "dims": [2, 2],
            "matrix": [
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            ],
        }
        parsed = state_from_json(json.dumps(doc))
        assert np.max(np.abs(parsed.matrix - bell.matrix)) <= 1e-12
