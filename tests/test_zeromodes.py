"""Tests for lowering-kernel vectors, ladder states, and squared-shift scalars."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock import (
    b2sq_shift,
    build_generator,
    enumerate_basis,
    even_ind,
    kernel_oracle,
    ladder_family,
    ladder_normalization,
    ladder_step,
    odd_ind,
    zero_mode_coeffs,
    zero_mode_vector,
)
from parafock import algebra, zeromodes
from parafock.zeromodes import ladder_rungs

EXACT_TOL = 1e-14
RESIDUAL_TOL = 1e-12
GRAM_TOL = 1e-12

P_GRID = (1.3, 2.0, 2.5, 3.0, 4.7)

# frozen from an exact-arithmetic nullspace of the restricted lowering block
FROZEN_COEFFS = {
    (1, 1, 3.0): (math.sqrt(3.0) / 3.0, math.sqrt(6.0) / 3.0),
    (1, 2, 2.5): (math.sqrt(15.0) / 5.0, math.sqrt(10.0) / 5.0),
    (2, 3, 3.0): (math.sqrt(105.0) / 15.0, -2.0 * math.sqrt(21.0) / 15.0, -0.4),
}


def test_trivial_and_telescoping_cases():
    for p in P_GRID:
        np.testing.assert_allclose(zero_mode_coeffs(0, 0, p), [1.0], atol=EXACT_TOL)
        np.testing.assert_allclose(zero_mode_coeffs(0, 1, p), [1.0], atol=EXACT_TOL)
        np.testing.assert_allclose(zero_mode_coeffs(0, 5, p), [1.0], atol=EXACT_TOL)


def test_frozen_exact_coefficients():
    for (j, k, p), expected in FROZEN_COEFFS.items():
        got = zero_mode_coeffs(j, k, p)
        np.testing.assert_allclose(got, expected, rtol=0, atol=EXACT_TOL)


def test_normalization_identity():
    for p in P_GRID:
        for k in range(9):
            for j in range(k + 1):
                c = zero_mode_coeffs(j, k, p)
                assert abs(float(np.dot(c, c)) - 1.0) <= RESIDUAL_TOL, (j, k, p)


def test_rejects_j_above_k():
    with pytest.raises(ValueError):
        zero_mode_coeffs(2, 1, 3.0)


def test_two_term_recursion():
    # c_(i+1)/c_i ratio displayed in the kernel-construction proof
    for p in (1.3, 2.5, 3.0):
        for k in range(2, 8):
            for j in range(1, k + 1):
                c = zero_mode_coeffs(j, k, p)
                for i in range(j):
                    sign = (-1.0) ** (j - i - 1)
                    num = (
                        (k + i - j + 1)
                        * (j - i + even_ind(j - i - 1) * (p - 2.0))
                        * (k - j + 2 * i + 2 + odd_ind(k + j - 1))
                    )
                    den = (
                        (i + 1)
                        * (k + i + 2 + even_ind(k + i) * (p - 2.0))
                        * (k - j + 2 * i + 2 - odd_ind(k + j - 1))
                    )
                    expected = sign * math.sqrt(num / den) * c[i]
                    assert abs(c[i + 1] - expected) <= 1e-13, (p, j, k, i)


def test_annihilation_and_weight_support():
    p = 2.5
    basis = enumerate_basis(p, 9)
    b1m = build_generator(basis, "b1-")
    for (j, k) in ((0, 0), (1, 1), (1, 3), (2, 4), (3, 5)):
        vec = zero_mode_vector(basis, j, k)
        assert abs(vec.norm() - 1.0) <= RESIDUAL_TOL
        assert b1m.apply(vec).norm() <= RESIDUAL_TOL
        for idx in np.nonzero(vec.coefficients)[0]:
            m = basis.patterns[idx]
            assert m.m11 == j and m.degree == k + j


def test_zero_modes_are_orthonormal_across_families():
    p = 3.0
    basis = enumerate_basis(p, 8)
    family = [(j, k) for k in range(4) for j in range(k + 1)]
    vectors = [zero_mode_vector(basis, j, k) for j, k in family]
    for a, va in enumerate(vectors):
        for b, vb in enumerate(vectors):
            expected = 1.0 if a == b else 0.0
            assert abs(va.inner(vb) - expected) <= GRAM_TOL


def test_kernel_oracle_dimensions():
    basis = enumerate_basis(2.5, 8)
    assert kernel_oracle(basis, 0, 0)[0] == 1
    assert kernel_oracle(basis, 2, 1)[0] == 0
    assert kernel_oracle(basis, 3, 2)[0] == 0
    for k in range(4):
        for j in range(k + 1):
            assert kernel_oracle(basis, j, k)[0] == 1, (j, k)


@pytest.mark.parametrize("j, k", [(1.5, 2), (1, 2.0), (True, 2), (1, False)])
def test_kernel_oracle_rejects_non_integer_labels(j, k):
    with pytest.raises(TypeError):
        kernel_oracle(enumerate_basis(2.5, 8), j, k)


def test_kernel_oracle_builds_no_whole_basis_b1_minus():
    # a whole-basis b1- in the cache that would break any block read from it changes nothing
    pairs = [(j, k) for j in range(5) for k in range(5)]
    expected = [kernel_oracle(enumerate_basis(2.5, 10), j, k) for j, k in pairs]
    basis = enumerate_basis(2.5, 10)
    basis.cache["b1-"] = None
    for (dim, vectors), (j, k) in zip(expected, pairs):
        got_dim, got = kernel_oracle(basis, j, k)
        assert got_dim == dim
        assert [v.coefficients.tobytes() for v in got] == [v.coefficients.tobytes() for v in vectors]


def test_climb_raises_when_a_rung_leaves_its_column_set():
    from parafock import algebra

    j, k = 1, 2
    assert len(ladder_rungs(enumerate_basis(2.5, 10), j, k, 5)) == 6
    # without the rung-4 column (k + j + 4, 0; j + 4) in its h2 sector, b1+ cannot build rung 5
    basis = enumerate_basis(2.5, 10)
    columns, _ = algebra._h2_sector(basis, "b1+", k)
    kept = columns[columns != basis.find(k + j + 4, 0, j + 4)]
    assert kept.size == columns.size - 1
    basis.cache["b1+", k] = kept, algebra._assemble(basis, "b1+", kept)
    with pytest.raises(RuntimeError, match="leaves the columns"):
        ladder_rungs(basis, j, k, 5)


def test_kernel_oracle_spans_the_constructed_vector():
    basis = enumerate_basis(2.5, 6)
    dim, vectors = kernel_oracle(basis, 1, 3)
    assert dim == 1
    vec = zero_mode_vector(basis, 1, 3)
    overlap = abs(vectors[0].inner(vec))
    assert abs(overlap - 1.0) <= 1e-10


def test_ladder_step_and_normalization():
    p, j = 2.5, 1
    nu = p / 2.0 + j
    for n in range(8):
        expected = math.sqrt(n + p + 2 * j) if n % 2 == 0 else math.sqrt(n + 1.0)
        assert ladder_step(p, j, n) == expected
    # pi_2m = 2^2m m! (nu)_m and pi_(2m+1) = 2^(2m+1) m! (nu)_(m+1)
    for m in range(4):
        poch = math.gamma(nu + m) / math.gamma(nu)
        even_sq = 4.0**m * math.factorial(m) * poch
        odd_sq = 2.0 * even_sq * (nu + m)
        assert ladder_normalization(p, j, 2 * m) == pytest.approx(math.sqrt(even_sq), rel=1e-13)
        assert ladder_normalization(p, j, 2 * m + 1) == pytest.approx(math.sqrt(odd_sq), rel=1e-13)


def test_ladder_raising_action():
    # b1+ |zeta;n> = sqrt((p+2j) E_n + n + O_n) |zeta;n+1>
    p = 3.0
    basis = enumerate_basis(p, 10)
    b1p = build_generator(basis, "b1+")
    for (j, k) in ((0, 0), (1, 2)):
        family = ladder_family(basis, j, k, basis.cutoff - k - j)
        for n in range(len(family) - 1):
            coeff = (p + 2.0 * j) * even_ind(n) + n + odd_ind(n)
            dev = (b1p.apply(family[n]) - math.sqrt(coeff) * family[n + 1]).norm()
            assert dev <= RESIDUAL_TOL, (j, k, n)


def test_ladder_family_is_orthonormal():
    p = 2.5
    basis = enumerate_basis(p, 9)
    family = ladder_family(basis, 1, 1, 7)
    gram = np.array([[u.inner(v) for v in family] for u in family])
    np.testing.assert_allclose(gram, np.eye(len(family)), atol=GRAM_TOL)


def test_ladder_family_rejects_small_cutoff():
    basis = enumerate_basis(2.5, 4)
    with pytest.raises(ValueError):
        ladder_family(basis, 1, 2, 3)


def test_ladder_rungs_are_read_only_sparse_and_built_once():
    from parafock.zeromodes import ladder_rungs

    p, j, k, nmax = 2.5, 1, 3, 8
    basis = enumerate_basis(p, j + k + nmax)
    rungs = ladder_rungs(basis, j, k, nmax)
    assert ladder_rungs(basis, j, k, nmax) is rungs
    w1, w2 = basis.weights()
    for n, ((index, values), state) in enumerate(zip(rungs, ladder_family(basis, j, k, nmax))):
        for arr in (index, values):
            with pytest.raises(ValueError):
                arr[...] = 0
        # rung n lies in the single weight space (p/2 + j + n, p/2 + k)
        assert index.size <= k + 1
        assert np.array_equal(index, np.unique(index))
        assert np.all(w1[index] == p / 2 + j + n) and np.all(w2[index] == p / 2 + k)
        assert not np.delete(state.coefficients, index).any()
        assert np.array_equal(state.coefficients[index], values)


def test_b2sq_shift_values():
    for p in P_GRID:
        assert b2sq_shift(0, 2, p, "lower") == pytest.approx(math.sqrt(2.0 * p), rel=1e-14)
        assert b2sq_shift(0, 0, p, "lower") == 0.0
        assert b2sq_shift(1, 2, p, "lower") == 0.0
    with pytest.raises(ValueError):
        b2sq_shift(0, 0, 2.5, "sideways")


def test_b2sq_shift_matches_matrix_action():
    p = 2.7
    basis = enumerate_basis(p, 9)
    b2p = build_generator(basis, "b2+")
    b2m = build_generator(basis, "b2-")
    for (j, k) in ((0, 0), (0, 2), (1, 1), (1, 3), (2, 4)):
        vec = zero_mode_vector(basis, j, k)
        up = b2p.apply(b2p.apply(vec))
        target = zero_mode_vector(basis, j, k + 2)
        assert (up - b2sq_shift(j, k, p, "raise") * target).norm() <= RESIDUAL_TOL
        down = b2m.apply(b2m.apply(vec))
        if k - j >= 2:
            target = zero_mode_vector(basis, j, k - 2)
            assert (down - b2sq_shift(j, k, p, "lower") * target).norm() <= RESIDUAL_TOL
        else:
            assert down.norm() <= RESIDUAL_TOL


def test_b2sq_raise_then_lower_is_the_diagonal_product():
    p = 3.3
    basis = enumerate_basis(p, 8)
    b2p = build_generator(basis, "b2+")
    b2m = build_generator(basis, "b2-")
    for (j, k) in ((0, 0), (1, 1), (1, 2)):
        vec = zero_mode_vector(basis, j, k)
        cycled = b2m.apply(b2m.apply(b2p.apply(b2p.apply(vec))))
        scalar = b2sq_shift(j, k + 2, p, "lower") * b2sq_shift(j, k, p, "raise")
        assert (cycled - scalar * vec).norm() <= 1e-11 * max(1.0, abs(scalar))


def _reference_climb(basis, j, k, nmax):
    """The ladder walked with ``SparseOperator.apply_on``, one numpy product per rung."""
    i = np.arange(j + 1)
    rungs = [(basis.find(k + i, j - i, j), zero_mode_coeffs(j, k, basis.p).astype(np.complex128))]
    if nmax:
        _, raise_op = algebra._h2_sector(basis, "b1+", k)
        for n in range(nmax):
            index, values = raise_op.apply_on(*rungs[-1])
            rungs.append((index, values / ladder_step(basis.p, j, n)))
    return rungs


def _assert_climb_matches_reference(p, cutoff, j, k, nmax):
    basis = enumerate_basis(p, cutoff)
    got, expected = zeromodes._climb(basis, j, k, nmax), _reference_climb(basis, j, k, nmax)
    assert len(got) == len(expected) == nmax + 1
    for n, ((index, values), (ref_index, ref_values)) in enumerate(zip(got, expected)):
        assert index.dtype == ref_index.dtype and index.tobytes() == ref_index.tobytes(), n
        assert values.dtype == ref_values.dtype and values.tobytes() == ref_values.tobytes(), n


@st.composite
def _ladders(draw):
    cutoff = draw(st.integers(0, 60))
    k = draw(st.integers(0, cutoff))
    j = draw(st.integers(0, min(k, cutoff - k)))
    return cutoff, j, k, draw(st.integers(0, cutoff - k - j))


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.0, 120.0, exclude_min=True), ladder=_ladders())
def test_scalar_climb_matches_the_apply_on_walk_bit_for_bit(p, ladder):
    _assert_climb_matches_reference(p, *ladder)


@pytest.mark.parametrize("j, k", [(1, 2), (0, 100)])
def test_scalar_climb_matches_the_apply_on_walk_at_cutoff_200(j, k):
    _assert_climb_matches_reference(2.5, 200, j, k, 200 - k - j)
