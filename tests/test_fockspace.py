"""Tests for the pattern basis: enumeration, weights, ordering, vectors."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock import (
    FockVector,
    enumerate_basis,
    even_ind,
    odd_ind,
    b2_element,
    kernel_oracle,
    measure,
    radial_grid,
    resolution_identity_check,
    stieltjes_closed_form,
    stieltjes_moment,
    weight_of,
    zero_mode_coeffs,
)

P_DEFAULT = 2.5
WEIGHT_TOL = 1e-14


def binomial_size(cutoff):
    return math.comb(cutoff + 3, 3)


def brute_force_labels(cutoff):
    """Every (m12, m22, m11) of the cube with betweenness, sorted by (degree, m12, m11).

    Built without the engine, so the tests below compare the label arrays with
    an expectation that does not come from them.
    """
    cube = itertools.product(range(cutoff + 1), repeat=3)
    labels = [(m12, m22, m11) for m12, m22, m11 in cube if m12 >= m11 >= m22]
    return sorted(labels, key=lambda m: (m[0] + m[1], m[0], m[2]))


def labels_of(basis):
    """The basis label triples in basis order."""
    return list(zip(basis.m12.tolist(), basis.m22.tolist(), basis.m11.tolist()))


def unit(basis, m12, m22, m11):
    """The basis vector of the pattern (m12, m22; m11), which must lie in the basis."""
    index = basis.find(m12, m22, m11)
    assert index >= 0
    return FockVector.scatter(basis, index, 1.0)


def test_enumeration_counts():
    assert enumerate_basis(3.0, 1).size == 4
    assert enumerate_basis(2.5, 2).size == 10
    for cutoff in range(7):
        assert enumerate_basis(P_DEFAULT, cutoff).size == binomial_size(cutoff)


def test_enumeration_small_patterns():
    basis = enumerate_basis(3.0, 1)
    assert labels_of(basis) == [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)]
    assert labels_of(basis) == brute_force_labels(1)


def test_weight_examples():
    assert weight_of(1, 0, 1, 3.0) == (2.5, 1.5)
    assert weight_of(2, 1, 1, 2.0) == (2.0, 3.0)
    basis = enumerate_basis(P_DEFAULT, 4)
    w1, w2 = basis.weights()
    for i, labels in enumerate(labels_of(basis)):
        assert weight_of(*labels, P_DEFAULT) == (w1[i], w2[i])


def test_ordering_is_by_degree_then_m12_then_m11():
    basis = enumerate_basis(P_DEFAULT, 5)
    assert labels_of(basis) == brute_force_labels(5)
    keys = list(zip(basis.degree.tolist(), basis.m12.tolist(), basis.m11.tolist()))
    assert keys == sorted(set(keys))


def test_index_roundtrip():
    basis = enumerate_basis(P_DEFAULT, 4)
    for i, (m12, m22, m11) in enumerate(brute_force_labels(4)):
        assert basis.find(m12, m22, m11) == i


def test_betweenness_validation():
    with pytest.raises(ValueError, match="betweenness"):
        weight_of(1, 2, 1, P_DEFAULT)
    with pytest.raises(ValueError, match="betweenness"):
        weight_of(2, 0, 3, P_DEFAULT)
    with pytest.raises(ValueError, match="betweenness"):
        weight_of(-1, 0, 0, P_DEFAULT)


def test_weight_multiplicity_is_min_rule():
    # multiplicity of weight (p/2+j, p/2+k) is min(j+1, k+1)
    basis = enumerate_basis(P_DEFAULT, 12)
    w1, w2 = basis.weights()
    expected = brute_force_labels(12)
    for j in range(5):
        for k in range(5):
            count = sum(1 for m12, m22, m11 in expected if m11 == j and m12 + m22 - m11 == k)
            assert count == min(j + 1, k + 1), (j, k)
            on_basis = (w1 == P_DEFAULT / 2 + j) & (w2 == P_DEFAULT / 2 + k)
            assert np.count_nonzero(on_basis) == count, (j, k)


def test_parity_indicators():
    for n in range(-10, 11):
        assert even_ind(n) + odd_ind(n) == 1
        assert even_ind(n) == (1 if n % 2 == 0 else 0)
    assert even_ind(-1) == 0 and odd_ind(-1) == 1
    assert even_ind(0) == 1 and odd_ind(0) == 0


def test_interior_indices():
    basis = enumerate_basis(P_DEFAULT, 6)
    inside = set(basis.interior_indices(2))
    for i, (m12, m22, _) in enumerate(brute_force_labels(6)):
        assert (i in inside) == (m12 + m22 <= 4)


def test_vector_arithmetic():
    basis = enumerate_basis(P_DEFAULT, 2)
    u = unit(basis, 0, 0, 0)
    v = unit(basis, 1, 1, 1)
    vidx = basis.find(1, 1, 1)
    w = (2.0 + 1.0j) * u + v - 0.5 * v
    assert w.coefficients[0] == 2.0 + 1.0j
    assert w.coefficients[vidx] == 0.5
    assert abs(w.norm() - math.sqrt(abs(2 + 1j) ** 2 + 0.25)) < WEIGHT_TOL


def test_inner_is_conjugate_linear_in_the_bra():
    basis = enumerate_basis(P_DEFAULT, 1)
    u = (1.0 + 2.0j) * unit(basis, 1, 0, 0)
    v = (3.0 - 1.0j) * unit(basis, 1, 0, 0)
    got = u.inner(v)
    assert abs(got - np.conj(1.0 + 2.0j) * (3.0 - 1.0j)) < WEIGHT_TOL


def test_inner_rejects_mismatched_bases():
    a = enumerate_basis(P_DEFAULT, 1)
    b = enumerate_basis(P_DEFAULT, 2)
    with pytest.raises(ValueError):
        unit(a, 0, 0, 0).inner(unit(b, 0, 0, 0))


def _vacuum_pair(p_other):
    """Vacuum unit vectors on two bases of equal size, the second at p_other."""
    a = enumerate_basis(P_DEFAULT, 2)
    b = enumerate_basis(p_other, 2)
    return unit(a, 0, 0, 0), unit(b, 0, 0, 0)


def test_inner_rejects_a_basis_with_another_p():
    u, v = _vacuum_pair(3.0)
    with pytest.raises(ValueError):
        u.inner(v)
    u, v = _vacuum_pair(P_DEFAULT)
    assert u.inner(v) == 1.0


def test_add_rejects_a_basis_with_another_p():
    u, v = _vacuum_pair(3.0)
    with pytest.raises(ValueError):
        u + v
    u, v = _vacuum_pair(P_DEFAULT)
    assert (u + v).coefficients[0] == 2.0


def test_sub_rejects_a_basis_with_another_p():
    u, v = _vacuum_pair(3.0)
    with pytest.raises(ValueError):
        u - v
    u, v = _vacuum_pair(P_DEFAULT)
    assert (u - v).norm() == 0.0


def test_label_arrays_and_find():
    for cutoff in (0, 1, 3, 8):
        basis = enumerate_basis(P_DEFAULT, cutoff)
        expected = brute_force_labels(cutoff)
        assert labels_of(basis) == expected
        index = {labels: i for i, labels in enumerate(expected)}
        # labels from -2 to cutoff + 2; betweenness violated, past the cutoff or
        # negative gives -1
        labels = range(-2, cutoff + 3)
        grid = np.array(list(itertools.product(labels, repeat=3))).T
        found = basis.find(*grid)
        assert found.shape == (len(labels) ** 3,)
        for triple, i in zip(grid.T.tolist(), found.tolist()):
            assert i == index.get(tuple(triple), -1), triple
            scalar = basis.find(*triple)
            assert scalar == i and {scalar: True}[i]
        assert sorted(found[found >= 0].tolist()) == list(range(basis.size))
        # a scalar label broadcasts against an array
        assert basis.find(cutoff, np.arange(cutoff + 1), cutoff).tolist() == [
            index[(cutoff, m22, cutoff)] for m22 in range(cutoff + 1)
        ]


def test_enumeration_peak_stays_near_the_label_arrays():
    # no dense (cutoff + 1)^3 grid: the peak is within 1.5x of the labels it returns
    tracemalloc.start()
    try:
        basis = enumerate_basis(2.5, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    labels = basis.m12.nbytes + basis.m22.nbytes + basis.m11.nbytes
    assert basis.size == binomial_size(200)
    assert peak < 1.5 * labels, (peak, labels)


@settings(max_examples=60, deadline=None)
@given(
    m12=st.integers(min_value=0, max_value=30),
    d22=st.integers(min_value=0, max_value=30),
    d11=st.integers(min_value=0, max_value=30),
    pnum=st.integers(min_value=11, max_value=60),
)
def test_weight_sum_equals_p_plus_degree(m12, d22, d11, pnum):
    # w1 + w2 = p + (m12 + m22) regardless of the inner label
    p = pnum / 10.0
    m22 = max(m12 - d22, 0)
    m11 = min(m22 + d11, m12)
    w1, w2 = weight_of(m12, m22, m11, p)
    assert abs((w1 + w2) - (p + m12 + m22)) < 1e-12


@pytest.mark.parametrize("call", [
    lambda: weight_of(True, 0, 0, P_DEFAULT),
    lambda: enumerate_basis(P_DEFAULT, True),
    lambda: zero_mode_coeffs(True, 1, P_DEFAULT),
    lambda: kernel_oracle(enumerate_basis(P_DEFAULT, 4), 0, True),
    lambda: measure("I", P_DEFAULT, True, 1.0),
    lambda: radial_grid(P_DEFAULT, True, True),
    lambda: stieltjes_closed_form("I", P_DEFAULT, True, True),
    lambda: stieltjes_moment("I", P_DEFAULT, 0, True),
    lambda: resolution_identity_check(P_DEFAULT, 0, True),
    lambda: b2_element(P_DEFAULT, True, 0.3, 1, 2, 0.5),
], ids=["weight_of", "enumerate_basis", "zero_mode_coeffs", "kernel_oracle", "measure",
        "radial_grid", "stieltjes_closed_form", "stieltjes_moment", "resolution_identity_check",
        "b2_element-jp"])
def test_bools_are_not_integer_labels(call):
    with pytest.raises(TypeError):
        call()


def test_numpy_integers_are_integer_labels():
    assert radial_grid(P_DEFAULT, np.int64(0), np.int64(2)).node_count > 0
    assert b2_element(P_DEFAULT, np.int64(1), 0.3, 1, 2, 0.5) != 0
