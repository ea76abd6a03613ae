"""Tests for generator matrices and the defining algebraic relations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock import (
    GENERATOR_NAMES,
    FockVector,
    GZPattern,
    SparseOperator,
    adjointness_deviation,
    bracket,
    build_generator,
    enumerate_basis,
    pair_anticommutator_deviation,
    structure_f,
    t1_inverse_apply,
    verify_triple_relations,
    zero_mode_vector,
)

RELATION_TOL = 1e-12
ENTRY_TOL = 1e-13
P_TEST = 2.7


def test_structure_f_known_values():
    for p in (1.3, 2.0, 3.0, 4.7):
        f1, f2 = structure_f(0, 0, p)
        assert abs(f1 - math.sqrt(p)) < ENTRY_TOL
        assert abs(f2 - math.sqrt(p - 1.0)) < ENTRY_TOL
        f1, _ = structure_f(1, 0, p)
        assert abs(f1 - 1.0) < ENTRY_TOL
        f1, _ = structure_f(1, 1, p)
        assert abs(f1 + math.sqrt(3.0)) < ENTRY_TOL


def test_structure_f_rejects_bad_rows():
    with pytest.raises(ValueError):
        structure_f(1, 2, 3.0)
    with pytest.raises(ValueError):
        structure_f(2, -1, 3.0)
    with pytest.raises(ValueError):
        structure_f(0, 0, 1.0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_structure_f_needs_finite_p(p):
    with pytest.raises(ValueError):
        structure_f(0, 0, p)


def test_b1_plus_vacuum_column():
    basis = enumerate_basis(3.0, 4)
    op = build_generator(basis, "b1+")
    column = op.column(0)
    target = basis.find(1, 0, 1)
    assert set(column) == {target}
    assert abs(column[target] - math.sqrt(3.0)) < ENTRY_TOL


def test_cartan_generators_are_the_weights():
    basis = enumerate_basis(P_TEST, 5)
    w1, w2 = basis.weights()
    h1 = build_generator(basis, "h1")
    h2 = build_generator(basis, "h2")
    for i in range(basis.size):
        assert h1.column(i) == {i: w1[i]}
        assert h2.column(i) == {i: w2[i]}


def test_adjoint_is_an_involution():
    basis = enumerate_basis(P_TEST, 4)
    op = build_generator(basis, "b2+")
    assert (op.adjoint().adjoint() - op).max_abs() == 0.0


def test_raising_adjoint_equals_lowering_exactly():
    # identical square-root expressions on both sides, so the deviation is 0.0
    for p in (1.3, 2.0, 2.5, 4.7):
        basis = enumerate_basis(p, 6)
        assert adjointness_deviation(basis) == 0.0


def test_pair_anticommutator_is_twice_cartan():
    for p in (1.3, 2.5, 4.7):
        basis = enumerate_basis(p, 6)
        assert pair_anticommutator_deviation(basis) <= RELATION_TOL


def test_triple_relations_report():
    basis = enumerate_basis(P_TEST, 6)
    report = verify_triple_relations(basis, tol=RELATION_TOL)
    assert report.passed
    assert len(report.relations) == 64
    assert report.interior_degree == 3
    assert report.max_deviation <= RELATION_TOL


def test_cartan_commutators_grade_the_odd_generators():
    # [h_j, b_j^+-] = +- b_j^+- holds entrywise on every stored entry
    basis = enumerate_basis(P_TEST, 5)
    for mode in (1, 2):
        h = build_generator(basis, f"h{mode}")
        for sign, expect in (("+", 1.0), ("-", -1.0)):
            b = build_generator(basis, f"b{mode}{sign}")
            dev = (bracket(h, b, "commutator") - expect * b).max_abs()
            assert dev <= RELATION_TOL, (mode, sign)


def test_b2_squared_commutes_with_mode_one():
    basis = enumerate_basis(P_TEST, 7)
    interior = basis.interior_indices(3)
    for square_sign in ("+", "-"):
        b2 = build_generator(basis, f"b2{square_sign}")
        b2sq = b2 @ b2
        for other in ("b1+", "b1-"):
            b1 = build_generator(basis, other)
            dev = bracket(b2sq, b1, "commutator").max_abs(columns=interior)
            assert dev <= RELATION_TOL, (square_sign, other)


def test_lowering_chain_on_the_ladder():
    # b1- (b1+)^n zeta = (n + O_n (2 zeta1 - 1)) (b1+)^(n-1) zeta
    p = 2.5
    basis = enumerate_basis(p, 10)
    b1p = build_generator(basis, "b1+")
    b1m = build_generator(basis, "b1-")
    for (j, k) in ((0, 0), (1, 2), (2, 3)):
        zeta1 = p / 2.0 + j
        vec = zero_mode_vector(basis, j, k)
        powers = [vec]
        for _ in range(basis.cutoff - k - j - 1):
            powers.append(b1p.apply(powers[-1]))
        for n in range(1, len(powers) - 1):
            coeff = n + (n % 2) * (2.0 * zeta1 - 1.0)
            dev = (b1m.apply(powers[n]) - coeff * powers[n - 1]).norm()
            assert dev <= 1e-10 * max(1.0, powers[n].norm()), (j, k, n)


def test_t1_inverse_divisors():
    # offset 0 divides by 2 zeta1, offset 1 divides by 2
    p = 3.0
    j, k = 1, 1
    basis = enumerate_basis(p, 8)
    zeta1 = p / 2.0 + j
    b1p = build_generator(basis, "b1+")
    vec = zero_mode_vector(basis, j, k)
    out = t1_inverse_apply(vec, zeta1)
    assert (out - (1.0 / (2.0 * zeta1)) * vec).norm() <= ENTRY_TOL
    lifted = b1p.apply(vec)
    out = t1_inverse_apply(lifted, zeta1)
    assert (out - 0.5 * lifted).norm() <= ENTRY_TOL


def test_t1_inverse_inverts_t1():
    p = 2.5
    basis = enumerate_basis(p, 9)
    b1p = build_generator(basis, "b1+")
    b1m = build_generator(basis, "b1-")
    j, k = 1, 2
    zeta1 = p / 2.0 + j
    vec = zero_mode_vector(basis, j, k)
    mixed = vec + 0.7 * b1p.apply(vec) + (0.2 - 0.1j) * b1p.apply(b1p.apply(vec))
    image = b1m.apply(b1p.apply(mixed))
    recovered = t1_inverse_apply(image, zeta1)
    assert (recovered - mixed).norm() <= 1e-12


def test_t1_inverse_rejects_misaligned_weight():
    basis = enumerate_basis(2.5, 3)
    vec = FockVector.unit(basis, GZPattern(0, 0, 0))
    with pytest.raises(ValueError):
        t1_inverse_apply(vec, 2.5 / 2.0 + 0.37)


def test_operator_algebra_consistency():
    basis = enumerate_basis(P_TEST, 4)
    a = build_generator(basis, "b1+")
    b = build_generator(basis, "b2-")
    left = (a + b).to_dense()
    assert np.allclose(left, a.to_dense() + b.to_dense(), atol=0, rtol=0)
    prod = (a @ b).to_dense()
    assert np.max(np.abs(prod - a.to_dense() @ b.to_dense())) <= 1e-13
    assert (2.0 * a - a - a).max_abs() == 0.0


def test_from_entries_accumulates():
    op = SparseOperator.from_entries(3, [(0, 1, 1.0), (0, 1, 0.5), (2, 0, -1.0)])
    assert op.column(1) == {0: 1.5}
    assert op.column(0) == {2: -1.0}
    assert op.nnz == 2


def test_run_all_builds_each_generator_once_per_basis(monkeypatch):
    from parafock import algebra, verify, zeromodes

    builds, walks = {}, {}
    assemble, climb = algebra._assemble, zeromodes._climb

    def counting(basis, name):
        builds[(basis, name)] = builds.get((basis, name), 0) + 1
        return assemble(basis, name)

    def counting_climb(basis, j, k, nmax):
        walks[(basis, j, k, nmax)] = walks.get((basis, j, k, nmax), 0) + 1
        return climb(basis, j, k, nmax)

    monkeypatch.setattr(algebra, "_assemble", counting)
    monkeypatch.setattr(zeromodes, "_climb", counting_climb)
    verify.run_all()
    assert builds and set(builds.values()) == {1}
    assert walks and set(walks.values()) == {1}


def test_build_generator_shares_one_operator_per_basis():
    import gc
    import weakref

    from parafock.zeromodes import ladder_rungs

    basis = enumerate_basis(P_TEST, 4)
    op = build_generator(basis, "b2+")
    assert build_generator(basis, "b2+") is op
    assert build_generator(enumerate_basis(P_TEST, 4), "b2+") is not op
    rungs = ladder_rungs(basis, 0, 1, 3)
    # the basis holds its generators and rungs; nothing else holds the basis
    refs = [weakref.ref(basis), weakref.ref(rungs[-1][1])]
    del basis, rungs
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(GENERATOR_NAMES), cutoff=st.integers(0, 6), data=st.data())
def test_apply_on_matches_apply_bit_for_bit(name, cutoff, data):
    basis = enumerate_basis(P_TEST, cutoff)
    op = build_generator(basis, name)
    support = np.array(sorted(data.draw(st.sets(st.integers(0, basis.size - 1)))), dtype=np.intp)
    parts = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    x = np.array(data.draw(st.lists(parts, min_size=support.size, max_size=support.size)),
                 dtype=np.complex128)
    full = np.zeros(basis.size, dtype=np.complex128)
    full[support] = x
    expected = op.apply(full)
    rows, values = op.apply_on(support, x)
    assert np.array_equal(rows, np.unique(rows))
    assert values.tobytes() == expected[rows].tobytes()
    assert not np.delete(expected, rows).any()


def test_operator_arrays_are_read_only():
    basis = enumerate_basis(P_TEST, 3)
    a = build_generator(basis, "b1+")
    b = build_generator(basis, "b2-")
    h = build_generator(basis, "h1")
    rows = np.array([0, 1])
    own = SparseOperator(2, rows, np.array([0, 1]), np.array([1.0, 2.0]))
    derived = (a, b, h, a @ b, a + b, a - b, 2.0 * a, a * 2.0, a.adjoint(), own,
               SparseOperator.from_entries(3, [(0, 1, 1.0)]), SparseOperator.zero(3))
    for op in derived:
        for values in (op.rows, op.cols, op.vals):
            with pytest.raises(ValueError):
                values[...] = 0
    rows[0] = 1  # the caller's array itself stays writable


def test_operators_carry_only_their_entries():
    import inspect

    from parafock import b2_element_oracle, kernel_oracle

    assert "op" not in inspect.signature(kernel_oracle).parameters
    oracle_parameters = inspect.signature(b2_element_oracle).parameters
    assert not {"b2_op", "bra_family", "ket_family"} & set(oracle_parameters)
    assert "boundary_rows" not in inspect.signature(SparseOperator).parameters
    assert "boundary_rows" not in inspect.signature(SparseOperator.from_entries).parameters
    assert not hasattr(build_generator(enumerate_basis(P_TEST, 2), "b1+"), "boundary_rows")
