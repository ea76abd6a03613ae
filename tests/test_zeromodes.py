"""Tests for lowering-kernel vectors, ladder states, and squared-shift scalars."""

import contextlib
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from parafock import algebra, verify, zeromodes
from parafock.zeromodes import ladder_rungs
from reference_walks import reference_apply_on

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
            assert basis.m11[idx] == j and basis.degree[idx] == k + j


def test_zeromodes_report_at_cutoff_200_builds_no_whole_generator(monkeypatch):
    from parafock import cli

    whole, assemble = [], algebra._assemble

    def counting(basis, name, columns):
        if len(columns) == basis.size:
            whole.append(name)
        return assemble(basis, name, columns)

    def refuse(basis, name):
        raise AssertionError(f"build_generator({name!r}) called")

    monkeypatch.setattr(algebra, "_assemble", counting)
    monkeypatch.setattr(cli, "build_generator", refuse)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["zeromodes", "--p", "2.5", "--j", "100", "--k", "100"]) == 0
    assert whole == []


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


@pytest.mark.parametrize("p, j, n", [(2.5, 0, 301), (2.5, 0, 10**6), (65.99, 50, 301)])
def test_ladder_normalization_refuses_a_norm_past_the_double_range(p, j, n):
    assert math.isfinite(ladder_normalization(2.5, 0, 300))
    with pytest.raises(ValueError, match="outside the double range"):
        ladder_normalization(p, j, n)


@pytest.mark.parametrize("call, error", [
    (lambda: ladder_normalization(-5, 0, 2), ValueError),  # its squared closed form is -10
    (lambda: ladder_normalization(2.5, 1.5, 2), TypeError),
    (lambda: ladder_step(0.5, 0, 3), ValueError),
    (lambda: ladder_normalization(2.5, 0, 0.5), TypeError),  # returned 1.189
    (lambda: ladder_step(2.5, 0, 1.5), ValueError),  # returned 1.581
    (lambda: ladder_normalization(2.5, 0, True), TypeError),  # read as n = 1
    (lambda: ladder_step(2.5, 0, True), ValueError),
    (lambda: ladder_step(2.5, True, 0), ValueError),  # returned 2.1213
], ids=["normalization-p", "normalization-j", "step-p", "normalization-n-half", "step-n-half",
        "normalization-n-bool", "step-n-bool", "step-j-bool"])
def test_ladder_forms_refuse_inputs_outside_the_envelope(call, error):
    with pytest.raises(error):
        call()


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
    """The ladder walked with the former ``np.unique`` apply_on, one numpy product per rung."""
    i = np.arange(j + 1)
    rungs = [(basis.find(k + i, j - i, j), zero_mode_coeffs(j, k, basis.p).astype(np.complex128))]
    if nmax:
        _, raise_op = algebra._h2_sector(basis, "b1+", k)
        for n in range(nmax):
            index, values = reference_apply_on(raise_op, *rungs[-1])
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
# nmax = 0 and 1, and the three (j, k) shapes of the cutoff-60 b2-elements benchmark
@example(p=2.5, ladder=(60, 1, 2, 0))
@example(p=2.5, ladder=(60, 0, 3, 1))
@example(p=1.3, ladder=(60, 0, 2, 58))
@example(p=2.5, ladder=(60, 1, 2, 57))
@example(p=7.9, ladder=(60, 0, 3, 57))
def test_scalar_climb_matches_the_apply_on_walk_bit_for_bit(p, ladder):
    _assert_climb_matches_reference(p, *ladder)


@pytest.mark.parametrize("j, k", [(1, 2), (0, 100)])
def test_scalar_climb_matches_the_apply_on_walk_at_cutoff_200(j, k):
    _assert_climb_matches_reference(2.5, 200, j, k, 200 - k - j)


def test_b2_elements_walks_each_ladder_in_one_call(monkeypatch, capsys):
    from parafock import cli

    walks, walk, h2_sector = [], algebra.SparseOperator.walk, algebra._h2_sector
    raising = []

    def recording_h2_sector(basis, name, k):
        columns, op = h2_sector(basis, name, k)
        if name == "b1+":
            raising.append(op)
        return columns, op

    def counting_walk(self, support, x, divisors):
        walks.append((self, len(divisors)))
        return walk(self, support, x, divisors)

    monkeypatch.setattr(algebra, "_h2_sector", recording_h2_sector)
    monkeypatch.setattr(algebra.SparseOperator, "walk", counting_walk)
    argv = ["b2-elements", "--p", "2.5", "--j", "1", "--k", "2",
            "--alpha", "0.7,0.2", "--alpha-prime", "0.3,-0.5", "--nmax", "57"]
    assert cli.main(argv) == 0
    assert "# cutoff=60" in capsys.readouterr().out.splitlines()
    # three ladders (jp = 0 and 1 at k = 1, j = 1 at k = 2), each one b1+ walk of 57 steps
    climbs = [steps for op, steps in walks if any(op is b1p for b1p in raising)]
    assert climbs == [57, 57, 57]
    # the rest are the one-step b2- images of the ket, once for all three jp
    assert [steps for op, steps in walks if not any(op is b1p for b1p in raising)] == [1]


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _zero_mode_items(monkeypatch) -> dict:
    """Every deviation the zero_modes suite adds to its gate, by part, in the order added."""
    items, add = {}, verify._Gate.add

    def recording_add(gate, part, deviation):
        items.setdefault(part, []).append(deviation)
        add(gate, part, deviation)

    monkeypatch.setattr(verify._Gate, "add", recording_add)
    assert verify.check_zero_modes().passed
    return items


def _kernel_chunks(p, cutoff, pairs):
    basis = enumerate_basis(p, cutoff)
    for j, k in pairs:
        dim, vectors = kernel_oracle(basis, j, k)
        yield f"{j} {k} {dim}".encode()
        yield from (v.coefficients.tobytes() for v in vectors)


# sha256 of every item of the zero_modes sweep and of every kernel_oracle block, taken when the
# suite built each zero mode twice and kernel_oracle masked its block out of the sector; the null
# vectors are the bytes of numpy 2.4's SVD on its bundled OpenBLAS 0.3.31
ZERO_MODE_ITEMS = {
    "normalization": "1406af7e8521201f79143543d13abe7bb2f0c2aeb4602a2f9d975cfa97e75395",
    "annihilation": "1f1c77da1100f09112fcd70e278ac4019ab5547efe68153c7ecfc8735e1ed442",
}
KERNELS_AT_CUTOFF_20 = {
    2.5: "2d599be35f20c4992394840307078f7cf5530136b9d47a7deab43c3f38f41fa2",
    120.0: "e2963bda472a067eea47db39c568001f4f5754a872cefe6c0486ab1e8751a137",
}
KERNELS_AT_THE_CUTOFF = "537259841eec739c5d49287896b4a37c9dfda2ab95d8b88681a91b93070b77f9"


def test_every_zero_mode_item_keeps_its_bits(monkeypatch):
    # the suite's part pins see only its worst value, so one changed item could pass them
    items = _zero_mode_items(monkeypatch)
    for part, digest in ZERO_MODE_ITEMS.items():
        assert len(items[part]) == 330
        assert _sha256(float(d).hex().encode() for d in items[part]) == digest, part


@pytest.mark.parametrize("p", sorted(KERNELS_AT_CUTOFF_20))
def test_every_kernel_oracle_block_keeps_its_dimension_and_vectors(p):
    pairs = [(j, k) for j in range(11) for k in range(11)]
    assert _sha256(_kernel_chunks(p, 20, pairs)) == KERNELS_AT_CUTOFF_20[p]


def test_kernel_oracle_at_the_cutoff_keeps_its_dimension_and_vectors():
    # k + j = cutoff: the source run is the sector's last, at the degree of the cutoff shell
    pairs = [(j, 8 - j) for j in range(9)]
    assert [kernel_oracle(enumerate_basis(2.5, 8), j, k)[0] for j, k in pairs] == [1] * 5 + [0] * 4
    assert _sha256(_kernel_chunks(2.5, 8, pairs)) == KERNELS_AT_THE_CUTOFF


@pytest.mark.parametrize("k", [0, 1, 5, 8])
def test_kernel_oracle_at_j_0_has_no_rows_and_returns_the_unit_vector(k):
    # the source run is the one pattern (k, 0; 0), and m11 = -1 leaves the block no rows
    basis = enumerate_basis(2.5, 8)
    dim, vectors = kernel_oracle(basis, 0, k)
    assert dim == 1
    unit = np.zeros(basis.size, dtype=np.complex128)
    unit[basis.find(k, 0, 0)] = 1.0
    assert vectors[0].coefficients.tobytes() == unit.tobytes()
