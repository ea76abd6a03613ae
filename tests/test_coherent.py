"""Tests for eigenstates, cat states, b2- matrix elements, and joint eigenstates."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parafock import (
    b2_element,
    b2_element_oracle,
    b2sq_shift,
    bessel_i,
    bicoherent,
    build_coherent,
    build_generator,
    cat_state,
    coherent_norm,
    coherent_norm_series,
    coherent_overlap,
    eigen_residual,
    enumerate_basis,
    hyp0f1,
    ladder_family,
    t1_inverse_apply,
    to_fock_vector,
    zero_mode_vector,
)
from parafock.coherent import CoherentState, TruncationError
from reference_rungs import reference_auto_coherent

NORM_ROUTE_TOL = 1e-12
OVERLAP_TOL = 1e-13
ELEMENT_TOL = 1e-12
RATIO_TOL = 1e-12

# mpmath oracle values for the squared Bessel-form norm, 40 digits
FROZEN_NORM_SQ = {
    (2.5, 1, 1.2): 1.623801224805760276213,
    (3.0, 0, 2.0): 11.94391768346557524147,
}


def test_zero_eigenvalue_reduces_to_the_zero_mode():
    s = build_coherent(2.5, 0, 0, 0.0)
    assert s.coeffs[0] == 1.0
    assert np.all(s.coeffs[1:] == 0.0)
    assert s.norm_squared() == 1.0
    residual, top = eigen_residual(s)
    assert residual == 0.0 and top == 0.0


def test_norm_routes_agree():
    for p in (1.3, 2.0, 3.0):
        for j in (0, 2):
            for alpha in (0.3, 1.0 + 0.7j, 2.0j, -1.5):
                s = build_coherent(p, j, j, alpha)
                routes = (
                    s.norm_squared(),
                    coherent_norm(p, j, alpha),
                    coherent_norm_series(p, j, alpha),
                )
                scale = max(routes)
                for a in routes:
                    for b in routes:
                        assert abs(a - b) <= NORM_ROUTE_TOL * scale, (p, j, alpha)


def test_frozen_norm_values():
    for (p, j, absalpha), expected in FROZEN_NORM_SQ.items():
        assert coherent_norm(p, j, absalpha) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("p, j, alpha", [
    (7.0, 2, 1.175494351e-38j),  # tiny |alpha|
    (120.0, 0, 0.01),  # I_59(1e-4) underflows
    (2.5, 300, 1.0),  # large p/2 + j
])
def test_bessel_norm_is_finite_where_its_power_overflows(p, j, alpha):
    norm = coherent_norm(p, j, alpha)
    assert math.isfinite(norm) and norm >= 1.0
    assert norm == coherent_norm_series(p, j, alpha)


def test_norm_depends_only_on_the_modulus():
    p, j = 2.5, 1
    for phase in (1.0, 1.0j, cmath.exp(0.3j)):
        assert coherent_norm(p, j, 1.2 * phase) == pytest.approx(
            FROZEN_NORM_SQ[(2.5, 1, 1.2)], rel=1e-14
        )


def test_eigen_residual_is_the_clipped_top_term():
    # the identity is exact in exact arithmetic; in floats the interior
    # rungs cancel only to rounding, so the comparison is scaled
    for alpha in (0.5, 1.8 + 0.4j, 3.0j):
        s = build_coherent(2.5, 1, 1, alpha, nmax=24)
        residual, top = eigen_residual(s)
        assert top == abs(alpha) * abs(s.coeffs[-1])
        scale = abs(alpha) * float(np.linalg.norm(s.coeffs))
        assert abs(residual - top) <= 1e-14 * scale


@pytest.mark.parametrize("p, j", [(1.0, 0), (2.5, -1), (2.5, True)], ids=["p-1", "j-negative", "j-bool"])
def test_eigen_residual_refuses_a_hand_built_state_outside_the_envelope(p, j):
    # the labels are checked once per call, before the rungs are stepped without a check
    state = CoherentState(p=p, j=j, k=2, alpha=0.5 + 0j, coeffs=np.array([1.0, 0.3, 0.05], dtype=complex),
                          tail_bound=0.0)
    with pytest.raises(ValueError, match="integers j >= 0 and n >= 0"):
        eigen_residual(state)


def test_overlap_hermiticity_and_self_overlap():
    p, j = 2.5, 0
    pairs = ((0.5, 1.2 + 0.3j), (1.0j, -0.7 + 0.2j))
    for a, b in pairs:
        forward = coherent_overlap(p, j, a, b)
        backward = coherent_overlap(p, j, b, a)
        assert abs(forward - np.conj(backward)) <= OVERLAP_TOL
    for a in (0.4, 1.5 + 0.5j):
        assert abs(coherent_overlap(p, j, a, a) - 1.0) <= OVERLAP_TOL


def test_overlap_matches_coefficient_sum():
    p, j, k = 2.5, 1, 2
    a, b = 0.9 + 0.2j, -0.6 + 1.1j
    sa = build_coherent(p, j, k, a, nmax=40)
    sb = build_coherent(p, j, k, b, nmax=40)
    direct = np.vdot(sa.coeffs, sb.coeffs) / math.sqrt(
        sa.norm_squared() * sb.norm_squared()
    )
    assert abs(coherent_overlap(p, j, a, b) - direct) <= OVERLAP_TOL


def test_opposite_eigenvalue_overlap_is_the_bessel_ratio():
    p, j = 3.0, 1
    nu = p / 2.0 + j
    for absalpha in (0.8, 1.6):
        x = absalpha**2
        lo = bessel_i(nu - 1.0, x).value
        hi = bessel_i(nu, x).value
        expected = (lo - hi) / (lo + hi)
        got = coherent_overlap(p, j, -absalpha, absalpha)
        assert abs(got - expected) <= 1e-12, absalpha


def test_cat_states_are_parity_projections():
    p, j, k = 2.5, 0, 1
    alpha = 1.3 + 0.4j
    s = build_coherent(p, j, k, alpha)
    plus = cat_state(s, "+")
    minus = cat_state(s, "-")
    assert np.all(plus.coeffs[1::2] == 0.0)
    assert np.all(minus.coeffs[0::2] == 0.0)
    assert plus.norm_squared() == pytest.approx(1.0, abs=1e-14)
    assert minus.norm_squared() == pytest.approx(1.0, abs=1e-14)
    # disjoint parity supports make the strict overlap vanish identically
    assert np.vdot(plus.coeffs, minus.coeffs) == 0.0
    raw = s.coeffs / math.sqrt(s.norm_squared())
    even_mass = float(np.sum(np.abs(raw[0::2]) ** 2))
    rebuilt = np.where(np.arange(len(raw)) % 2 == 0, raw, 0.0) / math.sqrt(even_mass)
    np.testing.assert_allclose(plus.coeffs, rebuilt, atol=1e-13)


def test_cat_rejects_vanishing_branch():
    s = build_coherent(2.5, 0, 0, 0.0)
    with pytest.raises(ValueError):
        cat_state(s, "-")
    with pytest.raises(ValueError):
        cat_state(s, "x")


def test_build_coherent_validation():
    with pytest.raises(ValueError):
        build_coherent(2.5, 0, 0, 5.5)
    with pytest.raises(ValueError):
        build_coherent(2.5, 2, 1, 0.5)
    with pytest.raises(ValueError):
        build_coherent(0.9, 0, 0, 0.5)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1.01, 120.0), j=st.integers(0, 10**7), magnitude=st.floats(0.0, 5.0),
       angle=st.floats(-math.pi, math.pi))
@example(p=2.5, j=20000, magnitude=5.0, angle=0.0)
def test_automatic_rung_count_keeps_every_state_the_former_loop_accepted(p, j, magnitude, angle):
    alpha = cmath.rect(magnitude, angle)
    state = build_coherent(p, j, j, alpha)
    assert abs(alpha) / math.sqrt(state.nmax + 1) < 1.0
    try:
        coeffs, tail = reference_auto_coherent(p, j, alpha)
    except TruncationError:
        return  # the former loop stopped short of the decaying regime; the state is now built
    assert state.coeffs.tobytes() == coeffs.tobytes()
    assert np.float64(state.tail_bound).tobytes() == np.float64(tail).tobytes()


def test_normalized_flag():
    s = build_coherent(2.5, 0, 2, 1.1 + 0.3j, normalized=True)
    assert s.norm_squared() == pytest.approx(1.0, rel=1e-13)


def test_matrix_engine_accepts_the_state():
    p, j, k = 2.5, 1, 1
    alpha = 0.9 - 0.6j
    s = build_coherent(p, j, k, alpha, nmax=18)
    basis = enumerate_basis(p, k + j + 18)
    vec = to_fock_vector(basis, s)
    b1m = build_generator(basis, "b1-")
    residual = (b1m.apply(vec) - alpha * vec).norm()
    stated, _ = eigen_residual(s)
    assert residual <= stated * (1.0 + 1e-6) + 1e-12


def test_vertex_series_reproduces_the_state():
    # sum_n alpha^n (b1+ T1^(-1))^n zeta, assembled with matrices only
    p, j, k = 2.5, 1, 2
    alpha = 0.8 + 0.5j
    nmax = 14
    basis = enumerate_basis(p, k + j + nmax)
    zeta1 = p / 2.0 + j
    b1p = build_generator(basis, "b1+")
    term = zero_mode_vector(basis, j, k)
    acc = term.copy()
    scale = 1.0 + 0.0j
    for _ in range(nmax):
        term = b1p.apply(t1_inverse_apply(term, zeta1))
        scale *= alpha
        acc = acc + scale * term
    direct = to_fock_vector(basis, build_coherent(p, j, k, alpha, nmax=nmax))
    assert (acc - direct).norm() <= 1e-12 * direct.norm()


def test_b2_element_at_zero_eigenvalues():
    # the off-diagonal branches carry factors of the eigenvalues and
    # vanish; the jp = j branch reduces to its ratio times the S factor
    p, j, k = 2.5, 0, 1
    got = b2_element(p, 0, 0.0, j, k, 0.0)
    assert abs(got - math.sqrt(p)) <= ELEMENT_TOL
    assert b2_element(p, 0, 0.0, 1, 2, 0.0) == 0.0
    assert b2_element(p, 2, 0.0, 1, 2, 0.0) == 0.0
    diag = b2_element(p, 1, 0.0, 1, 2, 0.0)
    ratio = (p - 2.0) / (p - 2.0 + 2.0)
    s_factor = math.sqrt(1.0 + (p - 1.0 + 2.0))
    assert abs(diag - ratio * s_factor) <= ELEMENT_TOL


def test_b2_element_linearity_in_the_bra_eigenvalue():
    # at alpha = 0 the jp = j - 1 branch is linear in conj(alpha')
    p, j, k = 3.0, 1, 2
    base = b2_element(p, 0, 0.4 + 0.3j, j, k, 0.0)
    doubled = b2_element(p, 0, 0.8 + 0.6j, j, k, 0.0)
    assert abs(doubled - 2.0 * base) <= ELEMENT_TOL


def test_b2_element_forced_zeros():
    # distant families and the p = 2 diagonal branch with j >= 1
    assert b2_element(2.5, 3, 0.4, 0, 4, 0.7) == 0.0
    assert b2_element(2.5, 0, 0.4, 2, 4, 0.7) == 0.0
    for alpha in (0.3, 0.9j):
        assert b2_element(2.0, 1, 0.5, 1, 3, alpha) == 0.0
        assert b2_element(2.0, 2, 0.5, 2, 4, alpha) == 0.0
    # at j = 0 the leading ratio is identically 1 and p = 2 is not special
    val = b2_element(2.0, 0, 0.5, 0, 2, 0.3)
    assert abs(val) > 0.1


def test_b2_element_against_matrix_oracle():
    p, j, k = 2.5, 1, 2
    alpha, alpha_prime = 0.7 + 0.2j, 0.3 - 0.5j
    nmax = 18
    basis = enumerate_basis(p, j + k + nmax)
    for jp in (0, 1):
        closed = b2_element(p, jp, alpha_prime, j, k, alpha)
        oracle = b2_element_oracle(basis, jp, alpha_prime, j, k, alpha, nmax)
        assert abs(closed - oracle) <= 1e-10, jp


def test_build_coherent_rejects_bool_family_labels():
    with pytest.raises(TypeError):
        build_coherent(2.5, True, 1, 0.5)


def test_norm_routes_reject_non_integer_family_labels():
    # no (j, k) family exists at j = 0.5, and a bool is not a family label
    with pytest.raises(TypeError):
        coherent_norm(2.5, 0.5, 1.0)
    with pytest.raises(TypeError):
        coherent_norm_series(2.5, True, 1.0)
    with pytest.raises(TypeError):
        coherent_overlap(2.5, 1.0, 0.5, 0.5)
    with pytest.raises(TypeError):
        bicoherent(2.5, 0.0, 0, 0.5, 0.5, 4)


def test_bicoherent_prefactor_ratio_law():
    p, j, l = 2.5, 1, 2
    alpha, beta = 0.9, 1.2 - 0.7j
    state = bicoherent(p, j, l, alpha, beta, kmax=8)
    d = state.prefactors
    assert d[0] == complex(beta ** (l // 2))
    for kk in range(1, len(d)):
        step = math.sqrt(2.0 * kk * (p + 2.0 * l + 2.0 * kk - 2.0))
        assert abs(d[kk] - d[kk - 1] * beta / step) <= RATIO_TOL * abs(d[kk - 1])


def test_bicoherent_prefactor_step_matches_b2sq_lower():
    # the recurrence denominator is exactly the lowering scalar between
    # neighbouring components
    p, j = 2.5, 1
    for l in (j, j + 1):
        for kk in range(1, 6):
            step = math.sqrt(2.0 * kk * (p + 2.0 * l + 2.0 * kk - 2.0))
            shift = b2sq_shift(j, 2 * kk + l, p, "lower")
            assert step == pytest.approx(shift, rel=1e-15), (l, kk)


def test_bicoherent_beta_zero_reduces_to_one_component():
    state = bicoherent(2.5, 0, 1, 0.8, 0.0, kmax=4)
    assert state.prefactors[0] == 1.0
    assert np.all(state.prefactors[1:] == 0.0)
    assert state.eigen_residual_b2sq == 0.0
    base = build_coherent(2.5, 0, 1, 0.8)
    np.testing.assert_allclose(state.ladder_coeffs, base.coeffs, atol=0, rtol=0)


def test_bicoherent_validation_and_components():
    with pytest.raises(ValueError):
        bicoherent(2.5, 1, 3, 0.5, 0.5, kmax=4)
    with pytest.raises(ValueError):
        bicoherent(2.5, 1, 1, 0.5, 0.5, kmax=1)
    state = bicoherent(2.5, 0, 0, 0.5, 0.5, kmax=3)
    assert state.prefactors.shape == (4,)


def test_bicoherent_residuals_are_relative_top_masses():
    state = bicoherent(2.5, 0, 1, 1.2, 1.4, kmax=10)
    a = state.ladder_coeffs
    d = state.prefactors
    expected_b1 = abs(1.2) * abs(a[-1]) / float(np.linalg.norm(a))
    expected_b2 = abs(1.4) * abs(d[-1]) / float(np.linalg.norm(d))
    assert state.eigen_residual_b1 == pytest.approx(expected_b1, rel=1e-14)
    assert state.eigen_residual_b2sq == pytest.approx(expected_b2, rel=1e-14)


def test_b2_elements_assembles_no_whole_basis_generator(monkeypatch, capsys):
    from parafock import algebra, cli, zeromodes

    builds, walks = [], []
    assemble, climb = algebra._assemble, zeromodes._climb

    def counting_assemble(basis, name, columns):
        builds.append((name, len(columns), basis.size))
        return assemble(basis, name, columns)

    def counting_climb(basis, j, k, nmax):
        walks.append((j, k, nmax))
        return climb(basis, j, k, nmax)

    monkeypatch.setattr(algebra, "_assemble", counting_assemble)
    monkeypatch.setattr(zeromodes, "_climb", counting_climb)
    argv = ["b2-elements", "--p", "2.5", "--j", "1", "--k", "2",
            "--alpha", "0.7,0.2", "--alpha-prime", "0.3,-0.5", "--nmax", "57"]
    assert cli.main(argv) == 0
    assert "# cutoff=60" in capsys.readouterr().out.splitlines()
    # one b1+ on each h2 sector the ladders climb in (k - 1 = 1 for both bras, k = 2 for
    # the ket) and one b2- on the ket's sector, none on the whole basis
    assert sorted(name for name, _, _ in builds) == ["b1+", "b1+", "b2-"]
    # at most k + 1 = 3 patterns for each of the cutoff + 1 = 61 values of m11, out of 39,711
    assert all(0 < columns <= 3 * 61 < size for _, columns, size in builds)
    # the ket ladder serves all three jp; each bra ladder is walked once
    assert sorted(walks) == [(0, 1, 57), (1, 1, 57), (1, 2, 57)]


def test_b2_element_oracle_peak_stays_under_four_full_vectors():
    # the generators live on the ket ladder: what is left is a few full-size vectors
    basis = enumerate_basis(2.5, 200)
    tracemalloc.start()
    try:
        b2_element_oracle(basis, 1, 0.3 - 0.5j, 1, 2, 0.7 + 0.2j, 197)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vector = 16 * math.comb(203, 3)
    assert basis.size == math.comb(203, 3)
    assert peak < 4 * vector, peak / vector


@pytest.mark.parametrize("call", [
    lambda: hyp0f1(1.25, complex("nan")),
    lambda: hyp0f1(1.25, float("nan")),
    lambda: bessel_i(float("inf"), 1.0),
    lambda: bessel_i(1.0, float("nan")),
    lambda: coherent_norm(2.5, 0, complex("nan")),
    lambda: build_coherent(2.5, 0, 0, complex("nan")),
    lambda: build_coherent(2.5, 0, 0, complex(float("inf"), 0.0)),
    lambda: b2_element(2.5, 0, 0.5, 0, 1, complex("nan")),
    lambda: bicoherent(2.5, 0, 1, 0.5, complex("nan"), 12),
], ids=["hyp0f1-complex-nan", "hyp0f1-nan", "bessel_i-nu-inf", "bessel_i-x-nan",
        "coherent_norm-nan", "build_coherent-nan", "build_coherent-inf", "b2_element-nan",
        "bicoherent-beta-nan"])
def test_library_rejects_non_finite_input(call):
    with pytest.raises(ValueError):
        call()


def test_b2_sweep_builds_each_state_and_image_once(monkeypatch):
    from parafock import algebra, coherent, verify

    builds, applied, b2_sectors = [], [], []
    build, apply_on, h2_sector = (coherent.build_coherent, algebra.SparseOperator.apply_on,
                                  algebra._h2_sector)

    def counting_build(*args, **kwargs):
        builds.append((args, tuple(sorted(kwargs.items()))))
        return build(*args, **kwargs)

    def recording_h2_sector(basis, name, k):
        columns, op = h2_sector(basis, name, k)
        if name == "b2-":
            b2_sectors.append(op)
        return columns, op

    def counting_apply_on(self, support, x):
        applied.append(self)
        return apply_on(self, support, x)

    monkeypatch.setattr(coherent, "build_coherent", counting_build)
    monkeypatch.setattr(algebra, "_h2_sector", recording_h2_sector)
    monkeypatch.setattr(algebra.SparseOperator, "apply_on", counting_apply_on)
    result = verify.check_b2_elements()
    assert result.max_deviation.hex() == "0x1.1e3779b97f4a8p-50"
    # one bra build and one ket build per distinct state (1,062 builds of 114 states before)
    assert len(set(builds)) == 114
    assert len(builds) <= 180
    # one b2- image per distinct ket; the other applies are the ladders' b1+ rungs
    assert sum(any(op is b2 for b2 in b2_sectors) for op in applied) == 93


def test_b2_element_oracle_keys_alpha_by_its_bits():
    def bits(z):
        return z.real.hex(), z.imag.hex()

    shared = enumerate_basis(2.5, 24)
    for alpha_prime, alpha in ((0.3 - 0.5j, 0.0), (0.3 - 0.5j, -0.0), (0.0, 0.7), (-0.0, 0.7)):
        got = b2_element_oracle(shared, 0, alpha_prime, 1, 2, alpha, 20)
        fresh = b2_element_oracle(enumerate_basis(2.5, 24), 0, alpha_prime, 1, 2, alpha, 20)
        assert bits(got) == bits(fresh), (alpha_prime, alpha)
    # 0.0 and -0.0 get entries of their own; each is compact, never a full-size vector
    entries = {key: value for key, value in shared.cache.items() if key[0] in ("b2 bra", "b2 image")}
    assert sorted(key[0] for key in entries) == ["b2 bra"] * 3 + ["b2 image"] * 3
    assert all(len(index) == len(values) < shared.size for index, values in entries.values())


@pytest.mark.parametrize("j, l, beta", [(1, 2, 0.0), (2, 3, 0.0), (1000, 1000, 0.001), (1000, 1000, 5.0)])
def test_bicoherent_rejects_prefactors_outside_the_double_range(j, l, beta):
    # beta^(l // 2) is 0 or overflows: the state vanishes or cannot be represented
    with pytest.raises(ValueError, match="beta"):
        bicoherent(2.5, j, l, 0.5, beta, 2)


def test_bicoherent_residual_stays_finite_when_the_squared_prefactors_underflow():
    state = bicoherent(2.5, 1, 2, 0.5, 1e-200, 2)
    assert state.prefactors[0] == 1e-200
    assert state.eigen_residual_b2sq == 0.0


@pytest.mark.parametrize("jp, j", [(0.0, 1), (False, 1), (0, 1.0), (0, True)])
def test_b2_element_oracle_rejects_non_integer_labels_after_the_int_entry_is_cached(jp, j):
    basis = enumerate_basis(2.5, 24)
    b2_element_oracle(basis, 0, 0.3, 1, 2, 0.7, 20)
    with pytest.raises(TypeError):
        b2_element_oracle(basis, jp, 0.3, j, 2, 0.7, 20)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    p=st.floats(1.0, 120.0, exclude_min=True),
    j=st.sampled_from([0, 1, 2, 3, 4, 300]),
    dk=st.integers(0, 4),
    log2_magnitude=st.floats(-1074.0, math.log2(5.0)),
    phase=st.floats(-math.pi, math.pi),
    beta=st.complex_numbers(max_magnitude=5.0),
    kmax=st.integers(2, 12),
)
# |alpha|^2 rounds to 5e-324 and its half to 0
@example(p=2.5, j=0, dk=0, log2_magnitude=math.log2(2.3e-162), phase=0.0, beta=0.5, kmax=4)
def test_coherent_family_returns_finite_values_or_refuses(p, j, dk, log2_magnitude, phase, beta, kmax):
    # |alpha| log-uniform over [5e-324, 5], where the norms and the normalized state always exist
    alpha = cmath.rect(min(2.0**log2_magnitude, 5.0), phase)
    k = j + dk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = build_coherent(p, j, k, alpha, normalized=True)
        values = [coherent_norm(p, j, alpha), coherent_norm_series(p, j, alpha),
                  coherent_overlap(p, j, -alpha, alpha), state.coeffs, state.tail_bound]
        # these may refuse: a vanishing cat branch, k = 0, or beta^(l // 2) outside the double range
        for call in (
            lambda: cat_state(state, "+-"[dk % 2]),
            lambda: b2_element(p, j - 1 + dk % 3, alpha, j, k, alpha),
            lambda: bicoherent(p, j, j + dk % 2, alpha, beta, kmax),
        ):
            try:
                got = call()
            except (ValueError, TruncationError):
                continue
            if isinstance(got, complex):
                values.append(got)
            elif hasattr(got, "coeffs"):
                values += [got.coeffs, got.tail_bound]
            else:
                values += [got.prefactors, got.ladder_coeffs, got.ladder_tail_bound,
                           got.eigen_residual_b1, got.eigen_residual_b2sq]
    assert all(np.isfinite(v).all() for v in values), values
