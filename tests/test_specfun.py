"""Tests for the hypergeometric and modified Bessel routines.

mpmath serves as the independent high-precision oracle throughout; every
comparison grid stays inside the validated operating window x <= 50,
|nu| <= 60, except the I-series tests at orders where its terms underflow.
"""

import math
import os
import subprocess
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_panels import reference_grid_rule, reference_k_rule
from reference_quadrature import reference_besseli_values, reference_besselk_values

from parafock import (
    SeriesResult,
    bessel_i,
    bessel_k,
    bessel_k_oracle,
    besseli_values,
    besselk_values,
    hyp0f1,
    measure,
    resolution,
    specfun,
)

ORACLE_REL_TOL = 1e-12
ELEMENTARY_TOL = 1e-12
INTEGRAL_ORACLE_TOL = 1e-10

HYP_A_GRID = (1.25, 2.0, 3.5)
HYP_X_GRID = (0.0, 0.5, 1.0, 2.5, 5.0, 10.0, 17.5, 25.0)


def hyp0f1_oracle(a, x):
    """200-term series at 40 digits, summed independently of the library."""
    with mp.workdps(40):
        term = mp.mpf(1)
        total = mp.mpf(1)
        for n in range(1, 200):
            term = term * mp.mpf(x) / (n * (mp.mpf(a) + n - 1))
            total += term
        return float(total)


def test_hyp0f1_at_zero_is_one():
    for a in HYP_A_GRID:
        r = hyp0f1(a, 0.0)
        assert r.value == 1.0
        assert r.tail_bound >= 0.0


def test_hyp0f1_against_series_oracle():
    for a in HYP_A_GRID:
        for x in HYP_X_GRID:
            expected = hyp0f1_oracle(a, x)
            got = hyp0f1(a, x).value
            assert abs(got - expected) <= ORACLE_REL_TOL * abs(expected), (a, x)


def test_hyp0f1_tail_bound_is_honest():
    # the omitted terms n >= terms_used, summed exactly at 30 digits
    with mp.workdps(30):
        for a in HYP_A_GRID:
            for x in (0.5, 5.0, 25.0):
                result = hyp0f1(a, x)
                term = mp.mpf(1)
                for n in range(result.terms_used):
                    term = term * mp.mpf(x) / ((mp.mpf(a) + n) * (n + 1))
                omitted = mp.mpf(0)
                for n in range(result.terms_used, result.terms_used + 200):
                    omitted += term
                    term = term * mp.mpf(x) / ((mp.mpf(a) + n) * (n + 1))
                assert 0 < omitted <= result.tail_bound, (a, x)


def test_hyp0f1_complex_matches_real_axis():
    for a in HYP_A_GRID:
        for x in (0.3, 4.0):
            assert abs(hyp0f1(a, complex(x)).value - hyp0f1(a, x).value) <= 1e-14 * hyp0f1(a, x).value


def test_hyp0f1_complex_against_mpmath():
    with mp.workdps(30):
        for a in (1.25, 3.5):
            for z in (1.0 + 2.0j, -3.0 + 0.5j, 2.2 - 2.2j):
                expected = complex(mp.hyp0f1(a, z))
                got = hyp0f1(a, z).value
                assert abs(got - expected) <= 1e-12 * abs(expected), (a, z)


def test_bessel_i_elementary_half_orders():
    for x in (0.3, 1.0, 2.7, 10.0):
        plus = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        minus = math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)
        assert abs(bessel_i(0.5, x).value - plus) <= ELEMENTARY_TOL * plus
        assert abs(bessel_i(-0.5, x).value - minus) <= ELEMENTARY_TOL * minus


def test_bessel_i_underflowing_leading_term_is_zero():
    result = bessel_i(3.0, 1e-320)
    assert (result.value, result.terms_used, result.tail_bound) == (0.0, 1, 0.0)


@pytest.mark.parametrize("nu, x", [(2.6e305, 1.0), (1e308, 50.0), (1e308, 1e-300), (3e305, 1e-320)])
def test_bessel_i_is_zero_where_lgamma_overflows(nu, x):
    # lgamma(nu + 1) overflows past nu ~ 2.56e305; the leading term underflows long before
    result = bessel_i(nu, x)
    assert (result.value, result.terms_used, result.tail_bound) == (0.0, 1, 0.0)


def test_bessel_i_terminates_on_a_subnormal_sum():
    # I_400(50) ~ 1.1e-309: 1e-17 times the sum underflows, so only a zero term can stop it
    result = bessel_i(400.0, 50.0)
    expected = float(mp.besseli(400, 50))
    assert 0.0 < result.value < 2.3e-308
    assert abs(result.value - expected) <= 1e-12 * expected


@pytest.mark.parametrize("nu, x", [(-0.99, 5e-324), (-0.99, 1e-320), (-0.999, 5e-324), (-0.999, 1e-320)])
def test_i_series_reject_a_leading_term_past_the_double_range(nu, x):
    # (x/2)^nu / Gamma(nu + 1) is past 1e308 at these points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="double range"):
            bessel_i(nu, x)
        with pytest.raises(ValueError, match="double range"):
            besseli_values(nu, np.array([x, 1.0]))


def test_besseli_values_is_zero_at_underflowing_orders():
    start = time.perf_counter()
    assert besseli_values(400.0, np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
    assert besseli_values(3e305, np.array([1.0, 50.0, 700.0])).tolist() == [0.0, 0.0, 0.0]
    assert time.perf_counter() - start < 0.5  # 100,000 iterations and a RuntimeError took 0.9 s
    mixed = besseli_values(400.0, np.array([1.0, 600.0]))
    expected = float(mp.besseli(400, 600))
    assert mixed[0] == 0.0
    assert abs(mixed[1] - expected) <= 1e-12 * expected


@pytest.mark.parametrize("nu", [0.0, 0.001, -0.5])
def test_i_series_where_the_half_argument_underflows(nu):
    # 5e-324 / 2 rounds to 0, so both routes take log(5e-324) - log(2) there; I_0.001 is 0.4749..., not the limit 0
    xs = (5e-324, 1e-323, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = [bessel_i(nu, x).value for x in xs]
        grid = besseli_values(nu, np.array(xs))
    for x, one, many in zip(xs, scalar, grid):
        expected = float(mp.besseli(nu, mp.mpf(x)))
        assert abs(one - expected) <= ORACLE_REL_TOL * expected
        assert abs(many - expected) <= ORACLE_REL_TOL * expected


def test_bessel_k_elementary_half_order():
    for x in (0.3, 1.0, 2.7, 10.0):
        expected = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert abs(bessel_k(0.5, x).value - expected) <= ELEMENTARY_TOL * expected


def test_bessel_i_against_mpmath():
    for nu in (-0.35, 0.0, 0.65, 1.0, 2.25, 7.5):
        for x in (0.1, 1.0, 5.0, 20.0, 50.0):
            expected = float(mp.besseli(nu, x))
            got = bessel_i(nu, x).value
            assert abs(got - expected) <= ORACLE_REL_TOL * expected, (nu, x)


def test_bessel_k_against_mpmath():
    # reflection orders, integer orders, and near-seam orders outside the
    # 1e-6 snap window
    for nu in (0.0, 0.35, 1.0, 2.0, 2.65, 5.0, 0.999995, 3.000005, 12.0):
        for x in (0.1, 1.0, 5.0, 20.0, 50.0):
            expected = float(mp.besselk(nu, x))
            got = bessel_k(nu, x).value
            assert abs(got - expected) <= 1e-11 * expected, (nu, x)


def test_bessel_k_snaps_inside_the_integer_window():
    # orders within 1e-6 of an integer evaluate at the integer itself
    for x in (0.5, 2.0):
        snapped = bessel_k(1.0 - 5e-7, x).value
        assert snapped == bessel_k(1.0, x).value
        assert abs(snapped - float(mp.besselk(1.0, x))) <= 1e-11 * snapped


def test_bessel_k_is_even_in_the_order():
    for x in (0.5, 3.0):
        assert bessel_k(-0.7, x).value == bessel_k(0.7, x).value


def test_bessel_k_oracle_scaling_and_values():
    # oracle(nu, z) integrates to K_nu(2z)
    for nu in (0.0, 0.5, 1.25, 4.0):
        for z in (0.25, 0.5, 2.0, 10.0):
            expected = float(mp.besselk(nu, 2.0 * z))
            got = bessel_k_oracle(nu, z)
            assert abs(got - expected) <= INTEGRAL_ORACLE_TOL * expected, (nu, z)


def test_bessel_k_oracle_elementary_half_order():
    for z in (0.4, 1.0, 3.0):
        expected = math.sqrt(math.pi / (4.0 * z)) * math.exp(-2.0 * z)
        assert abs(bessel_k_oracle(0.5, z) - expected) <= 1e-12 * expected


def test_vectorized_backends_match_scalar_routes():
    xs = np.array([0.05, 0.3, 1.0, 4.0, 11.0, 30.0])
    for nu in (0.25, 1.0, 3.75):
        ks = besselk_values(nu, xs)
        js = besseli_values(nu, xs)
        for x, kv, iv in zip(xs, ks, js):
            assert abs(kv - bessel_k(nu, float(x)).value) <= 1e-11 * kv
            assert abs(iv - bessel_i(nu, float(x)).value) <= 1e-12 * iv


def test_besselk_values_takes_order_magnitude():
    xs = np.array([0.5, 2.0])
    assert np.allclose(besselk_values(-1.5, xs), besselk_values(1.5, xs), rtol=0, atol=0)


def test_validation_windows():
    with pytest.raises(ValueError):
        bessel_i(-1.2, 1.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, 51.0)
    with pytest.raises(ValueError):
        bessel_k(61.0, 1.0)
    with pytest.raises(ValueError):
        hyp0f1(0.0, 1.0)


@pytest.mark.parametrize(
    "a, x",
    [
        (1e-300, 649.0),  # the sum overflows to inf
        (1.7214057e-316, -0.015447166544343062),  # the first term x / a overflows
        (1e-300, -649.0),  # the alternating sum reaches inf - inf
        (2.57e-306, 459 + 459j),  # both parts stay finite, but the modulus of the sum does not
    ],
)
def test_hyp0f1_refuses_a_value_past_the_double_range(a, x):
    with pytest.raises(ValueError, match="outside the double range"):
        hyp0f1(a, x)


def test_hyp0f1_stops_where_its_relative_stop_underflows():
    # 1 + x / a cancels to 0, and 1e-17 of the sum that is left, 5e-308, rounds to 0
    result = hyp0f1(1e-307, -1e-307)
    assert result.value == pytest.approx(float(mp.hyp0f1(mp.mpf(1e-307), mp.mpf(-1e-307))), rel=1e-15)
    assert result.terms_used == 3 and result.tail_bound == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: besselk_values(math.nan, [1.0, 2.0]),
        lambda: besselk_values(1.0, [math.inf]),
        lambda: besselk_values(math.inf, [1.0]),
        lambda: bessel_k_oracle(1.0, 1e308),  # 2z overflows
        lambda: measure("I", 2.5, 0, math.inf),
        lambda: measure("I", 2.5, 0, 1e200),  # rho^2 overflows
    ],
    ids=["nan-order", "inf-point", "inf-order", "oracle-2z", "measure-inf", "measure-rho-squared"],
)
def test_k_grid_routes_reject_non_finite_input(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "nu, x", [(0.5, 5e-324), (0.5, 1e-310), (1e300, 1e-300), (0.5, 1e-307), (0.0, 5e-324)],
    ids=["nu-over-subnormal", "nu-over-x-overflows", "huge-order", "cosh-overflows", "order-zero-subnormal"],
)
def test_k_grid_routes_reject_integration_ranges_past_cosh(nu, x):
    with pytest.raises(ValueError, match="double range"):
        besselk_values(nu, [x])
    with pytest.raises(ValueError, match="double range"):
        bessel_k_oracle(nu, x)  # K_nu at 2x
    # just inside: K_0.5(x) = sqrt(pi / (2x)) e^-x
    assert besselk_values(0.5, [1e-305])[0] == pytest.approx(math.sqrt(math.pi / 2e-305), rel=1e-10)


@pytest.mark.parametrize("nu", [169.0, 200.0, 1e4, 1e300])
def test_k_grid_routes_reject_values_past_the_double_range(nu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="double range"):
            besselk_values(nu, [1.0])
        with pytest.raises(ValueError, match="double range"):
            bessel_k_oracle(nu, 0.5)
    # no flat order cap: the radial grids need orders above the series routes' 60
    assert 0 < bessel_k_oracle(140.0, 0.5) < math.inf


# Reference: the mpf term loops that the scaled-integer series of bessel_k
# replaced, with their arithmetic unchanged, so the two can be compared bit
# for bit.


def _ref_besseli_series_mp(mu, half_z, stop):
    term = mp.power(half_z, mu) / mp.gamma(mu + 1)
    total = term
    q = half_z * half_z
    n = 0
    while True:
        n += 1
        term = term * q / (n * (mu + n))
        total += term
        if abs(term) < stop * abs(total):
            return total, n


def _ref_bessel_k_reflection(nu, x, digits):
    with mp.workdps(digits):
        mnu = mp.mpf(nu)
        half = mp.mpf(x) / 2
        stop = mp.mpf(10) ** (-(digits - 6))
        iplus, n1 = _ref_besseli_series_mp(mnu, half, stop)
        iminus, n2 = _ref_besseli_series_mp(-mnu, half, stop)
        value = mp.pi * (iminus - iplus) / (2 * mp.sin(mp.pi * mnu))
        return float(value), n1 + n2


def _ref_bessel_k_integer(order, x, digits):
    with mp.workdps(digits):
        half = mp.mpf(x) / 2
        stop = mp.mpf(10) ** (-(digits - 6))
        finite = mp.mpf(0)
        for n in range(order):
            finite += (-1) ** n * mp.factorial(order - n - 1) / mp.factorial(n) * mp.power(half, 2 * n - order)
        finite /= 2
        logh = mp.log(half)
        coef = mp.power(half, order) / mp.factorial(order)
        d1 = -mp.euler
        d2 = mp.digamma(order + 1)
        q = half * half
        acc = mp.mpf(0)
        n = 0
        while True:
            acc += coef * (logh - d1 / 2 - d2 / 2)
            bound = abs(coef) * (abs(logh) + abs(d1) / 2 + abs(d2) / 2)
            if n > 2 and bound < stop * (abs(acc) + abs(finite) + stop):
                break
            n += 1
            coef = coef * q / (n * (order + n))
            d1 += mp.mpf(1) / n
            d2 += mp.mpf(1) / (order + n)
        value = finite + (-1) ** (order + 1) * acc
        return float(value), n + 1 + order


def _routes(nu, x):
    """(new, reference) route outputs (value, terms) for the order bessel_k would pick."""
    anu = abs(nu)
    delta = abs(anu - round(anu))
    digits = specfun._working_digits(x, delta)
    if delta <= specfun._INTEGER_ORDER_MARGIN:
        args = (round(anu), x, digits)
        return specfun._bessel_k_integer(*args), _ref_bessel_k_integer(*args)
    args = (anu, x, digits)
    return specfun._bessel_k_reflection(*args), _ref_bessel_k_reflection(*args)


def _assert_same_bits(nu, x):
    (value, terms), (ref_value, ref_terms) = _routes(nu, x)
    assert (value.hex(), terms) == (ref_value.hex(), ref_terms), (nu, x)


_ORDERS = st.one_of(
    st.floats(-60.0, 60.0),
    st.builds(
        lambda n, sign, offset: n + sign * offset,
        st.integers(0, 60),
        st.sampled_from((-1.0, 1.0)),
        st.one_of(st.just(0.0), st.floats(1.01e-6, 1e-2)),
    ).filter(lambda nu: abs(nu) <= 60.0),
)


@settings(max_examples=200, deadline=None)
@given(nu=_ORDERS, x=st.floats(0.0, 50.0, exclude_min=True))
def test_scaled_integer_series_match_the_mpf_loops_bit_for_bit(nu, x):
    _assert_same_bits(nu, x)


@pytest.mark.parametrize(
    "nu, x",
    [(0.0, 50.0), (60.0, 0.01), (59.5, 50.0), (2.000005, 50.0), (0.3, 5e-324), (60.0, 50.0), (59.999998, 50.0),
     (1.00000101, 50.0), (0.99999899, 1e-300), (60.0, 1e-3), (0.0, 5e-324)],
)
def test_scaled_integer_series_at_the_envelope_edges(nu, x):
    # K_0(50) is where an integer-order scale taken from the leading term stops early
    _assert_same_bits(nu, x)


@pytest.mark.parametrize("x", [1e-300, 1e-3, 0.1, 1.0, 5.0, 20.0, 50.0])
def test_integer_order_finite_sum_keeps_its_bits_at_every_order(x):
    # the finite sum runs on scaled integers; the reference sums it with mpmath factorials and powers
    for order in range(61):
        _assert_same_bits(float(order), x)


@st.composite
def _radial_boundaries(draw):
    """Boundaries shaped like ``radial_grid``'s: 0, graded panels down to 2^-depth, then unit panels."""
    depth = draw(st.integers(0, 60))
    top = draw(st.integers(2, 400))
    graded = [0.0] + [2.0 ** (-depth + i) for i in range(depth + 1)]
    return tuple(graded + [float(b) for b in range(2, top + 1)])


@settings(max_examples=100, deadline=None)
@given(boundaries=_radial_boundaries())
def test_grid_panels_match_the_former_loop_bit_for_bit(boundaries):
    x, w = reference_grid_rule(boundaries)
    grid = resolution.QuadratureGrid(boundaries)
    assert grid.x.tobytes() == x.tobytes()
    assert grid.w.tobytes() == w.tobytes()


@settings(max_examples=100, deadline=None)
@given(n_panels=st.integers(1, 400))
def test_k_panels_match_the_former_tiled_form_bit_for_bit(n_panels):
    t, w = reference_k_rule(n_panels)
    boundaries = 0.5 * np.arange(n_panels + 1)
    got_t, got_w = specfun._gauss_panels(boundaries, specfun._GL24_NODES, specfun._GL24_WEIGHTS)
    assert got_t.tobytes() == t.tobytes()
    assert got_w.tobytes() == w.tobytes()


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter on this checkout's package; it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(specfun.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_mpmath_loads_on_the_first_bessel_k():
    # a fresh interpreter, so no earlier import in this process decides the answer
    code = (
        "import sys, parafock, parafock.cli\n"
        "assert 'mpmath' not in sys.modules\n"
        "parafock.bessel_k(0.3, 5.0)\n"
        "assert 'mpmath' in sys.modules\n"
    )
    _run_fresh(code)


def test_no_run_loads_numpy_polynomial_or_numpy_ma():
    # the rules are pinned tables and the K buckets are grouped by one sort; a fresh
    # interpreter, so no earlier import in this process decides the answer
    code = (
        "import contextlib, io, sys\n"
        "import parafock.cli\n"
        "def check():\n"
        "    assert 'numpy.polynomial' not in sys.modules and 'numpy.ma' not in sys.modules\n"
        "check()\n"
        "for argv in (['bessel', '--kind', 'k', '--nu', '0.3', '--x', '2.5'],\n"
        "             ['moments', '--p', '2.5', '--j', '1', '--kind', 'II'],\n"
        "             ['resolution', '--p', '2.5', '--j', '0']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert parafock.cli.main(argv) == 0, argv\n"
        "    check()\n"
    )
    _run_fresh(code)


@pytest.mark.parametrize(
    "rule, n", [((specfun._GL24_NODES, specfun._GL24_WEIGHTS), 24), ((resolution._GL20_NODES, resolution._GL20_WEIGHTS), 20)]
)
def test_pinned_rules_hold_the_leggauss_bits_read_only(rule, n):
    from numpy.polynomial.legendre import leggauss

    for pinned, computed in zip(rule, leggauss(n)):
        assert pinned.tobytes() == computed.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            pinned[0] = 0.0


def _outcome(fn, *args):
    """Bytes of the result, or the exception's type and message."""
    try:
        return fn(*args).tobytes()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@st.composite
def _log_uniform_grid(draw, lo, hi):
    """2-40 points log-uniform over [10^a, 10^(a + span)] inside [10^lo, 10^hi], both ends included."""
    a = draw(st.floats(lo, hi - 0.5))
    span = draw(st.floats(0.5, min(8.0, hi - a)))  # up to 13 magnitude buckets
    exps = [0.0, 1.0] + draw(st.lists(st.floats(0.0, 1.0), max_size=38))
    return np.array([10.0 ** (a + span * e) for e in exps])


@settings(max_examples=150, deadline=None)
@given(nu=st.floats(-60.0, 60.0), xs=_log_uniform_grid(-20.0, math.log10(700.0)))
def test_besselk_values_match_the_former_bucket_integral_bit_for_bit(nu, xs):
    assert _outcome(besselk_values, nu, xs) == _outcome(reference_besselk_values, nu, xs)


def _reordered(xs):
    """The points of ``xs`` descending, repeated, and shuffled so that their buckets interleave."""
    return xs[::-1], np.tile(xs[::5], 3), np.random.default_rng(7).permutation(xs)


@pytest.mark.parametrize("nu", [0.0, 0.5, 3.7, 12.0, 59.9, 150.0])
def test_besselk_values_at_the_edges_match_the_former_bucket_integral(nu):
    # from x = 1e-300 the cutoff or e^x K leaves the double range at most orders
    spread = np.logspace(-3, 2.8, 50)
    for xs in (np.logspace(-300, math.log10(700.0), 60), np.array([5e-324]), spread, *_reordered(spread)):
        assert _outcome(besselk_values, nu, xs) == _outcome(reference_besselk_values, nu, xs)


def test_empty_grids_give_empty_columns():
    for fn in (besselk_values, besseli_values):
        assert fn(1.5, np.array([])).tobytes() == b""


def _count_k_buckets(monkeypatch):
    """Make ``specfun._k_bucket`` record the points of every bucket it integrates; returns the record."""
    calls = []
    k_bucket = specfun._k_bucket

    def counting(anu, xb, lc):
        calls.append(xb.tolist())
        return k_bucket(anu, xb, lc)

    monkeypatch.setattr(specfun, "_k_bucket", counting)
    return calls


def test_a_stored_bucket_at_other_input_positions_is_not_integrated_again(monkeypatch):
    calls = _count_k_buckets(monkeypatch)
    # the buckets [0.5], [4.5, 7.0, 12.0] and [100.0]; the second grid holds each of them at
    # other positions, with each bucket's points in the same order
    first, second = np.array([0.5, 4.5, 7.0, 12.0, 100.0]), np.array([4.5, 100.0, 7.0, 0.5, 12.0])
    store = {}
    values = besselk_values(1.5, first, store)
    assert calls == [[0.5], [4.5, 7.0, 12.0], [100.0]]
    for nu in (1.5, -1.5):
        again = besselk_values(nu, second, store)
        assert again.tobytes() == values[[1, 4, 2, 0, 3]].tobytes()
        assert again.tobytes() == reference_besselk_values(nu, second).tobytes()
    assert len(calls) == 3


def test_no_k_value_is_memoized_across_calls(monkeypatch):
    calls = _count_k_buckets(monkeypatch)
    # without a store, a second call on the same grid integrates every bucket again
    xs = np.array([0.5, 4.5, 7.0, 12.0, 100.0])
    assert besselk_values(1.5, xs).tobytes() == besselk_values(1.5, xs).tobytes()
    assert calls == [[0.5], [4.5, 7.0, 12.0], [100.0]] * 2


_I_ORDERS = st.one_of(
    st.floats(-1.0, 60.0, exclude_min=True),
    st.floats(60.0, 1000.0),
    st.floats(1000.0, 1e306),  # the leading term underflows at every point
)


@settings(max_examples=150, deadline=None)
@given(nu=_I_ORDERS, xs=st.one_of(_log_uniform_grid(-323.0, math.log10(700.0)), _log_uniform_grid(-3.0, math.log10(700.0))))
def test_besseli_values_match_the_series_stopped_after_every_term_bit_for_bit(nu, xs):
    with np.errstate(all="ignore"):
        assert _outcome(besseli_values, nu, xs) == _outcome(reference_besseli_values, nu, xs)


def test_besseli_values_at_the_edges_match_the_series_stopped_after_every_term():
    spread = np.logspace(-300, math.log10(700.0), 80)
    grids = (np.array([5e-324, 1e-320, 1e-310, 1.0]), spread, np.linspace(1.0, 700.0, 97), *_reordered(spread))
    with np.errstate(all="ignore"):
        for nu in (-0.99, -0.5, 0.0, 0.3, 1.0, 3.7, 12.0, 60.0, 150.0, 400.0, 3e305):
            for xs in grids:
                assert _outcome(besseli_values, nu, xs) == _outcome(reference_besseli_values, nu, xs), nu


@pytest.mark.parametrize("x", [705.7, 706.0, 710.0, 1e308, math.inf])
def test_besseli_values_rejects_points_past_its_bound(x):
    # from x = 705.75 a term times (x/2)^2 overflows before the division
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (-0.5, 0.0, 3.7):
            assert np.all(np.isfinite(besseli_values(nu, [1.0, 700.0, 705.0])))
            with pytest.raises(ValueError, match="operating range"):
                besseli_values(nu, [1.0, x])


@pytest.mark.parametrize("nu, x", [(0.005, 5e-307), (0.01, 3e-307), (0.02, 5e-307), (0.04, 5e-307)])
def test_k_node_table_past_the_cosh_overflow_warns_nothing(monkeypatch, nu, x):
    # the panel cutoff is 710.5 at these points, past cosh's overflow at t = 710.48
    xs = np.array([x])
    with np.errstate(over="ignore"):
        expected = _outcome(reference_besselk_values, nu, xs)
    monkeypatch.setattr(specfun, "_K_NODES", None)  # the call below builds the table afresh
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(besselk_values, nu, xs) == expected
    assert not np.isfinite(specfun._K_NODES[2]).all()


def test_k_node_table_history_changes_no_value():
    # a fresh interpreter, so the table starts empty; every warning is an error
    code = (
        "import warnings\n"
        "warnings.simplefilter('error')\n"
        "import numpy as np\n"
        "from parafock import specfun\n"
        "assert specfun._K_NODES is None\n"
        "xb = np.array([4.5, 7.0, 12.0])\n"
        "def bucket():\n"
        "    values, lc = specfun._k_bucket(1.5, xb, None)\n"
        "    return values.tobytes()\n"
        "def check_table(n_nodes):\n"
        "    assert [a.size for a in specfun._K_NODES] == [n_nodes] * 3\n"
        "    assert all(np.isfinite(a).all() and not a.flags.writeable for a in specfun._K_NODES)\n"
        "fresh = bucket()\n"
        "check_table(24 * round(specfun._panel_cutoff(1.5, 4.5) / 0.5))\n"
        "specfun.bessel_k_oracle(0.5, 1e-12)\n"
        "grown = 24 * round(specfun._panel_cutoff(0.5, 2e-12) / 0.5)\n"
        "check_table(grown)\n"
        "assert bucket() == fresh\n"
        "for nu, x in ((1.0, 5e-324), (160.0, 1.0)):\n"
        "    try:\n"
        "        specfun.besselk_values(nu, np.array([x]))\n"
        "    except ValueError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError((nu, x))\n"
        "    assert bucket() == fresh\n"
        "check_table(grown)\n"
    )
    _run_fresh(code)


# Orders near -1, near integers and up to 60, at arguments log-uniform over the doubles.
_EDGE_ORDERS = st.one_of(
    st.floats(-1.0, -0.99),
    st.builds(lambda n, offset: n + offset, st.integers(0, 60), st.floats(-1e-2, 1e-2)),
    st.floats(-1.0, 60.0),
)
_LOG_UNIFORM_X = st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda e: min(max(10.0**e, 5e-324), 1.7e308))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nu=_EDGE_ORDERS, x=_LOG_UNIFORM_X, xs=st.lists(_LOG_UNIFORM_X, min_size=1, max_size=6))
def test_bessel_routes_return_finite_values_or_raise_value_error(nu, x, xs):
    calls = ((bessel_i, nu, x), (bessel_k, nu, x), (besseli_values, nu, xs), (besselk_values, nu, xs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, *args in calls:
            try:
                result = fn(*args)
            except ValueError:
                continue
            values = (result.value, result.tail_bound) if isinstance(result, SeriesResult) else result
            assert np.all(np.isfinite(values)), (fn.__name__, nu, args)
