"""Derandomized fuzz of the closed forms: each returns finite values or refuses.

Every closed form the suites compare against must either give a finite value
or raise ValueError (or TypeError) at any input, never overflow into an
OverflowError, run out its term budget or warn.  Orders and arguments are
drawn log-uniform where their scale spans many decades.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parafock import (
    SeriesResult,
    b2sq_shift,
    coherent_norm,
    coherent_norm_series,
    hyp0f1,
    ladder_normalization,
    ladder_step,
    stieltjes_closed_form,
    structure_f,
    zero_mode_coeffs,
)


def _log_uniform(lo, hi):
    """Floats log-uniform over [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


def _finite_or_refused(call):
    """Check that ``call`` gives finite values (a series: value and tail bound) or raises ValueError/TypeError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except (ValueError, TypeError):
            return
    values = (result.value, result.tail_bound) if isinstance(result, SeriesResult) else result
    assert np.all(np.isfinite(values)), values


# real, negative and imaginary arguments up to the 650 of the series envelope, log-uniform in modulus
_HYP_X = st.builds(lambda r, unit: r * unit, _log_uniform(1e-320, 650.0), st.sampled_from([1.0, -1.0, 1j, -1j]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_log_uniform(1e-320, 1e3), x=_HYP_X)
@example(a=1e-300, x=649.0)  # the sum overflows
@example(a=1.7214057e-316, x=-0.015447166544343062)  # x / a overflows
def test_hyp0f1_returns_finite_values_or_refuses(a, x):
    _finite_or_refused(lambda: hyp0f1(a, x))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(1.0, 120.0, exclude_min=True),
    j=st.integers(0, 400),
    dk=st.integers(0, 400),
    n=st.integers(0, 2000),
    direction=st.sampled_from(["raise", "lower"]),
)
@example(p=2.5, j=0, dk=0, n=301, direction="raise")  # the ladder norm overflows
def test_ladder_and_zero_mode_forms_return_finite_values_or_refuse(p, j, dk, n, direction):
    k = j + dk
    for call in (
        lambda: ladder_normalization(p, j, n),
        lambda: ladder_step(p, j, n),
        lambda: zero_mode_coeffs(j, k, p),
        lambda: b2sq_shift(j, k, p, direction),
        lambda: structure_f(k + n, k, p),
        lambda: structure_f(np.arange(k, k + 4), np.arange(4), p),
    ):
        _finite_or_refused(call)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(1.0, 120.0, exclude_min=True),
    j=st.integers(0, 400),
    n=st.integers(0, 8),
    kind=st.sampled_from(["I", "II"]),
    magnitude=_log_uniform(5e-324, 10.0),
    phase=st.floats(-math.pi, math.pi),
)
def test_moment_and_norm_forms_return_finite_values_or_refuse(p, j, n, kind, magnitude, phase):
    alpha = magnitude * complex(math.cos(phase), math.sin(phase))
    for call in (
        lambda: stieltjes_closed_form(kind, p, j, n),
        lambda: coherent_norm(p, j, alpha),
        lambda: coherent_norm_series(p, j, alpha),
    ):
        _finite_or_refused(call)
