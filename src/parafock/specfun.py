"""Series special functions with explicit truncation accounting.

Every series evaluator reports how many terms it consumed and a bound on the
truncation error, so callers can propagate honest error budgets.  The
modified Bessel function of the second kind is evaluated from its reflection
form pi (I_{-nu} - I_nu) / (2 sin(nu pi)) away from integer order and from
the logarithmic series at integer order.  Both forms cancel catastrophically
in double precision once x exceeds a few units (the summands grow like e^x
while the result decays like e^-x), so they are evaluated in escalated
working precision sized from that loss estimate and rounded to a double at
the end.  The term loops run on Python integers scaled by 2^prec at those
working digits.  The one-off prefactors (power, gamma, sin, pi, log, euler,
digamma, factorial) are the ``mpmath.libmp`` calls that mpmath's operators and
functions make at those digits, rounded to nearest, so every mpf is the one
they give, without their wrappers; the first ``bessel_k`` call imports mpmath.
An independent integral-representation evaluator serves as oracle and as the stable backend
for quadrature grids; it and the radial grids share one Gauss-Legendre panel rule.
Its 24- and 20-point reference rules are pinned tables of ``leggauss``'s bits, so no
run loads ``numpy.polynomial`` or calls LAPACK to build them, and no output depends
on the LAPACK build.
The integral reads its nodes, weights and cosh(t) - 1 as prefixes of one
read-only table of half-unit panels, built on first use and grown to exactly
the panels a bucket asks for, and takes log cosh(nu t) once per call.  It
groups a grid into magnitude buckets with one stable sort, each bucket's
points in input order and sliced from the sorted points, removes the scaling
e^x once per call, and forms x (cosh t - 1) with ``einsum``, whose
products are those of ``np.multiply.outer`` bit for bit.  The vectorized I
series runs on its points in ascending x and tests its stop every 8 terms;
points that have stopped leave from the front as a slice.  That returns the
same bits as a test of every point after every term.

Operating envelope: series arguments are validated to x <= 50, the vectorized
I series to x <= 705; the integral representation has no such restriction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_RELATIVE_STOP = 1e-17
_MAX_TERMS = 100000
_SERIES_X_MAX = 50.0
_I_GRID_X_MAX = 705.0
_HYP_X_MAX = 650.0
_NU_MAX = 60.0
_INTEGER_ORDER_MARGIN = 1e-6
_LOG_HALF_TINIEST = math.log(5e-324) - math.log(2.0)  # log(x / 2) at x = 5e-324, whose half rounds to 0
_LOG_DBL_MAX = math.log(sys.float_info.max)


def _gauss_legendre(nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """The read-only rule on [-1, 1] mirrored from the upper halves of ``leggauss(n)``, bit for bit."""
    rule = np.concatenate((-np.array(nodes[::-1]), nodes)), np.concatenate((weights[::-1], weights))
    for a in rule:
        a.setflags(write=False)
    return rule


_GL24_NODES, _GL24_WEIGHTS = _gauss_legendre(
    (0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451, 0.5454214713888396,
     0.6480936519369755, 0.7401241915785544, 0.820001985973903, 0.8864155270044011, 0.9382745520027328,
     0.9747285559713095, 0.9951872199970213),
    (0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552, 0.10744427011596556,
     0.09761865210411393, 0.0861901615319532, 0.07334648141108016, 0.05929858491543636, 0.04427743881741941,
     0.02853138862893356, 0.01234122979998869),
)


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series with the number of terms and a tail bound."""

    value: float | complex
    terms_used: int
    tail_bound: float


def hyp0f1(a: float, x: float | complex) -> SeriesResult:
    """Confluent limit series sum_k x^k / ((a)_k k!) for real or complex x.

    Terminates when the next term falls below 1e-17 of the accumulated sum in
    modulus; the reported tail bound is twice the modulus of the first omitted
    term.  The value is complex for complex x, except at x = 0 where it is 1.0.
    A term or sum past the double range (a near 0) raises ValueError.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"need a finite a > 0, got {a}")
    if not abs(x) <= _HYP_X_MAX:
        raise ValueError(f"|x| = {abs(x)} outside the operating range (max {_HYP_X_MAX})")
    total = 1.0
    term = 1.0
    k = 0
    try:
        while True:
            nxt = term * x / ((a + k) * (k + 1))
            if abs(nxt) < _RELATIVE_STOP * abs(total) or nxt == 0:  # the stop underflows for a tiny total
                return SeriesResult(total, k + 1, 2.0 * abs(nxt))
            term = nxt
            total += term
            k += 1
            if not abs(total) < math.inf:  # inf or nan; abs of a complex past the range raises itself
                raise OverflowError
            if k > _MAX_TERMS:
                raise RuntimeError("series failed to terminate")
    except OverflowError:
        raise ValueError(f"0F1(; {a}; {x}) is outside the double range") from None


def _log_i_lead(nu: float, log_half):
    """log (x/2)^nu / Gamma(nu + 1); -inf past nu ~ 2.56e305, where lgamma overflows (the term underflows).

    Raises ValueError where the term is past the double range (nu near -1 at a subnormal x).
    """
    try:
        lead = nu * log_half - math.lgamma(nu + 1.0)
    except OverflowError:
        return np.full_like(log_half, -math.inf, dtype=float)
    if np.any(lead > _LOG_DBL_MAX):
        raise ValueError(f"the leading I_{nu} term (x/2)^nu / Gamma(nu + 1) is outside the double range")
    return lead


def bessel_i(nu: float, x: float) -> SeriesResult:
    """Modified Bessel function I_nu(x) from its ascending series, nu > -1, 0 <= x <= 50.

    All terms are positive, so the evaluation is cancellation-free.  A
    leading term that underflows to zero gives the value 0 exactly.
    """
    if not -1 < nu < math.inf:
        raise ValueError(f"need a finite nu > -1, got {nu}")
    if not 0 <= x <= _SERIES_X_MAX:
        raise ValueError(f"x = {x} outside the operating range [0, {_SERIES_X_MAX}]")
    if x == 0.0:
        if nu < 0:
            raise ValueError("I_nu(0) diverges for -1 < nu < 0")
        return SeriesResult(1.0 if nu == 0 else 0.0, 1, 0.0)
    half = x / 2.0
    log_half = math.log(half) if half else _LOG_HALF_TINIEST
    term = math.exp(_log_i_lead(nu, log_half))
    if term == 0.0:
        return SeriesResult(0.0, 1, 0.0)
    total = term
    q = half * half
    n = 0
    while True:
        nxt = term * q / ((n + 1) * (nu + n + 1))
        if nxt < _RELATIVE_STOP * total or nxt == 0.0:  # the stop underflows for a subnormal total
            return SeriesResult(total, n + 1, 2.0 * nxt)
        term = nxt
        total += term
        n += 1
        if n > _MAX_TERMS:
            raise RuntimeError("series failed to terminate")


def _working_digits(x: float, delta: float) -> int:
    """Decimal digits needed to survive the e^(2x) cancellation of the series forms.

    ``delta`` is the distance to the nearest integer order; shrinking it
    costs extra digits through the 1/sin(pi nu) amplification.
    """
    digits = 30 + int(math.ceil(0.8686 * x))
    if 0.0 < delta < 0.01:
        digits += min(8, int(math.ceil(-math.log10(delta))) + 1)
    return digits


def _besseli_series_mp(mu: float, x: float, digits: int):
    """Ascending series for I_mu(x) on integers scaled by 2^s; returns (raw mpf value, terms).

    The scale gives the leading term 24 guard bits past the working
    precision, each term is truncated toward zero, and the sum stops once
    |term| < 10^-(digits - 6) |total|.
    """
    from mpmath import libmp
    prec, ten, mu_f = libmp.dps_to_prec(digits), 10 ** (digits - 6), libmp.from_float(mu)
    lead = libmp.mpf_pow(libmp.mpf_shift(libmp.from_float(x), -1), mu_f, prec, "n")  # (x/2)^mu
    gamma = libmp.mpf_gamma(libmp.mpf_add(mu_f, libmp.fone, prec, "n"), prec, "n")  # Gamma(mu + 1)
    term = libmp.mpf_div(lead, gamma, prec, "n")
    s = prec + 24 - term[2] - term[3]  # mag(term) = exp + bitcount
    t = total = libmp.to_int(libmp.mpf_shift(term, s))
    (a, b), (c, e) = float(x).as_integer_ratio(), float(mu).as_integer_ratio()
    aae, bb4 = a * a * e, 4 * b * b
    n = 0
    while True:
        n += 1
        num, den = t * aae, bb4 * n * (c + n * e)  # term * (x/2)^2 / (n (mu + n))
        t = abs(num) // abs(den) if (num < 0) == (den < 0) else -(abs(num) // abs(den))
        total += t
        if abs(t) * ten < abs(total):
            return libmp.from_man_exp(total, -s), n
        if n > _MAX_TERMS:
            raise RuntimeError("series failed to terminate")


def _bessel_k_reflection(nu: float, x: float, digits: int) -> tuple[float, int]:
    from mpmath import libmp
    prec = libmp.dps_to_prec(digits)
    iplus, n1 = _besseli_series_mp(nu, x, digits)
    iminus, n2 = _besseli_series_mp(-nu, x, digits)
    pi = libmp.mpf_pi(prec, "n")  # the value is pi (I_-nu - I_nu) / (2 sin(pi nu))
    num = libmp.mpf_mul(pi, libmp.mpf_sub(iminus, iplus, prec, "n"), prec, "n")
    sin = libmp.mpf_sin(libmp.mpf_mul(pi, libmp.from_float(nu), prec, "n"), prec, "n")
    value = libmp.mpf_div(num, libmp.mpf_mul_int(sin, 2, prec, "n"), prec, "n")
    return libmp.to_float(value, rnd="n"), n1 + n2


def _bessel_k_integer(order: int, x: float, digits: int) -> tuple[float, int]:
    from mpmath import libmp
    prec, half = libmp.dps_to_prec(digits), libmp.mpf_shift(libmp.from_float(x), -1)
    a, b = float(x).as_integer_ratio()
    aa, bb4 = a * a, 4 * b * b
    # the finite sum sum_(n<order) (-1)^n (order-n-1)!/n! (x/2)^(2n-order) / 2 on integers
    # scaled by 2^e, which gives its first term 24 guard bits; each next term is the last
    # times (x/2)^2 / (n (order - n)), truncated, and the signs alternate
    finite, e = 0, 0
    if order:
        num, den = math.factorial(order - 1) * (2 * b) ** order, 2 * a**order
        e = prec + 24 - num.bit_length() + den.bit_length()
        t = (num << e) // den if e >= 0 else num // (den << -e)
        for n in range(order):
            if n:
                t = t * aa // (bb4 * n * (order - n))
            finite += -t if n % 2 else t
    finite = libmp.from_man_exp(finite, -e)
    # coef at scale 2^s, the digammas and log at 2^f, the sum at 2^(s + f + 1);
    # acc cancels by e^(-2x), so s resolves the absolute floor stop^2
    f, n_f = prec + 24, libmp.from_int(order)
    coef = libmp.mpf_div(libmp.mpf_pow(half, n_f, prec, "n"), libmp.mpf_factorial(n_f, prec, "n"), prec, "n")
    s = 2 * f - coef[2] - coef[3]  # mag(coef) = exp + bitcount
    c = libmp.to_int(libmp.mpf_shift(coef, s))
    prefactors = (libmp.mpf_log(half, prec, "n"), libmp.mpf_neg(libmp.mpf_euler(prec, "n")),
                  libmp.mpf_psi0(libmp.from_int(order + 1), prec, "n"))
    logh, d1, d2 = (libmp.to_int(libmp.mpf_shift(v, f)) for v in prefactors)
    fin = libmp.to_int(libmp.mpf_shift(libmp.mpf_abs(finite, prec, "n"), s + f + 1))
    ten = 10 ** (digits - 6)
    acc = 0
    n = 0
    while True:
        acc += c * (2 * logh - d1 - d2)
        bound = c * (2 * abs(logh) + abs(d1) + abs(d2))
        # bound < stop (|acc| + |finite| + stop) with stop = 1 / ten
        if n > 2 and bound * ten * ten < (abs(acc) + fin) * ten + (1 << (s + f + 1)):
            break
        n += 1
        c = c * aa // (bb4 * n * (order + n))
        d1 += (1 << f) // n
        d2 += (1 << f) // (order + n)
        if n > _MAX_TERMS:
            raise RuntimeError("series failed to terminate")
    tail = libmp.mpf_mul_int(libmp.from_man_exp(acc, -(s + f + 1)), (-1) ** (order + 1), prec, "n")
    return libmp.to_float(libmp.mpf_add(finite, tail, prec, "n"), rnd="n"), n + 1 + order


def bessel_k(nu: float, x: float) -> SeriesResult:
    """Modified Bessel function K_nu(x) for 0 < x <= 50.

    Orders within 1e-6 of an integer use the logarithmic integer-order
    series; all others use the reflection form.  Both are evaluated in
    escalated precision, their terms as integers scaled by 2^prec, so the
    returned double is correctly rounded up to a ~1e-15 relative margin,
    which the tail bound reports.
    """
    if not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    if x > _SERIES_X_MAX:
        raise ValueError(f"x = {x} outside the operating range (max {_SERIES_X_MAX})")
    anu = abs(nu)
    if anu > _NU_MAX:
        raise ValueError(f"|nu| = {anu} outside the operating range (max {_NU_MAX})")
    delta = abs(anu - round(anu))
    digits = _working_digits(x, delta)
    if delta <= _INTEGER_ORDER_MARGIN:
        value, terms = _bessel_k_integer(round(anu), x, digits)
    else:
        value, terms = _bessel_k_reflection(anu, x, digits)
    if not math.isfinite(value):
        raise ValueError(f"K_{nu}({x}) = {value} is outside the double range")
    if not value > 0:
        raise ArithmeticError(f"K_{nu}({x}) evaluated non-positive: {value}")
    return SeriesResult(value, terms, abs(value) * 1e-15)


def _log_cosh(t: np.ndarray, nu: float) -> np.ndarray:
    """log(cosh(nu t)) evaluated without overflow."""
    a = np.abs(nu * t)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def bessel_k_oracle(nu: float, z: float) -> float:
    """Integral representation K_nu(2z) = int_0^inf e^(-z e^t) e^(-z e^-t) cosh(nu t) dt.

    A one-point grid of :func:`besselk_values`, independent of the series
    forms of :func:`bessel_k`.
    """
    if not 0 < 2.0 * z < math.inf:
        raise ValueError(f"need z > 0 with 2z finite, got {z}")
    return float(besselk_values(nu, np.array([2.0 * z]))[0])


def _panel_cutoff(nu: float, xmin: float) -> float:
    """Smallest half-unit multiple T with the scaled integrand down 46 e-folds past its peak."""

    def h(t: float) -> float:
        return xmin * (math.cosh(t) - 1.0) - nu * t

    t_star = math.asinh(nu / xmin) if nu > 0 else 0.0
    t = t_star + 1.0
    try:
        target = h(t_star) + 46.0
        while h(t) < target:
            t += 0.5
        return math.ceil(2.0 * t) / 2.0
    except OverflowError:  # cosh(t) or nu / xmin past the double range
        raise ValueError(f"the K_{nu} integrand at x = {xmin} decays beyond the double range of cosh") from None


def _gauss_panels(boundaries, nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """The rule (nodes, weights) on [-1, 1] mapped onto each panel [b_i, b_(i+1)], in panel order."""
    b = np.asarray(boundaries, dtype=float)
    half = (0.5 * (b[1:] - b[:-1]))[:, None]
    t = half * nodes[None, :] + (b[:-1, None] + half)
    return t.ravel(), (half * weights[None, :]).ravel()


_K_NODES = None  # (t, w, cosh(t) - 1) of the first panels of the K rule, built on first use


def _k_nodes(n_panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, w, cosh(t) - 1) of the 24-point rule on the first ``n_panels`` half-unit panels from 0.

    Slices of one read-only table, grown to exactly the panels asked for.
    The boundaries 0.5 i and half-widths 0.25 are exact, so every prefix has
    the bits of a fresh build and the table's history changes no value.
    """
    global _K_NODES
    table = _K_NODES
    if table is None or table[0].size < 24 * n_panels:
        t, w = _gauss_panels(0.5 * np.arange(n_panels + 1), _GL24_NODES, _GL24_WEIGHTS)
        # the last panel can reach past cosh's overflow at t = 710.48: those nodes hold inf
        # and give exp(-inf) = 0, so no value depends on them
        with np.errstate(over="ignore"):
            table = (t, w, np.cosh(t) - 1.0)
        for a in table:
            a.setflags(write=False)
        _K_NODES = table
    return tuple(a[: 24 * n_panels] for a in table)


def _k_bucket(anu: float, xb: np.ndarray, lc: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """e^x K_anu(x) on one magnitude bucket, on 24-point half-unit panels out to its smallest point's cutoff.

    ``lc`` is log cosh(anu t) on the leading nodes, or None; returns the
    scaled values and the log cosh it used, which later buckets slice.
    """
    t, w, c = _k_nodes(int(round(_panel_cutoff(anu, float(xb.min())) / 0.5)))
    if lc is None or lc.size < t.size:
        lc = _log_cosh(t, anu)
    g = np.einsum("i,j->ij", xb, c)  # x (cosh t - 1): the bits of np.multiply.outer, in less time
    # exp(lc - x (cosh t - 1)) in place, the same operations in the same order
    np.subtract(lc[: t.size], g, out=g)
    scaled = np.exp(g, out=g) @ w  # the caller ignores overflow: an inf value raises below
    if not np.isfinite(scaled).all():
        raise ValueError(f"e^x K_{anu}(x) exceeds the double range for x in [{xb.min()}, {xb.max()}]")
    return scaled, lc


def besselk_values(nu: float, xs: np.ndarray, store: dict | None = None) -> np.ndarray:
    """K_nu on a grid of finite positive arguments via the integral representation.

    Evaluates e^x K_nu(x) = int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt with panel
    Gauss-Legendre rules and removes the scaling at the end, once per call on all points,
    which is stable at any argument.  Grid points are bucketed by magnitude (4^b <= x < 4^(b+1))
    so the integration range adapts to the slowest-decaying point of each bucket; a bucket's
    values depend only on |nu| and its own points.  ``store`` is a caller-owned dict that maps
    a bucket's point bytes to its scaled values e^x K by |nu|: a bucket found there is not
    integrated again, so grids that share a prefix of points share their lower buckets bit
    for bit.  The caller decides how long it lives.
    """
    if not math.isfinite(nu):
        raise ValueError(f"need a finite order, got {nu}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("expected a one-dimensional grid")
    if not np.all((xs > 0) & (xs < math.inf)):
        raise ValueError("all grid points must be finite and positive")
    anu = abs(nu)
    out = np.empty_like(xs)
    if not xs.size:
        return out
    buckets = np.floor(np.log2(xs) / 2.0).astype(int)
    order = np.argsort(buckets, kind="stable")  # ascending buckets, each in input order
    xsorted, scaled = xs[order], np.empty_like(xs)
    cuts = (np.flatnonzero(np.diff(buckets[order])) + 1).tolist()  # where each bucket after the first starts
    lc = None  # log cosh(anu t), taken once on the first bucket integrated: it needs the most nodes
    with np.errstate(over="ignore"):
        for lo, hi in zip([0, *cuts], [*cuts, xs.size]):
            xb = xsorted[lo:hi]
            by_order = {} if store is None else store.setdefault(xb.tobytes(), {})
            if anu not in by_order:
                by_order[anu], lc = _k_bucket(anu, xb, lc)
            scaled[lo:hi] = by_order[anu]
    out[order] = scaled * np.exp(-xsorted)
    return out


def besseli_values(nu: float, xs: np.ndarray) -> np.ndarray:
    """I_nu on a grid of positive arguments via the ascending series, nu > -1.

    Cancellation-free; usable beyond the x <= 50 envelope of bessel_i as the
    quadrature backend up to x = 705 (from 705.75 a term times (x/2)^2, taken
    before the division, overflows).  A point whose leading term underflows
    sums to 0 exactly.
    """
    if not nu > -1:
        raise ValueError(f"need nu > -1, got {nu}")
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0):
        raise ValueError("all grid points must be positive")
    if not np.all(xs <= _I_GRID_X_MAX):
        raise ValueError(f"grid points past x = {_I_GRID_X_MAX} are outside the operating range")
    order = np.argsort(xs, axis=None, kind="stable")
    half = xs.ravel()[order] / 2.0
    log_half = np.log(half, out=np.full_like(half, _LOG_HALF_TINIEST), where=half > 0)
    term = np.exp(_log_i_lead(nu, log_half))
    total = term.copy()
    q = half * half
    lo = 0  # the points before lo have stopped
    for n in range(_MAX_TERMS):
        t, s = term[lo:], total[lo:]
        np.divide(np.multiply(t, q[lo:], out=t), (n + 1) * (nu + n + 1), out=t)
        s += t
        # Testing the stop every 8 terms, on the points not yet stopped, returns
        # the same bits.  The ratio of consecutive terms q / ((n + 1) (nu + n + 1))
        # falls with n, so the terms rise, then fall, and a term below 1e-17 of
        # the total lies on the falling side.  Every later term is then below
        # 1e-17 total < 2^-54 total < half an ulp of the total, and adding it
        # leaves the total unchanged.  Small x stops first, so the stopped
        # points leave from the front of the sorted grid as a slice, not a copy.
        if n % 8 == 0:
            stopped = np.divide(t, s, out=np.zeros_like(s), where=s > 0) < _RELATIVE_STOP
            if stopped.all():
                out = np.empty_like(total)
                out[order] = total
                return out.reshape(xs.shape)
            lo += int(stopped.argmin())
    raise RuntimeError("series failed to terminate")
