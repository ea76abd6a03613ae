"""Zero modes of the first lowering generator and the raising ladder above them.

For each weight (p/2 + j, p/2 + k) with 0 <= j <= k there is exactly one
normalized state annihilated by b1-; it is supported on the j + 1 patterns
(k + i, j - i; j).  Repeated application of b1+ turns each zero mode into an
orthonormal ladder indexed by the rung number n, and the squared second-mode
lowering generator shifts k by two with a scalar coefficient.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra
from .fockspace import P_MAX, FockBasis, FockVector, _require_integers, even_ind, odd_ind

# singular values at most this times max(1, largest) count as zero in kernel_oracle
_RANK_TOL = 1e-10


def _validate_family(j: int, k: int, p: float) -> None:
    _require_integers(j=j, k=k)
    if not (0 <= j <= k):
        raise ValueError(f"need 0 <= j <= k, got j = {j}, k = {k}")
    if not 1 < p <= P_MAX:
        raise ValueError(f"need 1 < p <= {P_MAX:g}, got {p}")


def zero_mode_coeffs(j: int, k: int, p: float) -> np.ndarray:
    """Coefficients c_i of the zero mode on patterns (k + i, j - i; j), i = 0..j.

    Evaluated in log space with the sign tracked separately; every ratio
    under the square roots is positive for p > 1, and c_0 > 0 fixes the
    overall sign.  The result is unit normalized.
    """
    _validate_family(j, k, p)
    base = 0.0
    for r in range(k - j + 1):
        num = r + 1 + odd_ind(r) * (p - 2 + 2 * j)
        den = k + 1 - r + odd_ind(k - r) * (p - 2)
        base += math.log(num) - math.log(den)

    coeffs = np.empty(j + 1)
    parity_kj = odd_ind(k + j - 1)
    step_sum = 0.0
    sign = 1.0
    log_binom_den = math.lgamma(k - j + 1)
    for i in range(j + 1):
        if i > 0:
            s = i
            num = (j + 1 - s + even_ind(j - s) * (p - 2)) * (k - j + 2 * s + parity_kj)
            den = (k + 1 + s + even_ind(k + s - 1) * (p - 2)) * (k - j + 2 * s - parity_kj)
            step_sum += math.log(num) - math.log(den)
            if (j - s) % 2:
                sign = -sign
        log_binom = math.lgamma(k - j + i + 1) - math.lgamma(i + 1) - log_binom_den
        coeffs[i] = sign * math.exp(0.5 * (log_binom + base + step_sum))
    return coeffs


def zero_mode_vector(basis: FockBasis, j: int, k: int) -> FockVector:
    """The zero mode as a vector on ``basis``; needs cutoff >= k + j."""
    return FockVector.scatter(basis, *ladder_rungs(basis, j, k, 0)[0])


def kernel_oracle(basis: FockBasis, j: int, k: int) -> tuple[int, list[FockVector]]:
    """Kernel of b1- restricted to the weight block (p/2 + j, p/2 + k), via SVD.

    Returns the kernel dimension and an orthonormal basis of the null space,
    scattered into the full space.  The route is formula-free: b1- on the
    h2 = p/2 + k patterns, built once per basis and shared with the zero-mode
    residuals, and dense linear algebra.  m11 = degree - k ascends along the
    sector's sorted columns, so the block is its m11 = j run against the m11 = j - 1
    run before it.  ``j > k`` blocks have an empty kernel.
    """
    _require_integers(0, j=j, k=k)
    if k + j > basis.cutoff:
        raise ValueError(f"cutoff {basis.cutoff} too small for the weight (j, k) = ({j}, {k})")
    columns, lowering = algebra._h2_sector(basis, "b1-", k)
    start, mid, stop = basis.m11[columns].searchsorted((j - 1, j, j + 1))
    target, source = columns[start:mid], columns[mid:stop]  # no target rows at j = 0
    lo, hi = lowering.cols.searchsorted((source[0], source[-1] + 1))  # b1- maps all into target
    rows, cols = target.searchsorted(lowering.rows[lo:hi]), source.searchsorted(lowering.cols[lo:hi])
    block = np.zeros((target.size, source.size))
    block[rows, cols] = lowering.vals[lo:hi]
    # with no target rows the SVD returns no singular values and vh = identity
    _, s, vh = np.linalg.svd(block)
    threshold = _RANK_TOL * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > threshold))
    return source.size - rank, [FockVector.scatter(basis, source, v) for v in vh[rank:].conj()]


def ladder_step(p: float, j: int, n: int) -> float:
    """Raising coefficient from rung n to rung n + 1 above the zero mode at j.

    The same value is the lowering coefficient from rung n + 1 back to n,
    so a single definition keeps the two directions exactly inverse at the
    floating-point level.  The engine's loops check once per call, then read ``_rung_step``.
    """
    if n < 0 or n % 1 or type(n) is bool or j < 0 or j % 1 or type(j) is bool or not 1 < p <= P_MAX:
        raise ValueError(f"need 1 < p <= {P_MAX:g}, integers j >= 0 and n >= 0, got p = {p}, j = {j}, n = {n}")
    return _rung_step(p, j, n)


def _rung_step(p: float, j: int, n: int) -> float:
    """``ladder_step`` on labels its caller has checked: the one copy of the formula."""
    return math.sqrt(n + p + 2 * j) if n % 2 == 0 else math.sqrt(n + 1.0)


def ladder_normalization(p: float, j: int, n: int) -> float:
    """Norm of (b1+)^n applied to a zero mode at j, in closed form.

    Equals sqrt(2^n ((n - O_n)/2)! (p/2 + j)_((n + O_n)/2)), evaluated
    through log-gamma differences.
    """
    _validate_family(j, j, p)
    _require_integers(0, n=n)
    half_down = (n - odd_ind(n)) // 2
    half_up = (n + odd_ind(n)) // 2
    nu = p / 2.0 + j
    log_sq = (
        n * math.log(2.0)
        + math.lgamma(half_down + 1.0)
        + math.lgamma(nu + half_up)
        - math.lgamma(nu)
    )
    try:
        return math.exp(0.5 * log_sq)
    except OverflowError:
        raise ValueError(f"the ladder norm at p = {p}, j = {j}, n = {n} is outside the double range") from None


def ladder_family(basis: FockBasis, j: int, k: int, nmax: int) -> list[FockVector]:
    """Orthonormal ladder states over rungs 0..nmax above the (j, k) zero mode.

    Exactness of every rung needs k + j + nmax <= cutoff, since each raising
    step can push m12 up by one from its maximum k + j on the zero mode.
    """
    return [FockVector.scatter(basis, *rung) for rung in ladder_rungs(basis, j, k, nmax)]


def ladder_rungs(basis: FockBasis, j: int, k: int, nmax: int) -> tuple:
    """Rungs 0..nmax of ``ladder_family`` as (sorted indices, read-only values) pairs.

    Each ladder is walked once per basis with the b1+ of its h2 = p/2 + k
    sector, which every ladder at that k shares, and kept in ``basis.cache``,
    so a later call returns the same objects.
    """
    _validate_family(j, k, basis.p)
    if not 0 <= nmax <= basis.cutoff - k - j:
        raise ValueError(f"need 0 <= nmax <= cutoff - k - j = {basis.cutoff - k - j}, got {nmax}")
    key = ("ladder", j, k, nmax)
    if key not in basis.cache:
        basis.cache[key] = _climb(basis, j, k, nmax)
    return basis.cache[key]


def _climb(basis: FockBasis, j: int, k: int, nmax: int) -> tuple:
    # later supports are the rows b1+'s own entries reach, not a weight formula;
    # b1+ is built on the ladder's h2 sector only, so each support must stay inside it
    i = np.arange(j + 1)
    rungs = [(basis.find(k + i, j - i, j), zero_mode_coeffs(j, k, basis.p).astype(np.complex128))]
    if nmax:
        columns, raise_op = algebra._h2_sector(basis, "b1+", k)
        rungs += raise_op.walk(*rungs[0], [_rung_step(basis.p, j, n) for n in range(nmax)])
        if (algebra._position(columns, np.concatenate([index for index, _ in rungs[:-1]])) < 0).any():
            raise RuntimeError(f"a rung of the ({j}, {k}) ladder leaves the columns b1+ was built on")
    for index, values in rungs:
        index.flags.writeable = values.flags.writeable = False
    return tuple(rungs)


def b2sq_shift(j: int, k: int, p: float, direction: str) -> float:
    """Scalar coefficient of (b2-)^2 or (b2+)^2 mapping the (j, k) zero mode to k -+ 2.

    The lowering direction vanishes identically for k - j < 2, where no
    target weight exists.
    """
    _validate_family(j, k, p)
    if direction == "raise":
        return math.sqrt(
            (k + 1 - j + even_ind(k - j)) * (p + k + j + odd_ind(k + j))
        )
    if direction == "lower":
        if k - j < 2:
            return 0.0
        return math.sqrt(
            (k - 1 - j + even_ind(k - j)) * (p + k - 2 + j + odd_ind(k + j))
        )
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
