"""Coherent eigenstates of b1- over the zero-mode ladders and their descendants.

A lowering eigenstate with eigenvalue alpha over the (j, k) family expands as
sum_n a_n |rung n> with a_0 = 1 and a_(n+1) = alpha a_n / step(p, j, n); its
squared norm has both a hypergeometric-series and a Bessel closed form.  The
module also provides parity cat states, the closed-form matrix elements of
b2- between coherent states of adjacent families together with their
matrix-engine oracle, and joint eigenstates of (b1-, (b2-)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .fockspace import FockBasis, FockVector, _require_integers, even_ind, odd_ind
from .specfun import bessel_i, hyp0f1
from .zeromodes import _scatter, _validate_family, ladder_rungs, ladder_step

_ALPHA_MAX = 5.0
_NMAX_CAP = 200
_AUTO_DECAY = 1e-16


class TruncationError(RuntimeError):
    """The requested rung count cannot hold the state to the target decay."""


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Ladder-coefficient representation of a state over the (j, k) family.

    ``coeffs[n]`` multiplies the orthonormal rung n above the zero mode.  The
    unnormalized convention has coeffs[0] = 1, which makes sum |a_n|^2 equal
    the norm-square closed form.  ``tail_bound`` bounds the l2 mass of every
    dropped rung.  Cat states reuse this container with single-parity support.
    """

    p: float
    j: int
    k: int
    alpha: complex
    coeffs: np.ndarray
    tail_bound: float
    normalized: bool

    @property
    def nmax(self) -> int:
        return len(self.coeffs) - 1

    def norm_squared(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


def build_coherent(
    p: float,
    j: int,
    k: int,
    alpha: complex,
    nmax: int | None = None,
    normalized: bool = False,
) -> CoherentState:
    """Construct the truncated eigenstate of b1- with eigenvalue alpha over (j, k).

    With ``nmax=None`` the rung count is chosen as the smallest even index
    whose coefficient has decayed below 1e-16 of the running peak, capped at
    200.  An explicit ``nmax`` must lie in 4 .. 200 and be large enough to
    reach the decaying regime, otherwise the truncation is not meaningful and
    a TruncationError is raised.
    """
    _validate_family(j, k, p)
    alpha = complex(alpha)
    if not abs(alpha) <= _ALPHA_MAX:
        raise ValueError(f"|alpha| = {abs(alpha)} outside the operating range (max {_ALPHA_MAX})")
    if nmax is not None and not 4 <= nmax <= _NMAX_CAP:
        raise ValueError(f"nmax must satisfy 4 <= nmax <= {_NMAX_CAP}, got {nmax}")

    coeffs = [complex(1.0)]
    peak = 1.0
    n = 0
    while True:
        if nmax is None:
            if n >= 4 and n % 2 == 0 and abs(coeffs[-1]) < _AUTO_DECAY * peak:
                break
            if n >= _NMAX_CAP:
                raise TruncationError(
                    f"coefficients did not decay below {_AUTO_DECAY} of peak within "
                    f"{_NMAX_CAP} rungs at |alpha| = {abs(alpha)}"
                )
        elif n >= nmax:
            break
        coeffs.append(coeffs[-1] * alpha / ladder_step(p, j, n))
        n += 1
        peak = max(peak, abs(coeffs[-1]))

    arr = np.array(coeffs, dtype=np.complex128)
    # Geometric tail: every later ratio is at most |alpha| / sqrt(nmax + 1).
    q = abs(alpha) / math.sqrt(len(arr))
    if abs(alpha) > 0 and q >= 1.0:
        raise TruncationError(
            f"nmax = {len(arr) - 1} does not reach the decaying regime for |alpha| = {abs(alpha)}"
        )
    tail = abs(arr[-1]) * q / math.sqrt(1.0 - q * q) if abs(alpha) > 0 else 0.0
    if normalized:
        scale = math.sqrt(coherent_norm(p, j, alpha))
        arr = arr / scale
        tail = tail / scale
    return CoherentState(
        p=float(p), j=int(j), k=int(k), alpha=alpha, coeffs=arr,
        tail_bound=tail, normalized=normalized,
    )


def coherent_norm(p: float, j: int, alpha: complex) -> float:
    """Squared norm of the unnormalized eigenstate, Bessel closed form.

    Equals (x/2)^(1-nu) Gamma(nu) (I_(nu-1)(x) + I_nu(x)) at x = |alpha|^2,
    nu = p/2 + j; the x -> 0 limit is 1.  Where the power overflows (and
    I_(nu-1)(x) underflows) the value is that of ``coherent_norm_series``.
    """
    _validate_family(j, j, p)
    x = abs(complex(alpha)) ** 2
    if x == 0.0:
        return 1.0
    nu = p / 2.0 + j
    isum = bessel_i(nu - 1.0, x).value + bessel_i(nu, x).value
    try:
        return math.exp((1.0 - nu) * math.log(x / 2.0) + math.lgamma(nu)) * isum
    except OverflowError:
        return _norm_series(nu, x)


def _norm_series(nu: float, z):
    """0F1(; nu; (z/2)^2) + z/(2 nu) 0F1(; nu + 1; (z/2)^2), real or complex z."""
    arg = (z / 2.0) ** 2
    return hyp0f1(nu, arg).value + z / (2.0 * nu) * hyp0f1(nu + 1.0, arg).value


def coherent_norm_series(p: float, j: int, alpha: complex) -> float:
    """Squared norm of the unnormalized eigenstate, hypergeometric route."""
    _validate_family(j, j, p)
    return _norm_series(p / 2.0 + j, abs(complex(alpha)) ** 2)


def coherent_overlap(p: float, j: int, alpha_prime: complex, alpha: complex) -> complex:
    """Overlap of two normalized eigenstates over the same (j, k) family.

    The numerator is the norm-square series continued to the complex product
    conj(alpha') alpha, an entire function, so no complex Bessel evaluation
    is involved.  At alpha' = -alpha this reduces to the real ratio
    (I_(nu-1) - I_nu) / (I_(nu-1) + I_nu) at x = |alpha|^2.
    """
    _validate_family(j, j, p)
    numerator = _norm_series(p / 2.0 + j, np.conjugate(complex(alpha_prime)) * complex(alpha))
    return complex(numerator / math.sqrt(coherent_norm(p, j, alpha_prime) * coherent_norm(p, j, alpha)))


def cat_state(s: CoherentState, sign: str) -> CoherentState:
    """Normalized even ('+') or odd ('-') superposition of s with its alpha -> -alpha twin.

    The construction (|psi(alpha)> +- |psi(-alpha)>)/2 zeroes one parity
    exactly, so normalized and unnormalized inputs give the same state.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    parity = np.array([(-1.0) ** n for n in range(len(s.coeffs))])
    proj = 0.5 * (s.coeffs + parity * s.coeffs) if sign == "+" else 0.5 * (s.coeffs - parity * s.coeffs)
    nrm = float(np.linalg.norm(proj))
    if nrm == 0.0:
        raise ValueError(f"cat state with sign {sign!r} vanishes at alpha = {s.alpha}")
    return CoherentState(
        p=s.p, j=s.j, k=s.k, alpha=s.alpha,
        coeffs=proj / nrm, tail_bound=s.tail_bound / nrm, normalized=True,
    )


def eigen_residual(s: CoherentState) -> tuple[float, float]:
    """Residual norm of the eigen-equation and the clipped-rung contribution.

    Returns (||b1- s - alpha s|| evaluated on the ladder coefficients,
    |alpha| |a_nmax|).  In exact arithmetic only the dropped top rung
    contributes, so the two coincide up to representation rounding.
    """
    a = s.coeffs
    alpha = s.alpha
    resid_sq = 0.0
    for n in range(len(a) - 1):
        d = a[n + 1] * ladder_step(s.p, s.j, n) - alpha * a[n]
        resid_sq += abs(d) ** 2
    resid_sq += abs(alpha * a[-1]) ** 2
    return math.sqrt(resid_sq), abs(alpha) * abs(a[-1])


def _ladder_terms(coeffs: np.ndarray, rungs) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of sum_n coeffs[n] rung n; rung n lies at degree k + j + n, so they ascend."""
    pairs = list(zip(coeffs, rungs))
    return (np.concatenate([index for _, (index, _) in pairs]),
            np.concatenate([c * values for c, (_, values) in pairs]))


def to_fock_vector(basis: FockBasis, s: CoherentState) -> FockVector:
    """Assemble the state on a pattern basis; needs cutoff >= k + j + nmax."""
    return _scatter(basis, *_ladder_terms(s.coeffs, ladder_rungs(basis, s.j, s.k, s.nmax)))


def b2_element(
    p: float, jp: int, alpha_prime: complex, j: int, k: int, alpha: complex
) -> complex:
    """Closed-form matrix element of b2- between unnormalized eigenstates.

    Computes <psi_(jp, k-1)(alpha') | b2- | psi_(jk)(alpha)> for families at
    the same k with jp in {j-1, j, j+1}; every other jp gives exactly zero.
    For jp = j the leading ratio (p-2)/(p-2+2j) is identically 1 at j = 0,
    so the p = 2 zero of that branch applies only to j >= 1.
    """
    _validate_family(j, k, p)
    if k < 1:
        raise ValueError(f"need k >= 1 so the target family at k - 1 exists, got k = {k}")
    _require_integers(jp=jp)
    alpha = complex(alpha)
    alpha_prime = complex(alpha_prime)
    if not (abs(alpha) <= _ALPHA_MAX and abs(alpha_prime) <= _ALPHA_MAX):
        raise ValueError("eigenvalue magnitude outside the operating range")
    if jp < 0 or jp > k - 1 or abs(jp - j) > 1:
        return 0.0 + 0.0j

    nu = p / 2.0 + j
    prod = alpha * np.conjugate(alpha_prime)
    arg = (prod / 2.0) ** 2

    if jp == j - 1:
        front = 2.0 * (-1.0) ** (j - 1) * np.conjugate(alpha_prime)
        root = math.sqrt(j * (p - 2.0 + j) * (p + k + j - 1.0 - even_ind(k - j)))
        return complex(hyp0f1(nu, arg).value * front * root / (p + 2.0 * j - 2.0) ** 1.5)

    if jp == j:
        s_root = math.sqrt(k - j + odd_ind(k - j) * (p - 1.0 + 2.0 * j))
        ratio = 1.0 if j == 0 else (p - 2.0) / (p - 2.0 + 2.0 * j)
        first = hyp0f1(nu, arg).value * ratio * s_root
        second = (
            hyp0f1(nu + 1.0, arg).value
            * prod
            * (p - 2.0)
            / (p + 2.0 * j) ** 2
            * s_root
        )
        return complex(first - second)

    front = 2.0 * alpha * (-1.0) ** j
    root = math.sqrt((j + 1.0) * (p - 1.0 + j) * (k - j - odd_ind(k - j)))
    return complex(hyp0f1(nu + 1.0, arg).value * front * root / (p + 2.0 * j) ** 1.5)


def b2_element_oracle(
    basis: FockBasis, jp: int, alpha_prime: complex, j: int, k: int, alpha: complex, nmax: int
) -> complex:
    """Matrix-engine value of the b2- element, independent of the closed forms.

    Both states are assembled rung by rung on the pattern basis and the
    generator matrix is applied directly to the ket's rungs.  It is built on
    the ket's h2 = p/2 + k patterns only, once per basis and k, and kept in
    ``basis.cache``, as are the bra's terms and the ket's image, once per
    state.  Truncation error is bounded by the product of the coefficient
    tails, far below the closed-form comparison tolerances for any nmax past
    the decay point.
    """
    if k < 1 or not (0 <= jp <= k - 1):
        raise ValueError(f"target family (jp, k-1) = ({jp}, {k - 1}) does not exist")
    bra = _cached_terms(basis, "b2 bra", jp, k - 1, alpha_prime, nmax, lambda terms: terms)
    image = _cached_terms(basis, "b2 image", j, k, alpha, nmax,
                          lambda terms: algebra._h2_sector(basis, "b2-", k)[1].apply_on(*terms))
    # full-size vectors: a vdot over compacted ones changes the last bits
    return _scatter(basis, *bra).inner(_scatter(basis, *image))


def _cached_terms(basis: FockBasis, tag: str, j: int, k: int, alpha: complex, nmax: int, finish):
    """``finish`` of the state's ladder terms, kept in ``basis.cache`` once per state.

    Keyed by the bits of alpha, so 0.0 and -0.0 never share an entry, and
    stored only once ``build_coherent`` has accepted the state.
    """
    _validate_family(j, k, basis.p)  # first: 1.0 or True would find the entry of 1
    key = (tag, j, k, np.complex128(complex(alpha)).tobytes(), nmax)
    if key not in basis.cache:
        state = build_coherent(basis.p, j, k, alpha, nmax=nmax)
        basis.cache[key] = finish(_ladder_terms(state.coeffs, ladder_rungs(basis, j, k, nmax)))
    return basis.cache[key]


@dataclass(frozen=True, eq=False)
class BicoherentState:
    """Joint eigenstate of b1- (eigenvalue alpha) and (b2-)^2 (eigenvalue beta).

    Component kidx lives over the family (j, 2 kidx + l) with l in {j, j+1}
    selecting the parity branch; all components share one ladder-coefficient
    vector, scaled by ``prefactors[kidx]``.  Residuals are relative to the
    truncated state norm and are exact restatements of the two clipped tops.
    """

    p: float
    j: int
    l: int
    alpha: complex
    beta: complex
    kmax: int
    ladder_coeffs: np.ndarray
    prefactors: np.ndarray
    eigen_residual_b1: float
    eigen_residual_b2sq: float
    ladder_tail_bound: float

    def component(self, kidx: int) -> np.ndarray:
        return self.prefactors[kidx] * self.ladder_coeffs

    @property
    def components(self) -> list[np.ndarray]:
        return [self.component(i) for i in range(self.kmax + 1)]


def bicoherent(
    p: float, j: int, l: int, alpha: complex, beta: complex, kmax: int
) -> BicoherentState:
    """Construct the truncated joint eigenstate over families (j, 2k + l), k <= kmax.

    The prefactors satisfy d_k sqrt(2k (p + 2l + 2k - 2)) = beta d_(k-1),
    which is exactly the lowering scalar of (b2-)^2 between neighbouring
    components, so applying it telescopes onto beta times the state with
    only the k = kmax top dropped.
    """
    _validate_family(j, j, p)
    if l not in (j, j + 1):
        raise ValueError(f"need l in {{j, j + 1}} = {{{j}, {j + 1}}}, got l = {l}")
    if not 2 <= kmax <= _NMAX_CAP:
        raise ValueError(f"need 2 <= kmax <= {_NMAX_CAP}, got {kmax}")
    beta = complex(beta)
    if not abs(beta) <= _ALPHA_MAX:
        raise ValueError(f"|beta| = {abs(beta)} outside the operating range (max {_ALPHA_MAX})")
    base = build_coherent(p, j, l, alpha)
    try:
        d = [complex(beta ** (l // 2)) if l >= 2 else complex(1.0)]
    except OverflowError:
        raise ValueError(f"beta^(l // 2) overflows at |beta| = {abs(beta)}, l = {l}") from None
    for kk in range(1, kmax + 1):
        d.append(d[-1] * beta / math.sqrt(2.0 * kk * (p + 2.0 * l + 2.0 * kk - 2.0)))
    prefactors = np.array(d, dtype=np.complex128)
    pref_norm = float(np.linalg.norm(prefactors))
    if not 0.0 < pref_norm < math.inf:  # the squares left the double range; hypot scales them
        pref_norm = math.hypot(*np.abs(prefactors).tolist())
    if pref_norm == 0.0:
        raise ValueError(f"the joint eigenstate vanishes: beta^(l // 2) = 0 at beta = {beta}, l = {l}")
    a = base.coeffs
    a_norm = float(np.linalg.norm(a))
    residual_b1 = abs(complex(alpha)) * abs(a[-1]) / a_norm
    residual_b2sq = abs(beta) * abs(prefactors[-1]) / pref_norm
    return BicoherentState(
        p=float(p), j=int(j), l=int(l), alpha=complex(alpha), beta=beta, kmax=int(kmax),
        ladder_coeffs=a, prefactors=prefactors,
        eigen_residual_b1=residual_b1, eigen_residual_b2sq=residual_b2sq,
        ladder_tail_bound=base.tail_bound,
    )
