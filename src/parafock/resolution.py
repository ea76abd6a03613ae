"""Radial Bessel measures, their Stieltjes moments, and resolutions of identity.

The weight functions F_I and F_II attach modified Bessel K factors of orders
q - 1 and q, q = p/2 + j, to the radial direction of the complex eigenvalue
plane.  Their power moments are gamma-function products, and those moments
are exactly what makes the coherent-state and cat-state decompositions of
unity close on a ladder subspace.  Everything here reduces to 1-D quadrature
in x = rho^2 because the angular integral is carried out analytically: it
kills every off-diagonal matrix element, so those are reported as exact
zeros and only the diagonal entries are integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import _require_integers
from .specfun import _gauss_legendre, _gauss_panels, besseli_values, besselk_values

_MEASURE_KINDS = ("I", "II")
_TAIL_TOL = 1e-12
_GRADING_DEPTH = 40
_Q_MAX = 12.0
_MOMENT_N_MAX = 8
_NCHECK_MAX = 2 * _MOMENT_N_MAX
_MODES = ("offdiag", "cat")
_RHO_MAX = 1e154  # rho^2 stays a finite double
_GL20_NODES, _GL20_WEIGHTS = _gauss_legendre(
    (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271, 0.636053680726515,
     0.7463319064601508, 0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095),
    (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769, 0.1181945319615186,
     0.1019301198172407, 0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893),
)


def _validate_measure_args(kind: str, p: float, j: int) -> float:
    if kind not in _MEASURE_KINDS:
        raise ValueError(f"kind must be 'I' or 'II', got {kind!r}")
    if not p > 1:
        raise ValueError(f"need p > 1, got {p}")
    _require_integers(0, j=j)
    q = p / 2.0 + j
    if q > _Q_MAX:
        raise ValueError(f"p/2 + j = {q} outside the operating range (max {_Q_MAX})")
    return q


@dataclass(frozen=True)
class RadialMeasure:
    """Radial weight F(rho) of kind I or II for the (p, j) family.

    Kind I carries K of order p/2 + j - 1 and kind II order p/2 + j; both
    are positive for every rho > 0 whenever p > 1.
    """

    p: float
    j: int
    kind: str

    def __post_init__(self) -> None:
        _validate_measure_args(self.kind, self.p, self.j)

    @property
    def order(self) -> float:
        return self.p / 2.0 + self.j

    @property
    def k_order(self) -> float:
        return self.order - 1.0 if self.kind == "I" else self.order

    def __call__(self, rho: float) -> float:
        return measure(self.kind, self.p, self.j, rho)


def measure(kind: str, p: float, j: int, rho: float) -> float:
    """Evaluate F_I or F_II at radius rho: 4 (rho^2/2)^q K(rho^2).

    The K order is q - 1 for kind I and q for kind II, q = p/2 + j.  The
    integral-representation backend is used, so there is no seam between
    integer and generic orders.  rho^2 must be a finite double; far out K
    underflows to 0 before the power overflows, and so does the value.
    """
    q = _validate_measure_args(kind, p, j)
    if not 0 < rho < _RHO_MAX:
        raise ValueError(f"need 0 < rho < {_RHO_MAX:g}, got {rho}")
    x = float(rho) ** 2
    order = q - 1.0 if kind == "I" else q
    kval = float(besselk_values(order, np.array([x]))[0])
    return 4.0 * (x / 2.0) ** q * kval if kval > 0 else 0.0


class QuadratureGrid:
    """Gauss-Legendre panel grid on x = rho^2 in (0, X] with cached Bessel columns.

    The 20-point rule sits on every panel between consecutive ``boundaries``
    (:func:`specfun._gauss_panels`).  The first unit interval is graded
    geometrically toward 0 to resolve the fractional-power behaviour of K
    there; the remaining panels have width 1.
    Bessel K and I evaluations at the nodes are cached per order on the grid
    since every moment and every diagonal entry reuses the same columns.  K
    columns go through ``store``, the caller-owned bucket store of
    :func:`besselk_values`, so grids given one store (one verification pass)
    integrate each K bucket they share once; without one nothing outlives the grid.
    """

    def __init__(self, boundaries: tuple[float, ...], store: dict | None = None) -> None:
        self.x, self.w = _gauss_panels(boundaries, _GL20_NODES, _GL20_WEIGHTS)
        self.x_max = boundaries[-1]
        self._k_cache: dict[float, np.ndarray] = {}
        self._i_cache: dict[float, np.ndarray] = {}
        self._store = store

    @property
    def node_count(self) -> int:
        return len(self.x)

    def k_values(self, order: float) -> np.ndarray:
        key = float(order)
        if key not in self._k_cache:
            self._k_cache[key] = besselk_values(key, self.x, self._store)
        return self._k_cache[key]

    def i_values(self, order: float) -> np.ndarray:
        key = float(order)
        if key not in self._i_cache:
            self._i_cache[key] = besseli_values(key, self.x)
        return self._i_cache[key]


def _tail_cutoff(q: float, n_max: int) -> int:
    """Smallest integer X with e^(-X) X^(q + 2 n_max) below the tail tolerance."""
    s = q + 2.0 * n_max
    log_tol = math.log(_TAIL_TOL)
    x = max(2, math.ceil(s) + 1)
    while -x + s * math.log(x) >= log_tol:
        x += 1
        if x > 10000:
            raise RuntimeError("tail cutoff search failed")
    return x


def radial_grid(p: float, j: int, n_max: int, store=None) -> QuadratureGrid:
    """Build the quadrature grid adequate for moments of order up to n_max.

    The upper end X comes from the K-decay criterion e^(-X) X^(q + 2 n_max)
    < 1e-12, so the clipped tail is below 1e-12 in absolute terms for every
    integrand the (p, j) checks evaluate.  Every grid is a prefix of one node
    sequence, so grids given one K bucket ``store`` share all but their top bucket.
    """
    q = _validate_measure_args("I", p, j)
    _require_integers(0, n_max=n_max)
    if n_max > _NCHECK_MAX:
        raise ValueError(f"n_max {n_max} outside the operating range (max {_NCHECK_MAX})")
    x_top = _tail_cutoff(q, int(n_max))
    graded = [0.0] + [2.0 ** (-_GRADING_DEPTH + i) for i in range(_GRADING_DEPTH + 1)]
    boundaries = tuple(graded + [float(b) for b in range(2, x_top + 1)])
    return QuadratureGrid(boundaries, store)


def _moment_args(kind: str, p: float, j: int, n: int) -> tuple[float, int]:
    """Validate a moment's arguments; return q and the kind-II shift e (0 for I, 1 for II)."""
    q = _validate_measure_args(kind, p, j)
    _require_integers(0, n=n)
    if n > _MOMENT_N_MAX:
        raise ValueError(f"moment order {n} outside the operating range (max {_MOMENT_N_MAX})")
    return q, int(kind == "II")


def stieltjes_closed_form(kind: str, p: float, j: int, n: int) -> float:
    """Gamma-product value 2^(2n+e) n! Gamma(q + n + e) of the n-th radial power moment."""
    q, e = _moment_args(kind, p, j, n)
    return 2.0 ** (2 * n + e) * math.gamma(n + 1.0) * math.gamma(q + n + e)


def stieltjes_moment(
    kind: str, p: float, j: int, n: int, grid: QuadratureGrid | None = None
) -> float:
    """Quadrature value of int rho^(4n+1) F_I drho, resp. rho^(4n+3) F_II.

    After x = rho^2 the kind-I integrand is 2 x^(2n) (x/2)^q K_(q-1)(x) and
    the kind-II one carries one more power of x and order q.
    """
    q, e = _moment_args(kind, p, j, n)
    if grid is None:
        grid = radial_grid(p, j, int(n))
    x = grid.x
    integrand = 2.0 * x ** (2 * n + e) * (x / 2.0) ** q * grid.k_values(q if e else q - 1.0)
    return float(grid.w @ integrand)


@dataclass(frozen=True)
class MomentReport:
    quadrature: float
    closed_form: float
    rel_err: float


def stieltjes_moment_check(
    kind: str, p: float, j: int, n: int, grid: QuadratureGrid | None = None
) -> MomentReport:
    """Compare the quadrature moment against its gamma-product closed form."""
    quad = stieltjes_moment(kind, p, j, n, grid=grid)
    closed = stieltjes_closed_form(kind, p, j, n)
    return MomentReport(quadrature=quad, closed_form=closed, rel_err=abs(quad - closed) / abs(closed))


def diagonal_moment_form(
    p: float, j: int, n: int, grid: QuadratureGrid | None = None
) -> float:
    """Diagonal identity entry (n, n) written as a single Stieltjes moment ratio.

    Rung 2m reduces to moment_I(m) / (2^(2m) m! Gamma(q + m)) and rung
    2m + 1 to moment_II(m) / (2^(2m+1) m! Gamma(q + m + 1)); the denominators
    are the closed forms, so each diagonal entry is exactly a quadrature
    moment divided by its closed-form value.  This is the reduction that
    makes the identity check a strict superset of the moment check.
    """
    m, odd = divmod(int(n), 2)
    kind = "II" if odd else "I"
    if grid is None:
        grid = radial_grid(p, j, m)
    return stieltjes_moment(kind, p, j, m, grid=grid) / stieltjes_closed_form(kind, p, j, m)


@dataclass(frozen=True)
class ResolutionReport:
    """Deviation of a decomposition of unity from the identity matrix.

    ``entries[m, n]`` is the computed matrix element between rungs m and n.
    Off-diagonal entries are exact zeros because the angular integral
    eliminates them analytically; diagonals come from radial quadrature.
    ``measure_min`` is the smallest F_I or F_II value over all quadrature
    nodes and records the positivity of the weight.
    """

    n_check: int
    mode: str
    tol: float
    entries: np.ndarray
    max_abs_deviation: float
    measure_min: float
    node_count: int
    x_max: float

    @property
    def deviations(self) -> np.ndarray:
        return np.abs(self.entries - np.eye(self.n_check + 1))

    @property
    def passed(self) -> bool:
        return self.max_abs_deviation <= self.tol


def resolution_identity_check(
    p: float,
    j: int,
    n_check: int,
    mode: str = "offdiag",
    tol: float = 1e-6,
    grid: QuadratureGrid | None = None,
) -> ResolutionReport:
    """Verify a decomposition of unity on the first n_check + 1 rungs.

    Mode ``offdiag`` integrates the coherent-state density with measure
    factor (K_(q-1) + K_q) plus the alpha -> -alpha cross density weighted
    by (K_(q-1) - K_q): even rungs collect 2 K_(q-1) and odd rungs 2 K_q,
    and the normalization I-sum appears in numerator and denominator alike.
    Mode ``cat`` integrates the even and odd cat-state densities against
    I K of a single order each.  Both modes divide their I factor out again
    at every node, so the I columns cancel: the modes agree with each other
    and with an I-free sum to rounding, and no check can see a wrong I column.
    """
    q = _validate_measure_args("I", p, j)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    _require_integers(0, n_check=n_check)
    if n_check > _NCHECK_MAX:
        raise ValueError(f"n_check {n_check} outside the operating range (max {_NCHECK_MAX})")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if grid is None:
        grid = radial_grid(p, j, int(n_check))

    x = grid.x
    w = grid.w
    k_lo = grid.k_values(q - 1.0)
    k_hi = grid.k_values(q)
    i_lo = grid.i_values(q - 1.0)
    i_hi = grid.i_values(q)
    i_sum = i_lo + i_hi

    powers = (x / 2.0) ** q
    measure_min = float(min((4.0 * powers * k_lo).min(), (4.0 * powers * k_hi).min()))

    entries = np.zeros((n_check + 1, n_check + 1))
    for n in range(n_check + 1):
        m, e = divmod(n, 2)
        k_col, i_one = (k_hi, i_hi) if e else (k_lo, i_lo)
        power = q + 2 * m if e else q - 1.0 + 2 * m
        norm = math.gamma(m + 1.0) * math.gamma(q + m + e)
        i_col = i_sum if mode == "offdiag" else i_one
        numerator = w * x * i_col * k_col * (x / 2.0) ** power
        entries[n, n] = float(np.sum(numerator / (i_col * norm)))

    max_dev = float(np.abs(entries - np.eye(n_check + 1)).max())
    return ResolutionReport(
        n_check=int(n_check), mode=mode, tol=float(tol),
        entries=entries, max_abs_deviation=max_dev, measure_min=measure_min,
        node_count=grid.node_count, x_max=float(grid.x_max),
    )
