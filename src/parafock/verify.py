"""Verification suites over pinned parameter grids.

Each check function runs one acceptance-grade suite with its default grid
and tolerance baked in and returns a CheckResult; run_all executes the ten
suites in order.  When a suite mixes tolerances, deviations are normalized
by their own tolerance first and the reported tolerance is 1, so "deviation
below tolerance" reads the same way for every row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import (
    adjointness_deviation,
    build_generator,
    pair_anticommutator_deviation,
    verify_triple_relations,
)
from .coherent import (
    _ladder_terms,
    b2_element,
    b2_element_oracle,
    bicoherent,
    build_coherent,
    coherent_norm,
    coherent_norm_series,
    eigen_residual,
)
from .fockspace import FockBasis, FockVector, enumerate_basis
from .resolution import (
    radial_grid,
    resolution_identity_check,
    stieltjes_moment_check,
)
from .specfun import bessel_i, bessel_k, bessel_k_oracle
from .zeromodes import (
    _scatter,
    b2sq_shift,
    kernel_oracle,
    ladder_rungs,
    zero_mode_coeffs,
    zero_mode_vector,
)

P_GRID = (1.3, 2.0, 2.5, 3.0, 4.7)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str
    runtime_seconds: float


def _finish(name: str, dev: float, tol: float, detail: str, t0: float) -> CheckResult:
    return CheckResult(
        name=name, passed=bool(dev <= tol), max_deviation=float(dev), tolerance=float(tol),
        detail=detail, runtime_seconds=time.perf_counter() - t0,
    )


def _bases(p_grid=P_GRID, cutoff: int = 8) -> tuple[FockBasis, ...]:
    return tuple(enumerate_basis(p, cutoff) for p in p_grid)


def check_triple_relations(bases=None) -> CheckResult:
    """All 64 triple relations on the interior of each basis (default: P_GRID at cutoff 8)."""
    t0 = time.perf_counter()
    bases = _bases() if bases is None else bases
    worst = 0.0
    for basis in bases:
        worst = max(worst, verify_triple_relations(basis).max_deviation)
    detail = f"64 relations, p in {tuple(b.p for b in bases)}, cutoff {bases[0].cutoff}"
    return _finish("triple_relations", worst, 1e-12, detail, t0)


def check_adjointness(bases=None) -> CheckResult:
    """adjoint(b_j+) = b_j- on the truncated matrices and {b_j-, b_j+} = 2 h_j on interior.

    ``bases`` defaults to P_GRID at cutoff 8.
    """
    t0 = time.perf_counter()
    bases = _bases() if bases is None else bases
    worst_adj = 0.0
    worst_pair = 0.0
    for basis in bases:
        worst_adj = max(worst_adj, adjointness_deviation(basis))
        worst_pair = max(worst_pair, pair_anticommutator_deviation(basis))
    detail = f"adjoint dev {worst_adj:.3e}, pair anticommutator dev {worst_pair:.3e}"
    return _finish("adjointness", max(worst_adj, worst_pair), 1e-12, detail, t0)


def check_zero_modes(p_grid=P_GRID) -> CheckResult:
    """Normalization and annihilation of every zero mode with j <= k <= 10, plus kernel dimensions."""
    t0 = time.perf_counter()
    worst = 0.0
    dims_ok = True
    for p in p_grid:
        basis = enumerate_basis(p, 20)
        b1m = build_generator(basis, "b1-")
        for j in range(11):
            for k in range(j, 11):
                coeffs = zero_mode_coeffs(j, k, p)
                worst = max(worst, abs(float(np.dot(coeffs, coeffs)) - 1.0))
                vec = zero_mode_vector(basis, j, k)
                worst = max(worst, b1m.apply(vec).norm())
        for j in range(11):
            for k in range(11):
                dim, _ = kernel_oracle(basis, j, k)
                if dim != (1 if j <= k else 0):
                    dims_ok = False
    dev = worst if dims_ok else math.inf
    detail = f"0 <= j,k <= 10, kernel dims {'correct' if dims_ok else 'WRONG'}"
    return _finish("zero_modes", dev, 1e-12, detail, t0)


def _norm_states():
    """The pinned coherent-state family shared by the norm and residual suites."""
    states = []
    for p in P_GRID:
        for j in range(5):
            for mag in (0.3, 1.0, 2.0, 4.0):
                for alpha in (complex(mag), mag * complex(math.cos(0.7), math.sin(0.7))):
                    states.append(build_coherent(p, j, j, alpha))
    return states


def check_coherent_norms(states=None) -> CheckResult:
    """Bessel, hypergeometric, and coefficient-sum norm routes agree pairwise."""
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for s in _norm_states() if states is None else states:
        routes = (
            coherent_norm(s.p, s.j, s.alpha),
            coherent_norm_series(s.p, s.j, s.alpha),
            s.norm_squared(),
        )
        scale = max(routes)
        for a in range(3):
            for b in range(a + 1, 3):
                worst = max(worst, abs(routes[a] - routes[b]) / scale)
        count += 1
    detail = f"{count} states, |alpha| in (0.3, 1, 2, 4), j <= 4"
    return _finish("coherent_norms", worst, 1e-10, detail, t0)


def check_eigen_residuals(states=None) -> CheckResult:
    """The b1- eigen-residual equals |alpha| |a_top| up to scaled representation rounding."""
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for s in _norm_states() if states is None else states:
        residual, top = eigen_residual(s)
        scale = max(1.0, abs(s.alpha) * math.sqrt(s.norm_squared()))
        worst = max(worst, abs(residual - top) / scale)
        count += 1
    detail = f"{count} states, deviation scaled by max(1, |alpha| * state norm)"
    return _finish("eigen_residuals", worst, 1e-14, detail, t0)


def check_b2_elements() -> CheckResult:
    """Closed-form b2- matrix elements against the matrix-engine oracle.

    Covers the three adjacent target families, the forced zeros at
    jp = j + 2, and the p = 2 degeneracy: the jp = j branch vanishes
    identically for j >= 1 while j = 0 stays nonzero because its leading
    ratio is 1 rather than 0/0.
    """
    t0 = time.perf_counter()
    alphas = (complex(0.3), 0.7j, 1.0 + 0.5j)
    nmax = 20
    cutoff = 26
    worst = 0.0
    count = 0

    def sweep(basis, j, k, jp_list):
        nonlocal worst, count
        for jp in jp_list:
            for alpha in alphas:
                for alpha_prime in alphas:
                    closed = b2_element(basis.p, jp, alpha_prime, j, k, alpha)
                    oracle = b2_element_oracle(basis, jp, alpha_prime, j, k, alpha, nmax)
                    worst = max(worst, abs(closed - oracle))
                    count += 1

    for p in (2.5, 3.0):
        basis = enumerate_basis(p, cutoff)
        for j in range(3):
            for k in range(max(j, 1), 5):
                jp_list = [jp for jp in (j - 1, j, j + 1, j + 2) if 0 <= jp <= k - 1]
                sweep(basis, j, k, jp_list)

    basis = enumerate_basis(2.0, cutoff)
    for j in range(3):
        for k in range(j + 1, 5):
            sweep(basis, j, k, [j])

    detail = f"{count} elements, p in (2, 2.5, 3), j <= 2, k <= 4, incl. forced zeros"
    return _finish("b2_elements", worst, 1e-8, detail, t0)


def check_bicoherent() -> CheckResult:
    """Squared-shift scalars against the matrix engine, then bicoherent residual bounds.

    Deviations are reported in units of their own tolerance: 1e-12 for the
    shift scalars and the prefactor ratio law, and the stated
    dropped-component mass (with roundoff allowance) for the residuals of
    the kmax = 12 joint eigenstates, including one matrix-engine assembly
    whose generators are built on the state's support only.
    """
    t0 = time.perf_counter()
    worst = 0.0

    scalar_cut = 10
    for p in P_GRID:
        basis = enumerate_basis(p, scalar_cut)
        b2m = build_generator(basis, "b2-")
        b2p = build_generator(basis, "b2+")
        for j in range(5):
            for k in range(j, 9 - j):
                zeta = zero_mode_vector(basis, j, k)
                up = b2p.apply(b2p.apply(zeta))
                target_up = zero_mode_vector(basis, j, k + 2)
                dev_up = (up - b2sq_shift(j, k, p, "raise") * target_up).norm()
                worst = max(worst, dev_up / 1e-12)
                down = b2m.apply(b2m.apply(zeta))
                if k - j >= 2:
                    target_down = zero_mode_vector(basis, j, k - 2)
                    dev_down = (down - b2sq_shift(j, k, p, "lower") * target_down).norm()
                else:
                    dev_down = down.norm()
                worst = max(worst, dev_down / 1e-12)

    kmax = 12
    for p in P_GRID:
        for j in (0, 1):
            for l in (j, j + 1):
                for alpha in (complex(1.2), 0.9 + 0.9j):
                    for beta in (complex(1.5), 1.5j):
                        state = bicoherent(p, j, l, alpha, beta, kmax)
                        d = state.prefactors
                        d_norm = float(np.linalg.norm(d))
                        resid_sq = abs(beta * d[-1]) ** 2
                        for kk in range(1, kmax + 1):
                            step = b2sq_shift(j, 2 * kk + l, p, "lower")
                            resid_sq += abs(d[kk] * step - beta * d[kk - 1]) ** 2
                        computed = math.sqrt(resid_sq) / d_norm
                        bound = state.eigen_residual_b2sq
                        worst = max(worst, computed / (bound * (1.0 + 1e-6) + 1e-15))
                        a = state.ladder_coeffs
                        b1_bound = abs(alpha) * abs(a[-1]) / float(np.linalg.norm(a))
                        worst = max(worst, abs(state.eigen_residual_b1 - b1_bound) / 1e-15)

    p, j, l = 2.5, 0, 1
    alpha, beta = complex(1.2), complex(1.4)
    nmax = 16
    state = bicoherent(p, j, l, alpha, beta, kmax)
    base = build_coherent(p, j, l, alpha, nmax=nmax)
    cutoff = 2 * kmax + l + j + nmax
    basis = enumerate_basis(p, cutoff)
    # the components live in disjoint weight spaces, so summing them adds no rounding
    psi = FockVector(basis, sum(
        _scatter(basis, *_ladder_terms(state.prefactors[kk] * base.coeffs,
                                       ladder_rungs(basis, j, 2 * kk + l, nmax))).coefficients
        for kk in range(kmax + 1)
    ))
    psi_norm = psi.norm()
    d = state.prefactors
    a = base.coeffs
    r_b1_stated = abs(alpha) * abs(a[-1]) / float(np.linalg.norm(a))
    r_b2_stated = abs(beta) * abs(d[-1]) / float(np.linalg.norm(d))

    def lower(name, vec):
        # built on the columns vec lives on, it applies as the whole generator, bit for bit
        return algebra._assemble(basis, name, np.flatnonzero(vec.coefficients)).apply(vec)

    r_b1 = (lower("b1-", psi) - alpha * psi).norm() / psi_norm
    r_b2 = (lower("b2-", lower("b2-", psi)) - beta * psi).norm() / psi_norm
    worst = max(worst, r_b1 / (r_b1_stated * (1.0 + 1e-6) + 1e-12))
    worst = max(worst, r_b2 / (r_b2_stated * (1.0 + 1e-6) + 1e-12))

    detail = "shift scalars at 1e-12; residual bounds at kmax 12 incl. matrix assembly"
    return _finish("bicoherent", worst, 1.0, detail, t0)


def check_bessel_forms() -> CheckResult:
    """Each K route against the integral oracle, seam continuity, elementary orders.

    Generic orders use the reflection form, integer orders the logarithmic
    series; both are compared to the integral representation at 1e-8
    relative.  Orders 5e-6 and 1e-5 away from integers probe the seam
    (1e-8 vs oracle, 1e-4 continuity), and half-integer I and K match
    their elementary closed forms at 1e-12.  Deviations are reported in
    units of their own tolerance.
    """
    t0 = time.perf_counter()
    worst = 0.0
    xs = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

    orders = set()
    for p in (1.3, 2.5, 4.7):
        for j in range(4):
            orders.add(p / 2.0 + j - 1.0)
            orders.add(p / 2.0 + j)
    orders.update(range(5))
    for base in (1.0, 2.0):
        for eps in (5e-6, 1e-5):
            orders.update((base + eps, base - eps))
    # the seam sweep below reads its center and side values from here
    values = {(nu, x): bessel_k(nu, x).value for nu in sorted(orders) for x in xs}
    for (nu, x), val in values.items():
        oracle = bessel_k_oracle(nu, x / 2.0)
        worst = max(worst, abs(val - oracle) / abs(oracle) / 1e-8)

    for base in (1.0, 2.0):
        for eps in (5e-6, 1e-5):
            for x in (0.5, 1.0, 5.0):
                center = values[base, x]
                for side in (base - eps, base + eps):
                    jump = abs(values[side, x] - center) / center
                    worst = max(worst, jump / 1e-4)

    for x in (0.3, 1.0, 2.7, 10.0):
        i_half = bessel_i(0.5, x).value
        i_exact = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        worst = max(worst, abs(i_half - i_exact) / i_exact / 1e-12)
        k_half = bessel_k(0.5, x).value
        k_exact = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        worst = max(worst, abs(k_half - k_exact) / k_exact / 1e-12)

    detail = "forms vs oracle at 1e-8, seam continuity at 1e-4, elementary at 1e-12"
    return _finish("bessel_forms", worst, 1.0, detail, t0)


def check_stieltjes_moments(store=None) -> CheckResult:
    """Quadrature moments of F_I and F_II against the gamma-product closed forms."""
    t0 = time.perf_counter()
    store = {} if store is None else store
    worst = 0.0
    count = 0
    for p in P_GRID:
        for j in range(4):
            grid = radial_grid(p, j, 5, store=store)
            for kind in ("I", "II"):
                for n in range(6):
                    report = stieltjes_moment_check(kind, p, j, n, grid=grid)
                    worst = max(worst, report.rel_err)
                    count += 1
    detail = f"{count} moments, n <= 5, j <= 3, p in {P_GRID}"
    return _finish("stieltjes_moments", worst, 1e-8, detail, t0)


def check_resolution_identity(store=None) -> CheckResult:
    """Both decompositions of unity reproduce the identity matrix on 11 rungs.

    Deviations from delta are held to 1e-6, the two modes to 1e-10
    entrywise on a shared grid, and the measure must be positive at every
    node; all three are reported in units of their own tolerance.
    """
    t0 = time.perf_counter()
    store = {} if store is None else store
    worst = 0.0
    positive = True
    for p in (1.3, 2.0, 2.5):
        for j in (0, 1, 2):
            grid = radial_grid(p, j, 10, store=store)
            rep_off = resolution_identity_check(p, j, 10, mode="offdiag", grid=grid)
            rep_cat = resolution_identity_check(p, j, 10, mode="cat", grid=grid)
            worst = max(worst, rep_off.max_abs_deviation / 1e-6)
            worst = max(worst, rep_cat.max_abs_deviation / 1e-6)
            mode_gap = float(np.abs(rep_off.entries - rep_cat.entries).max())
            worst = max(worst, mode_gap / 1e-10)
            positive = positive and rep_off.measure_min > 0 and rep_cat.measure_min > 0
    if not positive:
        worst = math.inf
    detail = "m,n <= 10, p in (1.3, 2, 2.5), j <= 2; identity 1e-6, modes 1e-10, measures positive"
    return _finish("resolution_identity", worst, 1.0, detail, t0)


ALL_CHECKS = (
    check_triple_relations,
    check_adjointness,
    check_zero_modes,
    check_coherent_norms,
    check_eigen_residuals,
    check_b2_elements,
    check_bicoherent,
    check_bessel_forms,
    check_stieltjes_moments,
    check_resolution_identity,
)


def run_all(p_grid=P_GRID, cutoff: int = 8) -> list[CheckResult]:
    """Run every suite in acceptance order; ``p_grid`` and ``cutoff`` set the swept suites.

    The two relation suites share one basis per p, the norm and residual
    suites one list of coherent states, and the grids of the two quadrature
    suites one ``besselk_values`` bucket store, for the length of the pass;
    called alone, each of these suites makes its own.
    """
    bases, states, store = _bases(p_grid, cutoff), _norm_states(), {}
    inputs = {
        check_triple_relations: {"bases": bases}, check_adjointness: {"bases": bases},
        check_zero_modes: {"p_grid": p_grid},
        check_coherent_norms: {"states": states}, check_eigen_residuals: {"states": states},
        check_stieltjes_moments: {"store": store}, check_resolution_identity: {"store": store},
    }
    return [check(**inputs.get(check, {})) for check in ALL_CHECKS]
