"""Tests for the radial measures, their moments, and the identity decompositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock import (
    MomentReport,
    besselk_values,
    RadialMeasure,
    diagonal_moment_form,
    measure,
    radial_grid,
    resolution_identity_check,
    stieltjes_closed_form,
    stieltjes_moment,
    stieltjes_moment_check,
)

MOMENT_REL_TOL = 1e-12
DIAG_REL_TOL = 1e-12
ELEMENTARY_TOL = 1e-13
SEAM_REL_TOL = 1e-4

P_GRID = (1.3, 2.0, 2.5, 3.0)


def test_closed_form_moment_values():
    assert stieltjes_closed_form("I", 3.0, 0, 0) == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=1e-15
    )
    for p in P_GRID:
        for j in (0, 2):
            assert stieltjes_closed_form("II", p, j, 0) == pytest.approx(
                2.0 * math.gamma(p / 2.0 + j + 1.0), rel=1e-15
            )
    assert stieltjes_closed_form("I", 2.5, 1, 3) == pytest.approx(
        2.0**6 * 6.0 * math.gamma(5.25), rel=1e-15
    )


def test_quadrature_moments_match_closed_forms():
    for kind in ("I", "II"):
        for p in P_GRID:
            for j in (0, 1, 3):
                grid = radial_grid(p, j, 4)
                for n in (0, 1, 4):
                    report = stieltjes_moment_check(kind, p, j, n, grid=grid)
                    assert isinstance(report, MomentReport)
                    assert report.rel_err <= MOMENT_REL_TOL, (kind, p, j, n)
                    assert report.closed_form > 0.0


def test_measure_positivity():
    rhos = np.geomspace(1e-3, 6.0, 40)
    for kind in ("I", "II"):
        for p in P_GRID:
            for j in (0, 2):
                values = [measure(kind, p, j, float(r)) for r in rhos]
                assert min(values) > 0.0, (kind, p, j)


def test_measure_underflows_to_zero_far_out():
    # (rho^2 / 2)^12 overflows a double here while K has long underflowed
    for rho in (1e13, 1e100):
        assert measure("I", 2.0, 11, rho) == 0.0
        assert measure("II", 2.0, 11, rho) == 0.0


def test_measure_object_wraps_the_function():
    m = RadialMeasure(2.5, 1, "I")
    assert m.order == 2.25
    assert m.k_order == 1.25
    assert m(1.3) == measure("I", 2.5, 1, 1.3)
    assert RadialMeasure(2.5, 1, "II").k_order == 2.25


def test_kind_one_measure_is_elementary_at_half_integer_order():
    # p = 3, j = 0 puts the K order at 1/2, collapsing F_I to
    # sqrt(pi) x e^(-x) with x = rho^2
    for rho in (0.2, 0.9, 1.7, 2.4):
        x = rho**2
        expected = math.sqrt(math.pi) * x * math.exp(-x)
        got = measure("I", 3.0, 0, rho)
        assert abs(got - expected) <= ELEMENTARY_TOL * expected, rho


def test_measure_is_continuous_across_the_integer_order_seam():
    # the K backend has no seam, so p = 2 +/- 1e-5 brackets p = 2 tightly
    for kind in ("I", "II"):
        for j in (0, 1):
            for rho in (0.5, 1.5):
                center = measure(kind, 2.0, j, rho)
                below = measure(kind, 2.0 - 1e-5, j, rho)
                above = measure(kind, 2.0 + 1e-5, j, rho)
                assert abs(below - center) <= SEAM_REL_TOL * center
                assert abs(above - center) <= SEAM_REL_TOL * center
                assert abs(below + above - 2.0 * center) <= 1e-7 * center


def test_diagonal_entries_reduce_to_moment_ratios():
    for p, j in ((2.5, 0), (1.3, 1), (3.0, 2)):
        report = resolution_identity_check(p, j, 6)
        grid = radial_grid(p, j, 6)
        for n in range(7):
            reduced = diagonal_moment_form(p, j, n, grid=grid)
            assert abs(report.entries[n, n] - reduced) <= DIAG_REL_TOL, (p, j, n)


def test_off_diagonals_are_exact_zeros():
    report = resolution_identity_check(2.5, 1, 8)
    mask = ~np.eye(9, dtype=bool)
    assert np.all(report.entries[mask] == 0.0)


def test_resolution_report_contract():
    grid = radial_grid(2.5, 0, 10)
    report = resolution_identity_check(2.5, 0, 10, mode="offdiag", grid=grid)
    assert report.entries.shape == (11, 11)
    assert report.max_abs_deviation == report.deviations.max()
    assert report.max_abs_deviation <= 1e-6
    assert report.passed
    assert report.measure_min > 0.0
    assert report.node_count == grid.node_count
    assert report.x_max == grid.x_max
    strict = resolution_identity_check(2.5, 0, 10, tol=1e-30, grid=grid)
    assert not strict.passed


def test_modes_agree_but_are_not_the_same_computation():
    for p, j in ((1.3, 0), (2.0, 1), (2.5, 2)):
        grid = radial_grid(p, j, 8)
        off = resolution_identity_check(p, j, 8, mode="offdiag", grid=grid)
        cat = resolution_identity_check(p, j, 8, mode="cat", grid=grid)
        gap = np.abs(off.entries - cat.entries).max()
        assert gap <= 1e-10, (p, j)
        assert off.max_abs_deviation <= 1e-6
        assert cat.max_abs_deviation <= 1e-6


def test_identity_deviation_over_the_required_grid():
    for p in (1.3, 2.0, 2.5):
        for j in (0, 1, 2):
            report = resolution_identity_check(p, j, 10)
            assert report.max_abs_deviation <= 1e-6, (p, j)


def test_grid_reuse_is_idempotent():
    grid = radial_grid(2.5, 1, 3)
    first = stieltjes_moment("I", 2.5, 1, 2, grid=grid)
    second = stieltjes_moment("I", 2.5, 1, 2, grid=grid)
    assert first == second


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from((1.3, 2.0, 2.5, 4.7)), st.integers(0, 3), st.integers(0, 10)),
        min_size=1, max_size=4,
    ),
    st.lists(st.sampled_from((-0.35, 0.25, 1.0, 1.25, 2.35)), max_size=2),
)
def test_grids_sharing_a_bucket_store_match_fresh_columns(shapes, orders):
    store = {}
    for p, j, n_max in shapes:
        grid = radial_grid(p, j, n_max, store=store)
        for order in (p / 2.0 + j - 1.0, p / 2.0 + j, *orders):
            assert grid.k_values(order).tobytes() == besselk_values(order, grid.x).tobytes()


def test_run_all_integrates_each_k_bucket_once_per_pass(monkeypatch):
    from parafock import specfun, verify

    calls = []
    k_bucket = specfun._k_bucket

    def counting(anu, xb, *rest):
        calls.append(anu)
        return k_bucket(anu, xb, *rest)

    monkeypatch.setattr(specfun, "_k_bucket", counting)
    verify.run_all()
    first = len(calls)
    # grids without a shared store integrate 1,834; the oracle sweep of
    # bessel_forms keeps its one-point buckets out of the store
    assert first == 997
    verify.run_all()
    assert len(calls) == 2 * first


def test_run_all_builds_the_k_node_table_a_few_times_not_once_per_bucket(monkeypatch):
    from parafock import specfun, verify

    builds = []
    gauss_panels = specfun._gauss_panels

    def counting(boundaries, nodes, weights):
        builds.append(len(boundaries) - 1)
        return gauss_panels(boundaries, nodes, weights)

    monkeypatch.setattr(specfun, "_K_NODES", None)
    monkeypatch.setattr(specfun, "_gauss_panels", counting)
    verify.run_all()
    # the table grows to 14, 15, 77 and 78 panels, each build exactly the size asked for
    assert builds == [14, 15, 77, 78]
    assert specfun._K_NODES[0].size == 24 * 78
    verify.run_all()
    assert len(builds) == 4


def test_validation_errors():
    with pytest.raises(ValueError):
        measure("III", 2.5, 0, 1.0)
    with pytest.raises(ValueError):
        measure("I", 2.5, 0, 0.0)
    with pytest.raises(ValueError):
        measure("I", 0.9, 0, 1.0)
    with pytest.raises(ValueError):
        measure("I", 2.5, -1, 1.0)
    with pytest.raises(ValueError):
        # p/2 + j beyond the supported Bessel-order window
        measure("I", 2.5, 11, 1.0)
    with pytest.raises(ValueError):
        stieltjes_closed_form("I", 2.5, 0, 9)
    with pytest.raises(ValueError):
        stieltjes_moment("I", 2.5, 0, -1)
    with pytest.raises(ValueError):
        resolution_identity_check(2.5, 0, 17)
    with pytest.raises(ValueError):
        resolution_identity_check(2.5, 0, 4, mode="diag")
    with pytest.raises(ValueError):
        resolution_identity_check(2.5, 0, 4, tol=0.0)
