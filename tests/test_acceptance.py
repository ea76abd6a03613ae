"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion runs the corresponding pinned verification suite with its
default grid and tolerance; the assertions also pin the tolerance values so
a silent loosening upstream fails here.  Criteria 7, 8, and 10 mix
tolerances internally, so their suites report deviations in units of each
sub-check's own tolerance and pass at 1.0.  The tests after the criteria pin
every suite's deviation and parts in float hex and check that a NaN
deviation fails its suite.
"""

import math
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from parafock import algebra, verify, zeromodes
from parafock.coherent import build_coherent


def _report(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(
        f"CRITERION {number:02d} {status} {result.name}: max deviation "
        f"{result.max_deviation:.3e} vs tolerance {result.tolerance:.1e} "
        f"in {result.runtime_seconds:.2f}s ({result.detail})"
    )
    return result


def test_criterion_01_triple_relations():
    result = _report(1, verify.check_triple_relations())
    assert result.tolerance == 1e-12
    assert result.passed
    assert result.runtime_seconds < 5.0


def test_criterion_02_adjointness():
    result = _report(2, verify.check_adjointness())
    assert result.tolerance == 1e-12
    assert result.passed


def test_criterion_03_zero_modes():
    result = _report(3, verify.check_zero_modes())
    assert result.tolerance == 1e-12
    assert result.passed


def test_criterion_04_coherent_norms():
    result = _report(4, verify.check_coherent_norms())
    assert result.tolerance == 1e-10
    assert result.passed


def test_criterion_05_eigen_residuals():
    result = _report(5, verify.check_eigen_residuals())
    assert result.tolerance == 1e-14
    assert result.passed


def test_criterion_06_b2_elements():
    result = _report(6, verify.check_b2_elements())
    assert result.tolerance == 1e-8
    assert result.passed


def test_criterion_07_bicoherent():
    result = _report(7, verify.check_bicoherent())
    assert result.tolerance == 1.0
    assert result.passed


def test_criterion_08_bessel_forms():
    result = _report(8, verify.check_bessel_forms())
    assert result.tolerance == 1.0
    assert result.passed


def test_criterion_09_stieltjes_moments():
    result = _report(9, verify.check_stieltjes_moments())
    assert result.tolerance == 1e-8
    assert result.passed
    assert result.runtime_seconds < 30.0


def test_criterion_10_resolution_identity():
    result = _report(10, verify.check_resolution_identity())
    assert result.tolerance == 1.0
    assert result.passed


def test_criterion_11_verify_all():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "parafock.cli", "verify-all"],
        capture_output=True, text=True, timeout=240,
    )
    wall = time.perf_counter() - t0
    status = "PASS" if proc.returncode == 0 else "FAIL"
    print(f"CRITERION 11 {status} verify_all: exit {proc.returncode} in {wall:.1f}s")
    assert proc.returncode == 0
    assert wall < 180.0
    assert "# all_passed=true" in proc.stdout.splitlines()


# Each suite's max_deviation and tolerance as float hex, and its parts in the order first added.
RUN_ALL = {
    "triple_relations": ("0x1.8000000000000p-46", "0x1.19799812dea11p-40", ("relations",)),
    "adjointness": ("0x1.0000000000000p-48", "0x1.19799812dea11p-40",
                    ("adjoint", "pair_anticommutator")),
    "zero_modes": ("0x1.5000000000000p-49", "0x1.19799812dea11p-40",
                   ("normalization", "annihilation", "dims_ok")),
    "coherent_norms": ("0x1.2bfef9b5ea129p-49", "0x1.b7cdfd9d7bdbbp-34",
                       ("bessel_vs_hyp0f1", "bessel_vs_coefficients", "hyp0f1_vs_coefficients")),
    "eigen_residuals": ("0x1.a6d3825abf910p-54", "0x1.6849b86a12b9bp-47", ("b1_residual",)),
    "b2_elements": ("0x1.1e3779b97f4a8p-50", "0x1.5798ee2308c3ap-27",
                    ("jp_same", "jp_above", "forced_zero", "jp_below", "p2_degenerate")),
    "bicoherent": ("0x1.ffffbeb7127b7p-1", "0x1.0000000000000p+0",
                   ("shift_raise", "shift_lower", "b2sq_states", "b1_assembly", "b2sq_assembly")),
    "bessel_forms": ("0x1.7c544bbc00f66p-3", "0x1.0000000000000p+0",
                     ("oracle", "seam", "i_elementary", "k_elementary")),
    "stieltjes_moments": ("0x1.6c959e4a2c75fp-50", "0x1.5798ee2308c3ap-27", ("F_I", "F_II")),
    "resolution_identity": ("0x1.bf08eb0000000p-19", "0x1.0000000000000p+0",
                            ("offdiag", "cat", "mode_gap", "positive")),
}


def test_run_all_refuses_a_cutoff_with_no_relation_interior():
    # at cutoff 2 no column is three steps below the shell, so no triple relation could be evaluated
    with pytest.raises(ValueError, match="no interior"):
        verify.run_all(cutoff=2)


def test_run_all_deviations_and_parts_are_pinned():
    results = verify.run_all()
    assert [r.name for r in results] == list(RUN_ALL)
    for r in results:
        deviation, tolerance, parts = RUN_ALL[r.name]
        assert (r.max_deviation.hex(), r.tolerance.hex()) == (deviation, tolerance), r.name
        assert tuple(part for part, _ in r.parts) == parts, r.name
        assert max(value for _, value in r.parts).hex() == deviation, r.name


def _nan(*args, **kwargs):
    return math.nan


def _nan_resolution(*args, **kwargs):
    return SimpleNamespace(max_abs_deviation=math.nan, entries=np.zeros((11, 11)), measure_min=1.0)


_STATES = [build_coherent(2.5, 1, 1, complex(1.0)), build_coherent(1.3, 0, 0, 0.9 + 0.4j)]
_BASES = verify._bases((2.5,), 4)
_build_generator = algebra.build_generator


def _nan_generator(basis, name):
    """The generator with a NaN in its first value, which the relation checks' sums carry."""
    op = _build_generator(basis, name)
    return algebra.SparseOperator(op.dim, op.rows, op.cols, np.concatenate(([math.nan], op.vals[1:])))


# (suite, where its deviation comes from, what that returns, the call, the part that reads inf)
_NAN_SOURCES = [
    ("triple_relations", (algebra, "build_generator"), _nan_generator,
     lambda: verify.check_triple_relations(_BASES), "relations"),
    ("adjointness", (algebra, "build_generator"), _nan_generator,
     lambda: verify.check_adjointness(_BASES), "adjoint"),
    ("zero_modes", (zeromodes, "zero_mode_coeffs"), lambda j, k, p: np.array([math.nan]),
     lambda: verify.check_zero_modes((2.5,)), "normalization"),
    ("coherent_norms", (verify, "coherent_norm"), _nan,
     lambda: verify.check_coherent_norms(_STATES), "bessel_vs_hyp0f1"),
    ("eigen_residuals", (verify, "eigen_residual"), lambda s: (math.nan, 0.0),
     lambda: verify.check_eigen_residuals(_STATES), "b1_residual"),
    ("b2_elements", (verify, "b2_element"), _nan, verify.check_b2_elements, "jp_same"),
    ("bicoherent", (verify, "b2sq_shift"), _nan, verify.check_bicoherent, "shift_raise"),
    ("bessel_forms", (verify, "bessel_k_oracle"), _nan, verify.check_bessel_forms, "oracle"),
    ("stieltjes_moments", (verify, "stieltjes_moment_check"),
     lambda *args, **kwargs: SimpleNamespace(rel_err=math.nan), verify.check_stieltjes_moments, "F_I"),
    ("resolution_identity", (verify, "resolution_identity_check"), _nan_resolution,
     verify.check_resolution_identity, "offdiag"),
]


@pytest.mark.parametrize("name, target, source, check, part", _NAN_SOURCES, ids=[s[0] for s in _NAN_SOURCES])
def test_a_nan_deviation_fails_its_suite(monkeypatch, name, target, source, check, part):
    monkeypatch.setattr(*target, source)
    result = check()
    assert result.name == name
    assert result.passed is False
    assert result.max_deviation == math.inf
    assert dict(result.parts)[part] == math.inf
