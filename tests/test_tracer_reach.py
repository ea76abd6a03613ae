"""The benchmark's tracer against the engine it wraps: every name it traces must still exist.

A name the tracer cannot find is skipped and listed in ``Tracer.missing``, so a
deleted or renamed engine function would silently read 0 in a ``--trace`` run.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer as tracing  # noqa: E402

from parafock import verify  # noqa: E402


def test_tracer_finds_its_names_and_counts_the_entries_an_apply_touches():
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        assert tr.missing == ["specfun.hyp0f1_complex"]  # merged into hyp0f1, which takes complex x
        result = verify.check_zero_modes((2.5,))  # its residuals apply b1- through SparseOperator.apply
    finally:
        uninstall()
    assert result.passed
    assert tr.counts["algebra.apply.nnz_touched"] > 0  # read through SparseOperator.column


def test_tracer_sees_the_adjoint_and_pair_checks_in_operator_arithmetic():
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        result = verify.check_adjointness()
    finally:
        uninstall()
    assert result.passed
    spans = Counter(span.name for span in tr.spans)
    # per basis: two adjoint differences, then two bracket sums, two scalings and two differences for
    # the pair check; sums on label-shift slots would leave only the bracket sums and no max_abs span
    assert spans["algebra.combine"] == 40
    assert spans["algebra.max_abs"] == 20
