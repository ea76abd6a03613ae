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
        # hyp0f1_complex was merged into hyp0f1, which takes complex x; SparseOperator lost its
        # difference and max_abs when the relation checks moved onto label-shift arrays, and
        # ROADMAP item 1, step 2 takes both out of the tracer
        assert tr.missing == [
            "specfun.hyp0f1_complex", "algebra.SparseOperator.__sub__", "algebra.SparseOperator.max_abs",
        ]
        result = verify.check_zero_modes((2.5,))  # its residuals apply b1- through SparseOperator.apply
    finally:
        uninstall()
    assert result.passed
    assert tr.counts["algebra.apply.nnz_touched"] > 0  # read through SparseOperator.column


def test_tracer_sees_no_operator_arithmetic_in_the_adjoint_and_pair_checks():
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        result = verify.check_adjointness()
    finally:
        uninstall()
    assert result.passed
    spans = Counter(span.name for span in tr.spans)
    # the adjoint check sums entry arrays and the pair check label-shift arrays: no product, sum,
    # scaling or max_abs span of SparseOperator
    assert spans["verify.check_adjointness"] == 1
    assert not {"algebra.combine", "algebra.matmul", "algebra.max_abs"} & set(spans), spans
