"""The engine's former operator-vector walks, kept as references for ``SparseOperator.apply_on``.

``reference_apply`` bins every entry's term by row with ``np.bincount``, in
(col, row) order; ``reference_apply_on`` gathers the entries of the support's
columns in support order and groups them with ``np.unique``.
"""

import numpy as np

from parafock.fockspace import _ranges


def _sum_by(index, values, n):
    """Sum ``values`` into ``n`` bins; each bin adds its terms in array order."""
    if np.iscomplexobj(values):
        out = np.empty(n, dtype=np.complex128)
        out.real = np.bincount(index, values.real, n)
        out.imag = np.bincount(index, values.imag, n)
        return out
    return np.bincount(index, values, n).astype(np.float64, copy=False)  # int64 when empty


def reference_apply(op, x):
    """``op`` times the full-size vector ``x``."""
    return _sum_by(op.rows, op.vals * x[op.cols], op.dim).astype(np.complex128, copy=False)


def reference_apply_on(op, support, x):
    """Sorted rows and values of ``op`` times the vector that is ``x`` on ``support``, 0 elsewhere."""
    support = np.asarray(support, dtype=np.intp)
    first = np.searchsorted(op.cols, support)
    count = np.searchsorted(op.cols, support, side="right") - first
    entry = _ranges(first, count)
    rows, where = np.unique(op.rows[entry], return_inverse=True)
    terms = op.vals[entry] * np.repeat(x, count)
    return rows, _sum_by(where, terms, len(rows)).astype(np.complex128, copy=False)
