"""The engine's former sparse products and relation checks, kept as references.

``ReferenceOperator`` holds the same (row, col, value) arrays as
``SparseOperator`` and sums, multiplies and restricts them as the engine did
before products kept their left factor's column offsets: the offsets are
recounted by every product and each left index comes from ``_ranges``.
``reference_bracket`` is the commutator or anticommutator the engine formed
before its relation checks summed on label-shift slots, optionally with the
right factor of each product restricted to some columns.
``reference_triple_deviations`` is the former body of
``verify_triple_relations``: it restricts a generator to the interior once per
(pair, l), adds each right side to a zero operator and subtracts it from
every commutator.  ``arithmetic_triple_deviations``,
``arithmetic_adjointness_deviation`` and ``arithmetic_pair_anticommutator_deviation``
are the former bodies of the three relation checks, written in the operator
arithmetic (adjoint, difference, restriction, largest entry) that the engine
held before the checks summed their terms on label-shift slots; here it runs on
``ReferenceOperator``.
"""

from itertools import combinations_with_replacement

import numpy as np

from parafock import build_generator
from parafock.fockspace import _ranges


def _sum_by(index, values, n):
    """Sum ``values`` into ``n`` bins; each bin adds its terms in array order."""
    if np.iscomplexobj(values):
        out = np.empty(n, dtype=np.complex128)
        out.real = np.bincount(index, values.real, n)
        out.imag = np.bincount(index, values.imag, n)
        return out
    return np.bincount(index, values, n).astype(np.float64, copy=False)  # int64 when empty


class ReferenceOperator:
    """(row, col, value) arrays with the former sums, products and restrictions."""

    def __init__(self, dim, rows, cols, vals):
        self.dim = dim
        self.rows, self.cols, self.vals = (np.asarray(a) for a in (rows, cols, vals))

    @classmethod
    def of(cls, op):
        return cls(op.dim, op.rows, op.cols, op.vals)

    @classmethod
    def _accumulate(cls, dim: int, rows, cols, vals) -> "ReferenceOperator":
        """Sum the entries that share a position, in the given order; drop exact zeros."""
        rows, cols = (np.asarray(a, dtype=np.intp) for a in (rows, cols))
        keys = cols * dim + rows
        # a stable sort keeps each position's terms in input order; timsort merges the sorted runs
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        start = np.ones(len(keys), dtype=bool)
        start[1:] = keys[1:] != keys[:-1]
        sums = _sum_by(np.cumsum(start) - 1, np.asarray(vals)[order], int(start.sum()))
        keep = sums != 0
        first = order[start][keep]
        return cls(dim, rows[first], cols[first], sums[keep])

    @classmethod
    def zero(cls, dim: int) -> "ReferenceOperator":
        return cls._accumulate(dim, (), (), ())

    @classmethod
    def from_entries(cls, dim: int, entries) -> "ReferenceOperator":
        triplets = list(entries)
        rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
        return cls._accumulate(dim, rows, cols, vals)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def adjoint(self) -> "ReferenceOperator":
        return ReferenceOperator._accumulate(self.dim, self.cols, self.rows, np.conj(self.vals))

    def __matmul__(self, other: "ReferenceOperator") -> "ReferenceOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        starts = np.concatenate(([0], np.cumsum(np.bincount(self.cols, minlength=self.dim))))
        first = starts[other.rows]
        count = starts[other.rows + 1] - first
        # pair every right entry (k, col) with each left entry of column k
        right = np.repeat(np.arange(other.nnz), count)
        left = _ranges(first, count)
        return ReferenceOperator._accumulate(
            self.dim,
            self.rows[left],
            other.cols[right],
            self.vals[left] * other.vals[right],
        )

    def __add__(self, other: "ReferenceOperator") -> "ReferenceOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return ReferenceOperator._accumulate(
            self.dim,
            np.concatenate((self.rows, other.rows)),
            np.concatenate((self.cols, other.cols)),
            np.concatenate((self.vals, other.vals)),
        )

    def __sub__(self, other: "ReferenceOperator") -> "ReferenceOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ReferenceOperator":
        return ReferenceOperator(self.dim, self.rows, self.cols, scalar * self.vals)

    __rmul__ = __mul__

    def on_columns(self, columns) -> "ReferenceOperator":
        """The entries in the given columns only; the order of the kept entries is unchanged."""
        chosen = np.zeros(self.dim, dtype=bool)
        chosen[np.asarray(columns, dtype=np.intp)] = True
        keep = chosen[self.cols]
        return ReferenceOperator(self.dim, self.rows[keep], self.cols[keep], self.vals[keep])

    def max_abs(self, columns=None) -> float:
        """Largest entry magnitude, optionally over a subset of columns."""
        vals = self.vals if columns is None else self.on_columns(columns).vals
        return float(np.abs(vals).max()) if vals.size else 0.0


def reference_bracket(a, b, kind, columns=None):
    """[a, b] or {a, b}; with ``columns`` each product's right factor keeps only those columns."""
    if columns is None:
        ab, ba = a @ b, b @ a
    else:
        ab, ba = a @ b.on_columns(columns), b @ a.on_columns(columns)
    return ab + ba if kind == "anticommutator" else ab - ba


def reference_triple_deviations(basis) -> dict:
    """Deviation of each relation, keyed ((j, xi), (k, eta), (l, eps)), by the former loop."""
    gens = {
        (mode, sign): ReferenceOperator.of(build_generator(basis, f"b{mode}{'+' if sign > 0 else '-'}"))
        for mode in (1, 2)
        for sign in (-1, 1)
    }
    interior, reach = basis.interior_indices(3), basis.interior_indices(2)
    inner = {key: gen.on_columns(interior) for key, gen in gens.items()}
    zero = ReferenceOperator.zero(basis.size)
    deviations = {}
    for (j, xi), (k, eta) in combinations_with_replacement(gens.keys(), 2):
        anti = reference_bracket(gens[(j, xi)], gens[(k, eta)], "anticommutator", columns=reach)
        for (l, eps) in gens.keys():
            lhs = reference_bracket(anti, gens[(l, eps)], "commutator", columns=interior)
            rhs = zero
            if l == j and eps != xi:
                rhs = rhs + float(eps - xi) * inner[(k, eta)]
            if l == k and eps != eta:
                rhs = rhs + float(eps - eta) * inner[(j, xi)]
            dev = (lhs - rhs).max_abs()
            deviations[(j, xi), (k, eta), (l, eps)] = deviations[(k, eta), (j, xi), (l, eps)] = dev
    return deviations


def _generators(basis):
    return {
        (mode, sign): ReferenceOperator.of(build_generator(basis, f"b{mode}{'+' if sign > 0 else '-'}"))
        for mode in (1, 2)
        for sign in (-1, 1)
    }


def arithmetic_triple_deviations(basis) -> dict:
    """Deviation of each relation, keyed ((j, xi), (k, eta), (l, eps)), in operator arithmetic."""
    gens = _generators(basis)
    interior, reach = basis.interior_indices(3), basis.interior_indices(2)
    inner = {key: gen.on_columns(interior) for key, gen in gens.items()}
    deviations = {}
    for (j, xi), (k, eta) in combinations_with_replacement(gens.keys(), 2):
        anti = reference_bracket(gens[(j, xi)], gens[(k, eta)], "anticommutator", columns=reach)
        anti_inner = anti.on_columns(interior)
        for (l, eps), gen in gens.items():
            lhs = anti @ inner[(l, eps)] - gen @ anti_inner
            rhs = None
            if l == j and eps != xi:
                rhs = float(eps - xi) * inner[(k, eta)]
            if l == k and eps != eta:
                term = float(eps - eta) * inner[(j, xi)]
                rhs = term if rhs is None else rhs + term
            dev = (lhs if rhs is None else lhs - rhs).max_abs()
            deviations[(j, xi), (k, eta), (l, eps)] = deviations[(k, eta), (j, xi), (l, eps)] = dev
    return deviations


def arithmetic_adjointness_deviation(basis) -> float:
    devs = []
    for mode in (1, 2):
        plus = ReferenceOperator.of(build_generator(basis, f"b{mode}+"))
        minus = ReferenceOperator.of(build_generator(basis, f"b{mode}-"))
        devs.append((plus.adjoint() - minus).max_abs())
    return float(np.max(devs))


def arithmetic_pair_anticommutator_deviation(basis) -> float:
    interior = basis.interior_indices(2)
    devs = []
    for mode in (1, 2):
        plus = ReferenceOperator.of(build_generator(basis, f"b{mode}+"))
        minus = ReferenceOperator.of(build_generator(basis, f"b{mode}-"))
        h = ReferenceOperator.of(build_generator(basis, f"h{mode}"))
        anti = reference_bracket(minus, plus, "anticommutator", columns=interior)
        devs.append((anti - 2.0 * h).max_abs(columns=interior))
    return float(np.max(devs))
