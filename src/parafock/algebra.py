"""Generator matrices of the paraboson algebra on the truncated basis.

The four odd generators act on a Gelfand-Zetlin pattern by moving one of
m12, m22 up or down by one while m11 follows the mode index; every matrix
element is a square root of an integer times one of two structure
coefficients.  Each generator is built in one vectorized pass over the
labels of a sorted column set, the whole basis or one h2 sector for the
oracles: a move whose target is outside the basis (``find`` gives -1) is
skipped, so the builders never store zeros.  Each whole-basis or sector
generator is built once per basis and shared, which is safe because
operator arrays are read-only.  The triple check builds only its anticommutators
in ``SparseOperator`` arithmetic; it and the pair check add every other product
term on one value array per label shift (``_shifts``) in ``_relation_deviation``,
with the bits operator arithmetic gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .fockspace import FockBasis, FockVector, _distinct, cartan_weights, even_ind, odd_ind

GENERATOR_NAMES = ("b1+", "b1-", "b2+", "b2-", "h1", "h2")


def structure_f(m12, m22, p: float):
    """Structure coefficients (f1, f2) at pattern row (m12, m22); scalars or arrays.

    f1 carries the sign (-1)**m22; both are real for 1 < p < inf.  The parity
    indicators switch the p dependence on and off between adjacent rows.
    """
    m12 = np.asarray(m12)
    m22 = np.asarray(m22)
    if np.any(m12 < m22) or np.any(m22 < 0):
        raise ValueError(f"need m12 >= m22 >= 0, got ({m12}, {m22})")
    if not 1 < p < np.inf:
        raise ValueError(f"need 1 < p < inf, got {p}")
    return _f1(m12, m22, p), _f2(m12, m22, p)


def _f1(m12, m22, p):
    sign = np.where(m22 & 1, -1.0, 1.0)
    return sign * np.sqrt((m12 + 2 + even_ind(m12) * (p - 2)) / (m12 - m22 + 1 + odd_ind(m12 - m22)))


def _f2(m12, m22, p):
    return np.sqrt((m22 + 1 + even_ind(m22) * (p - 2)) / (m12 - m22 + 1 - odd_ind(m12 - m22)))


def _position(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in the sorted nonnegative ``keys``, -1 where it is absent."""
    at = np.searchsorted(keys, values)
    return np.where(np.concatenate((keys, [-1]))[at] == values, at, -1)


def _sum_by(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum ``values`` into ``n`` bins; each bin adds its terms in array order."""
    if np.iscomplexobj(values):
        out = np.empty(n, dtype=np.complex128)
        out.real = np.bincount(index, values.real, n)
        out.imag = np.bincount(index, values.imag, n)
        return out
    return np.bincount(index, values, n).astype(np.float64, copy=False)  # int64 when empty


class SparseOperator:
    """Sparse matrix on a FockBasis-sized space, stored as (row, col, value) arrays.

    The constructor takes entries sorted by (col, row) without repeats;
    ``from_entries`` takes any triplets.  Sums and products (the triple
    check's anticommutators) add the terms of each entry in a fixed order
    (column, right factor entry, left factor entry) and drop exact zeros.
    The three arrays are read-only views, so the column offsets a product
    reads from its left factor are computed once per operator and kept.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "_starts")

    def __init__(self, dim: int, rows, cols, vals):
        self.dim = dim
        self.rows, self.cols, self.vals = (np.asarray(a).view() for a in (rows, cols, vals))
        for a in (self.rows, self.cols, self.vals):
            a.flags.writeable = False
        self._starts = None

    @classmethod
    def _accumulate(cls, dim: int, rows, cols, vals) -> "SparseOperator":
        """Sum the entries that share a position, in the given order; drop exact zeros."""
        rows, cols = (np.asarray(a, dtype=np.intp) for a in (rows, cols))
        keys = cols * dim + rows
        # a stable sort keeps each position's terms in input order; timsort merges the sorted runs
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        start = np.empty(len(keys), dtype=bool)
        start[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=start[1:])
        del keys  # not needed for the sums; freeing it lowers the peak of a large sum
        heads = np.flatnonzero(start)
        index = np.cumsum(start)
        index -= 1
        sums = _sum_by(index, np.asarray(vals)[order], len(heads))
        keep = sums != 0
        first = order[heads[keep]]
        return cls(dim, rows[first], cols[first], sums[keep])

    @classmethod
    def from_entries(cls, dim: int, entries) -> "SparseOperator":
        """Operator from (row, col, value) triplets in any order; repeated positions add up."""
        triplets = list(entries)
        rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
        rows, cols = (np.asarray(a, dtype=np.intp) for a in (rows, cols))
        outside = (rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(f"entry ({rows[i]}, {cols[i]}) lies outside the {dim} x {dim} matrix")
        return cls._accumulate(dim, rows, cols, vals)

    @property
    def entries(self) -> list[tuple[int, int, complex]]:
        """All stored entries as (row, col, value), sorted by (col, row)."""
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()))

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def column(self, col: int) -> dict[int, complex]:
        """Entries of column ``col`` as {row: value}; its one caller outside the tests is
        ``perfbench/tracer.py::_count_touched``, so it goes with ROADMAP item 1, step 2."""
        lo, hi = np.searchsorted(self.cols, (col, col + 1))
        return dict(zip(self.rows[lo:hi].tolist(), self.vals[lo:hi].tolist()))

    def apply(self, vec: FockVector) -> FockVector:
        """Matrix-vector product on a FockVector: ``apply_on`` over its nonzero entries.

        A skipped zero would add only +-0 to a row sum that starts at +0, so any operator
        holding a generator's entries in those columns gives the generator's product, bit for bit.
        """
        x = vec.coefficients
        if x.shape != (self.dim,):
            raise ValueError(f"vector shape {x.shape} does not match dim {self.dim}")
        support = np.flatnonzero(x)
        return FockVector.scatter(vec.basis, *self.apply_on(support, x[support]))

    def apply_on(self, support, x) -> tuple[np.ndarray, np.ndarray]:
        """Product with the vector that is ``x`` on ``support``, 0 elsewhere: the one-step ``walk``."""
        return self.walk(support, x, (None,))[0]

    def walk(self, support, x, divisors) -> list[tuple[np.ndarray, np.ndarray]]:
        """Repeated products from the vector that is ``x`` on ``support``: (rows, values) per step.

        The engine's one operator-vector walk.  Step n multiplies the vector of step n - 1 and
        divides the result by ``divisors[n]`` in numpy (None: no division).  One ``searchsorted``
        pair per step finds the entries of its columns, each row reached adds its terms from 0j
        in support order, on Python scalars, and the rows come out sorted.  The entries are
        listed once per call: all of them for several steps, only the span its support touches
        for one step, however large the operator.
        """
        support = np.asarray(support, dtype=np.intp)
        steps, rows = [], None
        for divisor in divisors:
            first = self.cols.searchsorted(support).tolist()
            last = self.cols.searchsorted(support, side="right").tolist()
            if rows is None:
                lo, hi = 0, self.nnz
                if len(divisors) == 1:
                    # the touched span; the support need not be sorted or distinct
                    lo, hi = min(first, default=0), max(last, default=0)
                rows, vals = self.rows[lo:hi].tolist(), self.vals[lo:hi].tolist()
            sums = {}
            for start, stop, xi in zip(first, last, np.asarray(x).tolist(), strict=True):
                for e in range(start - lo, stop - lo):
                    sums[rows[e]] = sums.get(rows[e], 0j) + vals[e] * xi
            reached = sorted(sums)
            x = np.array([sums[row] for row in reached], dtype=np.complex128)
            if divisor is not None:
                x = x / divisor
            support = np.array(reached, dtype=self.rows.dtype)
            steps.append((support, x))
        return steps

    def _column_starts(self) -> np.ndarray:
        """Offset of each column's first entry, nnz at the end: computed once per operator."""
        if self._starts is None:
            self._starts = np.concatenate(([0], np.cumsum(np.bincount(self.cols, minlength=self.dim))))
            self._starts.flags.writeable = False
        return self._starts

    def _pairs(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The terms of a product with this left factor and right entries in rows ``rows``.

        Each right entry (k, col) pairs with every left entry of column k, in column order: one
        (left entry index, right entry position in ``rows``) per term, in right entry order.
        """
        starts = self._column_starts()
        first = starts[rows]
        count = starts[rows + 1] - first
        right = np.repeat(np.arange(len(rows)), count)
        left = (first - np.cumsum(count) + count)[right] + np.arange(len(right))
        return left, right

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        left, right = self._pairs(other.rows)
        return SparseOperator._accumulate(
            self.dim,
            self.rows[left],
            other.cols[right],
            self.vals[left] * other.vals[right],
        )

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return SparseOperator._accumulate(
            self.dim,
            np.concatenate((self.rows, other.rows)),
            np.concatenate((self.cols, other.cols)),
            np.concatenate((self.vals, other.vals)),
        )

    def __mul__(self, scalar) -> "SparseOperator":
        return SparseOperator(self.dim, self.rows, self.cols, scalar * self.vals)

    __rmul__ = __mul__


# The two moves of each odd generator: the label shift (d12, d22, d11), the
# structure coefficient it carries (f1 or f2) evaluated at the row of the
# lower of the two patterns, its sign, and the integer under its square root
# as a function of the source labels.  A move whose target lies outside the
# basis stores nothing.
_MOVES = (
    ("b1+", (1, 0, 1), _f1, 1.0, lambda m12, m22, m11: m11 - m22 + 1),
    ("b1+", (0, 1, 1), _f2, -1.0, lambda m12, m22, m11: m12 - m11),
    ("b2+", (1, 0, 0), _f1, 1.0, lambda m12, m22, m11: m12 - m11 + 1),
    ("b2+", (0, 1, 0), _f2, 1.0, lambda m12, m22, m11: m11 - m22),
    ("b1-", (-1, 0, -1), _f1, 1.0, lambda m12, m22, m11: m11 - m22),
    ("b1-", (0, -1, -1), _f2, -1.0, lambda m12, m22, m11: m12 - m11 + 1),
    ("b2-", (-1, 0, 0), _f1, 1.0, lambda m12, m22, m11: m12 - m11),
    ("b2-", (0, -1, 0), _f2, 1.0, lambda m12, m22, m11: m11 - m22 + 1),
)


def build_generator(basis: FockBasis, name: str) -> SparseOperator:
    """Matrix of one generator in the pattern basis, built once per basis.

    ``name`` is one of b1+, b1-, b2+, b2-, h1, h2.  Raising entries that
    would cross the cutoff are dropped; lowering and Cartan generators are
    always exact.  Later calls return the operator kept in ``basis.cache``.
    """
    if name not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {name!r}; expected one of {GENERATOR_NAMES}")
    if name not in basis.cache:
        basis.cache[name] = _assemble(basis, name, np.arange(basis.size))
    return basis.cache[name]


def _assemble(basis: FockBasis, name: str, columns: np.ndarray) -> SparseOperator:
    """The generator's entries in the sorted ``columns``, equal there to the whole matrix's."""
    m12, m22, m11 = basis.m12[columns], basis.m22[columns], basis.m11[columns]
    if name in ("h1", "h2"):
        w1, w2 = cartan_weights(basis.p, m12, m22, m11)
        return SparseOperator(basis.size, columns, columns, w1 if name == "h1" else w2)
    rows, cols, vals = [], [], []
    for gen, (d12, d22, d11), coefficient, sign, root in _MOVES:
        if gen != name:
            continue
        target = basis.find(m12 + d12, m22 + d22, m11 + d11)
        keep = np.flatnonzero(target >= 0)
        s12, s22, s11 = m12[keep], m22[keep], m11[keep]
        f = coefficient(s12 + min(d12, 0), s22 + min(d22, 0), basis.p)
        rows.append(target[keep])
        cols.append(columns[keep])
        vals.append(sign * np.sqrt(root(s12, s22, s11)) * f)
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    # one nonzero term per (row, col), so only a sort is left: it merges two sorted runs
    order = np.argsort(cols * basis.size + rows, kind="stable")
    return SparseOperator(basis.size, rows[order], cols[order], vals[order])


def _h2_sector(basis: FockBasis, name: str, k: int) -> tuple[np.ndarray, SparseOperator]:
    """Sorted indices of the h2 = p/2 + k patterns and the generator on them, built once per basis.

    The sector is the patterns (m11 + k - m22, m22; m11).  b1+ and b1- keep
    h2 = m12 + m22 - m11 and b2- lowers it by one, so a ladder or a weight
    block read from the sector's operator never needs a column outside it.
    """
    if (name, k) not in basis.cache:
        m11, m22 = np.arange(basis.cutoff + 1), np.arange(k + 1)[:, None]
        found = basis.find(m11 + k - m22, m22, m11)
        columns = np.sort(found[found >= 0])
        basis.cache[name, k] = columns, _assemble(basis, name, columns)
    return basis.cache[name, k]


def _labels(basis: FockBasis) -> np.ndarray:
    """One integer per pattern, linear in (degree, m12, m11) and increasing in basis order."""
    radix = basis.cutoff + 1
    return (basis.degree * radix + basis.m12) * radix + basis.m11


def _shifts(labels: np.ndarray, op: SparseOperator) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The operator as (codes, row, value), one label shift per code, in ascending code.

    An entry (row, col) has the code labels[row] - labels[col], so a column holds at most one
    entry per code, and ascending code is ascending row.  Row i of ``row`` and ``value`` is code i
    by column, with a sentinel at ``dim`` (row dim, value 0): a gather through a gap reads 0.
    """
    codes = labels[op.rows] - labels[op.cols]
    present = _distinct(codes)
    number = present.searchsorted(codes)
    row = np.full((len(present), op.dim + 1), op.dim, dtype=np.int32)
    value = np.zeros((len(present), op.dim + 1), dtype=op.vals.dtype)
    row[number, op.cols] = op.rows
    value[number, op.cols] = op.vals
    return present.tolist(), row, value


def _shift_product(a, b, count: int) -> dict[int, np.ndarray]:
    """{code: values} of a @ b on columns 0 .. count - 1, from the ``_shifts`` of a and b.

    Each position adds its terms in the order ``SparseOperator.__matmul__`` lists them (b's
    entries by row, then a's), so a product term's code being the sum of its factors' codes
    gives the bits of the operator product; a missing term adds the sentinel's 0.  One gather
    and one multiply form every terms[code of a, code of b, column]; codes sum views in place.
    """
    (codes_a, _, value_a), (codes_b, row_b, value_b) = a, b
    terms = value_a.take(row_b[:, :count], axis=1)
    terms *= value_b[None, :, :count]
    sums = {}
    for i, code_b in enumerate(codes_b):
        for code_a, term in zip(codes_a, terms[:, i]):
            code = code_a + code_b
            sums[code] = np.add(sums[code], term, out=sums[code]) if code in sums else term
    return sums


def _relation_deviation(x, y, sign: int, rhs, count: int) -> float:
    """Largest |X + sign Y - R| on columns 0 .. count - 1, from ``_shifts``; sign is +1 or -1.

    X = x @ y and Y = y @ x come from ``_shift_product``, and R sums scale * value over the
    (shifts, scale) pairs of ``rhs`` in that order; Y, then R, go into X's own arrays in place.
    """
    right = {}
    for (codes, _, value), scale in rhs:
        for code, term in zip(codes, scale * value[:, :count]):
            right[code] = right[code] + term if code in right else term
    sums = _shift_product(x, y, count)
    along = np.add if sign > 0 else np.subtract
    for part, combine in ((_shift_product(y, x, count), along), (right, np.subtract)):
        for code, value in part.items():
            sums[code] = combine(sums[code], value, out=sums[code]) if code in sums else combine(0.0, value)
    dev = 0.0
    for value in sums.values():
        dev = np.maximum(dev, np.abs(value).max())  # NaN once any value is NaN
    return float(dev)


@dataclass(frozen=True)
class RelationDeviation:
    """Deviation of one triple relation, identified by signs and mode indices."""

    xi: int
    eta: int
    eps: int
    j: int
    k: int
    l: int
    deviation: float


@dataclass(frozen=True)
class TripleReport:
    relations: tuple[RelationDeviation, ...]
    max_deviation: float
    interior_degree: int
    tol: float
    passed: bool


def verify_triple_relations(basis: FockBasis, tol: float = 1e-12) -> TripleReport:
    """Check [{b_j^xi, b_k^eta}, b_l^eps] = (eps-xi) d_jl b_k^eta + (eps-eta) d_kl b_j^xi.

    All 64 sign and index combinations are evaluated on interior columns
    (degree <= cutoff - 3), where the threefold product is exact.  The
    commutators read each anticommutator one generator step further, so it is
    built on degree <= cutoff - 2 only: bit for bit the full one there.  Swapping
    (j, xi) and (k, eta) changes only the order of two-term sums, which commute
    exactly, so each of the 10 unordered pairs is evaluated once for both orders.

    Each anticommutator is A @ B_r + B @ A_r, B_r being the prefix of B's arrays in those columns,
    or 2 (A @ A_r) for a square.  Each relation's deviation, ``_relation_deviation`` with sign -1,
    is the largest |X - Y - R| per position, X summing the terms of {.,.} b_l, Y those of b_l {.,.}
    and R the right side: the bits of (anti @ b_l - b_l @ anti) - rhs, without building it.
    """
    labels = _labels(basis)
    ops = {
        (mode, sign): build_generator(basis, f"b{mode}{'+' if sign > 0 else '-'}")
        for mode in (1, 2)
        for sign in (-1, 1)
    }
    gens = {key: _shifts(labels, op) for key, op in ops.items()}
    # the basis is ordered by degree, so each interior is a leading run of columns, and the
    # entries of a generator there are a prefix of its arrays, cut once as views
    inner, reach = len(basis.interior_indices(3)), len(basis.interior_indices(2))
    cut = {}
    for key, op in ops.items():
        m = op.cols.searchsorted(reach)
        cut[key] = SparseOperator(op.dim, op.rows[:m], op.cols[:m], op.vals[:m])
    deviations = {}
    for (j, xi), (k, eta) in combinations_with_replacement(gens.keys(), 2):
        a, b = ops[(j, xi)], ops[(k, eta)]
        # a product s holds no zero, so a square's sum 0 + s + s is exactly 2 s, which is not 0
        anti = 2.0 * (a @ cut[(j, xi)]) if a is b else a @ cut[(k, eta)] + b @ cut[(j, xi)]
        anti = _shifts(labels, anti)
        for (l, eps), gen in gens.items():
            rhs = []
            if l == j and eps != xi:
                rhs.append((gens[(k, eta)], float(eps - xi)))
            if l == k and eps != eta:
                rhs.append((gens[(j, xi)], float(eps - eta)))
            deviations[(j, xi), (k, eta), (l, eps)] = deviations[(k, eta), (j, xi), (l, eps)] = (
                _relation_deviation(anti, gen, -1, rhs, inner)
            )
        del anti  # so the next anticommutator, which sets the peak memory, runs without it
    results = [
        RelationDeviation(xi, eta, eps, j, k, l, deviations[(j, xi), (k, eta), (l, eps)])
        for (j, xi), (k, eta), (l, eps) in product(gens.keys(), repeat=3)
    ]
    worst = float(np.max([r.deviation for r in results]))  # a NaN deviation propagates
    return TripleReport(
        relations=tuple(results),
        max_deviation=worst,
        interior_degree=basis.cutoff - 3,
        tol=tol,
        passed=worst <= tol,
    )


def adjointness_deviation(basis: FockBasis) -> float:
    """Largest entry of adjoint(b_j^+) - b_j^- over both modes, its terms summed in one accumulation.

    Exact on the whole truncated basis, including the cutoff shell: the
    clipped raising entries pair with lowering entries from patterns outside
    the basis, so no retained matrix element is affected.
    """
    devs = []
    for mode in (1, 2):
        plus, minus = build_generator(basis, f"b{mode}+"), build_generator(basis, f"b{mode}-")
        diff = SparseOperator._accumulate(
            basis.size,
            np.concatenate((plus.cols, minus.rows)),
            np.concatenate((plus.rows, minus.cols)),
            np.concatenate((np.conj(plus.vals), -minus.vals)),
        ).vals
        devs.append(float(np.abs(diff).max()) if diff.size else 0.0)
    return float(np.max(devs))  # a NaN deviation propagates


def pair_anticommutator_deviation(basis: FockBasis) -> float:
    """Largest interior entry of {b_j^-, b_j^+} - 2 h_j over both modes.

    ``_relation_deviation`` with sign +1 on interior(2), degree <= cutoff - 2, a leading run of columns.
    """
    count, labels = len(basis.interior_indices(2)), _labels(basis)
    devs = []
    for mode in (1, 2):
        names = (f"b{mode}-", f"b{mode}+", f"h{mode}")
        minus, plus, h = (_shifts(labels, build_generator(basis, name)) for name in names)
        devs.append(_relation_deviation(minus, plus, 1, [(h, 2.0)], count))
    return float(np.max(devs))  # a NaN deviation propagates


def t1_inverse_apply(vec: FockVector, zeta1: float) -> FockVector:
    """Apply the inverse of T1 = b1- b1+ on the ladder span above weight zeta1.

    T1 acts diagonally in the h1 grading: a component with h1 weight
    zeta1 + n is divided by n + 1 + E_n (2 zeta1 - 1).  Every populated
    component must sit at a nonnegative integer offset n from zeta1.
    """
    basis = vec.basis
    j_float = zeta1 - basis.p / 2.0
    j = round(j_float)
    if j < 0 or abs(j_float - j) > 1e-9:
        raise ValueError(
            f"zeta1 = {zeta1} is not of the form p/2 + j for integer j >= 0 at p = {basis.p}"
        )
    twoz = 2.0 * zeta1 - 1.0
    out = vec.coefficients.copy()
    populated = np.flatnonzero(out)
    n = basis.m11[populated] - j
    if np.any(n < 0):
        i = populated[np.argmax(n < 0)]
        raise ValueError(
            f"populated component at pattern ({basis.m12[i]}, {basis.m22[i]}; {basis.m11[i]}) "
            f"lies below the ladder floor m11 = {j}"
        )
    out[populated] /= np.where(n % 2 == 0, n + 1.0 + twoz, n + 1.0)
    return FockVector(basis, out)
