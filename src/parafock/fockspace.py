"""Truncated Gelfand-Zetlin basis for the two-mode paraboson Fock space.

Basis states are labelled by integer patterns (m12, m22; m11) subject to the
betweenness conditions m12 >= m11 >= m22 >= 0.  Truncation keeps every pattern
with m12 <= cutoff, which leaves the retained set closed under the lowering
generators; raising generators can leave the set only through the m12 = cutoff
shell.

The basis is three integer label arrays plus a row-start table that only
``FockBasis.find`` reads; ``GZPattern`` objects exist only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Envelope: cutoff-200 b2-elements peaks near 95 MiB; p = 120 is twice the |nu| <= 60 Bessel window.
CUTOFF_MAX = 200
P_MAX = 120.0


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges starts[i] .. starts[i] + counts[i] - 1."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _require_integers(minimum=None, **labels) -> None:
    """TypeError unless each label is an int or numpy integer, not a bool; ValueError below ``minimum``."""
    for name, value in labels.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"need {name} >= {minimum}, got {name} = {value}")


def even_ind(n):
    """Indicator of n being even, extended to negative integers mod 2; accepts arrays."""
    return 1 - (n % 2)


def odd_ind(n):
    """Indicator of n being odd, extended to negative integers mod 2; accepts arrays."""
    return n % 2


class Weight(NamedTuple):
    """Joint eigenvalue of the two Cartan generators (h1, h2)."""

    w1: float
    w2: float


@dataclass(frozen=True)
class GZPattern:
    """Pattern (m12, m22; m11) with m12 >= m11 >= m22 >= 0."""

    m12: int
    m22: int
    m11: int

    def __post_init__(self) -> None:
        _require_integers(m12=self.m12, m22=self.m22, m11=self.m11)
        if not (self.m12 >= self.m11 >= self.m22 >= 0):
            raise ValueError(
                f"betweenness violated: need m12 >= m11 >= m22 >= 0, "
                f"got ({self.m12}, {self.m22}; {self.m11})"
            )

    @property
    def degree(self) -> int:
        """Total excitation m12 + m22; each raising step increases it by 1."""
        return self.m12 + self.m22


def cartan_weights(p: float, m12, m22, m11):
    """Cartan weights (w1, w2) of scalar or array labels, each summed left to right."""
    return p / 2.0 + m11, p / 2.0 + m12 + m22 - m11


def weight_of(m: GZPattern, p: float) -> Weight:
    """Cartan weight of the basis state labelled by ``m`` at parameter ``p``."""
    return Weight(*cartan_weights(p, m.m12, m.m22, m.m11))


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Label arrays m12, m22, m11 with p, the cutoff, and the row-start table.

    Ordering is ascending in (degree, m12, m11), so index 0 is the vacuum
    pattern (0, 0; 0) and all states of equal degree are contiguous.  Row
    (m12, m22) holds m11 = m22 .. m12 at indices from ``row_start[m12, m22]``,
    which only ``find`` reads.  ``cache`` keeps what is built on the basis and
    is freed with it: whole generators by name, (sorted columns, generator)
    pairs of one h2 sector by (name, k), ladders by ("ladder", j, k, nmax),
    and the b2- oracle's compact (indices, values) pairs: bra terms by
    ("b2 bra", jp, k - 1, alpha' bits, nmax) and ket images by
    ("b2 image", j, k, alpha bits, nmax).
    """

    p: float
    cutoff: int
    m12: np.ndarray
    m22: np.ndarray
    m11: np.ndarray
    row_start: np.ndarray = field(repr=False)
    cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.m12)

    @property
    def degree(self) -> np.ndarray:
        return self.m12 + self.m22

    @cached_property
    def patterns(self) -> tuple[GZPattern, ...]:
        """The patterns in basis order, built on first use."""
        return tuple(
            GZPattern(*labels)
            for labels in zip(self.m12.tolist(), self.m22.tolist(), self.m11.tolist())
        )

    def find(self, m12, m22, m11):
        """Index of scalar or array labels, a numpy integer for scalars; -1 outside the basis."""
        inside = (0 <= m22) & (m22 <= m11) & (m11 <= m12) & (m12 <= self.cutoff)
        start = self.row_start[np.where(inside, m12, 0), np.where(inside, m22, 0)]
        return np.where(inside, start + m11 - m22, -1)[()]

    def interior_indices(self, margin: int) -> np.ndarray:
        """Indices of patterns whose degree is at most cutoff - margin.

        Applying ``margin`` raising generators to such a state cannot reach
        the truncation shell, so operator identities built from at most
        ``margin`` generator factors hold exactly on these columns.
        """
        return np.flatnonzero(self.degree <= self.cutoff - margin)

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (w1, w2) of the Cartan weights in basis order."""
        return cartan_weights(self.p, self.m12, self.m22, self.m11)


def enumerate_basis(p: float, cutoff: int) -> FockBasis:
    """Enumerate all patterns with m12 <= cutoff for a generic parameter p > 1.

    The pattern count is binomial(cutoff + 3, 3).  The envelope is
    1 < p <= P_MAX and 0 <= cutoff <= CUTOFF_MAX.
    """
    if not 1 < p <= P_MAX:
        raise ValueError(f"representation parameter must satisfy 1 < p <= {P_MAX:g}, got {p}")
    _require_integers(cutoff=cutoff)
    if not 0 <= cutoff <= CUTOFF_MAX:
        raise ValueError(f"cutoff must satisfy 0 <= cutoff <= {CUTOFF_MAX}, got {cutoff}")
    cutoff = int(cutoff)
    row22, row12 = np.triu_indices(cutoff + 1)
    order = np.lexsort((row12, row12 + row22))
    row12, row22 = row12[order], row22[order]
    counts = row12 - row22 + 1
    row_start = np.zeros((cutoff + 1,) * 2, dtype=np.intp)
    row_start[row12, row22] = np.cumsum(counts) - counts
    m11 = _ranges(row22, counts)  # first, so its temporaries set the peak alone
    m12, m22 = np.repeat(row12, counts), np.repeat(row22, counts)
    return FockBasis(p=float(p), cutoff=cutoff, m12=m12, m22=m22, m11=m11, row_start=row_start)


@dataclass(eq=False)
class FockVector:
    """Coefficient vector over a FockBasis."""

    basis: FockBasis
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coefficients, dtype=np.complex128)
        if arr.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient shape {arr.shape} does not match basis size {self.basis.size}"
            )
        self.coefficients = arr

    @classmethod
    def unit(cls, basis: FockBasis, pattern: GZPattern) -> "FockVector":
        index = basis.find(pattern.m12, pattern.m22, pattern.m11)
        if index < 0:
            raise KeyError(pattern)
        return cls(basis, np.where(np.arange(basis.size) == index, 1.0, 0.0))

    def _check_basis(self, other: "FockVector") -> None:
        a, b = self.basis, other.basis
        if a is not b and (a.p, a.cutoff) != (b.p, b.cutoff):
            raise ValueError(f"vectors are on different bases {(a.p, a.cutoff)}, {(b.p, b.cutoff)}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def inner(self, other: "FockVector") -> complex:
        """Inner product, conjugate-linear in ``self``."""
        self._check_basis(other)
        return complex(np.vdot(self.coefficients, other.coefficients))

    def copy(self) -> "FockVector":
        return FockVector(self.basis, self.coefficients.copy())

    def __add__(self, other: "FockVector") -> "FockVector":
        self._check_basis(other)
        return FockVector(self.basis, self.coefficients + other.coefficients)

    def __sub__(self, other: "FockVector") -> "FockVector":
        self._check_basis(other)
        return FockVector(self.basis, self.coefficients - other.coefficients)

    def __mul__(self, scalar: complex) -> "FockVector":
        return FockVector(self.basis, self.coefficients * scalar)

    __rmul__ = __mul__
