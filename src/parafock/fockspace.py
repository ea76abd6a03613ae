"""Truncated Gelfand-Zetlin basis for the two-mode paraboson Fock space.

Basis states are labelled by integer patterns (m12, m22; m11) subject to the
betweenness conditions m12 >= m11 >= m22 >= 0.  Truncation keeps every pattern
with m12 <= cutoff, which leaves the retained set closed under the lowering
generators; raising generators can leave the set only through the m12 = cutoff
shell.

The basis is stored as three integer label arrays plus a dense lookup table
from labels to indices; ``GZPattern`` objects exist only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Envelope: at the largest cutoff the dense label grids of enumerate_basis
# take about 200 MB, and p = 120 is twice the |nu| <= 60 Bessel order window.
CUTOFF_MAX = 200
P_MAX = 120.0


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
        for name in ("m12", "m22", "m11"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
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
    """Label arrays m12, m22, m11 with p, the cutoff, and the index lookup table.

    Ordering is ascending in (degree, m12, m11), so index 0 is the vacuum
    pattern (0, 0; 0) and all states of equal degree are contiguous.
    ``lookup[m12, m22, m11]`` is the index of a pattern, or -1 outside the
    basis.  Each axis has one slot past the cutoff, which also holds -1, and
    negative indexing sends label -1 to that same slot, so labels shifted by
    one in either direction need no range check.  ``cache`` keeps the
    generators and ladders built on the basis; they are freed with it.
    """

    p: float
    cutoff: int
    m12: np.ndarray
    m22: np.ndarray
    m11: np.ndarray
    lookup: np.ndarray = field(repr=False)
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

    @cached_property
    def index(self) -> dict[GZPattern, int]:
        """Pattern to index map, built on first use."""
        return {m: i for i, m in enumerate(self.patterns)}

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
    if isinstance(cutoff, bool) or not isinstance(cutoff, (int, np.integer)):
        raise TypeError(f"cutoff must be an integer, got {cutoff!r}")
    if not 0 <= cutoff <= CUTOFF_MAX:
        raise ValueError(f"cutoff must satisfy 0 <= cutoff <= {CUTOFF_MAX}, got {cutoff}")
    cutoff = int(cutoff)
    m12, m22, m11 = np.indices((cutoff + 1,) * 3).reshape(3, -1)
    keep = (m12 >= m11) & (m11 >= m22)
    m12, m22, m11 = m12[keep], m22[keep], m11[keep]
    order = np.lexsort((m11, m12, m12 + m22))
    m12, m22, m11 = m12[order], m22[order], m11[order]
    lookup = np.full((cutoff + 2,) * 3, -1, dtype=np.intp)
    lookup[m12, m22, m11] = np.arange(len(m12))
    return FockBasis(p=float(p), cutoff=cutoff, m12=m12, m22=m22, m11=m11, lookup=lookup)


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
        if pattern.m12 > basis.cutoff:
            raise KeyError(pattern)
        v = np.zeros(basis.size, dtype=np.complex128)
        v[basis.lookup[pattern.m12, pattern.m22, pattern.m11]] = 1.0
        return cls(basis, v)

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
