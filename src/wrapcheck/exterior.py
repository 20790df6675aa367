"""Exact arithmetic in the exterior algebra on n generators over Q.

Elements are stored sparsely as maps blade -> coefficient, where a
blade is encoded as a bitmask: bit i-1 set means the basis index i is
present, so masks run from 0 (scalars) to 2**n - 1 (the top blade).
Coefficients are exact rationals.  Float coefficients are tolerated
too (floating candidates of :mod:`wrapcheck.embed` carry them), but the
float search there evaluates its residuals through :func:`wedge_table`
index and sign tables, with this dict arithmetic as their reference.

Sign convention, fixed here and used by every module: reordering two
adjacent odd-degree generators contributes one factor of -1, and
even-degree elements are central.  On blades this is the parity of the
permutation that merges two increasing index lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

MAX_DIMENSION = 32


class DimensionMismatch(ValueError):
    """Operands live in exterior algebras of different ambient dimension."""


def _merge_sign(a: int, b: int) -> int:
    # parity of the merge permutation: pairs (i in a, j in b) with i > j
    inversions = 0
    x = a >> 1
    while x:
        inversions += (x & b).bit_count()
        x >>= 1
    return -1 if inversions & 1 else 1


@dataclass(frozen=True)
class Blade:
    """Strictly increasing index tuple with entries in 1..n."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if any(j <= 0 for j in idx):
            raise ValueError(f"blade indices must be >= 1, got {idx}")
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise ValueError(f"blade indices must be strictly increasing, got {idx}")

    @property
    def degree(self) -> int:
        return len(self.indices)

    @property
    def mask(self) -> int:
        m = 0
        for j in self.indices:
            m |= 1 << (j - 1)
        return m

    @classmethod
    def from_mask(cls, mask: int) -> "Blade":
        idx = []
        j = 1
        while mask:
            if mask & 1:
                idx.append(j)
            mask >>= 1
            j += 1
        return cls(tuple(idx))


def blade_masks(n: int, degree: int) -> list[int]:
    """All degree-``degree`` blade masks in Lambda^*(Q^n), ascending."""
    if not 0 <= degree <= n:
        return []
    if degree == 0:
        return [0]
    # step to the next larger integer with the same bit count (Gosper)
    mask, end, out = (1 << degree) - 1, 1 << n, []
    while mask < end:
        out.append(mask)
        low = mask & -mask
        high = mask + low
        mask = high | (((high ^ mask) >> 2) // low)
    return out


def _coerce(c):
    if isinstance(c, Rational) and not isinstance(c, Fraction):
        return Fraction(c)
    return c


class Multivector:
    """Immutable sparse element of the exterior algebra on n generators."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if not 0 <= n <= MAX_DIMENSION:
            raise ValueError(f"ambient dimension must be in 0..{MAX_DIMENSION}, got {n}")
        clean: dict[int, object] = {}
        full = (1 << n) - 1
        for mask, coeff in (terms or {}).items():
            if mask < 0 or mask & ~full:
                raise ValueError(f"blade mask {mask:b} exceeds ambient dimension {n}")
            c = _coerce(coeff)
            if c != 0:
                clean[mask] = clean.get(mask, 0) + c
                if clean[mask] == 0:
                    del clean[mask]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, *args):  # immutability by convention, enforced shallowly
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n, {})

    @classmethod
    def scalar(cls, n: int, coeff) -> "Multivector":
        return cls(n, {0: coeff})

    @classmethod
    def blade(cls, n: int, indices, coeff=1) -> "Multivector":
        b = indices if isinstance(indices, Blade) else Blade(tuple(indices))
        return cls(n, {b.mask: coeff})

    @classmethod
    def from_coords(cls, n: int, degree: int, coords) -> "Multivector":
        masks = blade_masks(n, degree)
        if len(coords) != len(masks):
            raise ValueError("coordinate vector has wrong length")
        return cls(n, dict(zip(masks, coords)))

    # -- inspection --------------------------------------------------------
    def items(self):
        return sorted(self._terms.items())

    def coefficient(self, indices_or_mask):
        if isinstance(indices_or_mask, int):
            mask = indices_or_mask
        else:
            mask = Blade(tuple(indices_or_mask)).mask
        return self._terms.get(mask, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self._terms}

    def degree(self) -> int | None:
        """The common degree of all terms; None for 0, error if mixed."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"multivector is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_part(self, k: int) -> "Multivector":
        return Multivector(self.n, {m: c for m, c in self._terms.items() if m.bit_count() == k})

    def coords(self, degree: int) -> tuple:
        """Coefficients on the ascending blade basis of one degree."""
        return tuple(self._terms.get(m, Fraction(0)) for m in blade_masks(self.n, degree))

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "Multivector"):
        if self.n != other.n:
            raise DimensionMismatch(f"ambient dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return Multivector(self.n, terms)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Multivector(self.n, {m: -c for m, c in self._terms.items()})

    def scale(self, c) -> "Multivector":
        return Multivector(self.n, {m: coeff * c for m, coeff in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return wedge(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, Multivector)
            and self.n == other.n
            and self._terms == other._terms
        )

    __hash__ = None  # mutable dict inside; equality only

    def __repr__(self):
        if self.is_zero:
            return f"<0 in Lambda*(Q^{self.n})>"
        parts = []
        for mask, coeff in self.items():
            name = "1" if mask == 0 else "e{" + ",".join(str(i) for i in Blade.from_mask(mask).indices) + "}"
            parts.append(f"{coeff}*{name}")
        return " + ".join(parts)


def wedge_terms(a: dict, b: dict) -> dict:
    """The product of two ``{mask: coefficient}`` maps, uncoerced, with
    cancelled terms dropped; the loop under :func:`wedge`."""
    terms: dict[int, object] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            m = ma | mb
            acc = terms.get(m, 0) + ca * cb * _merge_sign(ma, mb)
            if acc == 0:
                terms.pop(m, None)
            else:
                terms[m] = acc
    return terms


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Graded-commutative product; repeated indices kill a term."""
    a._check(b)
    return Multivector(a.n, wedge_terms(a._terms, b._terms))


def wedge_table(left, right) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """Index and sign table of :func:`wedge` on fixed supports.

    ``left`` lists the blade masks of the left operand in its term
    order and ``right`` those of the right operand.  Returns the
    product's masks in the order :func:`wedge` first meets them, and one
    ``(left index, right index, product index, sign)`` row per pair of
    disjoint blades, in the order :func:`wedge` visits them.  Summing
    ``a[i] * b[j] * sign`` into ``product[k]`` row by row, from zero,
    therefore gives the float coefficients :func:`wedge` computes, bit
    for bit, as long as no coefficient or partial sum is exactly zero
    (the sparse form would drop that term and move it in the order).
    """
    product: dict[int, int] = {}
    rows = []
    for i, ma in enumerate(left):
        for j, mb in enumerate(right):
            if ma & mb:
                continue
            k = product.setdefault(ma | mb, len(product))
            rows.append((i, j, k, _merge_sign(ma, mb)))
    return list(product), rows


def top_pairing(a: Multivector, b: Multivector):
    """Coefficient of e{1,...,n} in a ^ b."""
    return wedge(a, b).coefficient((1 << a.n) - 1)


def graded_dimension(n: int, k: int) -> int:
    """Dimension of the degree-k component of Lambda*(Q^n)."""
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} out of range 0..{n}")
    return math.comb(n, k)
