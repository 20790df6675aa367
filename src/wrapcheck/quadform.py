"""Rational invariants of quadratic forms arising as cup products.

Forms are symmetric rational Gram matrices.  Equivalence over Q is
decided by the classical invariant set: rank, discriminant modulo
squares, signature, and Hasse invariants at the relevant places
(Hasse-Minkowski).  The discriminant convention is the raw Gram
determinant reduced modulo nonzero rational squares, with no extra
sign twist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from . import linalg
from .exterior import Multivector, blade_masks, top_pairing


class DegenerateForm(ValueError):
    """Operation requires a nondegenerate form."""


@dataclass(frozen=True)
class QuadraticForm:
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        g = tuple(tuple(Fraction(x) for x in row) for row in self.gram)
        if any(len(row) != len(g) for row in g):
            raise ValueError("gram matrix must be square")
        for i in range(len(g)):
            for j in range(len(g)):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "QuadraticForm":
        n = len(entries)
        return cls(
            tuple(
                tuple(Fraction(entries[i]) if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def congruence_diagonal(self) -> tuple[Fraction, ...]:
        """The diagonal of ``diagonalize(self)``, computed once per form."""
        return tuple(diagonalize(self)[0])

    def determinant(self) -> Fraction:
        # diagonalize only adds multiples of one column to another, so
        # det T = 1 and the Gram determinant is the product of the diagonal
        return math.prod(self.congruence_diagonal, start=Fraction(1))

    @property
    def is_nondegenerate(self) -> bool:
        return self.rank > 0 and 0 not in self.congruence_diagonal


def diagonalize(f: QuadraticForm) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact congruence diagonalization: returns (diagonal, T) with
    T^t . gram . T diagonal.

    Symmetric elimination; a zero diagonal entry a[k][k] with a nonzero
    partner a[k][p] is fixed first by adding column and row p with factor
    c = +-1, which leaves 2c a[k][p] + a[p][p]; that is nonzero for c = 1
    or for c = -1.
    """
    n = f.rank
    a = [list(row) for row in f.gram]
    t = linalg.identity(n)

    def add_col(dst: int, src: int, factor: Fraction):
        # basis change v_dst += factor * v_src, applied symmetrically
        for i in range(n):
            a[i][dst] += factor * a[i][src]
        for j in range(n):
            a[dst][j] += factor * a[src][j]
        for i in range(n):
            t[i][dst] += factor * t[i][src]

    for k in range(n):
        if a[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if pivot is not None:
                add_col(k, pivot, Fraction(-1 if 2 * a[k][pivot] + a[pivot][pivot] == 0 else 1))
        if a[k][k] == 0:
            continue
        for j in range(k + 1, n):
            if a[k][j] != 0:
                add_col(j, k, -a[k][j] / a[k][k])
    diag = [a[i][i] for i in range(n)]
    return diag, t


def _factorization(m: int) -> dict[int, int]:
    """Prime -> exponent of a nonzero integer |m|, by trial division."""
    m = abs(m)
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            m //= d
            out[d] = out.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = 1  # leftover prime
    return out


def _squarefree_part(x: Fraction) -> int:
    """x modulo nonzero rational squares, as a squarefree integer."""
    if x == 0:
        return 0
    m = x.numerator * x.denominator  # x ~ num*den mod squares
    sign = -1 if m < 0 else 1
    return sign * math.prod(p for p, e in _factorization(m).items() if e % 2)


def discriminant(f: QuadraticForm) -> int:
    """Gram determinant reduced modulo squares to a squarefree integer."""
    d = f.determinant()
    if d == 0:
        raise DegenerateForm("discriminant of a degenerate form")
    return _squarefree_part(d)


def signature(f: QuadraticForm) -> tuple[int, int]:
    if not f.is_nondegenerate:
        raise DegenerateForm("signature of a degenerate form")
    diag = f.congruence_diagonal
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg


def _valuation_and_unit(x: int, p: int) -> tuple[int, int]:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a prime p or at infinity.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over R (place
    "infinity") or over Q_p (place a prime int p); any other place is a
    ValueError.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    ai = _squarefree_part(a)
    bi = _squarefree_part(b)
    if place == "infinity":
        return -1 if ai < 0 and bi < 0 else 1
    if not (isinstance(place, int) and place >= 2 and _factorization(place) == {place: 1}):
        raise ValueError(f"place must be 'infinity' or a prime, got {place!r}")
    p = place
    alpha, u = _valuation_and_unit(ai, p)
    beta, v = _valuation_and_unit(bi, p)
    if p == 2:
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        omega_u = ((u * u - 1) // 8) % 2
        omega_v = ((v * v - 1) // 8) % 2
        exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if exponent % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(v, p)
    return sign


def hasse_invariant(f: QuadraticForm, place) -> int:
    """Product of hilbert_symbol(d_i, d_j, place) over i < j on a diagonalization."""
    if not f.is_nondegenerate:
        raise DegenerateForm("hasse invariant of a degenerate form")
    diag = f.congruence_diagonal
    out = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            out *= hilbert_symbol(diag[i], diag[j], place)
    return out


def rationally_equivalent(f: QuadraticForm, g: QuadraticForm) -> bool:
    """Equality of rank, discriminant, signature, and Hasse invariants
    at infinity and at every prime dividing 2 disc(f) disc(g)."""
    if not (f.is_nondegenerate and g.is_nondegenerate):
        raise DegenerateForm("rational equivalence needs nondegenerate forms")
    if f.rank != g.rank:
        return False
    df, dg = discriminant(f), discriminant(g)
    if df != dg:
        return False
    if signature(f) != signature(g):
        return False
    if hasse_invariant(f, "infinity") != hasse_invariant(g, "infinity"):
        return False
    places = {2} | set(_factorization(df)) | set(_factorization(dg))
    return all(hasse_invariant(f, p) == hasse_invariant(g, p) for p in places)


@cache
def wedge_pairing_form(n: int) -> QuadraticForm:
    """Top-degree pairing on middle-degree blades of Lambda*(Q^n), built once per n.

    Gram[i][j] = top_pairing(b_i, b_j) taken from the upper triangle
    and mirrored; for n = 2 mod 4 the honest pairing on odd-degree
    classes is antisymmetric, and this is the associated symmetric
    hyperbolic form.
    """
    if n % 2 or n < 2:
        raise ValueError("wedge_pairing_form needs an even n >= 2")
    k = n // 2
    blades = [Multivector(n, {m: 1}) for m in blade_masks(n, k)]
    size = len(blades)
    gram = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            val = top_pairing(blades[i], blades[j])
            gram[i][j] = val
            gram[j][i] = val
    return QuadraticForm(tuple(tuple(row) for row in gram))
