"""Small exact linear algebra kit over ``fractions.Fraction``.

Every symbolic module (exterior quotients, graded bases, Lie algebra
cohomology, congruence diagonalization) reduces to row operations on
rational matrices at desk scale, so plain Gaussian elimination is all
we need.  Matrices are lists of lists of Fractions; rows are vectors.

:class:`SparseSubspace` is the one echelon-form kernel: ``rank``,
``solve`` and ``nullspace`` read it.  Determinants are products of
the congruence diagonal in :mod:`wrapcheck.quadform`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = list[Fraction]
Matrix = list[Vector]


def as_fraction_row(row: Iterable) -> Vector:
    return [Fraction(x) for x in row]


def zero_vector(dim: int) -> Vector:
    return [Fraction(0)] * dim


def rank(rows: Sequence[Sequence]) -> int:
    return SparseSubspace(len(rows[0]) if rows else 0, rows).rank


def nullspace(rows: Sequence[Sequence], ncols: int) -> Matrix:
    """Basis of the kernel of the linear map with the given matrix rows."""
    span = SparseSubspace(ncols, rows)
    basis = []
    for fcol in range(ncols):
        if fcol in span.pivot_rows:
            continue
        v = zero_vector(ncols)
        v[fcol] = Fraction(1)
        for p, row in span.pivot_rows.items():
            v[p] = -row.get(fcol, Fraction(0))
        basis.append(v)
    return basis


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(matrix: Sequence[Sequence]) -> Matrix:
    return [as_fraction_row(col) for col in zip(*matrix)] if matrix else []


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    bt = list(zip(*b))
    return [
        [sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in bt]
        for row in a
    ]


def solve(a: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One solution of A x = b, or None if inconsistent.

    The augmented system is inconsistent iff a pivot lands in its last
    column; free variables are set to zero.
    """
    ncols = len(a[0]) if a else 0
    span = SparseSubspace(ncols + 1, (list(r) + [x] for r, x in zip(a, b)))
    if ncols in span.pivot_rows:
        return None
    x = zero_vector(ncols)
    for p, row in span.pivot_rows.items():
        x[p] = row.get(ncols, Fraction(0))
    return x


class SparseSubspace:
    """Incrementally maintained reduced echelon span of rows.

    Rows may be dicts column -> value or dense sequences; they are kept
    as sparse dicts of Fractions, so elimination only touches the
    support of each row, which matters for large sparse ideals.  The
    reduced echelon form of a row space is unique, so pivots, ``rows``
    and quotient coordinates do not depend on the insertion order.
    """

    def __init__(self, dim: int, rows: Iterable = ()):
        self.dim = dim
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}
        for r in rows:
            self.add(r)

    def _reduced(self, row) -> dict[int, Fraction]:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        # entries that are Fractions already are immutable and kept as they are
        out = {c: v if isinstance(v, Fraction) else Fraction(v) for c, v in items if v != 0}
        while True:
            hit = next((c for c in out if c in self.pivot_rows), None)
            if hit is None:
                return out
            f = out[hit]
            for c, v in self.pivot_rows[hit].items():
                acc = out.get(c, 0) - f * v
                if acc == 0:
                    out.pop(c, None)
                else:
                    out[c] = acc

    def add(self, row) -> bool:
        """Insert a row; True if the rank grew."""
        red = self._reduced(row)
        if not red:
            return False
        p = min(red)
        inv = 1 / red[p]
        red = {c: v * inv for c, v in red.items()}
        for existing in self.pivot_rows.values():
            if p in existing:
                f = existing[p]
                for c, v in red.items():
                    acc = existing.get(c, 0) - f * v
                    if acc == 0:
                        existing.pop(c, None)
                    else:
                        existing[c] = acc
        self.pivot_rows[p] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    @property
    def codim(self) -> int:
        return self.dim - len(self.pivot_rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)

    @property
    def rows(self) -> Matrix:
        """The reduced echelon basis as dense rows, in pivot order."""
        return [self._dense(self.pivot_rows[p]) for p in self.pivots]

    def _dense(self, row: dict[int, Fraction]) -> Vector:
        return [row.get(c, Fraction(0)) for c in range(self.dim)]

    def reduce(self, vec) -> Vector:
        """The dense representative of vec modulo the span (zero at every pivot)."""
        return self._dense(self._reduced(vec))

    def contains(self, vec) -> bool:
        return not self._reduced(vec)

    def coords_modulo(self, vec) -> tuple[Fraction, ...]:
        """Coordinates of vec in the quotient: entries at non-pivot columns."""
        red = self._reduced(vec)
        return tuple(red.get(c, Fraction(0)) for c in range(self.dim) if c not in self.pivot_rows)
