"""Small exact linear algebra kit over ``fractions.Fraction``.

Every symbolic module (exterior quotients, graded bases, Lie algebra
cohomology, congruence diagonalization) reduces to row operations on
rational matrices at desk scale, so plain Gaussian elimination is all
we need.  Matrices are lists of lists of Fractions; rows are vectors.

:class:`SparseSubspace` is the one echelon-form kernel: callers read
its rank, test membership or take quotient coordinates through it.
Determinants are products of the congruence diagonal in
:mod:`wrapcheck.quadform`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Vector = list[Fraction]
Matrix = list[Vector]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


class SparseSubspace:
    """Incrementally maintained echelon span of rows.

    Rows may be dicts column -> value or dense sequences; they are kept
    as sparse dicts of Fractions, so elimination only touches the
    support of each row, which matters for large sparse ideals.  A stored
    row starts at its pivot, with value 1 there, and is never rewritten.
    The representative of a vector that is zero at every pivot is the
    same for every echelon basis with these pivots, so no result depends
    on the insertion order; ``rows`` builds the reduced form on read.
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
            # a stored row has no entry left of its pivot, so taking the
            # smallest pivot first eliminates each pivot at most once
            hit = min((c for c in out if c in self.pivot_rows), default=None)
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
        self.pivot_rows[p] = {c: v * inv for c, v in red.items()}
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
        """The reduced echelon basis as dense rows, in pivot order: pivot p's
        row is 1 at p plus the representative of the rest of its stored row."""
        return [
            self._dense({p: Fraction(1), **self._reduced({c: v for c, v in row.items() if c != p})})
            for p, row in sorted(self.pivot_rows.items())
        ]

    def _dense(self, row: dict[int, Fraction]) -> Vector:
        return [row.get(c, Fraction(0)) for c in range(self.dim)]

    def contains(self, vec) -> bool:
        return not self._reduced(vec)

    def coords_modulo(self, vec) -> dict[int, Fraction]:
        """Coordinates of vec in the quotient: the nonzero entries, keyed by
        column, of its representative modulo the span."""
        return self._reduced(vec)
