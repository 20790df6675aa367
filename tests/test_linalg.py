"""The exact linear algebra kit against sympy on seeded random rational matrices."""

import random
from fractions import Fraction

import pytest
import sympy

from wrapcheck import linalg
from wrapcheck.algebra import ConcreteSubalgebra
from wrapcheck.exterior import Multivector

from oracles import mat_mul


def _random_matrix(rng, m, n, rank=None):
    """An m x n matrix of small rationals; of the given rank (almost surely) if set."""

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    if rank is None:
        return [[entry() for _ in range(n)] for _ in range(m)]
    left = [[entry() for _ in range(rank)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(rank)]
    return mat_mul(left, right)


def _sym(rows, ncols):
    entries = [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    return sympy.Matrix(len(rows), ncols, entries)


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def _cases():
    """(name, rows, ncols) over full-rank, rank-deficient, empty and zero matrices."""
    rng = random.Random(20241019)
    out = [("empty", [], 3), ("empty-0-cols", [], 0), ("zero", [[Fraction(0)] * 4 for _ in range(3)], 4)]
    for i in range(12):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        out.append((f"full-{i}", _random_matrix(rng, m, n), n))
        r = rng.randint(1, min(m, n))
        out.append((f"rank{r}-{i}", _random_matrix(rng, m + 1, n, rank=r), n))
    return out


CASES = _cases()


@pytest.mark.parametrize("name,rows,ncols", CASES, ids=[c[0] for c in CASES])
class TestAgainstSympy:
    def test_rank(self, name, rows, ncols):
        assert linalg.SparseSubspace(ncols, rows).rank == _sym(rows, ncols).rank()

    def test_echelon_rows(self, name, rows, ncols):
        rng = random.Random(name)
        rref, pivots = _sym(rows, ncols).rref()
        want = [[_frac(x) for x in rref.row(i)] for i in range(len(pivots))]
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
        # the representative modulo the span that is zero at every pivot
        rep = [x - sum((v[p] * r[j] for p, r in zip(pivots, want)), Fraction(0)) for j, x in enumerate(v)]
        # the stored rows differ with the insertion order; what is read does not
        for order in (rows, rows[::-1]):
            span = linalg.SparseSubspace(ncols, order)
            assert span.pivots == list(pivots)
            assert span.rows == want
            assert span.coords_modulo(v) == {j: x for j, x in enumerate(rep) if x != 0}

    def test_reduce(self, name, rows, ncols):
        rng = random.Random(name)
        span = linalg.SparseSubspace(ncols, rows)
        a = _sym(rows, ncols)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in rows]
        combination = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)]
        for v in ([Fraction(0)] * ncols, [Fraction(rng.randint(-5, 5)) for _ in range(ncols)], combination):
            rep = span.coords_modulo(v)
            red = [rep.get(c, Fraction(0)) for c in range(ncols)]
            # zero at every pivot, and v - red in the row space: that fixes red
            assert all(red[p] == 0 for p in span.pivots)
            assert a.col_join(_sym([[x - y for x, y in zip(v, red)]], ncols)).rank() == a.rank()
            assert span.contains(v) == (a.col_join(_sym([v], ncols)).rank() == a.rank())
        assert span.contains(combination)


class TestCoordsInBasis:
    def _subalgebra(self):
        n = 4
        e = [Multivector.blade(n, [i]) for i in range(1, n + 1)]
        # the subalgebra generated by e1 + 2e2, e3 - e4 and e1 ^ e3 + 1/2 e2 ^ e4
        gens = [e[0] + e[1].scale(2), e[2] - e[3], Multivector(n, {0b0101: 1, 0b1010: Fraction(1, 2)})]
        return n, ConcreteSubalgebra.from_generators(n, gens)

    def test_round_trip(self):
        n, A = self._subalgebra()
        rng = random.Random(7)
        for k in range(n + 1):
            basis = A.basis(k)
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in basis]
                v = Multivector.zero(n)
                for c, b in zip(coeffs, basis):
                    v = v + b.scale(c)
                got = A.coords_in_basis(v, k)
                assert got == coeffs
                rebuilt = Multivector.zero(n)
                for c, b in zip(got, basis):
                    rebuilt = rebuilt + b.scale(c)
                assert rebuilt == v

    def test_outside_the_span(self):
        n, A = self._subalgebra()
        assert A.dims()[1] == 2
        assert A.coords_in_basis(Multivector.blade(n, [1]), 1) is None
        assert A.coords_in_basis(Multivector.blade(n, [1, 2]), 2) is None
        # the subalgebra generated by e1 is empty in degree 2
        B = ConcreteSubalgebra.from_generators(n, [Multivector.blade(n, [1])])
        assert B.dims() == (1, 1, 0, 0, 0)
        assert B.coords_in_basis(Multivector.blade(n, [1, 2]), 2) is None
        assert B.coords_in_basis(Multivector.zero(n), 2) == []
