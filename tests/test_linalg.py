"""The exact linear algebra kit against sympy on seeded random rational matrices."""

import random
from fractions import Fraction

import pytest
import sympy

from wrapcheck import linalg
from wrapcheck.algebra import ConcreteSubalgebra
from wrapcheck.exterior import Multivector


def _random_matrix(rng, m, n, rank=None):
    """An m x n matrix of small rationals; of the given rank (almost surely) if set."""

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    if rank is None:
        return [[entry() for _ in range(n)] for _ in range(m)]
    left = [[entry() for _ in range(rank)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(rank)]
    return linalg.mat_mul(left, right)


def _sym(rows, ncols):
    entries = [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    return sympy.Matrix(len(rows), ncols, entries)


def _times(rows, x):
    return [sum((r[j] * x[j] for j in range(len(x))), Fraction(0)) for r in rows]


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
        assert linalg.rank(rows) == _sym(rows, ncols).rank()

    def test_nullspace(self, name, rows, ncols):
        got = linalg.nullspace(rows, ncols)
        want = _sym(rows, ncols).nullspace()
        assert len(got) == len(want)
        for v in got:
            assert all(x == 0 for x in _sym(rows, ncols) * _sym([v], ncols).T)
        if got:
            # same span: both bases have the same reduced echelon form
            assert _sym(got, ncols).rref()[0] == sympy.Matrix.hstack(*want).T.rref()[0]

    def test_solve(self, name, rows, ncols):
        rng = random.Random(name)
        a = _sym(rows, ncols)
        image = _times(rows, [Fraction(rng.randint(-3, 3)) for _ in range(ncols)])
        for b in ([Fraction(0)] * len(rows), [Fraction(rng.randint(-5, 5)) for _ in rows], image):
            x = linalg.solve(rows, b, ncols)
            consistent = a.rank() == a.row_join(_sym([[y] for y in b], 1)).rank()
            if not consistent:
                assert x is None
                continue
            assert x is not None and len(x) == ncols
            assert all(isinstance(y, Fraction) for y in x)
            assert _times(rows, x) == b


def test_solve_inconsistent():
    # x + y = 1 and 2x + 2y = 3 share no solution
    assert linalg.solve([[1, 1], [2, 2]], [1, 3], 2) is None
    # a zero row with a nonzero right-hand side
    assert linalg.solve([[0, 0, 0]], [1], 3) is None
    assert linalg.solve([[1, 1], [2, 2]], [1, 2], 2) == [Fraction(1), Fraction(0)]


def test_nullspace_of_no_rows_is_the_identity():
    assert linalg.nullspace([], 3) == linalg.identity(3)


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
