import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from wrapcheck import linalg
from wrapcheck.quadform import (
    DegenerateForm,
    QuadraticForm,
    diagonalize,
    discriminant,
    hasse_invariant,
    hilbert_symbol,
    rationally_equivalent,
    signature,
    wedge_pairing_form,
)

from oracles import hilbert_oracle

REMARK_FORM = QuadraticForm.diagonal([2, 1, 1, -1, -1, -1])
HYPERBOLIC = QuadraticForm(((0, 1), (1, 0)))


class TestDiagonalize:
    def test_already_diagonal(self):
        diag, t = diagonalize(REMARK_FORM)
        assert diag == [2, 1, 1, -1, -1, -1]

    def test_hyperbolic_plane(self):
        diag, t = diagonalize(HYPERBOLIC)
        # (2, -1/2) equals (1, -1) modulo squares
        assert diag[0] > 0 and diag[1] < 0
        assert diag[0] * diag[1] == -1

    def test_zero_form(self):
        z = QuadraticForm(((0, 0), (0, 0)))
        assert diagonalize(z)[0] == [0, 0]

    def test_partner_that_cancels_the_zero_pivot(self):
        # a[0][0] = 0 and a[1][1] = -2 a[0][1]: adding column 1 once leaves
        # a[0][0] = 0, which used to leave the form undiagonalized
        f = QuadraticForm(((0, 1), (1, -2)))
        assert f.congruence_diagonal[0] != 0
        assert signature(f) == (1, 1)
        assert f.determinant() == -1

    def test_every_small_form_against_independent_counts(self):
        forms = [((a, b), (b, c)) for a, b, c in itertools.product(range(-2, 3), repeat=3)]
        rng = random.Random(8)
        for _ in range(2000):
            n = rng.choice([3, 4])
            g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            forms.append(tuple(tuple(g[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)))
        for gram in forms:
            f = QuadraticForm(gram)
            diag, t = diagonalize(f)
            product = linalg.mat_mul(
                linalg.mat_mul(list(zip(*t)), [list(r) for r in f.gram]), t
            )
            n = f.rank
            assert product == [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], gram
            assert f.determinant() == _leibniz_det(gram), gram
            if f.is_nondegenerate:
                eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
                assert signature(f) == (int((eig > 0).sum()), int((eig < 0).sum())), gram

    def test_congruence_identity(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 5)
            g = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    g[i][j] = g[j][i]
            f = QuadraticForm(tuple(tuple(row) for row in g))
            diag, t = diagonalize(f)
            product = linalg.mat_mul(
                linalg.mat_mul(list(zip(*t)), [list(r) for r in f.gram]), t
            )
            for i in range(n):
                for j in range(n):
                    assert product[i][j] == (diag[i] if i == j else 0)


def _leibniz_det(gram) -> int:
    """Exact determinant as a signed sum over permutations."""
    n = len(gram)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, p in enumerate(perm):
            term *= gram[i][p]
        total += term
    return total


class TestDiscriminant:
    def test_remark_form(self):
        assert discriminant(REMARK_FORM) == -2

    def test_wedge_pairing_on_four(self):
        assert discriminant(wedge_pairing_form(4)) == -1

    def test_identity(self):
        assert discriminant(QuadraticForm.diagonal([1] * 5)) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            discriminant(QuadraticForm.diagonal([1, 0]))

    def test_congruence_invariance(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(2, 4)
            base = QuadraticForm.diagonal([rng.choice([1, 2, 3, -1, -2]) for _ in range(n)])
            while True:
                t = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                if abs(sympy.Matrix(t).det()) == 1:
                    break
            g = linalg.mat_mul(linalg.mat_mul(list(zip(*t)), [list(r) for r in base.gram]), t)
            moved = QuadraticForm(tuple(tuple(row) for row in g))
            assert discriminant(moved) == discriminant(base)
            assert signature(moved) == signature(base)


class TestSignature:
    @pytest.mark.parametrize(
        "form,want",
        [
            (REMARK_FORM, (3, 3)),
            (wedge_pairing_form(4), (3, 3)),
            (QuadraticForm.diagonal([1] * 4), (4, 0)),
            (wedge_pairing_form(6), (10, 10)),
        ],
    )
    def test_values(self, form, want):
        assert signature(form) == want


class TestHilbertSymbol:
    def test_minus_one_minus_one_infinity(self):
        assert hilbert_symbol(-1, -1, "infinity") == -1

    def test_minus_one_minus_one_at_two(self):
        assert hilbert_oracle(-1, -1, 2) == -1  # oracle fixes the expectation
        assert hilbert_symbol(-1, -1, 2) == -1

    def test_square_representing_one(self):
        for place in ("infinity", 2, 3, 5):
            assert hilbert_symbol(1, 7, place) == 1

    def test_rational_arguments(self):
        assert hilbert_symbol(Fraction(1, 2), Fraction(-3, 5), 2) == hilbert_symbol(2, -15, 2)

    def test_sweep_against_local_solvability_oracle(self):
        # every symbol with |a|, |b| <= 20 at all relevant places
        for place in ("infinity", 2, 3, 5, 7, 11, 13):
            for a in range(-20, 21):
                for b in range(-20, 21):
                    if a == 0 or b == 0:
                        continue
                    assert hilbert_symbol(a, b, place) == hilbert_oracle(a, b, place), (
                        a,
                        b,
                        place,
                    )


@given(
    st.integers(-12, 12).filter(lambda x: x != 0),
    st.integers(1, 12),
    st.integers(-12, 12).filter(lambda x: x != 0),
    st.integers(1, 12),
)
def test_hilbert_reciprocity(an, ad, bn, bd):
    a = Fraction(an, ad)
    b = Fraction(bn, bd)
    places = {2}
    for v in (a.numerator, a.denominator, b.numerator, b.denominator):
        m = abs(v)
        d = 2
        while d * d <= m:
            if m % d == 0:
                places.add(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            places.add(m)
    total = hilbert_symbol(a, b, "infinity")
    for p in places:
        total *= hilbert_symbol(a, b, p)
    assert total == 1


class TestHasse:
    def test_identity_rank_two(self):
        assert hasse_invariant(QuadraticForm.diagonal([1, 1]), 5) == 1

    def test_negative_pair_at_infinity(self):
        assert hasse_invariant(QuadraticForm.diagonal([-1, -1]), "infinity") == -1

    def test_remark_form_at_two(self):
        # frozen from the product of symbol-oracle values over pairs
        diag = [2, 1, 1, -1, -1, -1]
        want = 1
        for i in range(6):
            for j in range(i + 1, 6):
                want *= hilbert_oracle(diag[i], diag[j], 2)
        assert want == -1
        assert hasse_invariant(REMARK_FORM, 2) == -1


class TestRationallyEquivalent:
    def test_remark_pair_not_equivalent(self):
        assert not rationally_equivalent(REMARK_FORM, wedge_pairing_form(4))

    def test_reflexive(self):
        assert rationally_equivalent(REMARK_FORM, REMARK_FORM)

    def test_hyperbolic_vs_diag(self):
        assert rationally_equivalent(QuadraticForm.diagonal([1, -1]), HYPERBOLIC)

    def test_equivalence_relation_spot_checks(self):
        rng = random.Random(5)
        corpus = [
            QuadraticForm.diagonal([rng.choice([1, 2, 3, 5, -1, -2]) for _ in range(3)])
            for _ in range(8)
        ]
        for f in corpus:
            assert rationally_equivalent(f, f)
        for f in corpus:
            for g in corpus:
                assert rationally_equivalent(f, g) == rationally_equivalent(g, f)
        for f in corpus:
            for g in corpus:
                for h in corpus:
                    if rationally_equivalent(f, g) and rationally_equivalent(g, h):
                        assert rationally_equivalent(f, h)

    def test_scaled_hyperbolic(self):
        # x^2 - y^2 represents the same numbers as 2x^2 - 2y^2
        assert rationally_equivalent(
            QuadraticForm.diagonal([1, -1]), QuadraticForm.diagonal([2, -2])
        )


class TestWedgePairingForm:
    def test_two(self):
        assert wedge_pairing_form(2).gram == ((0, 1), (1, 0))

    def test_four_is_three_signed_hyperbolic_planes(self):
        g = wedge_pairing_form(4).gram
        assert len(g) == 6
        nonzero = [(i, j, g[i][j]) for i in range(6) for j in range(6) if g[i][j] != 0]
        assert len(nonzero) == 6
        assert all(v in (-1, 1) for _, _, v in nonzero)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            wedge_pairing_form(3)
