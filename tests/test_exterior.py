import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wrapcheck.exterior import (
    Blade,
    DimensionMismatch,
    Multivector,
    blade_masks,
    graded_dimension,
    top_pairing,
    wedge,
    wedge_table,
)

from oracles import brute_force_wedge


def e(n, *indices):
    return Multivector.blade(n, indices)


class TestBlade:
    def test_valid(self):
        b = Blade((1, 3, 5))
        assert b.degree == 3
        assert b.mask == 0b10101
        assert Blade.from_mask(b.mask) == b

    @pytest.mark.parametrize("indices", [(2, 1), (1, 1), (0, 2), (-1,)])
    def test_invalid(self, indices):
        with pytest.raises(ValueError):
            Blade(indices)


class TestWedge:
    def test_sorted_identity_permutation(self):
        assert wedge(e(4, 1), e(4, 2)) == e(4, 1, 2)

    def test_repeated_index_vanishes(self):
        assert wedge(e(4, 1), e(4, 1)).is_zero

    def test_merge_parity(self):
        # frozen from the transposition-counting oracle
        sign, sorted_idx = brute_force_wedge((1, 3), (2,))
        assert (sign, sorted_idx) == (-1, (1, 2, 3))
        assert wedge(e(4, 1, 3), e(4, 2)) == e(4, 1, 2, 3).scale(-1)

    def test_bilinear(self):
        a = e(4, 1) + e(4, 2).scale(Fraction(1, 2))
        b = e(4, 3) - e(4, 4)
        lhs = wedge(a, b)
        rhs = (
            wedge(e(4, 1), e(4, 3))
            - wedge(e(4, 1), e(4, 4))
            + wedge(e(4, 2), e(4, 3)).scale(Fraction(1, 2))
            - wedge(e(4, 2), e(4, 4)).scale(Fraction(1, 2))
        )
        assert lhs == rhs

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wedge(e(3, 1), e(4, 1))


def random_blade(draw, n, degree):
    idx = draw(
        st.lists(st.integers(1, n), min_size=degree, max_size=degree, unique=True)
    )
    return tuple(sorted(idx))


@st.composite
def homogeneous_multivector(draw, n=6, max_terms=3):
    degree = draw(st.integers(0, n))
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        idx = random_blade(draw, n, degree)
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        mask = Multivector.blade(n, idx).items()[0][0] if idx else 0
        terms[mask] = terms.get(mask, 0) + coeff
    return Multivector(n, terms), degree


@given(homogeneous_multivector(), homogeneous_multivector())
def test_graded_commutativity(ab, cd):
    a, j = ab
    b, k = cd
    sign = (-1) ** (j * k)
    assert wedge(a, b) == wedge(b, a).scale(sign)


@given(homogeneous_multivector(), homogeneous_multivector(), homogeneous_multivector())
def test_associativity(x, y, z):
    a, b, c = x[0], y[0], z[0]
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(st.integers(2, 6), st.data())
def test_blade_wedge_matches_permutation_oracle(n, data):
    da = data.draw(st.integers(0, n))
    db = data.draw(st.integers(0, n - da))
    ia = tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=da, max_size=da, unique=True))))
    ib = tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=db, max_size=db, unique=True))))
    sign, merged = brute_force_wedge(ia, ib)
    got = wedge(Multivector.blade(n, ia), Multivector.blade(n, ib))
    if sign == 0:
        assert got.is_zero
    else:
        assert got == Multivector.blade(n, merged, sign)


class TestTopPairing:
    def test_complementary_blades(self):
        n = 5
        assert top_pairing(e(n, 1), e(n, 2, 3, 4, 5)) == 1

    def test_degenerate(self):
        n = 4
        assert top_pairing(e(n, 1), wedge(e(n, 1), e(n, 3, 4))) == 0

    def test_symmetric_square(self):
        w = e(4, 1, 2) + e(4, 3, 4)
        assert top_pairing(w, w) == 2

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
    def test_perfect_pairing_gram_is_signed_permutation(self, n, k):
        blades_k = [Multivector.blade(n, Blade.from_mask(m).indices) for m in blade_masks(n, k)]
        blades_nk = [
            Multivector.blade(n, Blade.from_mask(m).indices) for m in blade_masks(n, n - k)
        ]
        gram = [[top_pairing(a, b) for b in blades_nk] for a in blades_k]
        for row in gram:
            assert sum(1 for x in row if x != 0) == 1
            assert all(x in (-1, 0, 1) for x in row)
        for j in range(len(blades_nk)):
            assert sum(1 for row in gram if row[j] != 0) == 1


class TestGradedDimension:
    @pytest.mark.parametrize("n,k,want", [(4, 2, 6), (7, 0, 1), (6, 3, 20)])
    def test_values(self, n, k, want):
        assert graded_dimension(n, k) == want

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            graded_dimension(4, 5)
        with pytest.raises(ValueError):
            graded_dimension(4, -1)


class TestBladeMasks:
    def test_matches_the_full_scan(self):
        for n in range(11):
            for k in range(-1, n + 2):
                assert blade_masks(n, k) == [m for m in range(1 << n) if m.bit_count() == k]

    def test_maximal_dimension_is_cheap(self):
        start = time.perf_counter()
        masks = blade_masks(32, 1)
        assert time.perf_counter() - start < 0.1
        assert masks == [1 << i for i in range(32)]
        assert Multivector.from_coords(32, 1, range(1, 33)).coords(1) == tuple(range(1, 33))


class TestWedgeTable:
    def test_reproduces_float_wedge(self):
        # a's terms are not in ascending mask order, and neither are the product's
        ta = {0b00110: 0.3, 0b00011: -1.7, 0b10001: 2.9}
        tb = {m: 0.1 * (i + 1) for i, m in enumerate(blade_masks(5, 2))}
        masks, rows = wedge_table(list(ta), list(tb))
        ca, cb = list(ta.values()), list(tb.values())
        got = [0.0] * len(masks)
        for i, j, k, sign in rows:
            got[k] += ca[i] * cb[j] * sign
        assert masks != sorted(masks)
        assert Multivector(5, dict(zip(masks, got))) == wedge(Multivector(5, ta), Multivector(5, tb))


class TestMultivector:
    def test_no_zero_coefficients_stored(self):
        m = e(3, 1) - e(3, 1)
        assert m.is_zero
        assert m.items() == []

    def test_mask_bound(self):
        with pytest.raises(ValueError):
            Multivector(2, {0b100: 1})

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            Multivector.zero(33)

    def test_degree_of_mixed_raises(self):
        m = e(3, 1) + e(3, 1, 2)
        with pytest.raises(ValueError):
            m.degree()
