import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from wrapcheck import algebra, linalg
from wrapcheck.algebra import (
    AlgebraPresentation,
    ConcreteSubalgebra,
    DegeneratePresentation,
    GradedBasis,
    GradedPolynomial,
    basis_and_dims,
    check_poincare_duality,
    cup_square_form,
    euler_characteristic,
    evaluate_polynomial,
    quotient_by_degree1,
)
from wrapcheck.cli import corpus_paths
from wrapcheck.descriptor import parse_descriptor_file
from wrapcheck.embed import torus_subalgebra_check
from wrapcheck.exterior import Multivector

import presentations as P
from presentations import random_small_presentations
from corpusgen import random_pd_subalgebra
from oracles import oracle_quotient_ranks, poly_to_words, word_mult


def mono(gens, coeff, *exps):
    return GradedPolynomial(gens, ((coeff, exps),))


def word_product(gens, factors):
    """The product of GradedPolynomials, multiplied term by term in the
    sorted-word model of :func:`oracles.word_mult`."""
    degrees = [d for _, d in gens]
    terms = [(Fraction(1), ())]
    for p in factors:
        product = []
        for c1, w1 in terms:
            for c2, w2 in poly_to_words(p):
                sign, word = word_mult(degrees, w1, w2)
                if sign:
                    product.append((sign * c1 * c2, word))
        terms = product
    return GradedPolynomial(gens, tuple((c, tuple(w.count(i) for i in range(len(gens)))) for c, w in terms))


class TestGradedPolynomial:
    """The Koszul sign rule of ``_monomial_mul``, the product that builds
    every ideal row, and the constructor's checks."""

    def test_koszul_sign_on_odd_swap(self):
        assert algebra._monomial_mul((1, 1), (1, 0), (0, 1)) == (1, (1, 1))
        assert algebra._monomial_mul((1, 1), (0, 1), (1, 0)) == (-1, (1, 1))

    def test_odd_square_vanishes_in_products(self):
        assert algebra._monomial_mul((1,), (1,), (1,)) is None

    def test_odd_exponent_two_rejected(self):
        gens = (("x", 1),)
        with pytest.raises(ValueError):
            mono(gens, 1, 2)

    def test_even_generators_central(self):
        assert algebra._monomial_mul((2, 1), (1, 0), (0, 1)) == (1, (1, 1))
        assert algebra._monomial_mul((2, 1), (0, 1), (1, 0)) == (1, (1, 1))

    def test_mixed_degrees_rejected(self):
        gens = (("w", 2), ("x", 1))
        with pytest.raises(ValueError):
            GradedPolynomial(gens, ((Fraction(1), (1, 0)), (Fraction(1), (0, 1))))


class TestEvaluatePolynomial:
    def test_square_of_hyperbolic_class(self):
        gens = (("w", 2),)
        p = mono(gens, 1, 2)
        w = Multivector.blade(4, (1, 2)) + Multivector.blade(4, (3, 4))
        out = evaluate_polynomial(p, {"w": w}, 4)
        assert out == Multivector.blade(4, (1, 2, 3, 4), 2)

    def test_identity_substitution(self):
        gens = (("w", 1),)
        p = mono(gens, 1, 1)
        assert evaluate_polynomial(p, {"w": Multivector.blade(2, (1,))}, 2) == Multivector.blade(
            2, (1,)
        )

    def test_repeated_one_form_kills(self):
        gens = (("x", 1), ("y", 1))
        p = mono(gens, 1, 1, 1)
        e1 = Multivector.blade(2, (1,))
        assert evaluate_polynomial(p, {"x": e1, "y": e1}, 2).is_zero

    def test_missing_generator(self):
        gens = (("x", 1),)
        with pytest.raises(ValueError):
            evaluate_polynomial(mono(gens, 1, 1), {}, 2)

    def test_degree_mismatch(self):
        gens = (("w", 2),)
        with pytest.raises(ValueError):
            evaluate_polynomial(mono(gens, 1, 1), {"w": Multivector.blade(3, (1,))}, 3)


class TestBasisAndDims:
    @pytest.mark.parametrize(
        "presentation,want",
        [
            (P.sphere(2), (1, 0, 1)),
            (P.torus(2), (1, 2, 1)),
            (P.complex_projective(2), (1, 0, 1, 0, 1)),
            (P.genus_surface(2), (1, 4, 1)),
            (P.sum_s2xs2(3), (1, 0, 6, 0, 1)),
        ],
    )
    def test_known_ranks(self, presentation, want):
        assert basis_and_dims(presentation).ranks == want

    @pytest.mark.parametrize(
        "presentation",
        [
            P.sphere(2),
            P.sphere(3),
            P.torus(2),
            P.torus(3),
            P.complex_projective(2),
            P.genus_surface(2),
            P.sum_cp2(2, 1),
            P.heisenberg_nilmanifold(),
            P.filiform4_nilmanifold(),
            P.t3_skeleton_boundary(),
        ],
    )
    def test_agrees_with_word_model_oracle(self, presentation):
        assert basis_and_dims(presentation).ranks == oracle_quotient_ranks(presentation)

    def test_random_small_presentations_match_oracle(self):
        for pres in random_small_presentations():
            assert basis_and_dims(pres).ranks == oracle_quotient_ranks(pres)

    def test_degenerate_presentation(self):
        gens = (("w", 2),)
        bad = AlgebraPresentation(
            gens, (mono(gens, 1, 1),), 2, mono(gens, 1, 1)
        )
        with pytest.raises(DegeneratePresentation):
            basis_and_dims(bad)

    def test_truncation_warning(self):
        # nothing kills x w or w^2 above degree 2; truncation must step in
        gens = (("x", 1), ("w", 2))
        pres = AlgebraPresentation(gens, (), 2, mono(gens, 1, 0, 1))
        with pytest.warns(UserWarning, match="truncation"):
            basis_and_dims(pres)


class TestEulerCharacteristic:
    def test_values(self):
        assert euler_characteristic(P.torus(2)) == 0
        assert euler_characteristic(P.genus_surface(2)) == -2
        assert euler_characteristic(P.complex_projective(2)) == 3


class TestPoincareDuality:
    def test_torus_holds(self):
        assert check_poincare_duality(P.torus(2)).holds

    def test_designed_failure_at_degree_one(self):
        # x pairs with nothing: the degree-1 class is orthogonal to everything
        gens = (("x", 1), ("v", 2))
        pres = AlgebraPresentation(
            gens, (mono(gens, 1, 1, 1), mono(gens, 1, 0, 2)), 2, mono(gens, 1, 0, 1)
        )
        report = check_poincare_duality(pres)
        assert not report.holds
        assert report.failing_degree == 1

    def test_connected_sum_holds(self):
        assert check_poincare_duality(P.sum_s2xs2(3)).holds


def e4(*indices) -> Multivector:
    return Multivector.blade(4, indices) if indices else Multivector.scalar(4, 1)


class TestConcretePoincareDuality:
    def test_mismatched_complementary_dimensions(self):
        # closure of e1, e2, e123 in Lambda(Q^3): dims (1, 2, 1, 1)
        gens = [Multivector.blade(3, b) for b in ((1,), (2,), (1, 2, 3))]
        A = ConcreteSubalgebra.from_generators(3, gens)
        assert A.dims() == (1, 2, 1, 1)
        report = A.check_poincare_duality()
        assert (report.holds, report.failing_degree) == (False, 1)
        assert report.detail == "rank 2 in degree 1 vs 1 in degree 2"

    def test_degenerate_pairing(self):
        # dims (1, 2, 2, 2, 1) match, but e12 and e13 wedge to zero with both
        layers = [[e4()], [e4(1), e4(2)], [e4(1, 2), e4(1, 3)], [e4(2, 3, 4), e4(1, 3, 4)]]
        layers.append([e4(1, 2, 3, 4)])
        report = ConcreteSubalgebra(4, layers).check_poincare_duality()
        assert (report.holds, report.failing_degree) == (False, 2)
        assert report.detail == "degenerate pairing in degree 2"

    def test_holds(self):
        layers = [[e4()], [e4(1), e4(2)], [e4(1, 2), e4(3, 4)], [e4(2, 3, 4), e4(1, 3, 4)]]
        layers.append([e4(1, 2, 3, 4)])
        assert ConcreteSubalgebra(4, layers).check_poincare_duality().holds


class TestCupSquareForm:
    def test_t4_middle_form(self):
        gram, reps = cup_square_form(P.torus(4), 2)
        assert len(reps) == 6
        flat = [x for row in gram for x in row]
        assert sorted(set(map(abs, flat))) == [0, 1]

    def test_fundamental_class_fixes_signs_in_middle_degree(self):
        # an all-negative 4-manifold form must come out (0, k), not (k, 0)
        from wrapcheck.quadform import QuadraticForm, signature

        gram, _ = cup_square_form(P.sum_cp2(0, 2), 2)
        form = QuadraticForm(tuple(tuple(row) for row in gram))
        assert signature(form) == (0, 2)
        gram, _ = cup_square_form(P.sum_cp2(2, 0), 2)
        assert signature(QuadraticForm(tuple(tuple(row) for row in gram))) == (2, 0)

    def test_disc_minus_two_surface(self):
        # the basis normalization fixes the Gram only up to a global
        # rational scale, which preserves invariants in even rank
        from wrapcheck.quadform import QuadraticForm, discriminant, signature

        gram, _ = cup_square_form(P.nine_manifold_disc2(), 2)
        form = QuadraticForm(tuple(tuple(row) for row in gram))
        assert discriminant(form) == -2
        assert signature(form) == (3, 3)


class TestQuotientByDegree1:
    def test_full_exterior_three(self):
        A = ConcreteSubalgebra.from_generators(
            3, [Multivector.blade(3, (i,)) for i in (1, 2, 3)]
        )
        rep = quotient_by_degree1(A, Multivector.blade(3, (1,)))
        assert rep.dim_quotient == 4 and rep.dim_ideal == 4
        assert rep.pd_holds

    def test_smallest_case(self):
        A = ConcreteSubalgebra.from_generators(1, [Multivector.blade(1, (1,))])
        rep = quotient_by_degree1(A, Multivector.blade(1, (1,)))
        assert rep.dim_quotient == 1 and rep.dim_ideal == 1

    def test_plane_inside_bigger_ambient(self):
        A = ConcreteSubalgebra.from_generators(
            4, [Multivector.blade(4, (1,)), Multivector.blade(4, (2,))]
        )
        rep = quotient_by_degree1(A, Multivector.blade(4, (1,)))
        assert rep.dim_quotient == 2 and rep.dim_ideal == 2
        assert rep.pd_holds

    def test_zero_element_rejected(self):
        A = ConcreteSubalgebra.from_generators(2, [Multivector.blade(2, (1,))])
        with pytest.raises(ValueError):
            quotient_by_degree1(A, Multivector.zero(2))

    def test_non_pd_rejected(self):
        # span{1, e1, e12, e13}: top degree 2 has dimension 2
        layers = [
            [Multivector.scalar(3, 1)],
            [Multivector.blade(3, (1,))],
            [Multivector.blade(3, (1, 2)), Multivector.blade(3, (1, 3))],
            [],
        ]
        A = ConcreteSubalgebra(3, layers)
        with pytest.raises(ValueError, match="Poincare"):
            quotient_by_degree1(A, Multivector.blade(3, (1,)))

    def test_randomized_quotient_law(self):
        rng = random.Random(20240517)
        for _ in range(30):
            n = rng.randint(1, 5)
            A, x = random_pd_subalgebra(rng, n)
            rep = quotient_by_degree1(A, x)
            assert rep.dim_quotient == rep.dim_ideal
            assert rep.pd_holds

    def test_euler_characteristic_vanishes_with_degree_one(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(1, 5)
            A, _ = random_pd_subalgebra(rng, n)
            dims = A.dims()
            assert sum((-1) ** k * d for k, d in enumerate(dims)) == 0


def reference_ideal(presentation, max_degree):
    """Monomials and ideal span per degree 0..max_degree, rows built as
    products in the sorted-word model (the row builder the exponent-tuple
    rows must reproduce)."""
    gens = presentation.generators
    out = []
    for k in range(max_degree + 1):
        monos = algebra._monomials_of_degree(gens, k)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for rel in presentation.relations:
            b = rel.degree()
            if b > k:
                continue
            for m in algebra._monomials_of_degree(gens, k - b):
                prod = word_product(gens, (mono(gens, 1, *m), rel))
                if not prod.is_zero:
                    rows.append({index[e]: c for c, e in prod.monomials})
        out.append((monos, linalg.SparseSubspace(len(monos), rows)))
    return out


def reference_products(presentation):
    """Duality report, degree-2 cup form and degree-one product ranks,
    from sorted-word products reduced through reference_ideal's
    spans (the round trip the monomial-coordinate reader must reproduce).

    Returns ((holds, failing_degree), (gram, reps) or None when degree 4
    does not have rank one, {j: rank of the degree-j products of distinct
    degree-one classes}).
    """
    gens, n = presentation.generators, presentation.n
    ref = reference_ideal(presentation, n)

    def reps(k):
        if k > n:
            return []
        monos, span = ref[k]
        return [m for i, m in enumerate(monos) if i not in span.pivot_rows]

    def coords(p):
        monos, span = ref[p.degree()]
        return span.coords_modulo({monos.index(e): c for c, e in p.monomials})

    def product(combo):
        return word_product(gens, [mono(gens, 1, *m) for m in combo])

    def gram(left, right, unit):
        prods = [[product((a, b)) for b in right] for a in left]
        return [[Fraction(0) if p.is_zero else coords(p)[0] / unit for p in row] for row in prods]

    duality = (False, n)
    if len(reps(n)) == 1:
        fc = coords(presentation.fundamental_class)[0]
        duality = (True, None)
        for k in range(n // 2 + 1):
            left, right = reps(k), reps(n - k)
            if len(left) != len(right) or (
                left and linalg.rank(gram(left, right, fc)) != len(left)
            ):
                duality = (False, k)
                break
    cup = None
    if len(reps(4)) == 1:
        unit = coords(presentation.fundamental_class)[0] if n == 4 else Fraction(1)
        cup = (gram(reps(2), reps(2), unit), reps(2))
    ones = reps(1)
    ranks = {}
    if len(ones) <= n:
        for j in range(2, len(ones) + 1):
            prods = [product(c) for c in itertools.combinations(ones, j)]
            ranks[j] = linalg.rank([coords(p) for p in prods if not p.is_zero])
    return duality, cup, ranks


def _unforced():
    # nothing kills x w or w^2 above degree 2: excess degrees 3 and 4
    gens = (("x", 1), ("w", 2))
    return AlgebraPresentation(gens, (), 2, mono(gens, 1, 0, 1))


def _scaled_square(coeff):
    # x^2 = 0 scaled by a coefficient with no unit image mod the certificate's
    # prime: degree 4 is full over Q, but the mod-p rank cannot show it
    gens = (("x", 2),)
    return AlgebraPresentation(gens, (mono(gens, coeff, 2),), 2, mono(gens, 1, 1))


class TestIdealRows:
    """Exponent-tuple ideal rows against the sorted-word products."""

    PATHS = {p.name.removesuffix(".descriptor"): p for p in corpus_paths()}
    # presentations whose probe cannot be settled mod p and must reach the
    # exact elimination: no relations at all, a row that vanishes mod p, and
    # a denominator that p divides
    FALLBACK = {
        "unforced": _unforced,
        "p_coefficient": lambda: _scaled_square(algebra._PRIME),
        "inverse_p_coefficient": lambda: _scaled_square(Fraction(1, algebra._PRIME)),
    }

    @pytest.mark.parametrize("name", [*PATHS, *FALLBACK])
    def test_basis_and_probe_match_reference(self, name, monkeypatch):
        A = self.FALLBACK[name]() if name in self.FALLBACK else parse_descriptor_file(self.PATHS[name]).cohomology
        top = A.n + max(d for _, d in A.generators)
        ref = reference_ideal(A, top)
        gb = GradedBasis(A)
        for k in range(A.n + 1):
            monos, span = ref[k]
            pivots = set(span.pivots)
            assert gb.monomials(k) == monos
            assert gb.rank(k) == span.codim
            assert gb.representatives(k) == [m for i, m in enumerate(monos) if i not in pivots]
            assert gb._ideal[k].pivots == span.pivots
            rows = gb._ideal[k].rows
            assert rows == span.rows
            assert all(type(c) is Fraction for row in rows for c in row)
        want = [k for k in range(A.n + 1, top + 1) if ref[k][1].codim > 0]
        fallbacks = []
        exact = algebra._ideal_span

        def counted(presentation, monomials, k):
            if k > presentation.n:
                fallbacks.append(k)
            return exact(presentation, monomials, k)

        monkeypatch.setattr(algebra, "_ideal_span", counted)
        assert algebra._excess_degrees(gb) == want
        assert want == ([3, 4] if name == "unforced" else [])
        assert (len(fallbacks) > 0) == (name in self.FALLBACK)
        # a fresh build, past the cache, so that the warning fires again
        with pytest.warns(UserWarning, match="truncation") if want else contextlib.nullcontext():
            stored = basis_and_dims.__wrapped__(A)
        assert stored.excess_degrees == want


def leaf_monomials(gens, k):
    """The enumeration _monomials_of_degree replaced: every exponent of
    every generator looped over, the remaining degree checked at the leaf."""
    out = []

    def rec(i, remaining, acc):
        if i == len(gens):
            if remaining == 0:
                out.append(tuple(acc))
            return
        _, d = gens[i]
        top = 1 if d % 2 == 1 else remaining // d
        for x in range(min(top, remaining // d) + 1):
            acc.append(x)
            rec(i + 1, remaining - d * x, acc)
            acc.pop()

    rec(0, k, [])
    return sorted(out)


def _probe_cases(A):
    """(monomials of degree 0..k, k) for each probe degree k of A."""
    gb = basis_and_dims(A)
    monomials = [gb.monomials(j) for j in range(A.n + 1)]
    for k in range(A.n + 1, A.n + max(d for _, d in A.generators) + 1):
        monomials.append(algebra._monomials_of_degree(A.generators, k))
        yield monomials, k


class TestTruncationProbe:
    """The covered-column certificate and the monomial enumeration."""

    PATHS = {p.name.removesuffix(".descriptor"): p for p in corpus_paths()}

    @pytest.mark.parametrize("name", [*PATHS, "random"])
    def test_fills_mod_p_iff_exact_codim_zero(self, name):
        if name == "random":
            rings = list(random_small_presentations())
        else:
            rings = [parse_descriptor_file(self.PATHS[name]).cohomology]
        for A in rings:
            for monomials, k in _probe_cases(A):
                fills = algebra._fills_mod_p(
                    lambda: algebra._ideal_rows(A, monomials, k), len(monomials[k])
                )
                assert fills == (algebra._ideal_span(A, monomials, k).codim == 0), (A, k)

    @pytest.mark.parametrize(
        "coeff", [Fraction(algebra._PRIME), Fraction(1, algebra._PRIME)], ids=["p", "1/p"]
    )
    def test_non_unit_one_entry_row_spans_nothing(self, coeff):
        one = Fraction(1)
        assert not algebra._fills_mod_p(lambda: iter([{0: coeff}]), 1)
        assert not algebra._fills_mod_p(lambda: iter([{0: coeff}, {1: one}]), 2)
        # other rows settle column 0 before the non-unit row is reached
        rows = [{0: one, 1: one}, {1: Fraction(3)}, {0: coeff}]
        assert algebra._fills_mod_p(lambda: iter(rows), 2)

    def test_covered_columns_leave_the_rank(self):
        one = Fraction(1)
        # column 1 is covered by the last row; the first then pivots on column 0
        assert algebra._fills_mod_p(lambda: iter([{0: one, 1: one}, {1: Fraction(-2)}]), 2)
        assert not algebra._fills_mod_p(
            lambda: iter([{0: one, 1: one}, {0: Fraction(2), 1: Fraction(2)}]), 2
        )
        assert algebra._fills_mod_p(lambda: iter([]), 0)

    def test_rows_are_streamed_not_stored(self):
        calls = []

        def rows():
            calls.append(1)
            return iter([{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}])

        assert algebra._fills_mod_p(rows, 2)
        assert len(calls) == 2

    def test_monomials_match_leaf_enumeration(self):
        rng = random.Random(4242)
        tables = [(), (("x", 1),), (("w", 2),), (("x", 1), ("y", 1), ("w", 2), ("t", 5))]
        tables += [
            tuple((f"g{i}", rng.randint(1, 5)) for i in range(rng.randint(1, 6)))
            for _ in range(60)
        ]
        assert sum(any(d % 2 for _, d in gens) for gens in tables) > 40
        for gens in tables:
            for k in (-3, -1, 0, 1, 2, rng.randint(3, 16)):
                assert algebra._monomials_of_degree(gens, k) == leaf_monomials(gens, k), (gens, k)


class TestProductsMatchReference:
    """Pairings, cup forms and degree-one ranks against reference_products."""

    PATHS = {p.name.removesuffix(".descriptor"): p for p in corpus_paths()}

    @pytest.mark.parametrize("name", [*PATHS, "random"])
    def test_matches_polynomial_round_trip(self, name):
        if name == "random":
            rings = [A for A in random_small_presentations() if basis_and_dims(A).rank(A.n) == 1]
            assert len(rings) == 7
        else:
            rings = [parse_descriptor_file(self.PATHS[name]).cohomology]
        for A in rings:
            duality, cup, ranks = reference_products(A)
            pd = check_poincare_duality(A)
            assert (pd.holds, pd.failing_degree) == duality
            if cup is None:
                with pytest.raises(ValueError):
                    cup_square_form(A, 2)
            else:
                gram, reps = cup_square_form(A, 2)
                assert (gram, reps) == cup
                assert all(type(c) is Fraction for row in gram for c in row)
            res = torus_subalgebra_check(A)
            b1 = basis_and_dims(A).rank(1)
            drop = next(
                ((j, r, math.comb(b1, j)) for j, r in ranks.items() if r < math.comb(b1, j)),
                None,
            )
            reasons = [res.witness["reason"], *res.witness.get("also", [])] if res.failed else []
            assert ("not-free-exterior" in reasons) == (drop is not None)
            if reasons and reasons[0] == "not-free-exterior":
                w = res.witness
                assert (w["degree"], w["rank"], w["expected"]) == drop
