import random
import warnings
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
from wrapcheck.exterior import Multivector

import presentations as P
from corpusgen import random_pd_subalgebra
from oracles import oracle_quotient_ranks


def mono(gens, coeff, *exps):
    return GradedPolynomial.monomial(gens, coeff, exps)


class TestGradedPolynomial:
    def test_koszul_sign_on_odd_swap(self):
        gens = (("x", 1), ("y", 1))
        x = mono(gens, 1, 1, 0)
        y = mono(gens, 1, 0, 1)
        assert x * y == -(y * x)

    def test_odd_square_vanishes_in_products(self):
        gens = (("x", 1),)
        x = mono(gens, 1, 1)
        assert (x * x).is_zero

    def test_odd_exponent_two_rejected(self):
        gens = (("x", 1),)
        with pytest.raises(ValueError):
            mono(gens, 1, 2)

    def test_even_generators_central(self):
        gens = (("w", 2), ("x", 1))
        w = mono(gens, 1, 1, 0)
        x = mono(gens, 1, 0, 1)
        assert w * x == x * w

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
        rng = random.Random(808)
        produced = 0
        while produced < 20:
            ngens = rng.randint(1, 4)
            n = rng.randint(2, 6)
            gens = tuple((f"g{i}", rng.randint(1, min(3, n))) for i in range(ngens))
            from wrapcheck.algebra import _monomials_of_degree

            relations = []
            for _ in range(rng.randint(0, 3)):
                deg = rng.randint(2, n)
                monos = _monomials_of_degree(gens, deg)
                if not monos:
                    continue
                terms = tuple(
                    (Fraction(rng.randint(-2, 2)), rng.choice(monos))
                    for _ in range(rng.randint(1, 2))
                )
                poly = GradedPolynomial(gens, terms)
                if not poly.is_zero:
                    relations.append(poly)
            fc_monos = _monomials_of_degree(gens, n)
            if not fc_monos:
                continue
            fc = GradedPolynomial.monomial(gens, 1, rng.choice(fc_monos))
            pres = AlgebraPresentation(gens, tuple(relations), n, fc)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    ranks = basis_and_dims(pres).ranks
                except DegeneratePresentation:
                    continue
            assert ranks == oracle_quotient_ranks(pres)
            produced += 1

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
        pres = AlgebraPresentation(gens, (), 2, GradedPolynomial.monomial(gens, 1, (0, 1)))
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
    products of GradedPolynomials (the row builder the exponent-tuple
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
                prod = GradedPolynomial.monomial(gens, 1, m) * rel
                if not prod.is_zero:
                    rows.append({index[e]: c for c, e in prod.monomials})
        out.append((monos, linalg.SparseSubspace(len(monos), rows)))
    return out


def _unforced():
    # nothing kills x w or w^2 above degree 2: excess degrees 3 and 4
    gens = (("x", 1), ("w", 2))
    return AlgebraPresentation(gens, (), 2, GradedPolynomial.monomial(gens, 1, (0, 1)))


class TestIdealRows:
    """Exponent-tuple ideal rows against the GradedPolynomial products."""

    PATHS = {p.name.removesuffix(".descriptor"): p for p in corpus_paths()}

    @pytest.mark.parametrize("name", [*PATHS, "unforced"])
    def test_basis_and_probe_match_reference(self, name):
        A = _unforced() if name == "unforced" else parse_descriptor_file(self.PATHS[name]).cohomology
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
        assert algebra._excess_degrees(gb) == want
        assert want == ([3, 4] if name == "unforced" else [])
