import dataclasses
import itertools
import math
import random
import tracemalloc
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
from corpusgen import random_pd_generators, random_pd_subalgebra
from oracles import (
    all_pairs_closure,
    oracle_quotient_ranks,
    pairwise_cup_form,
    pairwise_poincare_duality,
    poly_to_words,
    rank,
    word_mult,
)


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

    @pytest.mark.parametrize("k", [-2, -1, 3, 4])
    def test_degrees_outside_0_to_n_are_empty(self, k):
        # a negative degree once read the per-degree lists from their end
        gb = basis_and_dims(P.torus(2))
        assert gb.rank(k) == 0
        assert gb.representatives(k) == [] and gb.monomials(k) == []
        assert gb.coords(k, ((Fraction(1), (1, 1)),)) == {}

    def test_truncation_warning(self):
        # nothing kills x w or w^2 above degree 2; truncation must step in,
        # and the basis records it for the caller to report
        gens = (("x", 1), ("w", 2))
        pres = AlgebraPresentation(gens, (), 2, mono(gens, 1, 0, 1))
        assert basis_and_dims(pres).excess_degrees == [3, 4]


class TestPresentationHash:
    """A presentation hashes its fields once; equality stays field equality."""

    def test_equal_presentations_share_one_cache_entry(self):
        A, B = P.sum_cp2(2, 1), P.sum_cp2(2, 1)
        assert A is not B and A == B and hash(A) == hash(B)
        assert basis_and_dims(A) is basis_and_dims(B)
        # d1^2 = c1^2 in place of d1^2 = -c1^2: #3 CP^2 on the same generators
        flipped = GradedPolynomial(A.generators, ((1, (0, 0, 2)), (-1, (2, 0, 0))))
        C = dataclasses.replace(A, relations=A.relations[:-1] + (flipped,))
        assert C != A and basis_and_dims(C) is not basis_and_dims(A)
        assert basis_and_dims(C).ranks == oracle_quotient_ranks(C)

    def test_lookups_do_not_rehash_the_fields(self, monkeypatch):
        A = P.sum_cp2(2, 1)
        calls = []
        field_hash = GradedPolynomial.__hash__

        def counting(self):
            calls.append(self)
            return field_hash(self)

        monkeypatch.setattr(GradedPolynomial, "__hash__", counting)
        for _ in range(3):
            basis_and_dims(A)
            hash(A)
        assert calls == []


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

    def test_odd_pairing_is_antisymmetric(self):
        # ab = bc = ca spans degree 2, so the degree-1 pairing is an
        # antisymmetric form on three classes: degenerate.  Read without
        # the Koszul signs it would be symmetric, with determinant -2.
        gens = (("a", 1), ("b", 1), ("c", 1))
        rels = (
            GradedPolynomial(gens, ((1, (1, 1, 0)), (-1, (0, 1, 1)))),
            GradedPolynomial(gens, ((1, (0, 1, 1)), (1, (1, 0, 1)))),
            mono(gens, 1, 1, 1, 1),
        )
        pres = AlgebraPresentation(gens, rels, 2, mono(gens, 1, 1, 1, 0))
        report = check_poincare_duality(pres)
        assert (report.holds, report.failing_degree) == (False, 1)
        assert report == pairwise_poincare_duality(pres)


class TestTopFunctionalGram:
    """Gram rows read off the functional of a rank-one degree against the
    oracle that reduces one product per entry, and the larger rings'
    closed forms."""

    @staticmethod
    def rings():
        rings = [parse_descriptor_file(p).cohomology for p in corpus_paths()]
        rings += [A for A, _ in P.closed_form_rings().values()]
        rings += random_small_presentations(20, seed=5)
        assert len(rings) == 49
        return rings

    def test_reports_match_the_pairwise_oracle(self):
        rings = self.rings()
        reports = [check_poincare_duality(A) for A in rings]
        assert reports == [pairwise_poincare_duality(A) for A in rings]
        # the top-rank, the rank-mismatch and the degenerate-pairing exits
        exits = {r.detail.split()[0] for r in reports if not r.holds}
        assert exits == {"top", "rank", "degenerate"}

    def test_cup_forms_match_the_pairwise_oracle(self):
        def typed(gram):
            return [[(v, type(v)) for v in row] for row in gram]

        forms = {"middle": 0, "below": 0}
        for A in self.rings():
            gb = basis_and_dims(A)
            for k in range(A.n // 2 + 1):
                if gb.rank(2 * k) == 1:
                    gram, reps = cup_square_form(A, k)
                    want, want_reps = pairwise_cup_form(A, k)
                    assert (typed(gram), reps) == (typed(want), want_reps), (A, k)
                    forms["middle" if 2 * k == A.n else "below"] += 1
        assert forms == {"middle": 30, "below": 70}, forms

    @pytest.mark.parametrize("name", sorted(P.closed_form_rings()))
    def test_closed_forms(self, name):
        A, betti = P.closed_form_rings()[name]
        assert basis_and_dims(A).ranks == betti
        assert check_poincare_duality(A).holds
        # degree one generates a free exterior algebra on b1 classes, which
        # fails the check only when b1 exceeds the dimension (the surface)
        res = torus_subalgebra_check(A)
        assert res.witness["b1"] == betti[1]
        assert res.failed == (betti[1] > A.n)


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


class TestFromGenerators:
    """The one-worklist closure against the all-pairs rounds."""

    @staticmethod
    def assert_same_closure(n, gens):
        got, want = ConcreteSubalgebra.from_generators(n, gens), all_pairs_closure(n, gens)
        assert got.dims() == want.dims()
        for k in range(n + 1):
            assert got.basis(k) == want.basis(k)

    def test_random_pd_subalgebras(self):
        rng = random.Random(20240517)
        for _ in range(30):
            n = rng.randint(1, 5)
            gens, _ = random_pd_generators(rng, n)
            self.assert_same_closure(n, gens)

    def test_random_generators(self):
        # homogeneous elements of random degrees, a zero one among them
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 5)
            gens = [Multivector.zero(n)]
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(1, n)
                coords = [Fraction(rng.randint(-2, 2)) for _ in range(math.comb(n, k))]
                gens.append(Multivector.from_coords(n, k, coords))
            self.assert_same_closure(n, gens)

    def test_even_square(self):
        # e12 + e34 squares to 2 e1234: an element wedged with itself
        omega = e4(1, 2) + e4(3, 4)
        A = ConcreteSubalgebra.from_generators(4, [omega])
        assert A.dims() == (1, 0, 1, 0, 1)
        self.assert_same_closure(4, [omega])

    def test_inhomogeneous_generator_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            ConcreteSubalgebra.from_generators(4, [e4(1) + e4(1, 2)])


class TestContains:
    """Membership degree by degree, for mixed-degree elements too."""

    def test_mixed_degrees(self):
        one = Multivector.scalar(2, 1)
        e1, e2 = Multivector.blade(2, (1,)), Multivector.blade(2, (2,))
        A = ConcreteSubalgebra.from_generators(2, [e1])
        assert A.contains(one + e1)
        assert not A.contains(one + e2)

    def test_zero_and_homogeneous(self):
        A = ConcreteSubalgebra.from_generators(4, [e4(1), e4(2)])
        assert A.contains(Multivector.zero(4))
        assert A.contains(e4(1, 2)) and not A.contains(e4(3))


class TestExactMemory:
    def test_torus_duality_and_degree_one_stay_sparse(self):
        # a dense Gram matrix or dense quotient coordinates on T^10 peak
        # near 6 MB; the sparse rows stay far below 1 MB
        A = P.torus(10)
        basis_and_dims(A)  # the graded basis is cached, and not traced here
        tracemalloc.start()
        try:
            assert check_poincare_duality(A).holds
            assert not torus_subalgebra_check(A).failed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"


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

    def value(p):
        # the one quotient coordinate of p in a rank-one degree
        return next(iter(coords(p).values()), Fraction(0))

    def product(combo):
        return word_product(gens, [mono(gens, 1, *m) for m in combo])

    def gram(left, right, unit):
        prods = [[product((a, b)) for b in right] for a in left]
        return [[Fraction(0) if p.is_zero else value(p) / unit for p in row] for row in prods]

    duality = (False, n)
    if len(reps(n)) == 1:
        fc = value(presentation.fundamental_class)
        duality = (True, None)
        for k in range(n // 2 + 1):
            left, right = reps(k), reps(n - k)
            if len(left) != len(right) or (
                left and rank(gram(left, right, fc)) != len(left)
            ):
                duality = (False, k)
                break
    cup = None
    if len(reps(4)) == 1:
        unit = value(presentation.fundamental_class) if n == 4 else Fraction(1)
        cup = (gram(reps(2), reps(2), unit), reps(2))
    ones = reps(1)
    ranks = {}
    if len(ones) <= n:
        for j in range(2, len(ones) + 1):
            prods = [product(c) for c in itertools.combinations(ones, j)]
            ranks[j] = rank([coords(p) for p in prods if not p.is_zero])
    return duality, cup, ranks


def _unforced():
    # nothing kills x w or w^2 above degree 2: excess degrees 3 and 4
    gens = (("x", 1), ("w", 2))
    return AlgebraPresentation(gens, (), 2, mono(gens, 1, 0, 1))


def _square_pair(coeff):
    # x y, x^2 + y^2 and x^2 + coeff y^2 fill degree 4 over Q when coeff != 1,
    # but x^2 is no lone relation term and x survives in degree 2, so the
    # product certificate cannot settle degree 4
    gens = (("x", 2), ("y", 2))
    rels = (
        mono(gens, 1, 1, 1),
        GradedPolynomial(gens, ((1, (2, 0)), (1, (0, 2)))),
        GradedPolynomial(gens, ((1, (2, 0)), (coeff, (0, 2)))),
    )
    return AlgebraPresentation(gens, rels, 2, mono(gens, 1, 1, 0))


class TestIdealRows:
    """Exponent-tuple ideal rows against the sorted-word products."""

    PATHS = {p.name.removesuffix(".descriptor"): p for p in corpus_paths()}
    # presentations whose probe degrees the product certificate cannot all
    # settle: no relations at all, and a degree-4 ideal that the relations
    # fill with no lone relation term
    FALLBACK = {
        "unforced": _unforced,
        "square_pair": lambda: _square_pair(Fraction(-1)),
    }
    # the route that settles each probe degree, in order; the certificate
    # settles every other corpus degree.  In the sums of CP^2's, c1^3 is
    # zero only through c1 c2 = 0 and c2^2 = +-c1^2, which no single
    # product shows
    ROUTES = {
        **dict.fromkeys(["cp2_1_1", "cp2_3_3", "cp2_4_0"], ["certificate", "exact"]),
        "unforced": ["exact", "exact"],
        "square_pair": ["certificate", "exact"],
    }

    def test_every_route_has_a_fixture(self):
        assert set(itertools.chain(*self.ROUTES.values())) == {"certificate", "exact"}

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
        routes = []
        certificate, exact = algebra._products_vanish, algebra._ideal_span

        def by_certificate(gb, k):
            settled = certificate(gb, k)
            routes.extend(["certificate"] * settled)
            return settled

        def by_exact(presentation, monomials, k):
            if k > presentation.n:
                routes.append("exact")
            return exact(presentation, monomials, k)

        monkeypatch.setattr(algebra, "_products_vanish", by_certificate)
        monkeypatch.setattr(algebra, "_ideal_span", by_exact)
        assert algebra._excess_degrees(gb) == want
        assert want == ([3, 4] if name == "unforced" else [])
        assert routes == self.ROUTES.get(name, ["certificate"] * (top - A.n))
        # the exact fallback: only rings the certificate leaves open
        assert (routes.count("exact") > 0) == (name in self.ROUTES)
        assert basis_and_dims(A).excess_degrees == want

    FAMILIES = {
        "random-5": lambda: random_small_presentations(200, seed=5),
        "random-808": lambda: random_small_presentations(200, seed=808),
        "torus": lambda: map(P.torus, range(1, 9)),
        "cp": lambda: map(P.complex_projective, range(1, 6)),
        "genus": lambda: map(P.genus_surface, range(1, 5)),
        "sum_s2xs2": lambda: map(P.sum_s2xs2, range(1, 6)),
        # the one family whose non-excess degrees the certificate cannot settle
        "sum_cp2": lambda: (P.sum_cp2(s, t) for s in range(7) for t in range(7 - s)),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_probe_matches_reference_on_families(self, family):
        with_excess = 0
        for A in self.FAMILIES[family]():
            top = A.n + max(d for _, d in A.generators)
            ref = reference_ideal(A, top)
            want = [k for k in range(A.n + 1, top + 1) if ref[k][1].codim > 0]
            assert algebra._excess_degrees(GradedBasis(A)) == want, A
            with_excess += bool(want)
        # the random presentations mostly leave degrees above n to truncation,
        # and so does a lone CP^2 or CP^2-bar: sum_cp2 gives it no cube relation
        if family.startswith("random"):
            assert with_excess > 0
        else:
            assert with_excess == (2 if family == "sum_cp2" else 0)


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
    """The product certificate degree by degree, and the monomial enumeration."""

    PATHS = {p.name.removesuffix(".descriptor"): p for p in corpus_paths()}

    @pytest.mark.parametrize("name", [*PATHS, "random"])
    def test_certificate_implies_exact_codim_zero(self, name):
        if name == "random":
            rings = list(random_small_presentations())
        else:
            rings = [parse_descriptor_file(self.PATHS[name]).cohomology]
        settled = 0
        for A in rings:
            gb = basis_and_dims(A)
            # the certificate's premise: every probe degree below k is zero
            below_zero = True
            for monomials, k in _probe_cases(A):
                zero = algebra._ideal_span(A, monomials, k).codim == 0
                if below_zero and algebra._products_vanish(gb, k):
                    assert zero, (A, k)
                    settled += 1
                below_zero = below_zero and zero
        # the certificate settles some degree of every ring set tried
        assert settled > 0

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
