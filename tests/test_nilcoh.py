import dataclasses
import math
import random
from fractions import Fraction

import pytest
import sympy

from wrapcheck import linalg, nilcoh
from wrapcheck.exterior import blade_masks
from wrapcheck.nilcoh import (
    NilLieAlgebra,
    NotNilpotent,
    bass_growth_degree,
    ce_differential,
    jacobi_check,
    lie_cohomology_dims,
    lower_central_series,
    nomizu_kernel,
    pi1_verdict,
)

import oracles
import presentations as P
from corpusgen import nilpotent_corpus

H3 = NilLieAlgebra(3, {(1, 2): {3: 1}})
FILIFORM4 = NilLieAlgebra(4, {(1, 2): {3: 1}, (1, 3): {4: 1}})


def filiform(dim):
    """The model filiform algebra: [X_1, X_k] = X_{k+1} for 2 <= k < dim."""
    return NilLieAlgebra(dim, {(1, k): {k + 1: 1} for k in range(2, dim)})


def dense_differentials(cx):
    """The matrices of d on blade coordinates, read off the complex's
    sparse images: row i of matrix k is degree-(k+1) blade i, column j is
    degree-k blade j."""
    out = []
    for k in range(cx.dim + 1):
        cols = [cx.image(mask) for mask in blade_masks(cx.dim, k)]
        rows = blade_masks(cx.dim, k + 1)
        out.append(tuple(tuple(col.get(r, Fraction(0)) for col in cols) for r in rows))
    return tuple(out)


def sparse(row):
    return {i: Fraction(x) for i, x in enumerate(row) if x != 0}


def dense(row, dim):
    return [row.get(i, Fraction(0)) for i in range(dim)]


class TestJacobi:
    def test_abelian(self):
        assert jacobi_check(NilLieAlgebra.abelian(4))

    def test_heisenberg(self):
        assert jacobi_check(H3)

    def test_violating_corruption(self):
        # adding [X1,X3] = X1 breaks the cyclic sum: [[X1,X2],X3] = -X1... -> -X3
        bad = NilLieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
        assert not jacobi_check(bad)

    def test_solvable_corruption_is_lie_but_not_nilpotent(self):
        # [X1,X2] = X3 with [X1,X3] = X2 satisfies Jacobi (it is a
        # semidirect product R x R^2) but its series stabilizes
        g = NilLieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {2: 1}})
        assert jacobi_check(g)
        with pytest.raises(NotNilpotent):
            lower_central_series(g)

    def test_matches_dense_reference_on_corruptions(self):
        # one seeded edit of a corpus table: a new or changed structure
        # constant, or a deleted bracket; some edits keep the identity
        rng = random.Random(11)
        seen = set()
        for g in nilpotent_corpus(5, 60, max_dim=6):
            table = {key: dict(row) for key, row in g._brackets.items()}
            if table and rng.random() < 0.25:
                del table[rng.choice(sorted(table))]
            else:
                i, j = sorted(rng.sample(range(1, g.dim + 1), 2))
                k = rng.randint(1, g.dim)
                table.setdefault((i, j), {})[k] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
            h = NilLieAlgebra(g.dim, table)
            assert jacobi_check(h) == oracles.dense_jacobi(h), h
            seen.add(jacobi_check(h))
        for g in nilpotent_corpus(5, 60, max_dim=6):
            assert jacobi_check(g) and oracles.dense_jacobi(g)
        assert seen == {True, False}


class TestLowerCentralSeries:
    def test_abelian(self):
        assert lower_central_series(NilLieAlgebra.abelian(3)) == [3, 0]

    def test_heisenberg(self):
        assert lower_central_series(H3) == [3, 1, 0]

    def test_filiform4(self):
        assert lower_central_series(FILIFORM4) == [4, 2, 1, 0]

    def test_invariant_under_change_of_basis(self):
        rng = random.Random(1)
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        while oracles.rank(t) < 4:
            t = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        g = NilLieAlgebra(4, oracles.dense_change_basis(FILIFORM4, t))
        assert lower_central_series(g) == [4, 2, 1, 0]


class TestCEDifferential:
    def test_abelian_is_zero(self):
        cx = ce_differential(NilLieAlgebra.abelian(3))
        for k in range(3):
            assert all(all(x == 0 for x in row) for row in dense_differentials(cx)[k])

    def test_heisenberg_dual_of_bracket(self):
        cx = ce_differential(H3)
        d1 = dense_differentials(cx)[1]
        # columns: xi_1, xi_2, xi_3 over the basis xi_12, xi_13, xi_23
        col = [d1[r][2] for r in range(3)]
        assert col == [Fraction(-1), Fraction(0), Fraction(0)]  # d xi_3 = -xi_1 ^ xi_2
        assert all(d1[r][0] == 0 and d1[r][1] == 0 for r in range(3))

    def test_filiform_differentials(self):
        cx = ce_differential(FILIFORM4)
        d1 = dense_differentials(cx)[1]
        masks = blade_masks(4, 2)
        idx12 = masks.index(0b0011)
        idx13 = masks.index(0b0101)
        assert d1[idx12][2] == -1  # d xi_3 = -xi_1 ^ xi_2
        assert d1[idx13][3] == -1  # d xi_4 = -xi_1 ^ xi_3

    def test_d_squared_zero_on_corpus(self):
        for g in nilpotent_corpus(17, 15, max_dim=6):
            cx = ce_differential(g)
            for k in range(g.dim - 1):
                prod = oracles.mat_mul(
                    [list(r) for r in dense_differentials(cx)[k + 1]],
                    [list(r) for r in dense_differentials(cx)[k]],
                )
                assert all(all(x == 0 for x in row) for row in prod)


class TestCohomologyDims:
    def test_abelian_binomials(self):
        for m in range(1, 6):
            dims = lie_cohomology_dims(NilLieAlgebra.abelian(m))
            assert dims == tuple(math.comb(m, k) for k in range(m + 1))

    def test_heisenberg(self):
        assert lie_cohomology_dims(H3) == (1, 2, 2, 1)

    def test_corpus_laws(self):
        for g in nilpotent_corpus(23, 25, max_dim=6):
            dims = lie_cohomology_dims(g)
            # connectedness and orientability of the nilmanifold
            assert dims[0] == 1 and dims[-1] == 1
            # Poincare duality of the closed nilmanifold
            assert dims == dims[::-1]
            # degree one counts the abelianization
            series = lower_central_series(g)
            assert dims[1] == g.dim - series[1]


class TestNomizuKernel:
    def test_heisenberg(self):
        k = nomizu_kernel(H3)
        assert k.kernel_dim == 1 and k.expected == 1
        assert (k.q1_dim, k.q2_dim) == (2, 3)

    def test_abelian_flag(self):
        k = nomizu_kernel(NilLieAlgebra.abelian(4))
        assert k.abelian and k.kernel_dim == 0

    def test_filiform4(self):
        k = nomizu_kernel(FILIFORM4)
        assert k.kernel_dim == 3 - 2 == 1

    def test_law_on_corpus(self):
        for g in nilpotent_corpus(31, 30, max_dim=6, nonabelian=True):
            k = nomizu_kernel(g)
            assert k.kernel_dim == k.expected


class TestGrowthDegree:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_abelian(self, m):
        assert bass_growth_degree(NilLieAlgebra.abelian(m)) == m

    def test_heisenberg(self):
        assert bass_growth_degree(H3) == 4

    def test_filiform4(self):
        assert bass_growth_degree(FILIFORM4) == 7


class TestPi1Verdict:
    def test_abelian_fits(self):
        assert pi1_verdict(NilLieAlgebra.abelian(3), 3).passed

    def test_heisenberg_excluded(self):
        v = pi1_verdict(H3, 3)
        assert not v.passed
        assert any("abelian" in r for r in v.reasons)

    def test_growth_excludes_rank_five_in_dim_four(self):
        v = pi1_verdict(NilLieAlgebra.abelian(5), 4)
        assert not v.passed
        assert v.growth_degree == 5


class TestDenseReference:
    """The structure-constant bracket and the exterior-kernel complex
    equal the dense reference in :mod:`oracles` on the four seeded
    corpora the other tests draw from (120 algebras), the model filiform
    algebras of dimension 5 to 9 and the abelian ones of dimension 1 to 8."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return (
            [
                g
                for seed, count, nonabelian in ((17, 15, False), (23, 25, False), (31, 30, True), (2024, 50, True))
                for g in nilpotent_corpus(seed, count, max_dim=6, nonabelian=nonabelian)
            ]
            + [filiform(dim) for dim in range(5, 10)]
            + [NilLieAlgebra.abelian(dim) for dim in range(1, 9)]
        )

    def test_jacobi(self, corpus):
        for g in corpus:
            assert jacobi_check(g) and oracles.dense_jacobi(g)

    def test_differentials_and_betti(self, corpus):
        for g in corpus:
            assert dense_differentials(ce_differential(g)) == oracles.dense_ce_differentials(g.dim, g._brackets)
            assert lie_cohomology_dims(g) == oracles.dense_betti(g.dim, g._brackets)

    def test_nomizu_kernel(self, corpus):
        for g in corpus:
            assert dataclasses.astuple(nomizu_kernel(g)) == oracles.dense_nomizu_kernel(g)

    def test_lower_central_series(self, corpus):
        for g in corpus:
            spans = oracles.dense_central_series(g)
            assert [span.rows for span in nilcoh._central_series(g)] == spans
            assert lower_central_series(g) == [len(span) for span in spans]

    def test_brackets(self, corpus):
        rng = random.Random(7)
        for g in corpus:
            basis = linalg.identity(g.dim)
            for i in range(1, g.dim + 1):
                ad = g.ad(sparse(basis[i - 1]))
                for j in range(1, g.dim + 1):
                    assert dense(ad[j - 1], g.dim) == oracles.dense_bracket_basis(g, i, j)
            for _ in range(5):
                u = [rng.randint(-3, 3) for _ in range(g.dim)]
                v = [rng.randint(-3, 3) for _ in range(g.dim)]
                # [u, v] = sum over j of v_j [u, X_j]
                ad = g.ad(sparse(u))
                columns = [dense(w, g.dim) for w in ad]
                got = [sum((x * w[k] for x, w in zip(v, columns)), Fraction(0)) for k in range(g.dim)]
                assert got == oracles.dense_bracket(g, u, v)


class TestRingLevelAgreement:
    def test_presented_rings_match_invariant_form_betti(self):
        # the hand-presented nilmanifold rings reproduce the Betti
        # numbers computed from structure constants
        from wrapcheck.algebra import basis_and_dims

        assert basis_and_dims(P.heisenberg_nilmanifold()).ranks == lie_cohomology_dims(H3)
        assert basis_and_dims(P.filiform4_nilmanifold()).ranks == lie_cohomology_dims(FILIFORM4)

    def test_degree_one_subalgebra_free_iff_abelian(self):
        """The classes of H^1 generate a free exterior algebra exactly
        for abelian algebras, computed directly on the invariant-form
        complex."""
        for g in nilpotent_corpus(41, 20, max_dim=5):
            free = _degree_one_subalgebra_is_free(g)
            assert free == g.is_abelian

    def test_matches_presented_ring_checks(self):
        from wrapcheck.embed import torus_subalgebra_check

        # Lie side nonabelian <-> presented ring fails the check
        assert torus_subalgebra_check(P.heisenberg_nilmanifold()).failed
        assert torus_subalgebra_check(P.filiform4_nilmanifold()).failed
        assert not _degree_one_subalgebra_is_free(H3)
        assert not _degree_one_subalgebra_is_free(FILIFORM4)
        # abelian <-> torus presentations pass
        for k in (2, 3, 4):
            assert not torus_subalgebra_check(P.torus(k)).failed
            assert _degree_one_subalgebra_is_free(NilLieAlgebra.abelian(k))


def _degree_one_subalgebra_is_free(g: NilLieAlgebra) -> bool:
    """Whether products of H^1 classes have full rank in every degree,
    computed directly on the invariant-form complex."""
    from itertools import combinations

    from wrapcheck.exterior import Multivector, wedge

    diffs = dense_differentials(ce_differential(g))
    m = g.dim
    d1 = [list(r) for r in diffs[1]]
    kernel_basis = (
        [[Fraction(int(x.p), int(x.q)) for x in v] for v in sympy.Matrix(d1).nullspace()]
        if d1
        else linalg.identity(m)
    )
    b1 = len(kernel_basis)
    one_forms = [
        Multivector(m, {1 << i: v[i] for i in range(m) if v[i] != 0}) for v in kernel_basis
    ]
    for j in range(2, b1 + 1):
        dmat = [list(r) for r in diffs[j - 1]]
        exact_rows = (
            [[dmat[r][c] for r in range(len(dmat))] for c in range(len(dmat[0]))]
            if dmat and dmat[0]
            else []
        )
        exact_span = linalg.SparseSubspace(math.comb(m, j), exact_rows)
        rows = []
        for combo in combinations(one_forms, j):
            prod = combo[0]
            for f in combo[1:]:
                prod = wedge(prod, f)
            rep = exact_span.coords_modulo(list(prod.coords(j)))
            rows.append([rep.get(c, Fraction(0)) for c in range(math.comb(m, j))])
        if oracles.rank(rows) < math.comb(b1, j):
            return False
    return True
