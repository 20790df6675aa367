"""Seeded random corpora: Poincare duality subalgebras of exterior
algebras, and nilpotent Lie algebras.

Subalgebras are built from models that are Poincare dual by
construction (a full exterior algebra on part of the basis, optionally
tensored with rank-one even blade factors on the complementary
indices) pushed forward through a random invertible rational change of
basis.  Lie algebras mix standard families (Heisenberg, filiform,
two-step with random central brackets) with direct sums, random
central quotients, and random basis changes; two-step brackets into
the center satisfy the Jacobi identity automatically, and quotients by
central subspaces of the last lower-central layer stay nilpotent.
"""

from __future__ import annotations

import random
from fractions import Fraction

from wrapcheck import linalg
from wrapcheck.algebra import ConcreteSubalgebra
from wrapcheck.exterior import Multivector, wedge
from wrapcheck.nilcoh import (
    NilLieAlgebra,
    lower_central_series_subspaces,
    quotient_by_central_ideal,
)

import oracles


def _random_invertible(rng: random.Random, n: int) -> list[list[Fraction]]:
    while True:
        mat = [
            [Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)
        ]
        if linalg.rank(mat) == n:
            return mat


def _push_vector(t: list[list[Fraction]], n: int, j: int) -> Multivector:
    """Image of the basis vector e_j under the linear map with matrix t."""
    return Multivector(n, {1 << i: t[i][j] for i in range(n) if t[i][j] != 0})


def random_pd_subalgebra(
    rng: random.Random, n: int
) -> tuple[ConcreteSubalgebra, Multivector]:
    """A Poincare duality subalgebra of Lambda*(Q^n) with nonzero degree-1
    part, together with a nonzero degree-1 element of it."""
    k = rng.randint(1, n)
    t = _random_invertible(rng, n)
    images = [_push_vector(t, n, j) for j in range(n)]
    gens = list(images[:k])
    # optionally adjoin a rank-one even factor on complementary indices
    leftover = n - k
    if leftover >= 2 and rng.random() < 0.5:
        width = 2 * rng.randint(1, leftover // 2)
        blade = images[k]
        for j in range(k + 1, k + width):
            blade = wedge(blade, images[j])
        gens.append(blade)
    A = ConcreteSubalgebra.from_generators(n, gens)
    coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(k)]
    if all(c == 0 for c in coeffs):
        coeffs[rng.randrange(k)] = Fraction(1)
    x = Multivector.zero(n)
    for c, g in zip(coeffs, images[:k]):
        x = x + g.scale(c)
    return A, x


def _random_two_step(rng: random.Random, dim: int) -> NilLieAlgebra:
    """Brackets of the first block land in a central second block."""
    m1 = rng.randint(2, dim - 1)
    m2 = dim - m1
    brackets = {}
    for i in range(1, m1 + 1):
        for j in range(i + 1, m1 + 1):
            comps = {
                m1 + k: Fraction(rng.randint(-2, 2)) for k in range(1, m2 + 1)
            }
            comps = {k: c for k, c in comps.items() if c != 0}
            if comps:
                brackets[(i, j)] = comps
    return NilLieAlgebra(dim, brackets)


def _random_central_quotient(rng: random.Random, g: NilLieAlgebra) -> NilLieAlgebra:
    spans = lower_central_series_subspaces(g)
    last = spans[-2] if len(spans) >= 2 else []
    if not last or len(last) == g.dim:
        return g
    keep = rng.randint(1, len(last))
    rows = [last[i] for i in rng.sample(range(len(last)), keep)]
    q, _ = quotient_by_central_ideal(g, rows)
    return q if q.dim >= 1 else g


def random_nilpotent(rng: random.Random, max_dim: int = 6, nonabelian: bool = False) -> NilLieAlgebra:
    """One random nilpotent Lie algebra of dimension <= max_dim."""
    for _ in range(200):
        kind = rng.choice(["two-step", "heisenberg-sum", "filiform", "quotient"])
        if kind == "two-step":
            g = _random_two_step(rng, rng.randint(3, max_dim))
        elif kind == "heisenberg-sum":
            extra = rng.randint(0, max_dim - 3)
            g = NilLieAlgebra(3 + extra, {(1, 2): {3: 1}})
        else:
            # filiform: [X_1, X_i] = X_{i+1} for 2 <= i < dim
            dim = rng.randint(3 if kind == "filiform" else 4, max_dim)
            g = NilLieAlgebra(dim, {(1, i): {i + 1: 1} for i in range(2, dim)})
            if kind == "quotient":
                g = _random_central_quotient(rng, g)
        if rng.random() < 0.5:
            g = NilLieAlgebra(g.dim, oracles.dense_change_basis(g, _random_invertible(rng, g.dim)))
        if g.dim > max_dim:
            continue
        if nonabelian and g.is_abelian:
            continue
        return g
    raise RuntimeError("could not generate a suitable algebra")


def nilpotent_corpus(seed: int, count: int, max_dim: int = 6, nonabelian: bool = False):
    rng = random.Random(seed)
    return [random_nilpotent(rng, max_dim, nonabelian) for _ in range(count)]
