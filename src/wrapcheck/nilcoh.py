"""Nilpotent Lie algebras as models of fundamental groups.

A torsion-free finitely generated nilpotent group is a lattice in a
simply connected nilpotent Lie group, and the group's rational
structure is captured by the Lie algebra's structure constants.  The
invariant-form complex of that Lie group is the exterior algebra on
the dual space with differential dual to the bracket; by Nomizu's
theorem its cohomology is the cohomology ring of the associated
nilmanifold, which is what the obstruction battery consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from . import linalg
from .exterior import Blade, Multivector, blade_masks, wedge


class NotNilpotent(ValueError):
    """Lower central series fails to reach zero."""


class NilLieAlgebra:
    """Lie algebra on basis X_1..X_m given by rational structure constants.

    Brackets are stored for i < j only; antisymmetry is built into the
    indexing.  The Jacobi identity is checked by :func:`jacobi_check`,
    nilpotency by :func:`lower_central_series`; both are cached per
    algebra object, which no method changes after construction.
    """

    __slots__ = ("dim", "_brackets")

    def __init__(self, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]] | None = None):
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        self.dim = dim
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), comps in (brackets or {}).items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bracket indices must satisfy 1 <= i < j <= dim, got ({i},{j})")
            row = {}
            for k, c in comps.items():
                if not 1 <= k <= dim:
                    raise ValueError(f"component index {k} out of range")
                c = Fraction(c)
                if c != 0:
                    row[k] = c
            if row:
                table[(i, j)] = row
        self._brackets = table

    # -- constructors -------------------------------------------------------
    @classmethod
    def abelian(cls, dim: int) -> "NilLieAlgebra":
        return cls(dim, {})

    # -- bracket ------------------------------------------------------------
    def bracket(self, u: Sequence, v: Sequence) -> linalg.Vector:
        """[u, v] = sum over i < j of (u_i v_j - u_j v_i) [X_i, X_j]."""
        u, v = linalg.as_fraction_row(u), linalg.as_fraction_row(v)
        out = linalg.zero_vector(self.dim)
        for (i, j), comps in self._brackets.items():
            coeff = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            if coeff:
                for k, c in comps.items():
                    out[k - 1] += coeff * c
        return out

    @property
    def is_abelian(self) -> bool:
        return not self._brackets

    def __repr__(self):
        items = ", ".join(
            f"[X{i},X{j}]=" + "+".join(f"{c}*X{k}" for k, c in sorted(comps.items()))
            for (i, j), comps in sorted(self._brackets.items())
        )
        return f"NilLieAlgebra(dim={self.dim}, {items or 'abelian'})"


@lru_cache(maxsize=256)
def jacobi_check(g: NilLieAlgebra) -> bool:
    m = g.dim
    basis = linalg.identity(m)
    for i in range(m):
        for j in range(i + 1, m):
            for l in range(j + 1, m):
                total = linalg.zero_vector(m)
                for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
                    inner = g.bracket(basis[a], basis[b])
                    outer = g.bracket(inner, basis[c])
                    total = [x + y for x, y in zip(total, outer)]
                if any(x != 0 for x in total):
                    return False
    return True


def _subspace_brackets(g: NilLieAlgebra, span_rows: list[linalg.Vector]) -> list[linalg.Vector]:
    """Reduced echelon basis of the span of [v, X_j] for v in the span and all X_j."""
    basis = linalg.identity(g.dim)
    return linalg.SparseSubspace(g.dim, (g.bracket(v, b) for v in span_rows for b in basis)).rows


def lower_central_series(g: NilLieAlgebra) -> list[int]:
    """Dimensions [dim g_1, dim g_2, ...] down to 0; g_1 = g.

    Raises ValueError if the Jacobi identity fails and NotNilpotent if
    the series stabilizes above zero.
    """
    if not jacobi_check(g):
        raise ValueError("structure constants violate the Jacobi identity")
    return [len(span) for span in _central_series(g)]


def lower_central_series_subspaces(g: NilLieAlgebra) -> list[list[linalg.Vector]]:
    """Reduced echelon bases of g_1 = g, g_2 = [g, g], ... down to 0."""
    return [[list(v) for v in span] for span in _central_series(g)]


@lru_cache(maxsize=256)
def _central_series(g: NilLieAlgebra) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The lower central series bases, once per algebra and as immutable tuples."""
    spans = [linalg.identity(g.dim)]
    while spans[-1]:
        nxt = _subspace_brackets(g, spans[-1])
        if len(nxt) == len(spans[-1]):
            raise NotNilpotent(f"lower central series stabilizes at dimension {len(nxt)}")
        spans.append(nxt)
    return tuple(tuple(tuple(v) for v in span) for span in spans)


@dataclass(frozen=True)
class CEComplex:
    """Invariant-form complex: Lambda^k of the dual with d dual to the bracket.

    differentials[k] maps degree-k blade coordinates to degree-(k+1)
    coordinates; d(dual of X_k) = - sum_{i<j} c^k_{ij} xi_i ^ xi_j,
    extended as a graded derivation.  d o d = 0 is verified exactly.
    """

    dim: int
    differentials: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def rank_d(self, k: int) -> int:
        if k < 0 or k >= self.dim:
            return 0
        return linalg.rank(self.differentials[k])


def _d_of_one_form(g: NilLieAlgebra, k: int) -> Multivector:
    """d(xi_k) = - sum_{i<j} c^k_{ij} xi_i ^ xi_j, in Lambda*(dual)."""
    terms = {}
    for (i, j), comps in g._brackets.items():
        c = comps.get(k)
        if c:
            mask = Blade((i, j)).mask
            terms[mask] = terms.get(mask, Fraction(0)) - c
    return Multivector(g.dim, terms)


def ce_differential(g: NilLieAlgebra) -> CEComplex:
    if not jacobi_check(g):
        raise ValueError("structure constants violate the Jacobi identity")
    m = g.dim
    d_one = [_d_of_one_form(g, k) for k in range(1, m + 1)]
    diffs = []
    for k in range(m + 1):
        cols = []
        for mask in blade_masks(m, k):
            bits = Blade.from_mask(mask).indices
            img = Multivector.zero(m)
            for t, b in enumerate(bits):
                term = wedge(d_one[b - 1], Multivector.blade(m, bits[:t] + bits[t + 1 :]))
                img = img + (term if t % 2 == 0 else -term)
            cols.append(img.coords(k + 1))
        diffs.append(tuple(zip(*cols)))
    # d^2 = 0 is equivalent to the Jacobi identity, checked above
    return CEComplex(m, tuple(diffs))


def lie_cohomology_dims(g: NilLieAlgebra) -> tuple[int, ...]:
    """Betti numbers b_0..b_m of the invariant-form complex."""
    cx = ce_differential(g)
    m = g.dim
    out = []
    for k in range(m + 1):
        dim_k = math.comb(m, k)
        rank_k = cx.rank_d(k)
        rank_prev = cx.rank_d(k - 1)
        out.append(dim_k - rank_k - rank_prev)
    return tuple(out)


def quotient_by_central_ideal(
    g: NilLieAlgebra, ideal_rows: list[linalg.Vector]
) -> tuple[NilLieAlgebra, list[linalg.Vector]]:
    """Quotient Lie algebra by a (verified) ideal, with projection matrix rows.

    The complement basis is chosen by completing the ideal's reduced
    rows with standard basis vectors; the projection sends v to its
    complement coordinates.
    """
    m = g.dim
    span = linalg.SparseSubspace(m, ideal_rows)
    # verify ideal: [v, X_j] stays inside
    basis = linalg.identity(m)
    for v in span.rows:
        for b in basis:
            if not span.contains(g.bracket(v, b)):
                raise ValueError("given subspace is not an ideal")
    pivots = set(span.pivots)
    complement = [i for i in range(m) if i not in pivots]
    q_dim = len(complement)

    def project(v: linalg.Vector) -> linalg.Vector:
        red = span.reduce(v)
        return [red[i] for i in complement]

    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(q_dim):
        for b in range(a + 1, q_dim):
            w = project(g.bracket(basis[complement[a]], basis[complement[b]]))
            comps = {k + 1: c for k, c in enumerate(w) if c != 0}
            if comps:
                table[(a + 1, b + 1)] = comps
    # projection matrix: row k = coordinates of the quotient coordinate k
    images = [project(e) for e in basis]
    proj = [[image[idx] for image in images] for idx in range(q_dim)]
    return NilLieAlgebra(q_dim, table), proj


@dataclass(frozen=True)
class NomizuKernel:
    kernel_dim: int
    expected: int
    abelian: bool
    q1_dim: int
    q2_dim: int


def nomizu_kernel(g: NilLieAlgebra) -> NomizuKernel:
    """Dimension of the kernel of H^2(g/[g,g]) -> H^2(g/[[g,g],g]).

    For a nonabelian nilpotent algebra this equals dim q_2 - dim q_1,
    the mechanism that forbids nonabelian fundamental groups; the
    equality is recomputed here from honest rank computations and
    cross-checked internally.
    """
    if g.is_abelian:
        return NomizuKernel(0, 0, True, g.dim, g.dim)
    spans = lower_central_series_subspaces(g)
    gamma2 = spans[1]
    gamma3 = spans[2] if len(spans) > 2 else []
    q1, proj1 = quotient_by_central_ideal(g, gamma2)
    q2, _ = quotient_by_central_ideal(g, gamma3)
    # the factor map phi: q2 -> q1 with phi . pi2 = pi1.  The basis vectors
    # off gamma3's pivots are a section of pi2, so phi is pi1 on them
    # (unique because gamma3 lies in gamma2).
    pivots3 = set(linalg.SparseSubspace(g.dim, gamma3).pivots)
    phi = [[row[j] for j in range(g.dim) if j not in pivots3] for row in proj1]
    r = q1.dim
    m2 = q2.dim
    # pullback of 2-forms along phi: xi_a ^ xi_b -> phi*xi_a ^ phi*xi_b
    pulled = [Multivector.from_coords(m2, 1, row) for row in phi]
    pullback_cols = []
    for mask in blade_masks(r, 2):
        a, b = Blade.from_mask(mask).indices
        pullback_cols.append(wedge(pulled[a - 1], pulled[b - 1]).coords(2))
    # columns of d: 1-forms of q2 -> 2-forms, spanning the exact 2-forms
    d1_cols = list(zip(*ce_differential(q2).differentials[1]))
    rank_d1 = linalg.rank(d1_cols)
    kernel_dim = len(pullback_cols) - (linalg.rank(pullback_cols + d1_cols) - rank_d1)
    expected = m2 - r
    if kernel_dim != expected:
        raise ArithmeticError(
            f"kernel dimension {kernel_dim} != dim q2 - dim q1 = {expected}"
        )
    return NomizuKernel(kernel_dim, expected, False, r, m2)


def bass_growth_degree(g: NilLieAlgebra) -> int:
    """Polynomial growth degree: sum over k of k * dim(gamma_k / gamma_{k+1}).

    The sum telescopes to the sum of the dimensions dim gamma_k.
    """
    return sum(lower_central_series(g))


@dataclass(frozen=True)
class Pi1Verdict:
    passed: bool
    reasons: tuple[str, ...]
    growth_degree: int
    abelian: bool
    nilpotency_class: int


def pi1_verdict(g: NilLieAlgebra, n: int) -> Pi1Verdict:
    """Fundamental-group obstructions for a closed n-manifold.

    Fails when the growth degree exceeds n or when the algebra is
    nonabelian; passes only for abelian algebras of dimension <= n.
    """
    dims = lower_central_series(g)
    growth = sum(dims)  # the Bass growth degree, as in bass_growth_degree
    reasons = []
    if growth > n:
        reasons.append(f"growth degree {growth} exceeds the manifold dimension {n}")
    if not g.is_abelian:
        reasons.append("fundamental group is nilpotent but not virtually abelian")
    return Pi1Verdict(
        passed=not reasons,
        reasons=tuple(reasons),
        growth_degree=growth,
        abelian=g.is_abelian,
        nilpotency_class=len(dims) - 1,
    )
