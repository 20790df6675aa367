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
from itertools import combinations
from typing import Iterable, Mapping

from . import linalg
from .exterior import blade_masks, wedge_terms

# the largest dim whose invariant-form complex `wrapcheck lie` computes.
# The complex has 2^dim blades: on the model filiform algebra its Betti
# numbers and degree-two kernel took 1.3 s at dim 14, 6.2 s at 15 and
# 27 s at 16 (2-core x86-64 VM, Python 3.11)
MAX_COMPLEX_DIM = 14


class NotNilpotent(ValueError):
    """Lower central series fails to reach zero."""


class NilLieAlgebra:
    """Lie algebra on basis X_1..X_m given by rational structure constants.

    Brackets are stored for i < j only; antisymmetry is built into the
    indexing.  Vectors are sparse ``{index: coefficient}`` rows, index
    i - 1 for X_i, as :class:`linalg.SparseSubspace` takes them.  The
    Jacobi identity is checked by :func:`jacobi_check`, nilpotency by
    :func:`lower_central_series`; both are cached per algebra object,
    which no method changes after construction.
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
    def ad(self, v: Mapping[int, Fraction]) -> list[dict[int, Fraction]]:
        """[v, X_1], ..., [v, X_m] for a sparse row v, in one pass over the
        stored brackets: [X_i, X_j] adds v_i c_ij to [v, X_j] and -v_j c_ij
        to [v, X_i]."""
        out: list[dict[int, Fraction]] = [{} for _ in range(self.dim)]
        for (i, j), comps in self._brackets.items():
            for p, q, sign in ((i, j, 1), (j, i, -1)):
                x = v.get(p - 1)
                if x:
                    row = out[q - 1]
                    for k, c in comps.items():
                        acc = row.get(k - 1, 0) + sign * x * c
                        if acc:
                            row[k - 1] = acc
                        else:
                            del row[k - 1]
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
    """Whether [[X_a, X_b], X_c] summed cyclically vanishes on every triple.

    A term is nonzero only when [X_a, X_b] is stored, so only those terms
    are summed, each into the cyclic sum of its sorted triple.
    """
    sums: dict[tuple[int, int, int], dict[int, Fraction]] = {}
    for (a, b), row in g._brackets.items():
        for c, w in enumerate(g.ad({k - 1: x for k, x in row.items()}), 1):
            if w and c != a and c != b:  # the cyclic sum on a repeated index is zero
                # (a, b, c) is an odd permutation of its sorted triple iff a < c < b
                sign = -1 if a < c < b else 1
                acc = sums.setdefault(tuple(sorted((a, b, c))), {})
                for k, y in w.items():
                    acc[k] = acc.get(k, 0) + sign * y
    return not any(any(acc.values()) for acc in sums.values())


def _subspace_brackets(g: NilLieAlgebra, span: linalg.SparseSubspace) -> linalg.SparseSubspace:
    """The span of [v, X_j] for v in the span and all X_j."""
    return linalg.SparseSubspace(g.dim, (w for v in span.pivot_rows.values() for w in g.ad(v) if w))


def lower_central_series(g: NilLieAlgebra) -> list[int]:
    """Dimensions [dim g_1, dim g_2, ...] down to 0; g_1 = g.

    Raises ValueError if the Jacobi identity fails and NotNilpotent if
    the series stabilizes above zero.
    """
    if not jacobi_check(g):
        raise ValueError("structure constants violate the Jacobi identity")
    return [span.rank for span in _central_series(g)]


@lru_cache(maxsize=256)
def _central_series(g: NilLieAlgebra) -> tuple[linalg.SparseSubspace, ...]:
    """The lower central series spans, once per algebra; callers only read them."""
    spans = [linalg.SparseSubspace(g.dim, ({i: Fraction(1)} for i in range(g.dim)))]
    while spans[-1].rank:
        nxt = _subspace_brackets(g, spans[-1])
        if nxt.rank == spans[-1].rank:
            raise NotNilpotent(f"lower central series stabilizes at dimension {nxt.rank}")
        spans.append(nxt)
    return tuple(spans)


@dataclass(frozen=True)
class CEComplex:
    """Invariant-form complex: Lambda^k of the dual with d dual to the bracket.

    ``d_one[k - 1]`` is d(xi_k) = - sum_{i<j} c^k_{ij} xi_i ^ xi_j as a
    ``{blade mask: coefficient}`` map; d extends to blades as a graded
    derivation, through :func:`exterior.wedge_terms`.  d o d = 0 is
    equivalent to the Jacobi identity, which :func:`ce_differential`
    checks.
    """

    dim: int
    d_one: tuple[dict[int, Fraction], ...]

    def image(self, mask: int) -> dict[int, Fraction]:
        """d of the blade ``mask``: sum over its t-th index b of
        (-1)^t d(xi_b) ^ (the blade without b)."""
        out: dict[int, Fraction] = {}
        for t, b in enumerate(b for b in range(self.dim) if mask >> b & 1):
            for m, c in wedge_terms(self.d_one[b], {mask ^ 1 << b: -1 if t & 1 else 1}).items():
                acc = out.get(m, 0) + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
        return out

    def rank_d(self, k: int) -> int:
        if k < 0 or k >= self.dim:
            return 0
        # the columns are the blade masks of degree k + 1
        images = (self.image(mask) for mask in blade_masks(self.dim, k))
        return linalg.SparseSubspace(1 << self.dim, images).rank


def ce_differential(g: NilLieAlgebra) -> CEComplex:
    if not jacobi_check(g):
        raise ValueError("structure constants violate the Jacobi identity")
    d_one = [{} for _ in range(g.dim)]
    for (i, j), comps in g._brackets.items():
        for k, c in comps.items():
            d_one[k - 1][1 << (i - 1) | 1 << (j - 1)] = -c
    return CEComplex(g.dim, tuple(d_one))


def lie_cohomology_dims(g: NilLieAlgebra) -> tuple[int, ...]:
    """Betti numbers b_0..b_m of the invariant-form complex."""
    cx = ce_differential(g)
    m = g.dim
    ranks = [cx.rank_d(k) for k in range(m + 1)] + [0]  # ranks[-1] is d from degree -1
    return tuple(math.comb(m, k) - ranks[k] - ranks[k - 1] for k in range(m + 1))


def quotient_by_central_ideal(
    g: NilLieAlgebra, ideal_rows: Iterable
) -> tuple[NilLieAlgebra, list[dict[int, Fraction]]]:
    """Quotient Lie algebra by a (verified) ideal, with the projection as
    the sparse image of each basis vector X_1..X_m.

    The complement basis is chosen by completing the ideal's reduced
    rows with standard basis vectors; the projection sends v to its
    complement coordinates.
    """
    m = g.dim
    span = linalg.SparseSubspace(m, ideal_rows)
    # verify ideal: [v, X_j] stays inside
    if not all(span.contains(w) for v in span.pivot_rows.values() for w in g.ad(v)):
        raise ValueError("given subspace is not an ideal")
    complement = [i for i in range(m) if i not in span.pivot_rows]
    index = {i: a for a, i in enumerate(complement)}

    def project(v) -> dict[int, Fraction]:
        return {index[i]: c for i, c in span.coords_modulo(v).items()}

    table = {}
    for (i, j), row in g._brackets.items():
        if i - 1 in index and j - 1 in index:
            w = project({k - 1: c for k, c in row.items()})
            if w:
                table[(index[i - 1] + 1, index[j - 1] + 1)] = {k + 1: c for k, c in w.items()}
    return NilLieAlgebra(len(complement), table), [project({j: 1}) for j in range(m)]


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
    # g is nonabelian, so the series g, gamma2, gamma3, ..., 0 has three terms at least
    _, gamma2, gamma3, *_ = _central_series(g)
    q1, proj1 = quotient_by_central_ideal(g, gamma2.pivot_rows.values())
    q2, _ = quotient_by_central_ideal(g, gamma3.pivot_rows.values())
    r = q1.dim
    m2 = q2.dim
    # the factor map phi: q2 -> q1 with phi . pi2 = pi1.  The basis vectors
    # off gamma3's pivots are a section of pi2, so phi is pi1 on them
    # (unique because gamma3 lies in gamma2).  phi* xi_a is the 1-form
    # whose coefficient on q2's c-th basis vector is coordinate a of its image.
    pulled: list[dict[int, Fraction]] = [{} for _ in range(r)]
    for c, j in enumerate(j for j in range(g.dim) if j not in gamma3.pivot_rows):
        for a, x in proj1[j].items():
            pulled[a][1 << c] = x
    # d of q2's 1-forms spans its exact 2-forms.  Every 2-form of the abelian
    # q1 is closed and none is exact, so the kernel's dimension is C(r, 2)
    # less the rank the pullbacks xi_a ^ xi_b -> phi*xi_a ^ phi*xi_b add to them
    exact = linalg.SparseSubspace(1 << m2, ce_differential(q2).d_one)
    grown = sum(exact.add(wedge_terms(pulled[a], pulled[b])) for a, b in combinations(range(r), 2))
    kernel_dim = math.comb(r, 2) - grown
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
