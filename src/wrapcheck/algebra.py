"""Finitely presented graded-commutative algebras over Q.

A presentation consists of generators with positive degrees, relation
polynomials in the free graded-commutative ring on those generators,
and a formal dimension n with a distinguished fundamental class of
degree n.  Cohomology rings of closed oriented manifolds are the
intended inputs, so everything above degree n is zero.

Dimension counts and duality checks are pure linear algebra: monomials
of a fixed degree form a finite basis (generator degrees are >= 1),
and the degree-k piece of the relation ideal is the span of all
monomial multiples of the relations, which we row-reduce exactly.
No Groebner machinery is needed at this scale.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from . import linalg, quadform
from .exterior import Multivector, wedge

GeneratorTable = tuple[tuple[str, int], ...]


class DegeneratePresentation(ValueError):
    """The fundamental class lies in the relation ideal."""


def _monomial_mul(gen_degrees: Sequence[int], e: Sequence[int], f: Sequence[int]):
    """Merge two exponent vectors; None if an odd generator squares.

    The sign moves each generator of the right factor past the later
    generators of the left factor (odd-odd passes flip the sign).
    """
    exps = []
    flips = 0
    for i, (a, b) in enumerate(zip(e, f)):
        if gen_degrees[i] % 2 == 1 and a + b > 1:
            return None
        exps.append(a + b)
    for j in range(len(f)):
        if f[j] == 0 or gen_degrees[j] % 2 == 0:
            continue
        passed = sum(
            e[i] for i in range(j + 1, len(e)) if gen_degrees[i] % 2 == 1
        )
        flips += f[j] * passed
    sign = -1 if flips % 2 else 1
    return sign, tuple(exps)


@dataclass(frozen=True)
class GradedPolynomial:
    """Element of the free graded-commutative ring on a generator table.

    Monomials are (coefficient, exponent vector) pairs with generators
    in table order; odd-degree generators carry exponent 0 or 1.  All
    monomials of one polynomial share the same graded degree.
    """

    generators: GeneratorTable
    monomials: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __post_init__(self):
        gens = tuple((str(n), int(d)) for n, d in self.generators)
        object.__setattr__(self, "generators", gens)
        acc: dict[tuple[int, ...], Fraction] = {}
        for coeff, exps in self.monomials:
            exps = tuple(int(x) for x in exps)
            if len(exps) != len(gens):
                raise ValueError("exponent vector length does not match generator table")
            if any(x < 0 for x in exps):
                raise ValueError("negative exponent")
            for (name, deg), x in zip(gens, exps):
                if deg % 2 == 1 and x > 1:
                    raise ValueError(f"odd-degree generator {name} has exponent {x}")
            c = Fraction(coeff)
            if c == 0:
                continue
            acc[exps] = acc.get(exps, Fraction(0)) + c
        cleaned = tuple(
            (c, e) for e, c in sorted(acc.items()) if c != 0
        )
        degs = {self._exp_degree(gens, e) for _, e in cleaned}
        if len(degs) > 1:
            raise ValueError(f"mixed graded degrees in one polynomial: {sorted(degs)}")
        object.__setattr__(self, "monomials", cleaned)

    @staticmethod
    def _exp_degree(gens: GeneratorTable, exps: tuple[int, ...]) -> int:
        return sum(d * x for (_, d), x in zip(gens, exps))

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def degree(self) -> int | None:
        if not self.monomials:
            return None
        return self._exp_degree(self.generators, self.monomials[0][1])

    def __repr__(self):
        if not self.monomials:
            return "0"
        parts = []
        for c, e in self.monomials:
            factors = [
                name + (f"^{x}" if x > 1 else "")
                for (name, _), x in zip(self.generators, e)
                if x
            ]
            body = " ".join(factors) if factors else "1"
            parts.append(f"{c} {body}" if c != 1 or not factors else body)
        return " + ".join(parts)


def evaluate_polynomial(
    p: GradedPolynomial, assignment: Mapping[str, Multivector], n: int
) -> Multivector:
    """Substitute multivectors for generators, in table order.

    Monomial order plus the Koszul convention built into the wedge make
    the substitution well defined; each assigned multivector must be
    homogeneous of its generator's degree.
    """
    for idx, (name, deg) in enumerate(p.generators):
        if not any(e[idx] for _, e in p.monomials):
            continue
        if name not in assignment:
            raise ValueError(f"assignment is missing generator {name}")
        d = assignment[name].degree()
        if d is not None and d != deg:
            raise ValueError(f"generator {name} has degree {deg} but was assigned degree {d}")
    total = Multivector.zero(n)
    for coeff, exps in p.monomials:
        term = Multivector.scalar(n, coeff)
        for (name, _), x in zip(p.generators, exps):
            for _ in range(x):
                term = wedge(term, assignment[name])
                if term.is_zero:
                    break
            if term.is_zero:
                break
        total = total + term
    return total


@dataclass(frozen=True)
class AlgebraPresentation:
    """Graded-commutative algebra R[gens]/(relations) with formal dimension n.

    Everything above degree n is zero, as for a closed n-manifold;
    relations of degree > n are kept (they matter when mapping into
    larger exterior algebras) but are redundant for the truncated basis
    computation.  The field hash is computed once: the cached layers look
    a presentation up on every call.
    """

    generators: GeneratorTable
    relations: tuple[GradedPolynomial, ...]
    n: int
    fundamental_class: GradedPolynomial

    def __post_init__(self):
        gens = tuple((str(nm), int(d)) for nm, d in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relations", tuple(self.relations))
        if len({nm for nm, _ in gens}) != len(gens):
            raise ValueError("duplicate generator names")
        if any(d < 1 for _, d in gens):
            raise ValueError("generator degrees must be >= 1")
        if self.n < 1:
            raise ValueError("formal dimension must be >= 1")
        for rel in self.relations:
            if rel.generators != gens:
                raise ValueError("relation over a different generator table")
            if rel.is_zero:
                raise ValueError("zero relation")
        if self.fundamental_class.generators != gens:
            raise ValueError("fundamental class over a different generator table")
        if self.fundamental_class.degree() != self.n:
            raise ValueError(
                f"fundamental class has degree {self.fundamental_class.degree()}, expected {self.n}"
            )
        fields = (gens, self.relations, self.n, self.fundamental_class)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash


def _monomials_of_degree(gens: GeneratorTable, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of graded degree k, odd generators capped at 1,
    in ascending order."""
    if k < 0:
        return []
    if not gens:
        return [()] if k == 0 else []
    return _suffixes(tuple(d for _, d in gens), 0, k, {})


def _suffixes(degrees: tuple[int, ...], i: int, remaining: int, memo: dict) -> list:
    """Exponent vectors on the generators from i on of degree ``remaining``,
    ascending, memoized per (i, remaining).  The last exponent is what the
    remaining degree leaves, if the last generator's degree divides it."""
    out = memo.get((i, remaining))
    if out is not None:
        return out
    d = degrees[i]
    if i == len(degrees) - 1:
        x, r = divmod(remaining, d)
        out = [(x,)] if r == 0 and (x <= 1 or d % 2 == 0) else []
    else:
        top = remaining // d if d % 2 == 0 else min(1, remaining // d)
        out = [
            (x, *s) for x in range(top + 1) for s in _suffixes(degrees, i + 1, remaining - d * x, memo)
        ]
    memo[i, remaining] = out
    return out


def _ideal_rows(
    presentation: AlgebraPresentation, monomials: Sequence[Sequence[tuple[int, ...]]], k: int
) -> Iterator[dict[int, Fraction]]:
    """Rows spanning the degree-k piece of the relation ideal, as dicts
    column -> Fraction on the monomials of degree k.

    ``monomials[d]`` lists the monomials of degree d for every d <= k.
    Each row is a relation times a monomial.  Exponent vectors are read
    as mixed-radix numbers whose digit for generator i runs up to
    k // deg_i, which no vector of degree at most k exceeds, so the code
    of a product is the sum of its factors' codes and code order is the
    ascending order of the vectors: each monomial's code is computed
    once per degree, and every row is keyed in ascending order.  A
    relation term with no odd generator commutes with everything, so
    its merge has sign +1; the others take theirs from
    :func:`_monomial_mul`.
    """
    degrees = [d for _, d in presentation.generators]
    odd = [i for i, d in enumerate(degrees) if d % 2]
    weights = [0] * len(degrees)
    w = 1
    for i in reversed(range(len(degrees))):
        weights[i] = w
        w *= k // degrees[i] + 1

    def code(e) -> int:
        return sum(map(operator.mul, e, weights))

    index = {code(m): i for i, m in enumerate(monomials[k])}
    codes: dict[int, list[int]] = {}
    for rel in presentation.relations:
        b = rel.degree()
        if b > k:
            continue
        if k - b not in codes:
            codes[k - b] = [code(m) for m in monomials[k - b]]
        terms = [(c, e, code(e), any(e[i] for i in odd)) for c, e in rel.monomials]
        for m, mc in zip(monomials[k - b], codes[k - b]):
            row = {}
            for c, e, ec, has_odd in terms:
                if not has_odd:
                    row[index[mc + ec]] = c
                    continue
                merged = _monomial_mul(degrees, m, e)
                if merged is not None:
                    row[index[mc + ec]] = c if merged[0] > 0 else -c
            if row:
                yield row


def _ideal_span(
    presentation: AlgebraPresentation, monomials: Sequence[Sequence[tuple[int, ...]]], k: int
) -> linalg.SparseSubspace:
    """Degree-k piece of the relation ideal, on the monomials of degree k."""
    return linalg.SparseSubspace(len(monomials[k]), _ideal_rows(presentation, monomials, k))


class GradedBasis:
    """Per-degree monomial bases of the quotient algebra, with one reducer.

    :meth:`coords` reads an element given by its monomial terms on the
    standard-monomial basis; callers multiply monomials with
    :func:`_monomial_mul`, so no polynomial is built after parsing.
    ``basis_and_dims`` also stores the truncation probe's result on it
    as ``excess_degrees``, the data a caller reports from.
    """

    def __init__(self, presentation: AlgebraPresentation):
        self.presentation = presentation
        gens = presentation.generators
        n = presentation.n
        self._monomials = [_monomials_of_degree(gens, k) for k in range(n + 1)]
        self._mono_index = [{m: i for i, m in enumerate(monos)} for monos in self._monomials]
        self._ideal = [_ideal_span(presentation, self._monomials, k) for k in range(n + 1)]

    # -- ranks and representatives ----------------------------------------
    def rank(self, k: int) -> int:
        return self._ideal[k].codim if 0 <= k <= self.presentation.n else 0

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self.rank(k) for k in range(self.presentation.n + 1))

    def representatives(self, k: int) -> list[tuple[int, ...]]:
        """Standard monomials: those away from the ideal's pivot columns."""
        if not 0 <= k <= self.presentation.n:
            return []
        pivots = set(self._ideal[k].pivots)
        return [m for i, m in enumerate(self._monomials[k]) if i not in pivots]

    def monomials(self, k: int) -> list[tuple[int, ...]]:
        return list(self._monomials[k]) if 0 <= k <= self.presentation.n else []

    # -- reduction ---------------------------------------------------------
    def coords(self, k: int, terms) -> dict[int, Fraction]:
        """Quotient coordinates of the degree-k element with (coefficient,
        exponent vector) ``terms``, the shape of ``GradedPolynomial.monomials``
        (exponent vectors distinct): its nonzero entries on the standard
        monomials, keyed by column among the monomials of degree k."""
        if not 0 <= k <= self.presentation.n:
            return {}
        index = self._mono_index[k]
        return self._ideal[k].coords_modulo({index[e]: c for c, e in terms})


@lru_cache(maxsize=256)
def basis_and_dims(presentation: AlgebraPresentation) -> GradedBasis:
    """Quotient bases per degree 0..n; errors on a degenerate presentation.

    Stores the degrees n+1 .. n+max_generator_degree that the relations
    alone leave nonzero as ``excess_degrees``.  When there are any,
    truncation is doing real work, which a closed-manifold presentation
    should not need; the CLI reports it on every run.
    """
    gb = GradedBasis(presentation)
    if not gb.coords(presentation.n, presentation.fundamental_class.monomials):
        raise DegeneratePresentation("fundamental class lies in the relation ideal")
    gb.excess_degrees = _excess_degrees(gb)
    return gb


def _excess_degrees(gb: GradedBasis) -> list[int]:
    """Degrees n+1 .. n+max generator degree the relations leave nonzero.

    While no excess degree has been found, a degree k is first settled
    by :func:`_products_vanish` from the products that ``gb`` already
    holds.  A degree it cannot settle, and every degree after the first
    excess one, goes through the exact ``SparseSubspace`` of that
    degree's ideal rows alone, built from the monomials of degree 0..k
    and kept nowhere; the list is therefore the exact one.
    """
    presentation = gb.presentation
    gens, n = presentation.generators, presentation.n
    monomials = list(gb._monomials)
    excess = []
    for k in range(n + 1, n + max((d for _, d in gens), default=0) + 1):
        if not excess and _products_vanish(gb, k):
            continue
        monomials.extend(_monomials_of_degree(gens, j) for j in range(len(monomials), k + 1))
        if _ideal_span(presentation, monomials, k).codim > 0:
            excess.append(k)
    return excess


def _products_vanish(gb: GradedBasis, k: int) -> bool:
    """True when every product g r is zero in degree k > n, for g a
    generator and r a standard monomial of degree k - deg g <= n, given
    that the relations force every degree strictly between n and k to zero.

    Those products span degree k of the untruncated ring: a monomial of
    degree k is a generator times a monomial of degree k - deg g, which is
    zero when that degree lies between n and k and is a combination of
    standard monomials when it is at most n.  A product M is zero when an
    odd generator squares, when M is the one term of a relation, or when
    M / h has no quotient coordinates in ``gb`` for some generator h in M
    (none above degree n).  False proves nothing.
    """
    presentation = gb.presentation
    degrees = [d for _, d in presentation.generators]
    killed = {rel.monomials[0][1] for rel in presentation.relations if len(rel.monomials) == 1}
    for g, dg in enumerate(degrees):
        unit = tuple(int(i == g) for i in range(len(degrees)))
        for r in gb.representatives(k - dg):
            prod = _monomial_mul(degrees, unit, r)
            if prod is None or prod[1] in killed:
                continue
            m = prod[1]
            if any(
                x and not gb.coords(k - degrees[h], ((1, m[:h] + (x - 1,) + m[h + 1 :]),))
                for h, x in enumerate(m)
            ):
                continue
            return False
    return True


def euler_characteristic(presentation: AlgebraPresentation) -> int:
    gb = basis_and_dims(presentation)
    return sum((-1) ** k * r for k, r in enumerate(gb.ranks))


@dataclass(frozen=True)
class PDReport:
    holds: bool
    failing_degree: int | None = None
    detail: str = ""


def check_poincare_duality(presentation: AlgebraPresentation) -> PDReport:
    """Nondegeneracy of the pairing deg k x deg n-k -> deg n for all k.

    The Gram rows are not divided by the fundamental class's coordinate,
    which would scale every entry alike and leave the rank alone.
    """
    gb = basis_and_dims(presentation)
    n = presentation.n
    if gb.rank(n) != 1:
        return PDReport(False, n, f"top degree has rank {gb.rank(n)}, expected 1")
    return _duality_report(n, gb.representatives, _functional_rows(gb, n))


def _duality_report(top: int, basis, gram_rows) -> PDReport:
    """Nondegeneracy of basis(k) x basis(top - k) -> Q for every k <= top/2.

    ``basis(k)`` is a basis of degree k.  ``gram_rows(left, right)``
    yields one Gram row per element a of ``left``: the dict ``{j: v}`` of
    the nonzero coefficients v of a times ``right[j]`` in the
    one-dimensional degree ``top``.  The presentation builds its rows from
    the functional of its top degree (:func:`_functional_rows`, which
    builds the cup form's rows too); a concrete subalgebra and its
    quotient read them pair by pair (:func:`_pair_rows`).
    """
    for k in range(top // 2 + 1):
        left, right = basis(k), basis(top - k)
        if len(left) != len(right):
            return PDReport(
                False, k, f"rank {len(left)} in degree {k} vs {len(right)} in degree {top - k}"
            )
        if linalg.SparseSubspace(len(right), gram_rows(left, right)).rank != len(left):
            return PDReport(False, k, f"degenerate pairing in degree {k}")
    return PDReport(True)


def _pair_rows(pair):
    """Gram rows for :func:`_duality_report` from ``pair(a, b)``, the
    coefficient of one product in the top degree, called on every pair."""

    def rows(left, right):
        return ({j: v for j, b in enumerate(right) if (v := pair(a, b))} for a in left)

    return rows


def _functional_rows(gb: GradedBasis, degree: int):
    """Gram rows for :func:`_duality_report` through the functional of
    ``degree``, a degree of rank one.

    lambda(t) is the one quotient coordinate of the monomial t of that
    degree; each is computed once.  A product a b of standard monomials
    is the monomial t = a + b times its Koszul sign, so the row of a has
    the entry sign * lambda(t) at b for every t in the support of lambda
    with t - a a standard monomial of the complementary degree: each
    product's coordinate, without reducing one product per pair.
    """
    degrees = [d for _, d in gb.presentation.generators]
    support = []
    for t in gb.monomials(degree):
        coords = gb.coords(degree, ((1, t),))
        if coords:
            (value,) = coords.values()
            support.append((t, value))

    def rows(left, right):
        # an exponent vector with a negative entry is no standard monomial
        index = {b: j for j, b in enumerate(right)}
        for a in left:
            row = {}
            for t, value in support:
                j = index.get(tuple(map(operator.sub, t, a)))
                if j is not None:
                    sign, _ = _monomial_mul(degrees, a, right[j])
                    row[j] = value if sign > 0 else -value
            yield row

    return rows


def cup_square_form(presentation: AlgebraPresentation, k: int):
    """Gram matrix of deg k x deg k -> deg 2k when that target has rank 1.

    Returns (matrix of Fractions, representatives).  When 2k equals the
    formal dimension the values are normalized by the fundamental class
    (so signs, hence the signature, are canonical); otherwise they are
    read off the quotient basis and the matrix is canonical only up to
    a global rational scale, which still fixes the even-rank square
    class and the unordered signature pair.
    """
    gb = basis_and_dims(presentation)
    if gb.rank(2 * k) != 1:
        raise ValueError(f"degree {2 * k} has rank {gb.rank(2 * k)}, expected 1")
    reps = gb.representatives(k)
    unit = Fraction(1)  # an int zero over an int unit would be a float
    if 2 * k == presentation.n:
        (unit,) = gb.coords(2 * k, presentation.fundamental_class.monomials).values()
    rows = _functional_rows(gb, 2 * k)(reps, reps)
    return [[row.get(j, 0) / unit for j in range(len(reps))] for row in rows], reps


@lru_cache(maxsize=256)
def degree_two_form(presentation: AlgebraPresentation) -> quadform.QuadraticForm | None:
    """The cup form on degree 2 when n >= 4 and it pairs into a rank-one
    degree 4, else None; built once per presentation, for the parser's
    [betti] check and the battery's report alike."""
    gb = basis_and_dims(presentation)
    if presentation.n < 4 or gb.rank(2) < 1 or gb.rank(4) != 1:
        return None
    gram, _ = cup_square_form(presentation, 2)
    return quadform.QuadraticForm(tuple(tuple(row) for row in gram))


# ---------------------------------------------------------------------------
# Concrete subalgebras of an exterior algebra and quotients by a 1-class.
# ---------------------------------------------------------------------------


class ConcreteSubalgebra:
    """Graded subalgebra of Lambda*(Q^n) given by spanning multivectors."""

    def __init__(self, n: int, layers: Sequence[Sequence[Multivector]]):
        self.n = n
        self._span: list[linalg.SparseSubspace] = []
        self._basis: list[list[Multivector]] = []
        for k in range(n + 1):
            vecs = layers[k] if k < len(layers) else []
            span = linalg.SparseSubspace(math.comb(n, k), (v.coords(k) for v in vecs))
            self._span.append(span)
            self._basis.append([Multivector.from_coords(n, k, r) for r in span.rows])

    @classmethod
    def from_generators(cls, n: int, gens: Sequence[Multivector]) -> "ConcreteSubalgebra":
        """Close the unit and the given homogeneous elements under wedge.

        One worklist: an element that enlarges its degree's span is kept and
        wedged once with each element kept so far, itself included, so the
        kept elements span their own products, hence the closure.
        """
        if any(g.degree() is None for g in gens if not g.is_zero):
            raise ValueError("generators must be homogeneous")
        spans = [linalg.SparseSubspace(math.comb(n, k)) for k in range(n + 1)]
        layers = [[Multivector.scalar(n, 1)]] + [[] for _ in range(n)]
        todo = list(gens)
        while todo:
            v = todo.pop()
            k = v.degree()
            if k and spans[k].add(v.coords(k)):
                layers[k].append(v)
                todo.extend(wedge(a, v) for d in range(1, n - k + 1) for a in layers[d])
        return cls(n, layers)

    def basis(self, k: int) -> list[Multivector]:
        return list(self._basis[k])

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self._basis)

    @property
    def formal_dim(self) -> int:
        top = [k for k in range(self.n + 1) if self._basis[k]]
        return max(top) if top else 0

    def contains(self, v: Multivector) -> bool:
        return all(self._span[d].contains(v.coords(d)) for d in v.degrees())

    def coords_in_basis(self, v: Multivector, k: int) -> linalg.Vector | None:
        """Coordinates of a degree-k element in this subalgebra's basis, or None.

        The basis is the reduced echelon basis of the degree-k span, so
        the coordinates of a member are its entries at the pivot columns.
        """
        coords = v.coords(k)
        if not self._span[k].contains(coords):
            return None
        return [coords[p] for p in self._span[k].pivots]

    def check_poincare_duality(self) -> PDReport:
        """dim 1 top plus nondegenerate pairing into the top degree."""
        N = self.formal_dim
        if len(self._basis[N]) != 1:
            return PDReport(False, N, f"top degree {N} has dimension {len(self._basis[N])}")

        def pair(a: Multivector, b: Multivector) -> Fraction:
            w = wedge(a, b)
            c = None if w.is_zero else self.coords_in_basis(w, N)
            return c[0] if c else Fraction(0)

        return _duality_report(N, self.basis, _pair_rows(pair))


@dataclass(frozen=True)
class QuotientReport:
    dim_quotient: int
    dim_ideal: int
    quotient_dims: tuple[int, ...]
    ideal_dims: tuple[int, ...]
    pd_holds: bool
    failing_degree: int | None = None


def quotient_by_degree1(A: ConcreteSubalgebra, x: Multivector) -> QuotientReport:
    """Quotient of a Poincare duality subalgebra by the ideal (x), x of degree 1.

    Verifies dim A/(x) = dim (x) and that the quotient pairing into the
    image class in degree N-1 is nondegenerate (N = formal dimension of A).
    """
    if x.is_zero:
        raise ValueError("x must be nonzero")
    if x.degree() != 1:
        raise ValueError("x must have degree 1")
    if not A.contains(x):
        raise ValueError("x does not lie in the subalgebra")
    pd = A.check_poincare_duality()
    if not pd.holds:
        raise ValueError(f"subalgebra is not Poincare dual: {pd.detail}")
    N = A.formal_dim
    dims = A.dims()

    ideal_spans: list[linalg.SparseSubspace] = []
    ideal_dims = []
    for k in range(A.n + 1):
        rows = []
        if k >= 1:
            for b in A.basis(k - 1):
                w = wedge(x, b)
                if w.is_zero:
                    continue
                coords = A.coords_in_basis(w, k)
                if coords is None:
                    raise ValueError("ideal leaves the subalgebra; A is not closed under wedge")
                rows.append(coords)
        span = linalg.SparseSubspace(dims[k], rows)
        ideal_spans.append(span)
        ideal_dims.append(span.rank)

    quotient_dims = tuple(dims[k] - ideal_dims[k] for k in range(A.n + 1))
    dim_ideal = sum(ideal_dims)
    dim_quotient = sum(quotient_dims)

    def pair(a: Multivector, b: Multivector) -> Fraction:
        w = wedge(a, b)
        if w.is_zero:
            return Fraction(0)
        red = ideal_spans[N - 1].coords_modulo(A.coords_in_basis(w, N - 1))
        return next(iter(red.values()), Fraction(0))

    if quotient_dims[N] != 0 or (N >= 1 and quotient_dims[N - 1] != 1):
        pd_holds, failing = False, N
    else:
        # pairing of quotient classes into the 1-dimensional degree N-1 piece
        pd = _duality_report(N - 1, lambda k: _quotient_reps(A, ideal_spans, k), _pair_rows(pair))
        pd_holds, failing = pd.holds, pd.failing_degree

    return QuotientReport(
        dim_quotient=dim_quotient,
        dim_ideal=dim_ideal,
        quotient_dims=quotient_dims,
        ideal_dims=tuple(ideal_dims),
        pd_holds=pd_holds,
        failing_degree=failing,
    )


def _quotient_reps(
    A: ConcreteSubalgebra, ideal_spans: list[linalg.SparseSubspace], k: int
) -> list[Multivector]:
    """Basis vectors of A_k whose classes span A_k/(x)_k."""
    pivots = set(ideal_spans[k].pivots)
    return [b for i, b in enumerate(A.basis(k)) if i not in pivots]
