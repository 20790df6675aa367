"""Graded ring morphisms into exterior algebras: checks and search.

A candidate embedding assigns to each generator of a presented algebra
a homogeneous multivector of the same degree.  Verification is exact:
relations must map to zero and the fundamental class to a nonzero
element, which by Poincare duality of the source certifies
injectivity.

The search is a semidecision procedure.  Necessary-condition checks
(the ring checks shared with the battery -- Poincare duality, Euler
characteristic, degree-one subalgebra -- then graded dimension bounds)
can prove non-existence; otherwise the search tries structured exact
candidates (signed sums of disjoint blades per generator, with
backtracking) and then seeded random-restart nonlinear least squares.
A floating candidate is certified only when rounding to small
denominators produces an exact witness; "not-found" is never a proof.

The exact stage prunes in Python int arithmetic: candidates carry +-1
coefficients, and each relation is scaled by the lcm of its
denominators, which does not change where it vanishes.  Only a leaf
becomes a :class:`RingMorphism`, certified by :func:`verify_morphism`
and the fundamental-class check in ``Fraction`` arithmetic.

The least-squares residuals are compiled once per search into numpy
index and sign tables (:func:`_image_program`), so one evaluation is a
few gathers and ``np.bincount`` scatters instead of dict arithmetic.
Finite-difference Jacobians amplify rounding differences into
different trajectories, so the tables keep the exact summation order
of :func:`evaluate_polynomial` on float multivectors -- the left
operand of each product in the order the dict wedge leaves it, not in
ascending blade order -- and the residuals, hence the search outcomes,
equal those of the dict arithmetic bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np
from scipy.optimize import least_squares

from . import linalg
from .algebra import (
    AlgebraPresentation,
    GradedPolynomial,
    basis_and_dims,
    check_poincare_duality,
    euler_characteristic,
    evaluate_polynomial,
)
from .exterior import Multivector, blade_masks, graded_dimension, wedge_table, wedge_terms

RESIDUAL_TOL = 1e-9
FC_NORM_MIN = 1e-6
LIFT_DENOMINATOR_BOUND = 10**4
# structured candidates tried per generator in the exact stage
CANDIDATE_CAP = 512


@dataclass(frozen=True)
class RingMorphism:
    """Generator assignment defining a graded ring map into Lambda*(Q^n)."""

    source: AlgebraPresentation
    n: int
    assignment: Mapping[str, Multivector]
    mode: str = "exact"  # "exact" | "floating"

    def __post_init__(self):
        if self.mode not in ("exact", "floating"):
            raise ValueError(f"unknown arithmetic mode {self.mode!r}")
        for name, deg in self.source.generators:
            if name not in self.assignment:
                raise ValueError(f"assignment is missing generator {name}")
            mv = self.assignment[name]
            if mv.n != self.n:
                raise ValueError(f"assigned multivector for {name} lives in dimension {mv.n}")
            d = mv.degree()
            if d is not None and d != deg:
                raise ValueError(f"generator {name} has degree {deg}, image degree {d}")
            if self.mode == "exact":
                for _, c in mv.items():
                    if not isinstance(c, Fraction):
                        raise ValueError("exact mode requires rational coefficients")

    def evaluate(self, p: GradedPolynomial) -> Multivector:
        return evaluate_polynomial(p, self.assignment, self.n)


def failing_relations(m: RingMorphism, tol=0) -> list[tuple[int, GradedPolynomial, Multivector]]:
    """Relations whose images are nonzero (exactly, or above tol),
    as (index, relation, image) witnesses."""
    if m.mode == "exact" and tol != 0:
        raise ValueError("tol must be 0 in exact mode")
    out = []
    for i, rel in enumerate(m.source.relations):
        image = m.evaluate(rel)
        bad = (not image.is_zero) if m.mode == "exact" else image.max_abs_coeff() > tol
        if bad:
            out.append((i, rel, image))
    return out


def verify_morphism(m: RingMorphism, tol=0) -> bool:
    """True iff every relation maps to zero (exactly, or below tol)."""
    return not failing_relations(m, tol)


def certify_injective(m: RingMorphism) -> bool:
    """Nonvanishing of the fundamental class image, after the preconditions.

    Requires the source to satisfy Poincare duality and the relations
    to map to zero; violations raise instead of silently passing.
    """
    pd = check_poincare_duality(m.source)
    if not pd.holds:
        raise ValueError(f"source is not a Poincare duality algebra: {pd.detail}")
    if not verify_morphism(m, tol=0 if m.mode == "exact" else RESIDUAL_TOL):
        raise ValueError("relations do not map to zero; morphism is not well defined")
    image = m.evaluate(m.source.fundamental_class)
    if m.mode == "exact":
        return not image.is_zero
    return image.max_abs_coeff() >= FC_NORM_MIN


# ---------------------------------------------------------------------------
# Necessary-condition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    principle: str
    witness: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


PRINCIPLES = {
    "fundamental-group-growth": (
        "the fundamental group of a closed elliptic or quasiregularly elliptic "
        "n-manifold has polynomial growth of degree at most n"
    ),
    "fundamental-group-abelian": (
        "the fundamental group of a closed elliptic or quasiregularly elliptic "
        "manifold is virtually abelian"
    ),
    "poincare-duality": (
        "the real cohomology ring of a closed oriented manifold satisfies "
        "Poincare duality"
    ),
    "degree-one-subalgebra": (
        "the real cohomology ring of a closed elliptic or quasiregularly "
        "elliptic n-manifold embeds in the exterior algebra on n generators, "
        "so the subalgebra generated by degree one must be a free exterior "
        "algebra on at most n classes"
    ),
    "rank-n-minus-1": (
        "the first Betti number of a closed elliptic or quasiregularly "
        "elliptic n-manifold is never exactly n-1: the top product of n-1 "
        "independent one-classes would have to pair with a one-form outside "
        "their span"
    ),
    "euler-characteristic": (
        "a closed elliptic or quasiregularly elliptic manifold with infinite "
        "fundamental group has Euler characteristic zero"
    ),
    "graded-dimension-bound": (
        "an injective graded map into the exterior algebra on n generators "
        "forces every Betti number b_k to be at most C(n, k)"
    ),
    "four-manifold-intersection": (
        "a closed quasiregularly elliptic 4-manifold is, up to finite covers "
        "and homeomorphism, on the connected-sum list with intersection form "
        "embedding into the signature-(3,3) wedge pairing, or covered by "
        "T^4, T^2 x S^2, or S^1 x S^3 when the fundamental group is infinite"
    ),
}


def torus_subalgebra_check(A: AlgebraPresentation) -> CheckResult:
    """Degree-one subalgebra obstructions, relative to A's own dimension n.

    Fails when b_1 > n, when b_1 = n-1 (pairing contradiction), or when
    the subalgebra generated by degree one is not free exterior (some
    product rank drops below C(b_1, j)).  Distinct degree-one monomials
    multiply to plus or minus the monomial of their summed exponents, and
    a row's sign leaves the rank alone, so each row is that monomial's
    quotient coordinates.
    """
    gb = basis_and_dims(A)
    n = A.n
    k = gb.rank(1)
    reasons: list[dict] = []
    if k > n:
        reasons.append({"reason": "rank-exceeds-dimension"})
    if k == n - 1 and k > 0:
        reasons.append({"reason": "rank-n-minus-1-pairing"})
    if k <= n:
        reps1 = gb.representatives(1)
        for j in range(2, k + 1):
            target = math.comb(k, j)
            rows = [
                gb.coords(j, ((1, tuple(map(sum, zip(*combo)))),))
                for combo in itertools.combinations(reps1, j)
            ]
            got = linalg.rank(rows)
            if got < target:
                reasons.append(
                    {
                        "reason": "not-free-exterior",
                        "degree": j,
                        "rank": got,
                        "expected": target,
                    }
                )
                break
    if reasons:
        primary = reasons[0]
        principle = (
            PRINCIPLES["rank-n-minus-1"]
            if primary["reason"] == "rank-n-minus-1-pairing"
            else PRINCIPLES["degree-one-subalgebra"]
        )
        witness = {"b1": k, "n": n, **primary}
        if len(reasons) > 1:
            witness["also"] = [r["reason"] for r in reasons[1:]]
        return CheckResult("degree-one-subalgebra", "fail", principle, witness)
    return CheckResult(
        "degree-one-subalgebra", "pass", PRINCIPLES["degree-one-subalgebra"], {"b1": k, "n": n}
    )


def euler_obstruction(A: AlgebraPresentation) -> CheckResult:
    gb = basis_and_dims(A)
    chi = euler_characteristic(A)
    b1 = gb.rank(1)
    if b1 >= 1 and chi != 0:
        return CheckResult(
            "euler-characteristic",
            "fail",
            PRINCIPLES["euler-characteristic"],
            {"chi": chi, "b1": b1},
        )
    return CheckResult(
        "euler-characteristic", "pass", PRINCIPLES["euler-characteristic"], {"chi": chi, "b1": b1}
    )


@lru_cache(maxsize=256)
def ring_checks(A: AlgebraPresentation) -> tuple[CheckResult, ...]:
    """Intrinsic checks (relative to A.n), in battery order.

    Computed once per presentation and shared: the battery reports all
    of them, the search stops at the first failure.
    """
    pd = check_poincare_duality(A)
    return (
        CheckResult(
            "poincare-duality",
            "pass" if pd.holds else "fail",
            PRINCIPLES["poincare-duality"],
            {} if pd.holds else {"failing_degree": pd.failing_degree, "detail": pd.detail},
        ),
        euler_obstruction(A),
        torus_subalgebra_check(A),
    )


def target_feasibility(A: AlgebraPresentation, n: int) -> CheckResult:
    """Graded dimension bounds for embedding into Lambda*(Q^n)."""
    gb = basis_and_dims(A)
    for k in range(A.n + 1):
        bound = graded_dimension(n, k) if k <= n else 0
        if gb.rank(k) > bound:
            return CheckResult(
                "graded-dimension-bound",
                "fail",
                PRINCIPLES["graded-dimension-bound"],
                {"degree": k, "rank": gb.rank(k), "bound": bound, "target_n": n},
            )
    return CheckResult(
        "graded-dimension-bound", "pass", PRINCIPLES["graded-dimension-bound"], {"target_n": n}
    )


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found-certified" | "found-numerical" | "not-found"
    morphism: RingMorphism | None = None
    residual: float | None = None
    fc_norm: float | None = None
    trial_index: int | None = None
    obstruction: CheckResult | None = None
    best_residual: float | None = None
    nodes_used: int = 0

    @property
    def found(self) -> bool:
        return self.status.startswith("found")


@lru_cache(maxsize=64)
def _disjoint_blade_candidates(n: int, degree: int, cap: int) -> list[dict[int, int]]:
    """Signed sums of pairwise disjoint degree-``degree`` blades, as
    ``{mask: +-1}`` dicts (shared through the cache: do not mutate).

    Ordered by term count, then lexicographically by blade mask, with
    all-positive sign patterns first, so that torus- and projective-
    space-style witnesses appear early and deterministically.
    """
    if degree > n:
        return []
    masks = blade_masks(n, degree)
    out: list[dict[int, int]] = []
    max_terms = n // degree

    def collections(start: int, used: int, acc: list[int], size: int):
        if len(acc) == size:
            yield tuple(acc)
            return
        for i in range(start, len(masks)):
            m = masks[i]
            if m & used:
                continue
            acc.append(m)
            yield from collections(i + 1, used | m, acc, size)
            acc.pop()

    for size in range(1, max_terms + 1):
        for combo in collections(0, 0, [], size):
            for signs in itertools.product((1, -1), repeat=size):
                out.append(dict(zip(combo, signs)))
                if len(out) >= cap:
                    return out
    return out


def _int_terms(p: GradedPolynomial) -> list[tuple[int, list[int]]]:
    """``p`` times the lcm of its denominators, as (integer coefficient,
    generator index per factor) pairs; the scale does not move its zeros."""
    scale = math.lcm(*(c.denominator for c, _ in p.monomials))
    return [
        ((c * scale).numerator, [g for g, x in enumerate(e) for _ in range(x)])
        for c, e in p.monomials
    ]


def _exact_stage(
    A: AlgebraPresentation, n: int, node_budget: int
) -> tuple[RingMorphism | None, int]:
    """Backtracking over structured candidates with relation pruning.

    Nodes are pruned in integer arithmetic; each leaf becomes a
    :class:`RingMorphism` over the rationals, returned only if it passes
    :func:`verify_morphism` and keeps the fundamental class nonzero.

    A relation is checked at the level of its last generator.  Each of
    its terms lists its factors in ascending generator order, so the
    product of the factors below that level is a prefix, fixed for all
    of the level's candidates: it is computed once on entering the
    level, and each candidate only wedges in its own power.  Powers are
    computed once per search, keyed by the candidate's index in its
    level's list (levels of one degree share that list, and so the
    powers).  The exterior product is associative, so every product,
    hence every prune, node count and witness, equals that of the
    factor-by-factor loop.

    Subtrees that mirror an explored sibling are skipped (isomorph
    rejection).  At level L let U be the union of the blades assigned
    above it.  The signed permutations of the basis vectors outside U
    (the group G_L) are automorphisms of Lambda*(Q^n) that fix every
    assigned image, so they preserve every prune and the leaf
    certificate; when every deeper candidate list is uncapped, each of
    those lists is G_L-invariant, and a candidate's subtree is the G_L
    image of any orbit sibling's.  :func:`_orbit_key` names a
    candidate's orbit.  Once one candidate of an orbit has been explored
    to the end without a witness, its siblings are not visited: each is
    charged that subtree's node count, capped at the budget.  This is
    exactly what visiting it would cost and return, so ``node_budget``
    and the returned count still measure the unpruned search.
    """
    gens = A.generators
    candidates = [_disjoint_blade_candidates(n, deg, CANDIDATE_CAP) for _, deg in gens]
    if any(not c for c in candidates):
        return None, 0
    # relations become checkable once all their generators are assigned;
    # at level L each term is (coefficient, factors below L, power of L)
    rels_by_level: list[list] = [[] for _ in range(len(gens) + 1)]
    for rel in A.relations:
        terms = _int_terms(rel)
        last = max((g for _, f in terms for g in f), default=-1)
        split = []
        for coeff, factors in terms:
            e = factors.count(last)
            split.append((coeff, factors[: len(factors) - e], e))
        rels_by_level[last + 1].append(split)
    fc = A.fundamental_class
    fc_exps = fc.monomials[0][1] if len(fc.monomials) == 1 else None
    # the highest power of its image that each level wedges in
    top = [
        max(
            [e for split in rels_by_level[level + 1] for _, _, e in split]
            + [fc_exps[level] if fc_exps is not None else 0]
        )
        for level in range(len(gens))
    ]
    # orbit rejection at a level needs uncapped, hence G_L-invariant,
    # lists below it
    symmetric = [
        all(len(c) < CANDIDATE_CAP for c in candidates[level + 1:]) for level in range(len(gens))
    ]
    # powers[d][i]: [None, c, c^2, ...] for the i-th degree-d candidate c,
    # extended as far as a level asks; a level that needs no square reads
    # the candidate itself
    powers = {deg: [None] * len(c) for (_, deg), c in zip(gens, candidates)}

    images: list[dict[int, int]] = [{} for _ in gens]
    # prefixes[i]: images of the single-monomial fundamental class's
    # factors on generators below i, wedged together
    prefixes: list[dict[int, int]] = [{0: 1}] * (len(gens) + 1)
    nodes = 0

    def power_list(level: int, i: int):
        cand = candidates[level][i]
        if top[level] < 2:
            return (None, cand)
        cached = powers[gens[level][1]]
        pw = cached[i]
        if pw is None:
            pw = cached[i] = [None, cand]
        while len(pw) <= top[level]:
            pw.append(wedge_terms(pw[-1], cand))
        return pw

    def backtrack(level: int, used: int) -> RingMorphism | None:
        """Search below the images of levels < ``level``, whose blades
        cover the basis vectors in the mask ``used``."""
        nonlocal nodes
        if level == len(gens):
            assignment = {nm: Multivector(n, img) for (nm, _), img in zip(gens, images)}
            m = RingMorphism(A, n, assignment)
            if verify_morphism(m) and not m.evaluate(fc).is_zero:
                return m
            return None
        # per relation: the sum of its terms free of this level's
        # generator, and the (prefix, power) pairs of the others
        checks = []
        for split in rels_by_level[level + 1]:
            fixed: dict[int, int] = {}
            varying = []
            for coeff, below, e in split:
                prefix = {0: coeff}
                for g in below:
                    prefix = wedge_terms(prefix, images[g])
                if not prefix:
                    continue
                if e:
                    varying.append((prefix, e))
                else:
                    for m, c in prefix.items():
                        fixed[m] = fixed.get(m, 0) + c
            checks.append((fixed, varying))
        # orbit key -> nodes below the orbit's explored candidate
        explored: dict[tuple, int] | None = {} if symmetric[level] else None
        for i, cand in enumerate(candidates[level]):
            if nodes >= node_budget:
                return None
            nodes += 1
            if explored is not None:
                key = _orbit_key(cand, used)
                below = explored.get(key)
                if below is not None:
                    nodes = min(nodes + below, node_budget)
                    continue
                # a pruned candidate has no nodes below it
                explored[key] = 0
            images[level] = cand
            pw = power_list(level, i)
            if not all(_vanishes(fixed, varying, pw) for fixed, varying in checks):
                continue
            if fc_exps is not None:
                prefix = prefixes[level]
                if fc_exps[level]:
                    prefix = wedge_terms(prefix, pw[fc_exps[level]])
                if not prefix:
                    continue
                prefixes[level + 1] = prefix
            start = nodes
            # the blades of a candidate are disjoint: their sum is their union
            found = backtrack(level + 1, used | sum(cand))
            if found is not None:
                return found
            # a subtree cut by the budget is not complete; the next
            # candidate returns before any sibling could be charged for it
            if explored is not None and nodes < node_budget:
                explored[key] = nodes - start
        return None

    found = backtrack(0, 0)
    # backtrack reaches itself through its closure; unbinding it frees the
    # search's state, the cached powers among it, now and not at the next
    # full collection
    del backtrack
    return found, nodes


def _orbit_key(cand: dict[int, int], used: int) -> tuple:
    """A name for the orbit of the candidate ``cand`` under the signed
    permutations of the basis vectors outside the mask ``used``.

    Per blade ``m`` with sign ``s``: the part of ``m`` in ``used``,
    which those permutations fix, the size of the rest, which they can
    move onto any other set of that size, and ``s`` if ``m`` lies in
    ``used`` (a blade that leaves ``used`` takes either sign by flipping
    one of its outside vectors).  The blades of a candidate are
    disjoint, so one permutation moves all of them at once: candidates
    with equal keys lie in one orbit.
    """
    return tuple(
        sorted(
            (m & used, (m & ~used).bit_count(), 0 if m & ~used else s)
            for m, s in cand.items()
        )
    )


def _vanishes(fixed: dict[int, int], varying, pw) -> bool:
    """Whether ``fixed`` plus each prefix times ``pw[e]`` is zero, ``pw``
    listing the powers of a candidate by exponent."""
    if not fixed and len(varying) == 1:
        # wedge_terms drops cancelled terms, so a zero product is empty
        prefix, e = varying[0]
        return not wedge_terms(prefix, pw[e])
    total = dict(fixed)
    for prefix, e in varying:
        for m, c in wedge_terms(prefix, pw[e]).items():
            total[m] = total.get(m, 0) + c
    return not any(total.values())


class _Chain(NamedTuple):
    """One monomial as a chain of wedge products, for :func:`_image_program`."""

    index: int  # position among all monomials, in polynomial order
    coeff: float
    rows: list  # per factor: (left slot, x index, product slot, sign) rows
    sizes: list  # support size before the first and after each factor
    slots: list  # output slot of each final support mask


def _image_program(polys, n: int, gen_masks, offsets):
    """Compile the images of polynomials under a float assignment.

    Generator ``g`` maps to ``sum_j x[offsets[g] + j] e_{gen_masks[g][j]}``
    and ``polys`` pairs each polynomial with the degree of its image.
    Returns ``images(x)``: the image coordinates on the ascending blade
    basis of each degree, stacked in ``polys`` order.

    Each monomial is a chain of :func:`wedge_table` products, one per
    factor; the monomials that have a t-th factor take their t-th
    product together, in one gather and one ``np.bincount`` scatter, and
    a last scatter adds the monomials of each polynomial in order.  That
    is the summation order of :func:`evaluate_polynomial` on float
    multivectors, so the images equal its coordinates bit for bit
    (barring the exact cancellations :func:`wedge_table` names), and
    the float search's least-squares trajectories stay those of the
    dict arithmetic.
    """
    chains: list[_Chain] = []
    out_len = 0
    for p, deg in polys:
        slot = {m: out_len + i for i, m in enumerate(blade_masks(n, deg))}
        out_len += len(slot)
        for coeff, exps in p.monomials:
            support, rows, sizes = [0], [], [1]
            for g, e in enumerate(exps):
                for _ in range(e):
                    support, pairs = wedge_table(support, gen_masks[g])
                    rows.append([(i, offsets[g] + j, k, s) for i, j, k, s in pairs])
                    sizes.append(len(support))
            if support:
                slots = [slot[m] for m in support]
                chains.append(_Chain(len(chains), float(coeff), rows, sizes, slots))

    # The state after product t holds the partial products of the chains
    # with at least t factors, most factors first: the chains that take
    # product t + 1 are a prefix, the ones that end at t a suffix.
    chains.sort(key=lambda c: -len(c.rows))
    factors = len(chains[0].rows) if chains else 0
    products = []
    for t in range(1, factors + 1):
        I, G, T, S = [], [], [], []
        left = right = 0
        for c in chains:
            if len(c.rows) < t:
                break
            for i, gx, k, s in c.rows[t - 1]:
                I.append(left + i)
                G.append(gx)
                T.append(right + k)
                S.append(s)
            left += c.sizes[t - 1]
            right += c.sizes[t]
        products.append(
            (
                np.array(I, dtype=np.intp),
                np.array(G, dtype=np.intp),
                np.array(T, dtype=np.intp),
                np.array(S, dtype=float),
                right,
            )
        )
    ends = [sum(c.sizes[t] for c in chains if len(c.rows) > t) for t in range(factors + 1)]
    # the ended suffixes stack by factor count; the last scatter takes them
    # back in polynomial-then-monomial order
    by_factors = sorted(chains, key=lambda c: len(c.rows))
    stacked = [(c.index, slot) for c in by_factors for slot in c.slots]
    order = sorted(range(len(stacked)), key=lambda r: stacked[r][0])
    pick = np.array(order, dtype=np.intp)
    targets = np.array([stacked[r][1] for r in order], dtype=np.intp)
    coeffs = np.array([c.coeff for c in chains])

    def images(x: np.ndarray) -> np.ndarray:
        v = coeffs
        ended = [v[ends[0]:]]
        for (I, G, T, S, size), end in zip(products, ends[1:]):
            v = np.bincount(T, v[I] * x[G] * S, minlength=size)
            ended.append(v[end:])
        return np.bincount(targets, np.concatenate(ended)[pick], minlength=out_len)

    return images


def _float_stage(A: AlgebraPresentation, n: int, restarts: int, seed: int) -> SearchOutcome:
    """Random-restart least squares on relation residuals.

    Minimizes the stacked relation coefficients plus (|FC|^2 - 1); the
    solution cone is invariant under degree-weighted scaling, so
    normalizing the fundamental-class image is harmless.
    """
    gens = A.generators
    names = [nm for nm, _ in gens]
    degs = [d for _, d in gens]
    sizes = [math.comb(n, d) if d <= n else 0 for d in degs]
    if any(s == 0 for s in sizes):
        return SearchOutcome("not-found")
    offsets = np.cumsum([0] + sizes)
    masks = {d: blade_masks(n, d) for d in set(degs)}

    active_relations = [r for r in A.relations if (r.degree() or 0) <= n]
    fc = A.fundamental_class
    images = _image_program(
        [(rel, rel.degree()) for rel in active_relations] + [(fc, A.n)],
        n,
        [masks[d] for d in degs],
        offsets,
    )
    nrel = sum(math.comb(n, rel.degree()) for rel in active_relations)

    def to_assignment(x: np.ndarray, bound: int | None = None) -> dict[str, Multivector]:
        """Float images, or rationals with denominators at most ``bound``."""
        out = {}
        for i, name in enumerate(names):
            coeffs = (float(c) for c in x[offsets[i]: offsets[i + 1]])
            if bound is not None:
                coeffs = (Fraction(c).limit_denominator(bound) for c in coeffs)
            out[name] = Multivector(n, dict(zip(masks[degs[i]], coeffs)))
        return out

    def residuals(x: np.ndarray) -> np.ndarray:
        coords = images(x)
        fc_vec = coords[nrel:]
        return np.append(coords[:nrel], fc_vec @ fc_vec - 1.0)

    nvars = int(offsets[-1])
    method = "lm" if nrel + 1 >= nvars and nvars <= 60 else "trf"
    best_res = None
    for trial in range(restarts):
        rng = np.random.default_rng((seed, trial))
        x0 = rng.normal(0.0, 1.0, size=nvars)
        sol = least_squares(residuals, x0, method=method)
        coords = images(sol.x)
        rel_resid = float(np.max(np.abs(coords[:nrel]), initial=0.0))
        fc_norm = math.sqrt(sum(float(c) ** 2 for c in coords[nrel:]))
        if best_res is None or rel_resid < best_res:
            best_res = rel_resid
        if rel_resid <= RESIDUAL_TOL and fc_norm >= FC_NORM_MIN:
            # lift along a ladder of denominators, exact re-verification only
            for bound in (1, 2, 4, 8, 16, LIFT_DENOMINATOR_BOUND):
                try:
                    m_exact = RingMorphism(A, n, to_assignment(sol.x, bound), "exact")
                except ValueError:
                    continue
                if verify_morphism(m_exact) and not m_exact.evaluate(fc).is_zero:
                    return SearchOutcome("found-certified", m_exact, rel_resid, fc_norm, trial)
            m_float = RingMorphism(A, n, to_assignment(sol.x), "floating")
            return SearchOutcome("found-numerical", m_float, rel_resid, fc_norm, trial)
    return SearchOutcome("not-found", best_residual=best_res)


def search_embedding(
    A: AlgebraPresentation,
    n: int,
    budget: int = 20000,
    seed: int = 0,
    float_restarts: int = 0,
) -> SearchOutcome:
    """Look for an injective graded ring map into Lambda*(Q^n).

    ``budget`` caps the number of backtracking nodes in the exact
    stage; ``float_restarts`` (default 0, exact stage only) counts
    seeded least-squares restarts.  Identical arguments give identical
    output.
    """
    for check in ring_checks(A):
        if check.failed:
            return SearchOutcome("not-found", obstruction=check)
    feas = target_feasibility(A, n)
    if feas.failed:
        return SearchOutcome("not-found", obstruction=feas)

    found, nodes = _exact_stage(A, n, budget)
    if found is not None:
        return SearchOutcome(
            "found-certified",
            morphism=found,
            residual=0.0,
            trial_index=0,
            nodes_used=nodes,
        )
    if float_restarts > 0:
        return replace(_float_stage(A, n, float_restarts, seed), nodes_used=nodes)
    return SearchOutcome("not-found", nodes_used=nodes)
