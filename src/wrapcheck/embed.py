"""Graded ring morphisms into exterior algebras: checks and search.

A candidate embedding assigns to each generator of a presented algebra
a homogeneous multivector of the same degree.  Verification is exact:
relations must map to zero and the fundamental class to a nonzero
element, which by Poincare duality of the source certifies
injectivity.

The search is a semidecision procedure.  The necessary-condition
checks it shares with the battery (:func:`necessary_checks`: Poincare
duality, Euler characteristic, degree-one subalgebra, graded dimension
bounds) can prove non-existence; otherwise the search tries structured exact
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
equal those of the dict arithmetic bit for bit.  The program evaluates
a batch of points, one row each, and ``least_squares`` gets a Jacobian
that runs the point and all the columns of scipy's '2-point' finite
difference through one such call.  It takes scipy's steps and forms
its differences in its order, and each row is bit-identical to one
call per point, so the Jacobian, and every trajectory, is scipy's own.
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
        # evaluate_polynomial repeats the generator checks for plain assignments
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


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict, the principle it rests on (PRINCIPLES[check_id]
    unless given) and its witness data."""

    check_id: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    principle: str = ""
    witness: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.principle:
            object.__setattr__(self, "principle", PRINCIPLES[self.check_id])

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


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
            rows = (
                gb.coords(j, ((1, tuple(map(sum, zip(*combo)))),))
                for combo in itertools.combinations(reps1, j)
            )
            got = linalg.SparseSubspace(len(gb.monomials(j)), rows).rank
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
    witness = {"b1": k, "n": n}
    principle = ""
    if reasons:
        witness.update(reasons[0])
        if len(reasons) > 1:
            witness["also"] = [r["reason"] for r in reasons[1:]]
        if reasons[0]["reason"] == "rank-n-minus-1-pairing":
            principle = PRINCIPLES["rank-n-minus-1"]
    return CheckResult("degree-one-subalgebra", "fail" if reasons else "pass", principle, witness)


def euler_obstruction(A: AlgebraPresentation) -> CheckResult:
    b1 = basis_and_dims(A).rank(1)
    chi = euler_characteristic(A)
    verdict = "fail" if b1 >= 1 and chi != 0 else "pass"
    return CheckResult("euler-characteristic", verdict, witness={"chi": chi, "b1": b1})


@lru_cache(maxsize=256)
def necessary_checks(A: AlgebraPresentation, n: int) -> tuple[CheckResult, ...]:
    """The ring checks (relative to A.n), then the graded dimension bounds
    for Lambda*(Q^n), in battery order.

    Computed once per presentation and target and shared: the battery
    reports them, the search stops at the first failure.
    """
    pd = check_poincare_duality(A)
    return (
        CheckResult(
            "poincare-duality",
            "pass" if pd.holds else "fail",
            witness={} if pd.holds else {"failing_degree": pd.failing_degree, "detail": pd.detail},
        ),
        euler_obstruction(A),
        torus_subalgebra_check(A),
        target_feasibility(A, n),
    )


def target_feasibility(A: AlgebraPresentation, n: int) -> CheckResult:
    """Graded dimension bounds for embedding into Lambda*(Q^n).

    Only a degree of positive rank can exceed its bound, so only those
    take a binomial: C(n, k) for every k costs quadratic big-int work.
    """
    gb = basis_and_dims(A)
    for k in range(A.n + 1):
        if gb.rank(k) == 0:
            continue
        bound = graded_dimension(n, k) if k <= n else 0
        if gb.rank(k) > bound:
            witness = {"degree": k, "rank": gb.rank(k), "bound": bound, "target_n": n}
            verdict = "fail"
            break
    else:
        verdict, witness = "pass", {"target_n": n}
    return CheckResult("graded-dimension-bound", verdict, witness=witness)


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


# the symmetry group a candidate list is closed under, smallest first
_NO_SYMMETRY, _SIGN_FLIPS, _SIGNED_PERMUTATIONS = range(3)


@lru_cache(maxsize=64)
def _disjoint_blade_candidates(n: int, degree: int, cap: int) -> tuple[list[dict[int, int]], int]:
    """Signed sums of pairwise disjoint degree-``degree`` blades, as
    ``{mask: +-1}`` dicts (shared through the cache: do not mutate), and
    the group of signed permutations of e1..en that maps the list onto
    itself.

    Ordered by term count, then lexicographically by blade mask, with
    all-positive sign patterns first, so that torus- and projective-
    space-style witnesses appear early and deterministically.  Each blade
    set takes its 2^k sign patterns one after another, ending with all
    negative.  A list the cap leaves whole is closed under every signed
    permutation (``_SIGNED_PERMUTATIONS``).  A list the cap cuts right
    after a blade set's last sign pattern holds every sign pattern of
    each of its blade sets, and a sign flip of basis vectors changes only
    the signs of a candidate: it is closed under sign flips
    (``_SIGN_FLIPS``).  Any other cut leaves ``_NO_SYMMETRY``.
    """
    if degree > n:
        return [], _SIGNED_PERMUTATIONS
    # the cap is reached among the first cap single blades, or the list
    # holds fewer than cap masks: no later mask is ever read
    masks = blade_masks(n, degree, limit=cap)
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
        last = (-1,) * size
        for combo in collections(0, 0, [], size):
            for signs in itertools.product((1, -1), repeat=size):
                out.append(dict(zip(combo, signs)))
                if len(out) >= cap:
                    return out, _SIGN_FLIPS if signs == last else _NO_SYMMETRY
    return out, _SIGNED_PERMUTATIONS


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
    fix every assigned image and are automorphisms of Lambda*(Q^n), so
    they preserve every prune and the leaf certificate.  Of them, the
    search uses the largest group that maps every deeper candidate list
    onto itself (see :func:`_disjoint_blade_candidates`):
      - all of them (G_L) when every deeper list is uncapped, with
        :func:`_orbit_key` naming a candidate's orbit;
      - only the sign flips outside U (F_L) when some deeper list is
        capped but each capped one ends on a whole sign group, with
        :func:`_flip_key`;
      - none when some deeper list is cut inside a sign group: no level
        above it skips anything.
    Then a candidate's subtree is the image of any orbit sibling's.  Once
    one candidate of an orbit has been explored to the end without a
    witness, its siblings are not visited: each is charged that
    subtree's node count, capped at the budget.  The image subtree visits
    the images of the same nodes, prunes them alike and finds no witness
    either, so this is exactly what visiting it would cost and return:
    ``node_budget`` and the returned count still measure the unpruned
    search, whichever group a level uses.
    """
    gens = A.generators
    lists = [_disjoint_blade_candidates(n, deg, CANDIDATE_CAP) for _, deg in gens]
    candidates = [cands for cands, _ in lists]
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
    # the orbit key of each level: that of the largest group mapping every
    # deeper list onto itself, None if no group does
    keys = {_SIGNED_PERMUTATIONS: _orbit_key, _SIGN_FLIPS: _flip_key}
    orbit_keys = [
        keys.get(min((group for _, group in lists[level + 1:]), default=_SIGNED_PERMUTATIONS))
        for level in range(len(gens))
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
        orbit_key = orbit_keys[level]
        explored: dict[tuple, int] | None = {} if orbit_key else None
        for i, cand in enumerate(candidates[level]):
            if nodes >= node_budget:
                return None
            nodes += 1
            if explored is not None:
                key = orbit_key(cand, used)
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


def _flip_key(cand: dict[int, int], used: int) -> tuple:
    """A name for the orbit of the candidate ``cand`` under the sign flips
    of the basis vectors outside the mask ``used``.

    Per blade ``m`` with sign ``s``: ``m`` itself, which no flip moves,
    and ``s`` if ``m`` lies in ``used``.  A blade that leaves ``used``
    takes either sign by flipping one of its outside vectors, and the
    blades of a candidate are disjoint, so those signs change
    independently: candidates with equal keys lie in one orbit.
    """
    return tuple([(m, 0 if m & ~used else s) for m, s in cand.items()])


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
    Returns ``images(X)``: for a ``(rows, nvars)`` batch of assignments,
    one row per assignment of the image coordinates on the ascending
    blade basis of each degree, stacked in ``polys`` order.

    Each monomial is a chain of :func:`wedge_table` products, one per
    factor; the monomials that have a t-th factor take their t-th
    product together, in one gather and one ``np.bincount`` scatter, and
    a last scatter adds the monomials of each polynomial in order.  That
    is the summation order of :func:`evaluate_polynomial` on float
    multivectors, so the images equal its coordinates bit for bit
    (barring the exact cancellations :func:`wedge_table` names), and
    the float search's least-squares trajectories stay those of the
    dict arithmetic.  A batch scatters every row at once into the bins
    ``row * size + slot``; ``np.bincount`` adds each bin's weights in
    input order, so each row is what a batch of one gives.
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
    by_batch: dict[int, tuple] = {}

    def prepared(batch: int) -> tuple:
        """The coefficients broadcast to the batch, the scatter bins of each
        product, and those of the last scatter."""
        if batch not in by_batch:
            base = np.arange(batch, dtype=np.intp)[:, None]
            scatters = [(T, size) for _, _, T, _, size in products] + [(targets, out_len)]
            *product_bins, target_bins = [(base * size + T).ravel() for T, size in scatters]
            by_batch[batch] = (np.broadcast_to(coeffs, (batch, coeffs.size)), product_bins, target_bins)
        return by_batch[batch]

    def images(X: np.ndarray) -> np.ndarray:
        batch = X.shape[0]
        v, product_bins, target_bins = prepared(batch)
        ended = [v[:, ends[0]:]]
        for (I, G, _, S, size), B, end in zip(products, product_bins, ends[1:]):
            v = np.bincount(B, (v[:, I] * X[:, G] * S).ravel(), minlength=batch * size)
            v = v.reshape(batch, size)
            ended.append(v[:, end:])
        picked = np.concatenate(ended, axis=1)[:, pick].ravel()
        return np.bincount(target_bins, picked, minlength=batch * out_len).reshape(batch, out_len)

    return images


def _row_dots(F: np.ndarray) -> np.ndarray:
    """``[f @ f for f in F]`` in one stacked matmul, bit for bit: numpy
    takes each 1 x k by k x 1 product with the dot routine of ``f @ f``."""
    return np.matmul(F[:, None, :], F[:, :, None])[:, 0, 0]


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

    def residual_rows(X: np.ndarray) -> np.ndarray:
        coords = images(X)
        return np.column_stack((coords[:, :nrel], _row_dots(coords[:, nrel:]) - 1.0))

    def residuals(x: np.ndarray) -> np.ndarray:
        return residual_rows(x[None, :])[0]

    nvars = int(offsets[-1])
    rel_step = np.finfo(float).eps ** 0.5

    def jacobian(x: np.ndarray) -> np.ndarray:
        # scipy's '2-point' Jacobian without bounds, bit for bit: its step,
        # its f0 as row 0, one perturbed coordinate per further row, and
        # the transpose of its column-by-row array
        h = rel_step * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
        X = np.tile(x, (nvars + 1, 1))
        np.fill_diagonal(X[1:], x + h)
        rows = residual_rows(X)
        dx = (x + h) - x
        return ((rows[1:] - rows[0]) / dx[:, None]).T

    method = "lm" if nrel + 1 >= nvars and nvars <= 60 else "trf"
    best_res = None
    for trial in range(restarts):
        rng = np.random.default_rng((seed, trial))
        x0 = rng.normal(0.0, 1.0, size=nvars)
        sol = least_squares(residuals, x0, jac=jacobian, method=method)
        coords = images(sol.x[None, :])[0]
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
    obstruction = next((c for c in necessary_checks(A, n) if c.failed), None)
    if obstruction is not None:
        return SearchOutcome("not-found", obstruction=obstruction)

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
