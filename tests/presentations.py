"""Ready-made cohomology presentations for common closed manifolds.

These mirror the bundled descriptor corpus and are convenient for
tests: spheres, tori, projective spaces, surfaces, connected sums of
4-manifolds, nilmanifolds of the Heisenberg and filiform algebras, and
two boundary-of-thickening examples (the 2-skeleton of the 3-torus,
and the 9-manifold built from a rational Poincare duality space whose
cup form has square class -2).  Also larger rings with their Betti
numbers in closed form, seeded random presentations, and any
presentation with its generator table reversed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from wrapcheck import algebra
from wrapcheck.algebra import (
    AlgebraPresentation,
    DegeneratePresentation,
    GradedPolynomial,
    basis_and_dims,
)


def _poly(gens, *terms) -> GradedPolynomial:
    """The sum of (coefficient, {generator name: exponent}) terms."""
    names = [nm for nm, _ in gens]
    monomials = []
    for coeff, exps in terms:
        vec = [0] * len(gens)
        for name, e in exps.items():
            vec[names.index(name)] = e
        monomials.append((coeff, tuple(vec)))
    return GradedPolynomial(gens, tuple(monomials))


def _mono(gens, coeff, **exps) -> GradedPolynomial:
    return _poly(gens, (coeff, exps))


def sphere(n: int) -> AlgebraPresentation:
    gens = (("u", n),)
    rels = (_mono(gens, 1, u=2),) if n % 2 == 0 else ()
    return AlgebraPresentation(gens, rels, n, _mono(gens, 1, u=1))


def torus(k: int, names: tuple[str, ...] | None = None) -> AlgebraPresentation:
    names = names or tuple(f"x{i}" for i in range(1, k + 1))
    gens = tuple((nm, 1) for nm in names)
    fc = GradedPolynomial(gens, ((1, (1,) * k),))
    return AlgebraPresentation(gens, (), k, fc)


def complex_projective(k: int) -> AlgebraPresentation:
    gens = (("w", 2),)
    return AlgebraPresentation(gens, (_mono(gens, 1, w=k + 1),), 2 * k, _mono(gens, 1, w=k))


def genus_surface(g: int) -> AlgebraPresentation:
    """Closed oriented surface of genus g >= 1."""
    names = []
    for i in range(1, g + 1):
        names += [f"x{i}", f"y{i}"]
    gens = tuple((nm, 1) for nm in names)
    rels = []
    # x_i y_i all equal the area class; every other product of distinct
    # generators vanishes
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            if i < j:
                rels.append(_mono(gens, 1, **{f"x{i}": 1, f"x{j}": 1}))
                rels.append(_mono(gens, 1, **{f"y{i}": 1, f"y{j}": 1}))
            if i != j:
                rels.append(_mono(gens, 1, **{f"x{i}": 1, f"y{j}": 1}))
        if i > 1:
            rels.append(_poly(gens, (1, {f"x{i}": 1, f"y{i}": 1}), (-1, {"x1": 1, "y1": 1})))
    fc = _mono(gens, 1, x1=1, y1=1)
    return AlgebraPresentation(gens, tuple(rels), 2, fc)


def sum_s2xs2(r: int) -> AlgebraPresentation:
    """Connected sum of r copies of S^2 x S^2 (r = 0 gives S^4)."""
    if r == 0:
        return sphere(4)
    names = []
    for i in range(1, r + 1):
        names += [f"u{i}", f"v{i}"]
    gens = tuple((nm, 2) for nm in names)
    rels = []
    for a in range(len(names)):
        for b in range(a, len(names)):
            na, nb = names[a], names[b]
            pair = {na} if na == nb else {na, nb}
            if pair == {f"u{(a // 2) + 1}", f"v{(a // 2) + 1}"} and b == a + 1 and a % 2 == 0:
                continue  # u_i v_i is the volume class
            if na == nb:
                rels.append(_mono(gens, 1, **{na: 2}))
            else:
                rels.append(_mono(gens, 1, **{na: 1, nb: 1}))
    for i in range(2, r + 1):
        rels.append(_poly(gens, (1, {f"u{i}": 1, f"v{i}": 1}), (-1, {"u1": 1, "v1": 1})))
    fc = _mono(gens, 1, u1=1, v1=1)
    return AlgebraPresentation(gens, tuple(rels), 4, fc)


def sum_cp2(s: int, t: int) -> AlgebraPresentation:
    """#^s CP^2 # #^t CP^2-bar; (0, 0) gives S^4."""
    if s == 0 and t == 0:
        return sphere(4)
    names = [f"c{i}" for i in range(1, s + 1)] + [f"d{i}" for i in range(1, t + 1)]
    gens = tuple((nm, 2) for nm in names)
    rels = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            rels.append(_mono(gens, 1, **{names[a]: 1, names[b]: 1}))
    # the volume is -d1^2 when there is no positive class
    vol = -1 if names[0].startswith("d") else 1
    for nm in names[1:]:
        rels.append(_poly(gens, (1, {nm: 2}), (-vol if nm.startswith("c") else vol, {names[0]: 2})))
    return AlgebraPresentation(gens, tuple(rels), 4, _mono(gens, vol, **{names[0]: 2}))


def heisenberg_nilmanifold() -> AlgebraPresentation:
    """Cohomology ring of the 3-dimensional Heisenberg nilmanifold.

    H^1 = <a, b> with ab = 0 (the dual of the bracket is exact),
    H^2 = <A, B> with aB = -bA the volume and aA = bB = 0.
    """
    gens = (("a", 1), ("b", 1), ("A", 2), ("B", 2))
    rels = (
        _mono(gens, 1, a=1, b=1),
        _mono(gens, 1, a=1, A=1),
        _mono(gens, 1, b=1, B=1),
        _poly(gens, (1, dict(a=1, B=1)), (1, dict(b=1, A=1))),
        _mono(gens, 1, A=2),
        _mono(gens, 1, B=2),
        _mono(gens, 1, A=1, B=1),
    )
    fc = _mono(gens, 1, a=1, B=1)
    return AlgebraPresentation(gens, rels, 3, fc)


def heisenberg_times_torus(extra: int) -> AlgebraPresentation:
    """Nilmanifold of h3 + R^extra: first Betti number (2 + extra)."""
    base = heisenberg_nilmanifold()
    names = [nm for nm, _ in base.generators] + [f"t{i}" for i in range(1, extra + 1)]
    degs = dict(base.generators)
    gens = tuple(
        (nm, degs.get(nm, 1)) for nm in names
    )

    def lift(p: GradedPolynomial, extra_exps=()) -> GradedPolynomial:
        monos = []
        for c, e in p.monomials:
            monos.append((c, tuple(e) + tuple(extra_exps or (0,) * extra)))
        return GradedPolynomial(gens, tuple(monos))

    rels = tuple(lift(r) for r in base.relations)
    fc = lift(base.fundamental_class, (1,) * extra)
    return AlgebraPresentation(gens, rels, 3 + extra, fc)


def filiform4_nilmanifold() -> AlgebraPresentation:
    """Cohomology ring of the nilmanifold of the dim-4 filiform algebra.

    Betti numbers (1,2,2,2,1); all products of H^1 with H^1 or H^2
    vanish, so H^3 needs its own generators P, Q with aQ = -bP the
    volume and AB = aQ.
    """
    gens = (("a", 1), ("b", 1), ("A", 2), ("B", 2), ("P", 3), ("Q", 3))
    rels = (
        _mono(gens, 1, a=1, b=1),
        _mono(gens, 1, a=1, A=1),
        _mono(gens, 1, a=1, B=1),
        _mono(gens, 1, b=1, A=1),
        _mono(gens, 1, b=1, B=1),
        _mono(gens, 1, A=2),
        _mono(gens, 1, B=2),
        _mono(gens, 1, a=1, P=1),
        _mono(gens, 1, b=1, Q=1),
        _poly(gens, (1, dict(A=1, B=1)), (-1, dict(a=1, Q=1))),
        _poly(gens, (1, dict(a=1, Q=1)), (1, dict(b=1, P=1))),
        # implied above the top degree, stated so truncation is not needed
        _mono(gens, 1, A=1, P=1),
        _mono(gens, 1, A=1, Q=1),
        _mono(gens, 1, B=1, P=1),
        _mono(gens, 1, B=1, Q=1),
        _mono(gens, 1, P=1, Q=1),
    )
    fc = _mono(gens, 1, a=1, Q=1)
    return AlgebraPresentation(gens, rels, 4, fc)


def t3_skeleton_boundary() -> AlgebraPresentation:
    """Boundary of a thickening of the 2-skeleton of T^3 in R^5.

    A 4-manifold with b_1 = 3 whose three one-classes have vanishing
    triple product; the ring is the trivial Poincare-duality extension
    of Lambda(x1,x2,x3)/(x1 x2 x3), with dual degree-2 classes a_ij.
    """
    gens = (
        ("x1", 1),
        ("x2", 1),
        ("x3", 1),
        ("a12", 2),
        ("a13", 2),
        ("a23", 2),
    )
    rels = [
        _mono(gens, 1, x1=1, x2=1, x3=1),
        # x_k a_ij = 0 when k not in {i, j}
        _mono(gens, 1, x3=1, a12=1),
        _mono(gens, 1, x2=1, a13=1),
        _mono(gens, 1, x1=1, a23=1),
        # dual-pairing identifications: x2 a12 = x3 a13 (= z1), etc.
        _poly(gens, (1, dict(x2=1, a12=1)), (-1, dict(x3=1, a13=1))),
        _poly(gens, (1, dict(x1=1, a12=1)), (1, dict(x3=1, a23=1))),
        _poly(gens, (1, dict(x1=1, a13=1)), (-1, dict(x2=1, a23=1))),
        # the dual classes multiply to zero among themselves
        _mono(gens, 1, a12=2),
        _mono(gens, 1, a13=2),
        _mono(gens, 1, a23=2),
        _mono(gens, 1, a12=1, a13=1),
        _mono(gens, 1, a12=1, a23=1),
        _mono(gens, 1, a13=1, a23=1),
        # degree-4 products vanish unless the indices match up
        _mono(gens, 1, x1=1, x2=1, a13=1),
        _mono(gens, 1, x1=1, x2=1, a23=1),
        _mono(gens, 1, x1=1, x3=1, a12=1),
        _mono(gens, 1, x1=1, x3=1, a23=1),
        _mono(gens, 1, x2=1, x3=1, a12=1),
        _mono(gens, 1, x2=1, x3=1, a13=1),
        _poly(gens, (1, dict(x1=1, x2=1, a12=1)), (-1, dict(x1=1, x3=1, a13=1))),
        _poly(gens, (1, dict(x1=1, x2=1, a12=1)), (-1, dict(x2=1, x3=1, a23=1))),
    ]
    fc = _mono(gens, 1, x1=1, x2=1, a12=1)
    return AlgebraPresentation(gens, tuple(rels), 4, fc)


def nine_manifold_disc2() -> AlgebraPresentation:
    """Boundary of a thickening in R^10 of a rational PD space whose
    degree-2 cup form is diag(2,1,1,-1,-1,-1).

    Degree-2 classes u1..u6 with u_i u_j = 0 for i != j and squares
    2v, v, v, -v, -v, -v; one degree-5 class t dual to v, products
    u_i t spanning degree 7, and volume v t.  The square class of the
    cup form is -2, so no rational exterior embedding exists even
    though a real one does.
    """
    gens = tuple((f"u{i}", 2) for i in range(1, 7)) + (("t", 5),)
    rels = []
    for i in range(1, 7):
        for j in range(i + 1, 7):
            rels.append(_mono(gens, 1, **{f"u{i}": 1, f"u{j}": 1}))
    squares = {1: 2, 2: 1, 3: 1, 4: -1, 5: -1, 6: -1}
    for i in range(2, 7):
        rels.append(_poly(gens, (Fraction(1, squares[i]), {f"u{i}": 2}), (Fraction(-1, 2), {"u1": 2})))
    fc = _mono(gens, 1, u2=2, t=1)
    return AlgebraPresentation(gens, tuple(rels), 9, fc)


def closed_form_rings() -> dict[str, tuple[AlgebraPresentation, tuple[int, ...]]]:
    """Larger rings, each with its Betti numbers in closed form: T^6 .. T^10
    (b_k = C(n, k)), CP^4 and CP^6, #6 and #10 (S^2 x S^2), and the
    genus-5 surface."""
    rings = {
        f"t{k}": (torus(k), tuple(math.comb(k, j) for j in range(k + 1))) for k in range(6, 11)
    }
    for k in (4, 6):
        rings[f"cp{k}"] = (complex_projective(k), tuple(1 - j % 2 for j in range(2 * k + 1)))
    for r in (6, 10):
        rings[f"sum{r}_s2xs2"] = (sum_s2xs2(r), (1, 0, 2 * r, 0, 1))
    rings["genus5"] = (genus_surface(5), (1, 10, 1))
    return rings


def random_small_presentations(count=20, seed=808):
    """Random non-degenerate presentations on 1-4 generators, n in 2..6,
    with their bases built (and cached).  Nothing forces their relations
    to vanish above degree n."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        ngens = rng.randint(1, 4)
        n = rng.randint(2, 6)
        gens = tuple((f"g{i}", rng.randint(1, min(3, n))) for i in range(ngens))
        relations = []
        for _ in range(rng.randint(0, 3)):
            deg = rng.randint(2, n)
            monos = algebra._monomials_of_degree(gens, deg)
            if not monos:
                continue
            terms = tuple(
                (Fraction(rng.randint(-2, 2)), rng.choice(monos))
                for _ in range(rng.randint(1, 2))
            )
            poly = GradedPolynomial(gens, terms)
            if not poly.is_zero:
                relations.append(poly)
        fc_monos = algebra._monomials_of_degree(gens, n)
        if not fc_monos:
            continue
        fc = GradedPolynomial(gens, ((1, rng.choice(fc_monos)),))
        pres = AlgebraPresentation(gens, tuple(relations), n, fc)
        try:
            basis_and_dims(pres)
        except DegeneratePresentation:
            continue
        yield pres
        produced += 1


def reverse_generators(A: AlgebraPresentation, names=None) -> AlgebraPresentation:
    """The same algebra with its generator table reversed, and renamed to
    ``names`` (in the new order) when given.

    A monomial written in the reversed order multiplies its r odd factors
    in reversed order, (-1)^(r(r-1)/2) times the original monomial, so
    each coefficient takes that sign.
    """
    gens = tuple(reversed(A.generators))
    if names is not None:
        gens = tuple(zip(names, (d for _, d in gens)))
    odd = [d % 2 == 1 for _, d in A.generators]

    def reverse(p: GradedPolynomial) -> GradedPolynomial:
        terms = []
        for c, e in p.monomials:
            r = sum(x for x, o in zip(e, odd) if o)
            terms.append((-c if r * (r - 1) // 2 % 2 else c, tuple(reversed(e))))
        return GradedPolynomial(gens, tuple(terms))

    return AlgebraPresentation(
        gens, tuple(reverse(p) for p in A.relations), A.n, reverse(A.fundamental_class)
    )
