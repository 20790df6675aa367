"""Independent brute-force oracles used to freeze expected values.

Each oracle takes a different route from the implementation it checks:
wedge signs come from an explicit bubble sort, quotient ranks from a
sorted-word monomial model with sympy rank computations, local
solvability from a Hensel-style lifting search, and the invariant-form
complex of a nilpotent Lie algebra from dense bracket vectors and
dense differential columns, the signed volume of a wrapping map
from a batched LAPACK determinant, the right side of a bracket line
from a term loop of its own, the two wrapping maps from their
bodies before they shared a strip fold, and the closure of a
subalgebra's generators from rounds over all pairs.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import sympy

from wrapcheck import descriptor, linalg, wrapmaps
from wrapcheck.algebra import ConcreteSubalgebra
from wrapcheck.exterior import Multivector, blade_masks, wedge


# ---------------------------------------------------------------------------
# Permutation-sign oracle for wedge products of blades
# ---------------------------------------------------------------------------


def brute_force_wedge(a_indices, b_indices):
    """(sign, sorted indices) of e_a ^ e_b, or (0, ()) when degenerate."""
    seq = list(a_indices) + list(b_indices)
    if len(set(seq)) != len(seq):
        return 0, ()
    sign = 1
    arr = list(seq)
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return sign, tuple(arr)


# ---------------------------------------------------------------------------
# Sorted-word model of graded-commutative quotients
# ---------------------------------------------------------------------------


def word_mult(degrees, w1, w2):
    """Multiply sorted generator words by insertion, counting odd-odd swaps."""
    sign = 1
    arr = []
    for g in list(w1) + list(w2):
        pos = len(arr)
        while pos > 0 and arr[pos - 1] > g:
            if degrees[arr[pos - 1]] % 2 == 1 and degrees[g] % 2 == 1:
                sign = -sign
            pos -= 1
        arr.insert(pos, g)
    for i in range(len(arr) - 1):
        if arr[i] == arr[i + 1] and degrees[arr[i]] % 2 == 1:
            return 0, ()
    return sign, tuple(arr)


def words_of_degree(degrees, k):
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for g in range(start, len(degrees)):
            if degrees[g] > remaining:
                continue
            if degrees[g] % 2 == 1 and acc and acc[-1] == g:
                continue
            acc.append(g)
            rec(g, remaining - degrees[g], acc)
            acc.pop()

    rec(0, k, [])
    return sorted(set(out))


def poly_to_words(poly):
    """GradedPolynomial -> list of (coefficient, sorted word)."""
    out = []
    for coeff, exps in poly.monomials:
        word = []
        for idx, e in enumerate(exps):
            word.extend([idx] * e)
        out.append((coeff, tuple(word)))
    return out


def oracle_quotient_ranks(presentation):
    """Ranks of the graded quotient, recomputed in the word model with
    sympy doing the linear algebra."""
    degrees = [d for _, d in presentation.generators]
    n = presentation.n
    rel_words = [poly_to_words(r) for r in presentation.relations]
    ranks = []
    for k in range(n + 1):
        basis = words_of_degree(degrees, k)
        index = {w: i for i, w in enumerate(basis)}
        rows = []
        for rel in rel_words:
            rel_deg = sum(degrees[g] for g in rel[0][1]) if rel else 0
            if rel_deg > k:
                continue
            for m in words_of_degree(degrees, k - rel_deg):
                row = [sympy.Integer(0)] * len(basis)
                nonzero = False
                for coeff, w in rel:
                    sign, prod = word_mult(degrees, m, w)
                    if sign == 0:
                        continue
                    row[index[prod]] += sympy.Rational(coeff.numerator, coeff.denominator) * sign
                    nonzero = True
                if nonzero:
                    rows.append(row)
        if rows:
            rank = sympy.Matrix(rows).rank()
        else:
            rank = 0
        ranks.append(len(basis) - rank)
    return tuple(ranks)


# ---------------------------------------------------------------------------
# Subalgebra closure in rounds over all pairs
# ---------------------------------------------------------------------------


def all_pairs_closure(n, gens):
    """The subalgebra of Lambda*(Q^n) generated by gens, closed in rounds:
    each round wedges every pair of basis elements and rebuilds a degree's
    basis from its reduced echelon rows after each insert, until a round
    adds nothing."""
    layers = [[] for _ in range(n + 1)]
    spans = [linalg.SparseSubspace(math.comb(n, k)) for k in range(n + 1)]

    def absorb(v):
        k = v.degree()
        if k is None or not spans[k].add(v.coords(k)):
            return False
        layers[k] = [Multivector.from_coords(n, k, r) for r in spans[k].rows]
        return True

    absorb(Multivector.scalar(n, 1))
    for g in gens:
        if not g.is_zero:
            absorb(g)
    changed = True
    while changed:
        changed = False
        flat = [v for layer in layers for v in layer]
        for a, b in itertools.product(flat, repeat=2):
            da, db = a.degree(), b.degree()
            if da == 0 or db == 0 or da + db > n:
                continue
            w = wedge(a, b)
            if not w.is_zero and absorb(w):
                changed = True
    return ConcreteSubalgebra(n, layers)


# ---------------------------------------------------------------------------
# Dense reference for nilpotent Lie algebras and their invariant forms
# ---------------------------------------------------------------------------


def dense_bracket_basis(g, i, j):
    """[X_i, X_j] as a dense coefficient vector."""
    out = [Fraction(0)] * g.dim
    if i == j:
        return out
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for k, c in g._brackets.get((i, j), {}).items():
        out[k - 1] = sign * c
    return out


def dense_bracket(g, u, v):
    """[u, v] summed over every ordered pair of basis vectors."""
    out = [Fraction(0)] * g.dim
    for i in range(g.dim):
        ui = Fraction(u[i])
        if ui == 0:
            continue
        for j in range(g.dim):
            vj = Fraction(v[j])
            if vj == 0 or i == j:
                continue
            w = dense_bracket_basis(g, i + 1, j + 1)
            for k in range(g.dim):
                if w[k]:
                    out[k] += ui * vj * w[k]
    return out


def dense_central_series(g):
    """Reduced echelon bases of g, [g, g], ... down to 0."""
    basis = linalg.identity(g.dim)
    spans = [basis]
    while spans[-1]:
        brackets = (dense_bracket(g, v, b) for v in spans[-1] for b in basis)
        nxt = linalg.SparseSubspace(g.dim, brackets).rows
        if len(nxt) == len(spans[-1]):
            raise ValueError("lower central series stabilizes above zero")
        spans.append([list(v) for v in nxt])
    return spans


def dense_change_basis(g, t):
    """Structure constants in the basis Y_j = sum_i T[i][j] X_i, with
    sympy inverting T."""
    m = g.dim
    tinv = [[Fraction(int(x.p), int(x.q)) for x in row] for row in sympy.Matrix(t).inv().tolist()]
    cols = [[Fraction(t[i][j]) for i in range(m)] for j in range(m)]
    table = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = dense_bracket(g, cols[i], cols[j])
            comps = {}
            for k in range(m):
                coeff = sum(tinv[k][a] * w[a] for a in range(m))
                if coeff != 0:
                    comps[k + 1] = coeff
            if comps:
                table[(i + 1, j + 1)] = comps
    return table


def dense_quotient(g, ideal_rows):
    """(dim, structure constants, projection rows) of g / ideal."""
    m = g.dim
    span = linalg.SparseSubspace(m, ideal_rows)
    basis = linalg.identity(m)
    complement = [i for i in range(m) if i not in set(span.pivots)]

    def project(v):
        red = span.reduce(v)
        return [red[i] for i in complement]

    table = {}
    for a in range(len(complement)):
        for b in range(a + 1, len(complement)):
            w = project(dense_bracket(g, basis[complement[a]], basis[complement[b]]))
            comps = {k + 1: c for k, c in enumerate(w) if c != 0}
            if comps:
                table[(a + 1, b + 1)] = comps
    images = [project(e) for e in basis]
    proj = [[image[idx] for image in images] for idx in range(len(complement))]
    return len(complement), table, proj


def dense_ce_differentials(dim, brackets):
    """Matrices of d on blade coordinates, assembled column by column:
    d(xi_k) = -sum_{i<j} c^k_ij xi_i ^ xi_j, extended as a derivation,
    with wedge signs from :func:`brute_force_wedge`."""
    diffs = []
    for k in range(dim + 1):
        masks_k = blade_masks(dim, k)
        masks_k1 = blade_masks(dim, k + 1)
        index = {mask: i for i, mask in enumerate(masks_k1)}
        cols = []
        for mask in masks_k:
            bits = [i + 1 for i in range(dim) if mask >> i & 1]
            col = [Fraction(0)] * len(masks_k1)
            for t, b in enumerate(bits):
                rest = bits[:t] + bits[t + 1 :]
                for (i, j), comps in brackets.items():
                    sign, word = brute_force_wedge((i, j), rest)
                    if sign and comps.get(b):
                        col[index[sum(1 << (x - 1) for x in word)]] -= (-1) ** t * sign * comps[b]
            cols.append(col)
        diffs.append(
            tuple(tuple(cols[j][i] for j in range(len(masks_k))) for i in range(len(masks_k1)))
        )
    return tuple(diffs)


def dense_betti(dim, brackets):
    diffs = dense_ce_differentials(dim, brackets)
    ranks = [linalg.rank(d) for d in diffs] + [0]
    return tuple(len(blade_masks(dim, k)) - ranks[k] - ranks[k - 1] for k in range(dim + 1))


def dense_nomizu_kernel(g):
    """(kernel_dim, expected, abelian, q1_dim, q2_dim) of the pullback
    H^2(g/[g,g]) -> H^2(g/[[g,g],g]), with the pullback of 2-forms
    written out as 2 x 2 minors of the factor map."""
    if not g._brackets:
        return 0, 0, True, g.dim, g.dim
    spans = dense_central_series(g)
    gamma3 = spans[2] if len(spans) > 2 else []
    r, _, proj1 = dense_quotient(g, spans[1])
    m2, table2, _ = dense_quotient(g, gamma3)
    pivots3 = set(linalg.SparseSubspace(g.dim, gamma3).pivots)
    phi = [[row[j] for j in range(g.dim) if j not in pivots3] for row in proj1]
    masks2 = blade_masks(m2, 2)
    index2 = {mask: i for i, mask in enumerate(masks2)}
    pullback_cols = []
    for mask in blade_masks(r, 2):
        a, b = [i for i in range(r) if mask >> i & 1]
        col = [Fraction(0)] * len(masks2)
        for ci in range(m2):
            for di in range(ci + 1, m2):
                val = phi[a][ci] * phi[b][di] - phi[a][di] * phi[b][ci]
                if val != 0:
                    col[index2[(1 << ci) | (1 << di)]] = val
        pullback_cols.append(col)
    d1 = dense_ce_differentials(m2, table2)[1]
    d1_cols = [[row[j] for row in d1] for j in range(m2)] if d1 else []
    rank_d1 = linalg.rank(d1_cols)
    kernel_dim = len(pullback_cols) - (linalg.rank(pullback_cols + d1_cols) - rank_d1)
    return kernel_dim, m2 - r, False, r, m2


# ---------------------------------------------------------------------------
# Term loop of its own for the right side of a bracket line
# ---------------------------------------------------------------------------


def bracket_rhs_reference(text, dim, line_no):
    """Linear combination ``2 e3 + 1/2 e4`` of basis vectors, as
    {k: coefficient} without zero entries; columns are relative to text."""
    tokens = descriptor._tokenize(text, line_no, 0)
    out: dict[int, Fraction] = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = Fraction(1)
        tok, col = tokens[i]
        if tok in "+-":
            sign = Fraction(-1) if tok == "-" else Fraction(1)
            i += 1
        elif not first:
            raise descriptor.ParseError(f"expected + or - before {tok!r}", line_no, col)
        first = False
        coeff = sign
        if i < len(tokens) and re.fullmatch(r"\d+(/\d+)?", tokens[i][0]):
            coeff *= descriptor._parse_rational(tokens[i][0], line_no, tokens[i][1])
            i += 1
        if i >= len(tokens) or not re.fullmatch(r"e\d+", tokens[i][0]):
            raise descriptor.ParseError("expected basis vector e<k>", line_no, tokens[i - 1][1])
        k = int(tokens[i][0][1:])
        if not 1 <= k <= dim:
            raise descriptor.ParseError(
                f"basis index {k} out of range 1..{dim}", line_no, tokens[i][1]
            )
        out[k] = out.get(k, Fraction(0)) + coeff
        i += 1
    return {k: c for k, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# LAPACK reference for the signed volume of a wrapping map
# ---------------------------------------------------------------------------


def partials(m, pts, step=wrapmaps.FD_STEP):
    """Central-difference partials, shape (..., ambient, domain_dim)."""
    return np.stack(wrapmaps._difference_columns(m, np.asarray(pts, dtype=float), step), axis=-1)


def dense_signed_jacobian(m, pts, step=wrapmaps.FD_STEP):
    """signed_jacobian as np.linalg.det of the stacked (..., k, k)
    differential, with the value m(pts) appended as the last column for
    a sphere target."""
    d = partials(m, pts, step)
    if m.target.kind == "euclidean":
        return np.linalg.det(d)
    return np.linalg.det(np.concatenate([d, m(pts)[..., None]], axis=-1))


# ---------------------------------------------------------------------------
# The wrapping maps as written before they shared one strip fold
# ---------------------------------------------------------------------------


def reference_sphere_wrap(x, y):
    """eval_sphere_wrap with its own strip fold."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx = np.mod(x + 1.0, 4.0) - 1.0  # into [-1, 3)
    north = xx <= 1.0
    r, theta = wrapmaps.eval_f0(np.where(north, xx, 2.0 - xx), np.abs(y))
    out = wrapmaps._hemisphere_chart(r, theta, north)
    return np.negative(out, out=out, where=(y < 0)[..., None])


def reference_torus_collapse(z):
    """eval_torus_collapse with its own cube offset."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    u = z - np.floor(z) - 0.5
    s = np.sqrt(np.sum(u * u, axis=-1))
    angle = 2.0 * np.pi * np.minimum(s, 0.5)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(s > 1e-12, np.sin(angle) / np.where(s > 1e-12, s, 1.0), 2.0 * np.pi)
    return np.concatenate([factor[..., None] * u, np.cos(angle)[..., None]], axis=-1)


def _flip_first(z):
    zz = np.array(z, dtype=float, copy=True)
    zz[..., 0] = -zz[..., 0]
    return zz


def reference_fn(x, y, z, n):
    """eval_fn with its own strip fold and hemisphere chart, flipping z
    once for the lower half plane and once for the south strips."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    lower = y < 0
    yy = np.abs(y)
    zz = np.where(lower[..., None], _flip_first(z), z)
    xx = np.mod(x + 1.0, 4.0) - 1.0
    south = xx > 1.0
    xb = np.where(south, 2.0 - xx, xx)
    zz = np.where(south[..., None], _flip_first(zz), zz)
    r, theta = wrapmaps.eval_f0(xb, yy)
    u = reference_torus_collapse(zz)
    s = np.sin(np.pi * r / 2.0)
    c = np.cos(np.pi * r / 2.0)
    return np.concatenate(
        [(s * np.cos(theta))[..., None], (s * np.sin(theta))[..., None], c[..., None] * u],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# Local solvability oracle for the Hilbert symbol
# ---------------------------------------------------------------------------


class OracleUndecided(RuntimeError):
    pass


def _squarefree(x) -> int:
    num = x.numerator if hasattr(x, "numerator") else int(x)
    den = getattr(x, "denominator", 1)
    m = num * den
    sign = -1 if m < 0 else 1
    m = abs(m)
    out = 1
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * m


def hilbert_oracle(a, b, place, max_depth: int = 6) -> int:
    """Solvability of z^2 = a x^2 + b y^2 by Hensel-style lifting.

    Searches primitive solutions modulo p^m, m <= max_depth, returning
    +1 as soon as a point satisfies the multivariable Hensel criterion
    m >= 2e + 1 (e the minimal gradient valuation), and -1 when no
    primitive solutions survive a lift.
    """
    a = _squarefree(a)
    b = _squarefree(b)
    if place in ("infinity", "inf", None, 0):
        return -1 if a < 0 and b < 0 else 1
    p = int(place)

    grid = np.indices((p, p, p)).reshape(3, -1).T.astype(np.int64)
    grid = grid[np.any(grid % p != 0, axis=1)]

    def f(pts):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        return z * z - a * x * x - b * y * y

    def valuations(vals, m):
        out = np.full(vals.shape, m, dtype=np.int64)
        t = vals % (p**m)
        active = t != 0
        v = np.zeros(vals.shape, dtype=np.int64)
        while np.any(active):
            div = active & (t % p == 0)
            if not np.any(div):
                break
            v[div] += 1
            t[div] //= p
            active = div
        out[vals % (p**m) != 0] = v[vals % (p**m) != 0]
        return out

    def normalize(pts, m):
        """Scale each primitive point so its first unit coordinate is 1.

        Unit scalings act on the solution set, the Hensel criterion is
        scaling-invariant, and children of a scaled point are scalings
        of the children, so orbit representatives suffice.
        """
        if len(pts) == 0:
            return pts
        modulus = p**m
        out = np.empty_like(pts)
        for i, (x, y, z) in enumerate(pts):
            for lam in (x, y, z):
                if lam % p != 0:
                    inv = pow(int(lam), -1, modulus)
                    out[i] = [(x * inv) % modulus, (y * inv) % modulus, (z * inv) % modulus]
                    break
        return np.unique(out, axis=0)

    pts = normalize(grid[f(grid) % p == 0], 1)
    m = 1
    while True:
        if len(pts) == 0:
            return -1
        modulus = p**m
        gx = (-2 * a * pts[:, 0]) % modulus
        gy = (-2 * b * pts[:, 1]) % modulus
        gz = (2 * pts[:, 2]) % modulus
        e = np.minimum(
            np.minimum(valuations(gx, m), valuations(gy, m)), valuations(gz, m)
        )
        if np.any(m >= 2 * e + 1):
            return 1
        if m == max_depth:
            raise OracleUndecided(f"({a},{b}) at {p}: undecided at depth {max_depth}")
        lifts = np.indices((p, p, p)).reshape(3, -1).T.astype(np.int64)
        children = (pts[:, None, :] + modulus * lifts[None, :, :]).reshape(-1, 3)
        children = children[f(children) % (modulus * p) == 0]
        if len(children) > 2_000_000:
            raise OracleUndecided("solution set exploded")
        pts = normalize(children, m + 1)
        m += 1
