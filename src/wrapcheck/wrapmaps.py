"""Explicit wrapping maps and their numerical verification.

The maps: the strip-to-punctured-disk map (r, theta) = (x + e^-y (1-x),
y + ln r); the plane-to-sphere map wrapping alternating strips over the
two hemispheres, which misses both poles; the torus collapse sending
each unit cube's inscribed ball over a sphere with degree one; and the
join construction combining the two for maps into S^n missing the
equatorial S^{n-2}.

Verification is sampling-based: central-difference Jacobians pulled
back through the chart (for a sphere target, the signed volume with
the outward normal appended), midpoint quadrature over balls for the
normalized degree, grid Lipschitz ratios, Jacobian floors on declared
sets, and quasiregularity ratios.  Piecewise seams are not C^1 (the
plane-to-sphere map is antipodally glued across the x-axis), so seam
neighborhoods are masked out of differentiation samples; estimates are
a.e.-sampled values, tagged with their grid resolution, and a degree
report says how many samples the seam mask dropped.

Grids are never held whole: the quadrature, the Lipschitz scan and the
Jacobian floor walk their samples in chunks of about CHUNK_POINTS
points.  The chunks run on a thread pool of WORKERS threads, one per
CPU this process may run on up to MAX_WORKERS (numpy releases the
interpreter lock inside the map evaluations and the elementwise array
arithmetic of the differences and signed volumes), and the calling
thread folds their results into a running sum, max or min in span
order, so every result is the serial walk's bit for bit and memory is
bounded by WORKERS * CHUNK_POINTS points whatever R / h is.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

FD_STEP = 1e-5
SEAM_MASK_FACTOR = 10.0
CHUNK_POINTS = 50_000  # points per chunk of every streamed grid walk
# points per quadrature grid axis, which is built whole (80 MB of float64)
MAX_AXIS_POINTS = 10**7
# Jacobian-floor samples per run, which the sampler draws whole (10^7 of
# them peak near 550 MB)
MAX_SAMPLES = 10**7
# threads per walk: the CPUs this process may run on, at most MAX_WORKERS.
# Each thread holds one chunk (about 7.5 MB of numpy arrays for the 3-d
# identity, 12 MB for the 3-d join), so the cap, not the CPU count,
# bounds a walk's memory.
MAX_WORKERS = 4
WORKERS = min(
    MAX_WORKERS,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)


# ---------------------------------------------------------------------------
# Raw evaluators (vectorized)
# ---------------------------------------------------------------------------


def eval_f0(x, y):
    """The strip map on [-1,1] x [0,inf): polar output (r, theta).

    r = x + e^-y (1 - x), theta = y + ln r for x >= 0; the x < 0 half
    is the mirror (r(|x|,y), -theta(|x|,y)).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) > 1 + 1e-12) or np.any(y < -1e-12):
        raise ValueError("f0 domain is [-1,1] x [0,inf)")
    ax = np.abs(x)
    r = ax + np.exp(-y) * (1.0 - ax)
    theta = y + np.log(r)
    theta = np.where(x < 0, -theta, theta)
    return r, theta


def _hemisphere_chart(r, theta, upper):
    """p_+/p_- : disk -> hemisphere, (sin(pi r/2) e^{i theta}, +-cos(pi r/2)).

    Fills one (..., 3) array through one scratch buffer; every
    transcendental call writes a contiguous array, as a fresh result
    would, so the values do not depend on the buffering.
    """
    shape = np.broadcast_shapes(np.shape(r), np.shape(theta), np.shape(upper))
    out = np.empty(shape + (3,))
    a = np.multiply(np.pi, r, out=np.empty(shape))
    a /= 2.0
    s = np.sin(a)
    np.cos(a, out=a)
    np.negative(a, out=a, where=np.logical_not(upper))
    out[..., 2] = a
    np.cos(theta, out=a)
    a *= s
    out[..., 0] = a
    np.sin(theta, out=a)
    a *= s
    out[..., 1] = a
    return out


def eval_sphere_wrap(x, y):
    """Plane -> S^2 c R^3, periodic with period 4 in x and antipodally
    reflected in y; misses both poles."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx = np.mod(x + 1.0, 4.0) - 1.0  # into [-1, 3)
    north = xx <= 1.0
    r, theta = eval_f0(np.where(north, xx, 2.0 - xx), np.abs(y))
    out = _hemisphere_chart(r, theta, north)
    return np.negative(out, out=out, where=(y < 0)[..., None])


def eval_torus_collapse(z):
    """R^d -> S^d c R^{d+1}: per unit cube, the inscribed ball maps
    radially over the sphere with degree one, the rest to the basepoint
    (0, ..., 0, -1)."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    u = z - np.floor(z) - 0.5
    s = np.sqrt(np.sum(u * u, axis=-1))
    angle = 2.0 * np.pi * np.minimum(s, 0.5)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(s > 1e-12, np.sin(angle) / np.where(s > 1e-12, s, 1.0), 2.0 * np.pi)
    head = factor[..., None] * u
    tail = np.cos(angle)[..., None]
    out = np.concatenate([head, tail], axis=-1)
    return out


def _flip_first(z):
    zz = np.array(z, dtype=float, copy=True)
    zz[..., 0] = -zz[..., 0]
    return zz


def eval_fn(x, y, z, n):
    """R^n -> S^n c R^{n+1} through the join of a circle and S^{n-2}.

    q(w, u) = (sin(pi|w|/2) w/|w|, cos(pi|w|/2) u) with w the strip-map
    output and u the torus collapse of z; on the strip [1,3] the roles
    reflect through x -> 2 - x with the first z coordinate flipped, and
    the lower half plane reflects y with the same flip.  The image
    avoids the equatorial S^{n-2} (the locus w = 0) because |w| > 0.
    """
    if n < 3:
        raise ValueError("join construction needs n >= 3")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != n - 2:
        raise ValueError(f"z must have {n - 2} coordinates")
    lower = y < 0
    yy = np.abs(y)
    zz = np.where(lower[..., None], _flip_first(z), z)
    xx = np.mod(x + 1.0, 4.0) - 1.0
    south = xx > 1.0
    xb = np.where(south, 2.0 - xx, xx)
    zz = np.where(south[..., None], _flip_first(zz), zz)
    r, theta = eval_f0(xb, yy)
    u = eval_torus_collapse(zz)
    s = np.sin(np.pi * r / 2.0)
    c = np.cos(np.pi * r / 2.0)
    return np.concatenate(
        [ (s * np.cos(theta))[..., None], (s * np.sin(theta))[..., None], c[..., None] * u ],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# Map objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSpace:
    kind: str  # "sphere" | "euclidean"
    ambient: int

    def distance(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        if self.kind == "sphere":
            dots = np.clip(np.sum(p * q, axis=-1), -1.0, 1.0)
            return np.arccos(dots)
        return np.linalg.norm(p - q, axis=-1)


@dataclass(frozen=True)
class EvaluableMap:
    """Vectorized map with target metric data and a seam-distance mask."""

    name: str
    domain_dim: int
    target: TargetSpace
    func: Callable[[np.ndarray], np.ndarray]
    seam_distance: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.func(np.asarray(pts, dtype=float))

    def seam_dist(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.seam_distance is None:
            return np.full(pts.shape[:-1], np.inf)
        return self.seam_distance(pts)


def strip_seam(p: np.ndarray) -> np.ndarray:
    """Distance to the sphere wrap's seams, the x-axis and the lines x = odd."""
    t = (p[..., 0] - 1.0) / 2.0
    return np.minimum(np.abs(p[..., 1]), 2.0 * np.abs(t - np.round(t)))


def cube_seam(p: np.ndarray) -> np.ndarray:
    """Distance to the torus collapse's seam, the sphere inscribed in each unit cube."""
    u = p - np.floor(p) - 0.5
    s = np.sqrt(np.sum(u * u, axis=-1))
    return np.abs(s - 0.5)


def identity_map(dim: int) -> EvaluableMap:
    return EvaluableMap("identity", dim, TargetSpace("euclidean", dim), lambda p: p.copy())


def constant_map(dim: int) -> EvaluableMap:
    """R^dim -> S^dim, everything to the north pole (0, ..., 0, 1)."""
    pt = np.asarray([0.0] * dim + [1.0])
    return EvaluableMap(
        "constant",
        dim,
        TargetSpace("sphere", dim + 1),
        lambda p: np.broadcast_to(pt, p.shape[:-1] + pt.shape).copy(),
    )


def radial_stretch_map(alpha: float) -> EvaluableMap:
    def f(p):
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        return np.where(r > 0, r**alpha * p, 0.0)

    return EvaluableMap(
        f"radial-stretch({alpha})",
        2,
        TargetSpace("euclidean", 2),
        f,
        seam_distance=lambda p: np.linalg.norm(p, axis=-1),
    )


def f0_map() -> EvaluableMap:
    def f(p):
        r, theta = eval_f0(p[..., 0], p[..., 1])
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    return EvaluableMap(
        "strip-to-disk",
        2,
        TargetSpace("euclidean", 2),
        f,
        seam_distance=lambda p: np.abs(p[..., 0]),
    )


def sphere_wrap_map() -> EvaluableMap:
    return EvaluableMap(
        "sphere-wrap",
        2,
        TargetSpace("sphere", 3),
        lambda p: eval_sphere_wrap(p[..., 0], p[..., 1]),
        seam_distance=strip_seam,
    )


def torus_collapse_map(d: int) -> EvaluableMap:
    return EvaluableMap(
        f"torus-collapse({d})",
        d,
        TargetSpace("sphere", d + 1),
        lambda p: eval_torus_collapse(p),
        seam_distance=cube_seam,
    )


def join_map(n: int) -> EvaluableMap:
    if n < 3:
        raise ValueError("join construction needs n >= 3")

    def f(p):
        return eval_fn(p[..., 0], p[..., 1], p[..., 2:], n)

    def seam(p):
        return np.minimum(strip_seam(p), cube_seam(p[..., 2:]))

    return EvaluableMap(f"join({n})", n, TargetSpace("sphere", n + 1), f, seam_distance=seam)


# ---------------------------------------------------------------------------
# Differential sampling
# ---------------------------------------------------------------------------


def _difference_columns(m: EvaluableMap, pts: np.ndarray, step: float) -> list[np.ndarray]:
    """The domain_dim central-difference partials, each of shape (..., ambient)."""
    cols = []
    for j in range(m.domain_dim):
        e = np.zeros(m.domain_dim)
        e[j] = step
        cols.append((m(pts + e) - m(pts - e)) / (2.0 * step))
    return cols


def partials(m: EvaluableMap, pts: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference partials, shape (..., ambient, domain_dim)."""
    return np.stack(_difference_columns(m, np.asarray(pts, dtype=float), step), axis=-1)


# largest order whose determinant is expanded by cofactors (see signed_jacobian)
COFACTOR_MAX_ORDER = 4


def _cofactor_det(cols: list[np.ndarray]) -> np.ndarray:
    """det of the matrix with these columns, each (..., k), by cofactor
    expansion along the last column.  The minors of the first j + 1
    columns are built from those of the first j, each once, so the 3x3
    case is the triple product cols[2] . (cols[0] x cols[1]) and the
    4x4 case reuses the six 2x2 minors of the first two columns."""
    k = len(cols)
    minors = {(i,): cols[0][..., i] for i in range(k)}
    for j in range(1, k):
        col = cols[j]
        grown = {}
        for rows in itertools.combinations(range(k), j + 1):
            # the entry in row rows[pos] has the sign (-1)^(pos + j)
            acc = col[..., rows[j]] * minors[rows[:j]]
            for pos in range(j - 1, -1, -1):
                term = col[..., rows[pos]] * minors[rows[:pos] + rows[pos + 1:]]
                if (j - pos) % 2:
                    acc -= term
                else:
                    acc += term
            grown[rows] = acc
        minors = grown
    return minors[tuple(range(k))]


def signed_jacobian(m: EvaluableMap, pts: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Pullback density of the target volume form.

    Euclidean targets: det of the square differential.  Sphere targets:
    det of the differential with the outward normal, the value m(pts),
    appended as the last column, the signed volume spanned on the
    tangent space.  Up to order COFACTOR_MAX_ORDER the determinant is
    the closed-form cofactor expansion of _cofactor_det on the columns
    as they come, with no (..., k, k) matrix stacked; its rounding
    differs from LAPACK's by a few ulp of the Hadamard bound, the
    product of the column norms.  Above it the expansion would take
    k * 2^(k-1) array products and hold C(k, k/2) minors per point, so
    the columns are stacked for np.linalg.det, whose LU factorization
    stays polynomial and within the chunk's memory.
    """
    pts = np.asarray(pts, dtype=float)
    if m.target.kind == "euclidean" and m.target.ambient != m.domain_dim:
        raise ValueError("euclidean target dimension must match the domain")
    cols = _difference_columns(m, pts, step)
    if m.target.kind == "sphere":
        cols.append(m(pts))
    if len(cols) <= COFACTOR_MAX_ORDER:
        return _cofactor_det(cols)
    return np.linalg.det(np.stack(cols, axis=-1))


def operator_norm(m: EvaluableMap, pts: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    d = partials(m, pts, step)
    return np.linalg.svd(d, compute_uv=False)[..., 0]


def _chunk_walk(chunk: Callable[[int, int], object], count: int, size: int):
    """chunk(start, stop) over consecutive ranges covering range(count),
    at most size long, run on WORKERS threads; yields the results in
    range order, so a fold over them does not depend on the threads.
    The ranges are submitted as the results are taken, at most
    2 * WORKERS ahead, so no list of them is built whatever the count.
    An exception raised in a chunk reaches the caller unchanged, and the
    ranges not yet started are then cancelled."""
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        pending: deque = deque()
        try:
            for start in range(0, count, size):
                if len(pending) == 2 * WORKERS:
                    yield pending.popleft().result()
                pending.append(pool.submit(chunk, start, min(start + size, count)))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


@dataclass(frozen=True)
class DegreeReport:
    """Normalized degree R^-n * integral of the Jacobian over B_R, per R.

    samples counts the grid points in the largest ball, masked those of
    them the seam mask dropped.
    """

    map_name: str
    domain_dim: int
    radii: tuple[float, ...]
    normalized: tuple[float, ...]
    quadrature_step: float
    fd_step: float = FD_STEP
    lipschitz: float | None = None
    jacobian_floor: float | None = None
    samples: int | None = None
    masked: int | None = None

    def slope(self) -> float:
        """Least-squares slope of normalized degree against R."""
        r = np.asarray(self.radii)
        v = np.asarray(self.normalized)
        a = np.vstack([r, np.ones_like(r)]).T
        coef, *_ = np.linalg.lstsq(a, v, rcond=None)
        return float(coef[0])

    def to_text(self) -> str:
        lines = [
            f"# map\t{self.map_name}",
            f"# domain_dim\t{self.domain_dim}",
            f"# quadrature_step\t{self.quadrature_step:.6g}",
            f"# fd_step\t{self.fd_step:.6g}",
        ]
        if self.samples is not None:
            lines.append(f"# samples\t{self.samples}")
        if self.masked is not None:
            lines.append(f"# masked\t{self.masked}")
        if self.lipschitz is not None:
            lines.append(f"# lipschitz\t{self.lipschitz:.12g}")
        if self.jacobian_floor is not None:
            lines.append(f"# jacobian_floor\t{self.jacobian_floor:.12g}")
        lines.append("R\tnormalized_integral")
        for r, v in zip(self.radii, self.normalized):
            lines.append(f"{r:.6g}\t{v:.12g}")
        return "\n".join(lines) + "\n"


def check_quadrature(radii: Sequence[float], quadrature_step: float, dim: int) -> list[float]:
    """The radii as floats, or ValueError unless they are finite, positive
    and increasing, the step is finite, positive and at most R_max / 4,
    and the midpoint grid of [-R_max, R_max]^dim has at most
    MAX_AXIS_POINTS points per axis and few enough points for a numpy
    index (``np.unravel_index`` addresses it in ``intp``)."""
    radii = [float(r) for r in radii]
    if not radii or any(radii[i] >= radii[i + 1] for i in range(len(radii) - 1)):
        raise ValueError("radii must be increasing and nonempty")
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise ValueError("radii must be finite and positive")
    if not (math.isfinite(quadrature_step) and quadrature_step > 0):
        raise ValueError("quadrature step must be finite and positive")
    if quadrature_step > radii[-1] / 4:
        raise ValueError("quadrature step too coarse relative to the largest radius")
    rmax, h = radii[-1], quadrature_step
    side = math.ceil((rmax - (-rmax + h / 2)) / h)  # len(np.arange(-rmax + h / 2, rmax, h))
    if side > MAX_AXIS_POINTS:
        raise ValueError(f"quadrature grid axis of {side} points exceeds {MAX_AXIS_POINTS}")
    # the logarithm settles a huge dim before the power is formed
    if dim * math.log2(side) >= 64 or side**dim > np.iinfo(np.intp).max:
        raise ValueError(f"quadrature grid of {side}^{dim} points is too large to index")
    return radii


def asymptotic_degree(
    m: EvaluableMap, radii: Sequence[float], quadrature_step: float, fd_step: float = FD_STEP
) -> DegreeReport:
    """Midpoint quadrature of the signed Jacobian over concentric balls.

    The midpoint grid of the cube [-R, R]^n at the largest radius is
    walked in chunks of at most CHUNK_POINTS points along its flat
    (C-order) index, WORKERS chunks at a time, so memory is bounded by
    the chunks and not by the grid; each chunk's partial sum over every
    ball B_R is added to a running total in chunk order.  Samples whose
    difference stencil sits within SEAM_MASK_FACTOR * fd_step of a seam
    are dropped and counted; with quadrature_step >> fd_step the
    omitted mass vanishes under refinement.
    """
    radii = check_quadrature(radii, quadrature_step, m.domain_dim)
    rmax = radii[-1]
    h = quadrature_step
    axis = np.arange(-rmax + h / 2, rmax, h)
    shape = (len(axis),) * m.domain_dim

    def chunk(start, stop):
        pts = axis[np.stack(np.unravel_index(np.arange(start, stop), shape), axis=-1)]
        dist2 = np.sum(pts * pts, axis=-1)
        inside = dist2 <= rmax * rmax
        pts = pts[inside]
        dist2 = dist2[inside]
        keep = m.seam_dist(pts) > SEAM_MASK_FACTOR * fd_step
        jac = np.zeros(len(pts))
        jac[keep] = signed_jacobian(m, pts[keep], fd_step)
        sums = [float(jac[dist2 <= r * r].sum()) for r in radii]
        return sums, len(pts), len(pts) - int(np.count_nonzero(keep))

    totals = [0.0] * len(radii)
    samples = masked = 0
    for sums, inside, dropped in _chunk_walk(chunk, math.prod(shape), CHUNK_POINTS):
        for i, s in enumerate(sums):
            totals[i] += s
        samples += inside
        masked += dropped
    cell = h**m.domain_dim
    normalized = tuple(t * cell / r**m.domain_dim for t, r in zip(totals, radii))
    return DegreeReport(
        m.name, m.domain_dim, tuple(radii), normalized, h, fd_step,
        samples=samples, masked=masked,
    )


def estimate_lipschitz(
    m: EvaluableMap, bounds: Sequence[tuple[float, float]], grid_step: float
) -> float:
    """Max over grid-neighbor pairs of target distance over source distance.

    Pairs whose segment midpoint lies within one grid step of a seam
    are excluded (piecewise gluing lines are not C^1; the antipodal
    y = 0 gluing of the sphere wrap is a genuine metric seam).  The
    grid is walked in slabs of rows along axis 0, about CHUNK_POINTS
    points each and WORKERS slabs at a time, and every slab carries the
    next slab's first row so that the pairs across the boundary are
    seen; a max does not depend on the walk.
    """
    axes = [np.arange(lo, hi + grid_step / 2, grid_step) for lo, hi in bounds]
    rows = max(1, CHUNK_POINTS // max(1, math.prod(len(a) for a in axes[1:])))

    def slab(start, stop):
        pts = np.stack(
            np.meshgrid(axes[0][start: stop + 1], *axes[1:], indexing="ij"), axis=-1
        )
        values = m(pts.reshape(-1, m.domain_dim)).reshape(pts.shape[:-1] + (m.target.ambient,))
        best = 0.0
        for axis in range(m.domain_dim):
            # pairs along axis 0 reach into the carried row; pairs along
            # the other axes stay in the slab's own rows
            sl_a = [slice(None, stop - start)] + [slice(None)] * (m.domain_dim - 1)
            sl_b = list(sl_a)
            sl_a[axis] = slice(None, -1)
            sl_b[axis] = slice(1, None)
            p = values[tuple(sl_a)]
            q = values[tuple(sl_b)]
            mid = (pts[tuple(sl_a)] + pts[tuple(sl_b)]) / 2.0
            seam = m.seam_dist(mid.reshape(-1, m.domain_dim)).reshape(mid.shape[:-1])
            dist = m.target.distance(
                p.reshape(-1, m.target.ambient), q.reshape(-1, m.target.ambient)
            ).reshape(seam.shape)
            ok = seam > grid_step
            if np.any(ok):
                best = max(best, float(dist[ok].max() / grid_step))
        return best

    return max(_chunk_walk(slab, len(axes[0]), rows), default=0.0)


def jacobian_floor(
    m: EvaluableMap,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    samples: int,
    seed: int = 0,
    fd_step: float = FD_STEP,
) -> float:
    """Min sampled Jacobian over a declared set (seam-adjacent points dropped)."""
    rng = np.random.default_rng(seed)
    pts = sampler(samples, rng)
    seam = m.seam_dist(pts)
    pts = pts[seam > SEAM_MASK_FACTOR * fd_step]
    mins = _chunk_walk(
        lambda a, b: signed_jacobian(m, pts[a:b], fd_step).min(), len(pts), CHUNK_POINTS
    )
    return float(min(mins, default=math.inf))


STRIP_Y_WINDOW = (1.0, 20.0)  # the strip sampler's range of |y|
STRIP_PERIODS = 3  # and of z, -STRIP_PERIODS <= z < STRIP_PERIODS


def sphere_wrap_strip_sampler():
    """Uniform samples on the strips [2z + 1/2, 2z + 3/2] x (|y| in STRIP_Y_WINDOW)."""

    def sample(count: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.integers(-STRIP_PERIODS, STRIP_PERIODS, size=count)
        x = 2.0 * z + 0.5 + rng.uniform(0.0, 1.0, size=count)
        y = rng.uniform(STRIP_Y_WINDOW[0], STRIP_Y_WINDOW[1], size=count)
        y *= rng.choice([-1.0, 1.0], size=count)
        return np.stack([x, y], axis=-1)

    return sample


QR_DIVERGENCE_RATIO = 1e6
QR_DEGENERATE_FRACTION = 0.01


@dataclass(frozen=True)
class QRRatioReport:
    ratio_sup: float
    diverged: bool
    degenerate_fraction: float
    samples: int


def quasiregularity_ratio(m: EvaluableMap, pts: np.ndarray, fd_step: float = FD_STEP) -> QRRatioReport:
    """sup |Df|^n / det Df over samples with det > 0.

    Flags divergence when the ratio exceeds QR_DIVERGENCE_RATIO or the
    fraction of samples with det <= 0 looks positive-measure.
    """
    pts = np.asarray(pts, dtype=float)
    jac = signed_jacobian(m, pts, fd_step)
    op = operator_norm(m, pts, fd_step)
    positive = jac > 0
    frac_bad = float(np.mean(~positive))
    if not np.any(positive):
        return QRRatioReport(math.inf, True, frac_bad, len(pts))
    ratio = op[positive] ** m.domain_dim / jac[positive]
    sup = float(ratio.max())
    diverged = sup > QR_DIVERGENCE_RATIO or frac_bad > QR_DEGENERATE_FRACTION
    return QRRatioReport(sup, diverged, frac_bad, len(pts))
