"""Rotationally symmetric surfaces and lattice-loop combinatorics.

Surface side: conformal type of a complete rotationally symmetric
metric on the plane.  The length criterion integrates dr/L(r) over
dyadic windows and applies an explicit divergence heuristic (finite
sampling cannot decide divergence, so there is an honest Inconclusive
verdict); the curvature criterion compares K against -1/(r^2 log r) on
the tail.  Closed-form families are classified analytically.

Lattice side: loops of unit steps on Z^2, cyclic reduction, turning
numbers (left turns minus right turns over four), and the unique
compactly supported 2-chain filling a cellular 1-cycle, computed by
winding numbers per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Radial profiles and conformal type
# ---------------------------------------------------------------------------

PARABOLIC = "Parabolic"
HYPERBOLIC = "Hyperbolic"
INCONCLUSIVE = "Inconclusive"

HYPERBOLIC_RATIO = 0.9
PARABOLIC_WINDOW_FACTOR = 2.0
MIN_WINDOWS = 8
AHLFORS_SAMPLES_PER_WINDOW = 256
MILNOR_TAIL_FRACTION = 0.5  # the tail is this last fraction of the samples' log r range
CURVATURE_MAX_STEP = 0.5
NODULE_SAMPLES_PER_UNIT = 512


@dataclass(frozen=True)
class RadialProfile:
    """Circumference data L(r) for a rotationally symmetric plane.

    family is one of "euclidean", "hyperbolic", "power-log" (with an
    exponent parameter), or "tabulated" with explicit samples.
    """

    family: str
    epsilon: float | None = None
    r: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    rmax: float = 0.0

    @classmethod
    def euclidean(cls, rmax: float = 1e6) -> "RadialProfile":
        return cls("euclidean", rmax=rmax)

    @classmethod
    def hyperbolic(cls, rmax: float = 512.0) -> "RadialProfile":
        return cls("hyperbolic", rmax=rmax)

    @classmethod
    def power_log(cls, epsilon: float, rmax: float = 2.0**18) -> "RadialProfile":
        """Profile r (log r)^(1+eps): curvature ~ -(1+eps)/(r^2 log r)."""
        if not math.isfinite(epsilon):
            raise ValueError(f"epsilon must be finite, got {epsilon}")
        profile = cls("power-log", epsilon=epsilon, rmax=rmax)
        with np.errstate(all="ignore"):
            peak = float(profile.circumference(rmax))
        if not math.isfinite(peak):
            raise ValueError(
                f"circumference 2 pi r (log r)^(1 + epsilon) at rmax = {rmax:g} is not a finite float"
            )
        return profile

    @classmethod
    def tabulated(cls, r: Sequence[float], values: Sequence[float]) -> "RadialProfile":
        r = tuple(float(x) for x in r)
        values = tuple(float(x) for x in values)
        if len(r) != len(values) or len(r) < 2:
            raise ValueError("need matching r and L(r) samples, at least two")
        # every check below is False on NaN, and an infinite radius is rmax
        if not all(map(math.isfinite, r + values)):
            raise ValueError("radii and circumference samples must be finite")
        if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
            raise ValueError("radii must be strictly increasing")
        if r[0] <= 0:
            raise ValueError("radii must be positive")
        if any(v <= 0 for v in values):
            raise ValueError("circumference samples must be positive")
        return cls("tabulated", r=r, values=values, rmax=r[-1])

    def rmin(self) -> float:
        if self.family == "tabulated":
            return self.r[0]
        if self.family == "power-log":
            return math.e  # log r >= 1
        return 1e-6

    def circumference(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.family == "euclidean":
            return 2 * math.pi * r
        if self.family == "hyperbolic":
            return 2 * math.pi * np.sinh(r)
        if self.family == "power-log":
            return 2 * math.pi * r * np.log(r) ** (1.0 + self.epsilon)
        return np.interp(r, self.r, self.values)

    def curvature_samples(self, r: np.ndarray) -> np.ndarray:
        """Closed-form curvature where available, else finite differences."""
        r = np.asarray(r, dtype=float)
        if self.family == "euclidean":
            return np.zeros_like(r)
        if self.family == "hyperbolic":
            return -np.ones_like(r)
        if self.family == "power-log":
            s = 1.0 + self.epsilon
            lg = np.log(r)
            return -(s / (r**2 * lg) + s * (s - 1) / (r**2 * lg**2))
        grid = np.asarray(self.r)
        rho = np.asarray(self.values) / (2 * math.pi)
        return np.interp(r, grid[1:-1], curvature_from_profile(grid, rho))


@dataclass(frozen=True)
class Classification:
    verdict: str
    trace: tuple[tuple[float, float, float], ...]  # (window start, window end, integral)
    detail: str = ""

    def trace_text(self) -> str:
        lines = ["window_start\twindow_end\tintegral"]
        for a, b, v in self.trace:
            lines.append(f"{a:.6g}\t{b:.6g}\t{v:.12g}")
        return "\n".join(lines) + "\n"


def _dyadic_windows(rmin: float, rmax: float) -> list[tuple[float, float]]:
    out = []
    a = max(rmin, 1e-9)
    start = 2.0 ** math.ceil(math.log2(a))
    if start < a:
        start *= 2
    b = start
    while 2 * b <= rmax:
        out.append((b, 2 * b))
        b *= 2
    return out


def ahlfors_classify(profile: RadialProfile) -> Classification:
    """Conformal type from divergence of the integral of dr/L(r).

    Closed-form families get the analytic verdict; the dyadic-window
    trace, a trapezoid rule on AHLFORS_SAMPLES_PER_WINDOW samples per
    window, is computed either way.  For tabulated data: Hyperbolic when
    the last MIN_WINDOWS consecutive window-sum ratios are all below
    HYPERBOLIC_RATIO, Parabolic when they all stay within a factor
    PARABOLIC_WINDOW_FACTOR of each other, Inconclusive otherwise.
    A non-finite ``profile.rmax`` raises ValueError.
    """
    if not math.isfinite(profile.rmax):
        raise ValueError(f"rmax must be finite, got {profile.rmax}")
    windows = _dyadic_windows(profile.rmin(), profile.rmax)
    trace = []
    for a, b in windows:
        r = np.linspace(a, b, AHLFORS_SAMPLES_PER_WINDOW)
        L = profile.circumference(r)
        if np.any(L <= 0):
            raise ValueError("profile must be positive")
        trace.append((a, b, float(np.trapezoid(1.0 / L, r))))
    trace_t = tuple(trace)

    if profile.family == "euclidean":
        return Classification(PARABOLIC, trace_t, "harmonic integral diverges")
    if profile.family == "hyperbolic":
        return Classification(HYPERBOLIC, trace_t, "integrable circumference tail")
    if profile.family == "power-log":
        if profile.epsilon > 0:
            return Classification(
                HYPERBOLIC, trace_t, f"integral of dr/(r log^{1 + profile.epsilon} r) converges"
            )
        return Classification(PARABOLIC, trace_t, "log log divergence")

    if len(trace) < MIN_WINDOWS + 1:
        return Classification(
            INCONCLUSIVE, trace_t, f"only {len(trace)} dyadic windows, need {MIN_WINDOWS + 1}"
        )
    sums = [v for _, _, v in trace]
    ratios = [sums[i + 1] / sums[i] for i in range(len(sums) - 1)]
    tail = ratios[-MIN_WINDOWS:]
    if all(q < HYPERBOLIC_RATIO for q in tail):
        return Classification(HYPERBOLIC, trace_t, "window sums decay geometrically")
    if all(1.0 / PARABOLIC_WINDOW_FACTOR <= q <= PARABOLIC_WINDOW_FACTOR for q in tail):
        return Classification(PARABOLIC, trace_t, "window sums fail to decay geometrically")
    return Classification(INCONCLUSIVE, trace_t, "mixed window behaviour")


MILNOR_MARGIN = 1e-3
MILNOR_EPS_MIN = 0.05


def milnor_classify(r: Sequence[float], K: Sequence[float]) -> Classification:
    """Conformal type from the curvature bound -1/(r^2 log r).

    Parabolic when K >= -1/(r^2 log r) on the sampled tail, Hyperbolic
    when K <= -(1+eps)/(r^2 log r) there for a fitted eps > 0.
    """
    r = np.asarray(r, dtype=float)
    K = np.asarray(K, dtype=float)
    if r[0] <= 1.0:
        raise ValueError("need r > 1 so that log r is positive")
    cut = r[0] * (r[-1] / r[0]) ** (1.0 - MILNOR_TAIL_FRACTION)
    mask = r >= cut
    q = K[mask] * r[mask] ** 2 * np.log(r[mask])  # compare against -1
    trace = tuple((float(x), float(x), float(v)) for x, v in zip(r[mask][:64], q[:64]))
    if np.all(q >= -1.0 - MILNOR_MARGIN):
        return Classification(PARABOLIC, trace, "curvature above the parabolicity bound")
    fitted = float(-(q.max()) - 1.0)
    if fitted >= MILNOR_EPS_MIN:
        return Classification(
            HYPERBOLIC, trace, f"curvature below the bound with fitted eps = {fitted:.3g}"
        )
    return Classification(INCONCLUSIVE, trace, "curvature straddles the critical decay")


def curvature_from_profile(r: Sequence[float], rho: Sequence[float]) -> np.ndarray:
    """K = -rho''/rho for the metric dr^2 + rho(r)^2 dtheta^2.

    Uniform-grid symmetric second differences, on a step of at most
    CURVATURE_MAX_STEP; returns K at the interior samples r[1:-1].
    """
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    steps = np.diff(r)
    h = steps[0]
    if np.max(np.abs(steps - h)) > 1e-9 * max(1.0, abs(h)):
        raise ValueError("curvature_from_profile needs a uniform grid")
    if h > CURVATURE_MAX_STEP:
        raise ValueError(f"grid step {h} too coarse (limit {CURVATURE_MAX_STEP})")
    second = (rho[2:] - 2 * rho[1:-1] + rho[:-2]) / h**2
    return -second / rho[1:-1]


# ---------------------------------------------------------------------------
# Revolution profiles with geometrically shrinking nodules
# ---------------------------------------------------------------------------


def nodule_profile(n: int, pmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Warping function with local minima 2^(-2p/(n-1)) at integers p and
    local maxima 2^(-p/(n-1)) at p + 1/2, smoothstep-interpolated on
    NODULE_SAMPLES_PER_UNIT samples per unit.

    The symmetric interpolant makes the average over [p, p+1] equal to
    (max + (min_p + min_{p+1})/2) / 2, i.e. proportional to the local
    maximum up to a factor converging to 1/2.
    """
    ts = []
    vals = []

    def minimum(p):
        return 2.0 ** (-2.0 * p / (n - 1))

    def maximum(p):
        return 2.0 ** (-float(p) / (n - 1))

    def smoothstep(u):
        return u * u * (3 - 2 * u)

    for p in range(pmax + 1):
        u = np.linspace(0.0, 1.0, NODULE_SAMPLES_PER_UNIT, endpoint=False)
        lo, hi = minimum(p), maximum(p)
        up = lo + (hi - lo) * smoothstep(u)
        lo2 = minimum(p + 1)
        down = hi + (lo2 - hi) * smoothstep(u)
        ts.append(p + 0.5 * u)
        vals.append(up)
        ts.append(p + 0.5 + 0.5 * u)
        vals.append(down)
    ts.append(np.array([float(pmax + 1)]))
    vals.append(np.array([minimum(pmax + 1)]))
    return np.concatenate(ts), np.concatenate(vals)


def revolution_volume(t: Sequence[float], rho: Sequence[float], n: int, interval: tuple[float, float]) -> float:
    """Volume of the revolved hypersurface band over [a, b]:
    integral of omega_{n-1} rho^{n-1} sqrt(1 + rho'^2) dt."""
    if n < 2:
        raise ValueError("need n >= 2")
    t = np.asarray(t, dtype=float)
    rho = np.asarray(rho, dtype=float)
    a, b = interval
    mask = (t >= a - 1e-12) & (t <= b + 1e-12)
    tt, rr = t[mask], rho[mask]
    if len(tt) < 2:
        raise ValueError("interval contains too few samples")
    if np.any(rr <= 0):
        raise ValueError("profile must be positive on the interval")
    drho = np.gradient(rr, tt)
    sphere_area = 2 * math.pi ** (n / 2) / math.gamma(n / 2)  # omega_{n-1}, of S^{n-1}
    integrand = sphere_area * rr ** (n - 1) * np.sqrt(1.0 + drho**2)
    return float(np.trapezoid(integrand, tt))


# ---------------------------------------------------------------------------
# Lattice loops
# ---------------------------------------------------------------------------

STEPS = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}
OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}
LEFT_OF = {"E": "N", "N": "W", "W": "S", "S": "E"}


@dataclass(frozen=True)
class LatticeLoop:
    """Closed sequence of unit steps on Z^2 (implicitly based at 0)."""

    steps: tuple[str, ...]

    def __post_init__(self):
        st = tuple(self.steps)
        object.__setattr__(self, "steps", st)
        if any(s not in STEPS for s in st):
            raise ValueError(f"invalid step in {st}")
        dx = sum(STEPS[s][0] for s in st)
        dy = sum(STEPS[s][1] for s in st)
        if (dx, dy) != (0, 0):
            raise ValueError("steps do not close up")

    def __len__(self):
        return len(self.steps)

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def vertices(self, base=(0, 0)) -> list[tuple[int, int]]:
        out = [tuple(base)]
        x, y = base
        for s in self.steps:
            dx, dy = STEPS[s]
            x, y = x + dx, y + dy
            out.append((x, y))
        return out

    @classmethod
    def from_word(cls, word: str) -> "LatticeLoop":
        """Parse a step word like "EENNWWSS" (whitespace ignored)."""
        return cls(tuple("".join(word.upper().split())))

    def word(self) -> str:
        return "".join(self.steps)


def reduce_loop(loop: LatticeLoop) -> LatticeLoop:
    """Cancel immediate backtracks, cyclically, until none remain."""
    steps = list(loop.steps)
    changed = True
    while changed and steps:
        changed = False
        out = []
        for s in steps:
            if out and out[-1] == OPPOSITE[s]:
                out.pop()
                changed = True
            else:
                out.append(s)
        while len(out) >= 2 and out[0] == OPPOSITE[out[-1]]:
            out = out[1:-1]
            changed = True
        steps = out
    return LatticeLoop(tuple(steps))


def turning_number(loop: LatticeLoop) -> Fraction:
    """(left turns - right turns) / 4 around a reduced closed loop."""
    if loop.is_empty:
        raise ValueError("turning number of the empty loop is undefined")
    steps = loop.steps
    for a, b in zip(steps, steps[1:] + steps[:1]):
        if b == OPPOSITE[a]:
            raise ValueError("loop is not reduced")
    left = right = 0
    for a, b in zip(steps, steps[1:] + steps[:1]):
        if b == LEFT_OF[a]:
            left += 1
        elif a == LEFT_OF[b]:
            right += 1
    return Fraction(left - right, 4)


def concatenate(alpha: LatticeLoop, beta: LatticeLoop, path: Sequence[str]) -> LatticeLoop:
    """Traverse alpha, walk path, traverse beta, walk path backwards."""
    back = tuple(OPPOSITE[s] for s in reversed(path))
    return LatticeLoop(alpha.steps + tuple(path) + beta.steps + back)


# -- cellular chains ---------------------------------------------------------

Edge = tuple[int, int, str]  # (x, y, "h") = edge to (x+1, y); "v" = edge to (x, y+1)
Cell = tuple[int, int]  # unit square [x, x+1] x [y, y+1]


def _add_edge(chain: dict[Edge, int], e: Edge, c: int) -> None:
    """chain[e] += c, dropping the edge when its coefficient cancels."""
    chain[e] = chain.get(e, 0) + c
    if chain[e] == 0:
        del chain[e]


@dataclass
class LatticeChain:
    """Finitely supported integer 2-chain on the grid."""

    cells: dict[Cell, int] = field(default_factory=dict)

    def mass(self) -> int:
        return sum(abs(c) for c in self.cells.values())

    def boundary(self) -> dict[Edge, int]:
        out: dict[Edge, int] = {}
        for (x, y), c in self.cells.items():
            if c == 0:
                continue
            _add_edge(out, (x, y, "h"), c)
            _add_edge(out, (x + 1, y, "v"), c)
            _add_edge(out, (x, y + 1, "h"), -c)
            _add_edge(out, (x, y, "v"), -c)
        return out

    def superlevel_counts(self) -> list[int]:
        """#{cells with coefficient >= i} for i = 1, 2, ...."""
        out = []
        i = 1
        while True:
            count = sum(1 for c in self.cells.values() if c >= i)
            if count == 0:
                return out
            out.append(count)
            i += 1


def loop_to_cycle(loop: LatticeLoop, base=(0, 0)) -> dict[Edge, int]:
    z: dict[Edge, int] = {}
    x, y = base
    for s in loop.steps:
        if s == "E":
            _add_edge(z, (x, y, "h"), 1)
            x += 1
        elif s == "W":
            _add_edge(z, (x - 1, y, "h"), -1)
            x -= 1
        elif s == "N":
            _add_edge(z, (x, y, "v"), 1)
            y += 1
        else:
            _add_edge(z, (x, y - 1, "v"), -1)
            y -= 1
    return z


def cycle_mass(z: dict[Edge, int]) -> int:
    return sum(abs(c) for c in z.values())


def is_cycle(z: dict[Edge, int]) -> bool:
    vertex: dict[tuple[int, int], int] = {}
    for (x, y, kind), c in z.items():
        if kind == "h":
            head, tail = (x + 1, y), (x, y)
        else:
            head, tail = (x, y + 1), (x, y)
        vertex[head] = vertex.get(head, 0) + c
        vertex[tail] = vertex.get(tail, 0) - c
    return all(v == 0 for v in vertex.values())


def fill_cycle(z: dict[Edge, int]) -> LatticeChain:
    """The unique compactly supported 2-chain with boundary z.

    The coefficient of a cell is the total signed count of vertical
    edges of z crossed by a rightward ray from the cell, which is the
    winding number of z around the cell's interior.
    """
    if not is_cycle(z):
        raise ValueError("input is not a 1-cycle")
    vertical = [(x, y, c) for (x, y, kind), c in z.items() if kind == "v"]
    if not vertical:
        if any(c for c in z.values()):
            raise ValueError("nonzero cycle with no vertical edges cannot close up")
        return LatticeChain({})
    ys = sorted({y for _, y, _ in vertical})
    cells: dict[Cell, int] = {}
    for y in ys:
        row = [(x, c) for x, yy, c in vertical if yy == y]
        xmin = min(x for x, _ in row)
        xmax = max(x for x, _ in row)
        for cx in range(xmin, xmax):
            coeff = sum(c for x, c in row if x > cx)
            if coeff:
                cells[(cx, y)] = coeff
    chain = LatticeChain(cells)
    if chain.boundary() != {e: c for e, c in z.items() if c}:
        raise ArithmeticError("filling does not bound the given cycle")
    return chain


def splice_across_square(loop: LatticeLoop, base: tuple[int, int], square: tuple[int, int, int]) -> LatticeLoop:
    """Replace maximal runs of vertices inside a square by an L-shaped
    monotone staircase between the run's endpoints.

    square = (x0, y0, side); a vertex is inside when strictly within
    the closed square minus its boundary frame.  Used for turning
    numbers rel a marked square: any simple replacement curve gives the
    same class, and staircases are canonical.
    """
    x0, y0, side = square

    def inside(v):
        return x0 < v[0] < x0 + side and y0 < v[1] < y0 + side

    verts = loop.vertices(base)[:-1]
    if not verts or all(not inside(v) for v in verts):
        return loop
    # rotate so the loop starts outside
    start = next(i for i, v in enumerate(verts) if not inside(v))
    verts = verts[start:] + verts[:start]
    out = [verts[0]]
    i = 1
    n = len(verts)
    while i <= n:
        v = verts[i % n]
        if not inside(v):
            out.append(v)
            i += 1
            continue
        j = i
        while j <= n and inside(verts[j % n]):
            j += 1
        a, b = out[-1], verts[j % n]
        x, y = a
        while x != b[0]:
            x += 1 if b[0] > x else -1
            out.append((x, y))
        while y != b[1]:
            y += 1 if b[1] > y else -1
            out.append((x, y))
        i = j + 1 if (j % n) != 0 else n + 1
    steps = []
    for a, b in zip(out, out[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        steps.append({(1, 0): "E", (-1, 0): "W", (0, 1): "N", (0, -1): "S"}[(dx, dy)])
    return LatticeLoop(tuple(steps))
