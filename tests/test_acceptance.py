"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime and asserting the stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import pathlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from wrapcheck.algebra import quotient_by_degree1
from wrapcheck.battery import BatteryOptions, fourmanifold_battery, run_battery
from wrapcheck.cli import EXIT_OK, main
from wrapcheck.descriptor import Pi1Data, parse_descriptor_file
from wrapcheck.embed import (
    RingMorphism,
    certify_injective,
    search_embedding,
    torus_subalgebra_check,
    verify_morphism,
)
from wrapcheck.exterior import Multivector
from wrapcheck.geom2d import (
    HYPERBOLIC,
    PARABOLIC,
    LatticeChain,
    LatticeLoop,
    RadialProfile,
    ahlfors_classify,
    concatenate,
    cycle_mass,
    fill_cycle,
    milnor_classify,
    nodule_profile,
    reduce_loop,
    revolution_volume,
    turning_number,
)
from wrapcheck.nilcoh import (
    NilLieAlgebra,
    bass_growth_degree,
    lower_central_series,
    nomizu_kernel,
    pi1_verdict,
)
from wrapcheck.quadform import (
    QuadraticForm,
    discriminant,
    rationally_equivalent,
    wedge_pairing_form,
)
from wrapcheck.wrapmaps import (
    asymptotic_degree,
    estimate_lipschitz,
    eval_sphere_wrap,
    jacobian_floor,
    sphere_wrap_map,
    sphere_wrap_strip_sampler,
)

import presentations as P
from corpusgen import nilpotent_corpus, random_pd_subalgebra

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "corpus_verdicts.json"


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({description}): PASS ({elapsed:.2f} s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds} s"


def test_criterion_1_square_class_reproduction():
    with criterion(1, "cup-form square classes", 1.0):
        remark = QuadraticForm.diagonal([2, 1, 1, -1, -1, -1])
        torus_form = wedge_pairing_form(4)
        assert discriminant(remark) == -2
        assert discriminant(torus_form) == -1
        assert rationally_equivalent(remark, torus_form) is False


def test_criterion_2_torus_ground_truth():
    with criterion(2, "torus embeddings and rank n-1 rejection", 30.0):
        for k in range(1, 7):
            A = P.torus(k)
            for n in range(1, 7):
                out = search_embedding(A, n, budget=100000, seed=0)
                if k <= n:
                    assert out.status == "found-certified", (k, n)
                    assert verify_morphism(out.morphism)
                    assert certify_injective(out.morphism)
                    assignment = out.morphism.assignment
                    wider = {nm: Multivector(n + 1, dict(mv.items())) for nm, mv in assignment.items()}
                    padded = RingMorphism(A, n + 1, wider)
                    assert verify_morphism(padded) and certify_injective(padded)
                else:
                    assert out.status == "not-found", (k, n)
                    assert out.obstruction is not None
        # first Betti number exactly n-1 is rejected with the pairing witness
        rank_inputs = [P.heisenberg_times_torus(extra) for extra in range(0, 4)]
        rank_inputs.append(P.t3_skeleton_boundary())
        for A in rank_inputs:
            res = torus_subalgebra_check(A)
            assert res.failed
            assert res.witness["reason"] == "rank-n-minus-1-pairing"
            assert res.witness["b1"] == A.n - 1
        # and end to end through the battery on the bundled descriptors
        corpus_dir = pathlib.Path(__file__).resolve().parent.parent / "src" / "wrapcheck" / "corpus"
        for name in ("heisenberg3", "t3_skeleton_boundary"):
            d = parse_descriptor_file(corpus_dir / f"{name}.descriptor")
            rep = run_battery(d, BatteryOptions(embed=False))
            assert rep.verdict == "excluded-with-witness"
            sub = next(c for c in rep.checks if c.check_id == "degree-one-subalgebra")
            assert sub.witness["reason"] == "rank-n-minus-1-pairing"


def test_criterion_3_four_manifold_list():
    with criterion(3, "simply connected 4-manifold table", 1.0):
        golden = {}
        for bp in range(5):
            for bm in range(5):
                golden[(bp, bm)] = fourmanifold_battery(bp, bm, Pi1Data("finite")).verdict
        for (bp, bm), verdict in golden.items():
            expected = "pass" if bp <= 3 and bm <= 3 else "fail"
            assert verdict == expected, (bp, bm)
        assert golden[(4, 0)] == "fail" and golden[(0, 4)] == "fail" and golden[(4, 4)] == "fail"


def test_criterion_4_degree_two_kernel_law():
    with criterion(4, "abelianization kernel law on 50 algebras", 60.0):
        corpus = nilpotent_corpus(2024, 50, max_dim=6, nonabelian=True)
        assert len(corpus) >= 50
        for g in corpus:
            series = lower_central_series(g)
            expected = series[1] - (series[2] if len(series) > 2 else 0)
            got = nomizu_kernel(g)
            assert got.kernel_dim == expected
            assert isinstance(got.kernel_dim, int)


def test_criterion_5_growth_criterion():
    with criterion(5, "growth degrees and verdicts", 1.0):
        for n in range(1, 7):
            assert bass_growth_degree(NilLieAlgebra.abelian(n)) == n
        heisenberg = NilLieAlgebra(3, {(1, 2): {3: 1}})
        filiform4 = NilLieAlgebra(4, {(1, 2): {3: 1}, (1, 3): {4: 1}})
        assert bass_growth_degree(heisenberg) == 4
        assert bass_growth_degree(filiform4) == 7
        assert not pi1_verdict(heisenberg, 3).passed
        assert not pi1_verdict(NilLieAlgebra.abelian(5), 4).passed
        assert pi1_verdict(NilLieAlgebra.abelian(4), 4).passed


def test_criterion_6_quotient_suite():
    with criterion(6, "quotient-by-one-class suite on 100 subalgebras", 60.0):
        rng = random.Random(31337)
        for trial in range(100):
            n = rng.randint(1, 5)
            A, x = random_pd_subalgebra(rng, n)
            report = quotient_by_degree1(A, x)
            assert report.dim_quotient == report.dim_ideal, trial
            assert report.pd_holds, trial
            dims = A.dims()
            assert dims[1] > 0
            assert sum((-1) ** k * d for k, d in enumerate(dims)) == 0, trial


def _enumerate_turning_bound(max_length: int):
    """Exhaustive turning-number bound over all closed non-backtracking
    lattice paths up to max_length, vectorized level by level."""
    # directions 0..3 = E, N, W, S; left(d) = d + 1 mod 4
    turn = np.zeros((4, 4), dtype=np.int8)
    for d in range(4):
        turn[d, (d + 1) % 4] = 1
        turn[d, (d - 1) % 4] = -1
    dx = np.array([1, 0, -1, 0], dtype=np.int8)
    dy = np.array([0, 1, 0, -1], dtype=np.int8)

    first = np.arange(4, dtype=np.int8)
    last = first.copy()
    x = dx[first].copy()
    y = dy[first].copy()
    turns = np.zeros(4, dtype=np.int16)
    checked = 0
    for length in range(2, max_length + 1):
        moves = (last[:, None] + np.array([-1, 0, 1], dtype=np.int8)) % 4
        reps = moves.shape[1]
        new_first = np.repeat(first, reps)
        new_turns = (turns[:, None] + turn[last[:, None], moves]).reshape(-1).astype(np.int16)
        new_last = moves.reshape(-1)
        new_x = (x[:, None] + dx[moves]).reshape(-1)
        new_y = (y[:, None] + dy[moves]).reshape(-1)
        first, last, x, y, turns = new_first, new_last, new_x, new_y, new_turns
        if length % 2 == 0:
            closed = (x == 0) & (y == 0) & (last != (first + 2) % 4)
            if np.any(closed):
                total = turns[closed] + turn[last[closed], first[closed]]
                assert np.all(np.abs(total) <= length), f"bound fails at length {length}"
                checked += int(closed.sum())
    return checked


def test_criterion_7_lattice_combinatorics():
    with criterion(7, "turning numbers, concatenation, isoperimetry", 120.0):
        # exhaustive: every reduced closed loop of length <= 14 satisfies
        # 4 t = (#L - #R) with |t| <= length / 4
        count = _enumerate_turning_bound(14)
        assert count > 100000

        rng = random.Random(4242)

        def random_loop(length):
            he = rng.randrange(0, length // 2 + 1)
            ve = length // 2 - he
            steps = ["E"] * he + ["W"] * he + ["N"] * ve + ["S"] * ve
            rng.shuffle(steps)
            return LatticeLoop(tuple(steps))

        checked = 0
        while checked < 2000:
            loop = reduce_loop(random_loop(rng.choice([16, 18, 20])))
            if loop.is_empty:
                continue
            assert abs(turning_number(loop)) <= Fraction(len(loop), 4)
            checked += 1

        triples = 0
        dirs = "ENWS"
        while triples < 10000:
            alpha = reduce_loop(random_loop(rng.choice([4, 8, 12])))
            beta = reduce_loop(random_loop(rng.choice([4, 8, 12])))
            if alpha.is_empty or beta.is_empty:
                continue
            path = tuple(rng.choice(dirs) for _ in range(rng.randrange(0, 5)))
            gamma = reduce_loop(concatenate(alpha, beta, path))
            t_gamma = turning_number(gamma) if not gamma.is_empty else Fraction(0)
            assert abs(t_gamma - turning_number(alpha) - turning_number(beta)) <= 1
            triples += 1

        cycles = 0
        while cycles < 1000:
            cells = {
                (rng.randrange(-4, 5), rng.randrange(-4, 5)): rng.randrange(-2, 6)
                for _ in range(rng.randrange(1, 8))
            }
            chain = LatticeChain({c: v for c, v in cells.items() if v})
            if not chain.cells:
                continue
            z = chain.boundary()
            recovered = fill_cycle(z)
            assert recovered.cells == chain.cells
            bound = sum(4 * math.sqrt(c) for c in chain.superlevel_counts())
            assert cycle_mass(z) >= bound - 1e-9
            cycles += 1


def test_criterion_8_map_verification():
    with criterion(8, "sphere wrapping map at desk scale", 600.0):
        # pole avoidance on a million-point grid
        xs = np.linspace(-2.0, 2.0, 1000)
        ys = np.linspace(-12.0, 12.0, 1000)
        X, Y = np.meshgrid(xs, ys)
        v = eval_sphere_wrap(X, Y)
        assert np.max(np.abs(v[..., 2])) < 1.0
        pole_dist = np.minimum(
            np.linalg.norm(v - np.array([0.0, 0.0, 1.0]), axis=-1),
            np.linalg.norm(v - np.array([0.0, 0.0, -1.0]), axis=-1),
        )
        assert pole_dist.min() > 0

        m = sphere_wrap_map()
        radii = list(range(10, 101, 10))
        coarse = asymptotic_degree(m, radii, 0.2)
        fine = asymptotic_degree(m, radii, 0.1)
        assert min(coarse.normalized) > 1.0
        assert coarse.slope() >= -1e-3
        assert fine.slope() >= -1e-3
        for a, b in zip(coarse.normalized, fine.normalized):
            assert abs(a - b) / b < 0.05

        floor = jacobian_floor(m, sphere_wrap_strip_sampler(), 100000, seed=0)
        floor_fine = jacobian_floor(
            m, sphere_wrap_strip_sampler(), 100000, seed=0, fd_step=5e-6
        )
        assert floor > 0
        assert abs(floor - floor_fine) / floor_fine < 0.05

        lip = estimate_lipschitz(m, [(-2.0, 6.0), (-10.0, 10.0)], 2e-2)
        lip_fine = estimate_lipschitz(m, [(-2.0, 6.0), (-10.0, 10.0)], 1e-2)
        assert abs(lip - lip_fine) / lip_fine < 0.05
        # the pointwise limsup statement is not decidable numerically; this
        # bounded-window study is the declared stand-in


def test_criterion_9_surface_classification():
    with criterion(9, "surface conformal types", 30.0):
        assert ahlfors_classify(RadialProfile.euclidean()).verdict == PARABOLIC
        assert ahlfors_classify(RadialProfile.hyperbolic()).verdict == HYPERBOLIC

        r = np.linspace(2.0, 2000.0, 8000)
        inverse_square = milnor_classify(r, -1.0 / r**2)
        assert inverse_square.verdict == HYPERBOLIC

        rr = np.geomspace(2.0, 2.0**18, 6000)
        spiky = RadialProfile.tabulated(rr, 3.0 * rr * np.log(rr))
        assert ahlfors_classify(spiky).verdict == PARABOLIC

        for profile in (
            RadialProfile.euclidean(),
            RadialProfile.hyperbolic(),
            RadialProfile.power_log(0.0),
            RadialProfile.power_log(0.5),
        ):
            a = ahlfors_classify(profile).verdict
            probe = np.geomspace(3.0, min(profile.rmax, 1e5), 4096)
            mk = milnor_classify(probe, profile.curvature_samples(probe)).verdict
            assert a == mk, profile.family


def test_criterion_10_revolution_profile():
    with criterion(10, "nodule volumes halve with finite total", 10.0):
        t, rho = nodule_profile(3, 12)
        volumes = [revolution_volume(t, rho, 3, (p, p + 1)) for p in range(0, 12)]
        for p in range(1, 11):
            ratio = volumes[p + 1] / volumes[p]
            assert abs(ratio - 0.5) <= 0.1, (p, ratio)
        partial = np.cumsum(volumes)
        # tail increments fall geometrically, so the total is finite
        tail_bound = partial[-1] + 2 * volumes[-1]
        assert partial[-1] < tail_bound
        assert volumes[-1] < 0.75 * volumes[-2]


def test_criterion_11_corpus_determinism(tmp_path):
    with criterion(11, "byte-identical corpus verdict table", 300.0):
        out = tmp_path / "corpus.json"
        code = main(
            [
                "corpus",
                "--budget",
                "4000",
                "--seed",
                "0",
                "--format",
                "structured",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.read_bytes() == GOLDEN.read_bytes()
        payload = json.loads(out.read_text())
        verdicts = {r["name"]: r["verdict"] for r in payload["reports"]}
        assert verdicts["t4"] == "no-obstruction-found"
        assert verdicts["heisenberg3"] == "excluded-with-witness"
        assert verdicts["genus2"] == "excluded-with-witness"
