import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wrapcheck.geom2d import (
    HYPERBOLIC,
    INCONCLUSIVE,
    PARABOLIC,
    LatticeChain,
    LatticeLoop,
    RadialProfile,
    ahlfors_classify,
    concatenate,
    curvature_from_profile,
    cycle_mass,
    fill_cycle,
    is_cycle,
    loop_to_cycle,
    milnor_classify,
    nodule_profile,
    profile_from_curvature,
    reduce_loop,
    revolution_volume,
    splice_across_square,
    square_loop,
    turning_number,
)


class TestAhlfors:
    def test_euclidean_parabolic(self):
        assert ahlfors_classify(RadialProfile.euclidean()).verdict == PARABOLIC

    def test_hyperbolic(self):
        assert ahlfors_classify(RadialProfile.hyperbolic()).verdict == HYPERBOLIC

    def test_spiky_plane_samples(self):
        r = np.geomspace(2.0, 2.0**18, 6000)
        profile = RadialProfile.tabulated(r, 3.0 * r * np.log(r))
        assert ahlfors_classify(profile).verdict == PARABOLIC

    def test_tabulated_hyperbolic(self):
        r = np.geomspace(1.0, 512.0, 6000)
        profile = RadialProfile.tabulated(r, 2 * np.pi * np.sinh(r))
        assert ahlfors_classify(profile).verdict == HYPERBOLIC

    def test_too_few_windows_inconclusive(self):
        r = np.linspace(1.0, 8.0, 200)
        profile = RadialProfile.tabulated(r, 2 * np.pi * r)
        assert ahlfors_classify(profile).verdict == INCONCLUSIVE

    def test_trace_table(self):
        cls = ahlfors_classify(RadialProfile.euclidean())
        text = cls.trace_text()
        assert text.startswith("window_start")
        assert len(text.strip().splitlines()) == len(cls.trace) + 1

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(ValueError):
            RadialProfile.tabulated([1.0, 2.0], [1.0, -1.0])

    @pytest.mark.parametrize("r", [[0.0, 2.0, 4.0], [-5.0, 2.0]])
    def test_nonpositive_radius_rejected(self, r):
        # a first radius <= 0 used to open about 30 dyadic windows below r = 1
        with pytest.raises(ValueError, match="radii must be positive"):
            RadialProfile.tabulated(r, [1.0] * len(r))

    @pytest.mark.parametrize("eps, rmax", [(1e308, 2.0**18), (400.0, 2.0**18), (5.0, 1e300)])
    def test_overflowing_circumference_rejected(self, eps, rmax):
        with pytest.raises(ValueError, match="is not a finite float"):
            RadialProfile.power_log(eps, rmax)

    def test_largest_finite_circumference_accepted(self):
        # 2 pi 2^18 (log 2^18)^275.6 is about the largest float
        profile = RadialProfile.power_log(274.0)
        assert np.isfinite(profile.circumference(profile.rmax))
        assert ahlfors_classify(profile).verdict == HYPERBOLIC

    @pytest.mark.parametrize("rmax", [math.inf, math.nan])
    def test_nonfinite_rmax_rejected(self, rmax):
        # an infinite rmax used to double the dyadic window forever
        with pytest.raises(ValueError, match="rmax must be finite"):
            ahlfors_classify(RadialProfile.hyperbolic(rmax))

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
    def test_nonfinite_epsilon_rejected(self, eps):
        # nan read as parabolic and inf as hyperbolic with eps = inf
        with pytest.raises(ValueError, match="epsilon must be finite"):
            RadialProfile.power_log(eps)


class TestMilnor:
    def test_flat(self):
        r = np.linspace(2, 1000, 4000)
        assert milnor_classify(r, np.zeros_like(r)).verdict == PARABOLIC

    def test_inverse_square_curvature(self):
        r = np.linspace(2, 1000, 4000)
        assert milnor_classify(r, -1.0 / r**2).verdict == HYPERBOLIC

    def test_half_the_critical_decay(self):
        r = np.linspace(2, 1000, 4000)
        K = -1.0 / (2 * r**2 * np.log(r))
        assert milnor_classify(r, K).verdict == PARABOLIC

    def test_r0_must_exceed_one(self):
        with pytest.raises(ValueError):
            milnor_classify([0.5, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize("eps", [-0.0, 0.5, 1.5])
    def test_agreement_with_length_criterion(self, eps):
        profile = RadialProfile.power_log(eps)
        a = ahlfors_classify(profile).verdict
        r = np.geomspace(3.0, profile.rmax, 4096)
        m = milnor_classify(r, profile.curvature_samples(r)).verdict
        assert a == m

    def test_agreement_on_standard_families(self):
        for profile in (RadialProfile.euclidean(), RadialProfile.hyperbolic()):
            a = ahlfors_classify(profile).verdict
            r = np.geomspace(2.0, min(profile.rmax, 1e5), 4096)
            m = milnor_classify(r, profile.curvature_samples(r)).verdict
            assert a == m


class TestCurvature:
    def test_flat_plane(self):
        r = np.arange(1.0, 3.0, 1e-3)
        assert np.max(np.abs(curvature_from_profile(r, r))) == 0

    def test_sinh_gives_minus_one(self):
        r = np.arange(1.0, 3.0, 1e-3)
        K = curvature_from_profile(r, np.sinh(r))
        assert np.max(np.abs(K + 1)) < 1e-4

    def test_sin_gives_plus_one(self):
        r = np.arange(0.5, 2.5, 1e-3)
        K = curvature_from_profile(r, np.sin(r))
        assert np.max(np.abs(K - 1)) < 1e-4

    def test_coarse_grid_rejected(self):
        r = np.arange(1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            curvature_from_profile(r, r)

    def test_round_trip_with_integrator(self):
        r, rho = profile_from_curvature(lambda t: -1.0 / t**2, 2.0, 6.0)
        K = curvature_from_profile(r, rho)
        assert np.max(np.abs(K + 1.0 / r[1:-1] ** 2)) < 1e-3


class TestRevolutionVolume:
    def test_cylinder(self):
        t = np.linspace(0, 1, 2001)
        v = revolution_volume(t, np.ones_like(t), 2, (0, 1))
        assert abs(v - 2 * math.pi) < 1e-9

    def test_nodule_halving(self):
        t, rho = nodule_profile(3, 12)
        vols = [revolution_volume(t, rho, 3, (p, p + 1)) for p in range(1, 12)]
        ratios = [vols[i + 1] / vols[i] for i in range(len(vols) - 1)]
        assert all(abs(q - 0.5) <= 0.1 for q in ratios)

    def test_finite_total_volume(self):
        t, rho = nodule_profile(3, 12)
        partial = np.cumsum(
            [revolution_volume(t, rho, 3, (p, p + 1)) for p in range(13)]
        )
        # increasing and bounded: the tail is dominated by a geometric series
        assert partial[-1] - partial[-2] < 0.75 * (partial[-2] - partial[-3])
        assert partial[-1] < partial[-2] + 2 * (partial[-2] - partial[-3])


class TestLoops:
    @pytest.mark.parametrize("word", ["EN WS", " ENWS", "enws", "E\tN\nW S "])
    def test_from_word_ignores_whitespace_and_case(self, word):
        assert LatticeLoop.from_word(word).steps == ("E", "N", "W", "S")

    def test_square_is_reduced(self):
        sq = square_loop()
        assert reduce_loop(sq) == sq

    def test_out_and_back_reduces_to_empty(self):
        loop = LatticeLoop(("E", "E", "W", "W"))
        assert reduce_loop(loop).is_empty

    def test_spur_removed(self):
        spur = LatticeLoop(("E", "N", "S", "N", "W", "S"))
        assert reduce_loop(spur) == square_loop()

    def test_cyclic_reduction(self):
        loop = LatticeLoop(("W", "E", "N", "W", "S", "E"))  # backtrack across the seam
        red = reduce_loop(loop)
        assert len(red) == 4

    def test_non_closed_rejected(self):
        with pytest.raises(ValueError):
            LatticeLoop(("E", "N"))

    def test_turning_numbers(self):
        assert turning_number(square_loop()) == 1
        assert turning_number(square_loop(clockwise=True)) == -1
        assert turning_number(square_loop(2, 1)) == 1

    def test_turning_requires_reduced_nonempty(self):
        with pytest.raises(ValueError):
            turning_number(LatticeLoop(()))
        with pytest.raises(ValueError):
            turning_number(LatticeLoop(("E", "W", "N", "S")))


def random_loop(rng: random.Random, length: int) -> LatticeLoop:
    """Random closed loop via a shuffled balanced step multiset."""
    he = rng.randrange(0, length // 2 + 1)
    ve = length // 2 - he
    steps = ["E"] * he + ["W"] * he + ["N"] * ve + ["S"] * ve
    rng.shuffle(steps)
    return LatticeLoop(tuple(steps))


class TestTurningBounds:
    def test_length_bound_random(self):
        rng = random.Random(12)
        checked = 0
        while checked < 400:
            loop = reduce_loop(random_loop(rng, rng.choice([8, 12, 16, 20])))
            if loop.is_empty:
                continue
            t = turning_number(loop)
            assert abs(t) <= Fraction(len(loop), 4)
            checked += 1

    def test_concatenation_bound(self):
        rng = random.Random(99)
        dirs = "ENWS"
        for _ in range(400):
            alpha = reduce_loop(random_loop(rng, rng.choice([4, 8, 12])))
            beta = reduce_loop(random_loop(rng, rng.choice([4, 8, 12])))
            if alpha.is_empty or beta.is_empty:
                continue
            path = tuple(rng.choice(dirs) for _ in range(rng.randrange(0, 6)))
            gamma = reduce_loop(concatenate(alpha, beta, path))
            t_gamma = turning_number(gamma) if not gamma.is_empty else Fraction(0)
            diff = t_gamma - turning_number(alpha) - turning_number(beta)
            assert abs(diff) <= 1


class TestFillCycle:
    def test_unit_square(self):
        chain = fill_cycle(loop_to_cycle(square_loop()))
        assert chain.cells == {(0, 0): 1}
        assert chain.mass() == 1

    def test_double_traversal(self):
        z = loop_to_cycle(LatticeLoop(square_loop().steps * 2))
        assert fill_cycle(z).cells == {(0, 0): 2}

    def test_l_shape(self):
        loop = LatticeLoop(("E", "E", "N", "W", "N", "W", "S", "S"))
        chain = fill_cycle(loop_to_cycle(loop))
        assert chain.cells == {(0, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_not_a_cycle_rejected(self):
        with pytest.raises(ValueError):
            fill_cycle({(0, 0, "h"): 1})

    def test_boundary_inverse_and_linearity(self):
        rng = random.Random(5)
        for _ in range(50):
            cells = {
                (rng.randrange(-3, 4), rng.randrange(-3, 4)): rng.randrange(-3, 4)
                for _ in range(rng.randrange(1, 6))
            }
            chain = LatticeChain({c: v for c, v in cells.items() if v})
            z = chain.boundary()
            assert is_cycle(z)
            assert fill_cycle(z).cells == chain.cells
            double = {e: 2 * c for e, c in z.items()}
            assert fill_cycle(double).cells == {c: 2 * v for c, v in chain.cells.items()}

    def test_isoperimetry(self):
        rng = random.Random(6)
        for _ in range(100):
            cells = {
                (rng.randrange(-4, 5), rng.randrange(-4, 5)): rng.randrange(-2, 5)
                for _ in range(rng.randrange(1, 8))
            }
            chain = LatticeChain({c: v for c, v in cells.items() if v})
            if not chain.cells:
                continue
            z = chain.boundary()
            bound = sum(4 * math.sqrt(c) for c in chain.superlevel_counts())
            assert cycle_mass(z) >= bound - 1e-9


class TestSpliceAcrossSquare:
    def test_loop_avoiding_square_unchanged(self):
        sq = square_loop()
        assert splice_across_square(sq, (0, 0), (5, 5, 3)) == sq

    def test_traversal_replaced_by_staircase(self):
        # a big square around a marked region keeps its class
        big = square_loop(6, 6)
        spliced = splice_across_square(big, (-3, -3), (-1, -1, 2))
        assert turning_number(reduce_loop(spliced)) == 1

    def test_run_through_interior_becomes_staircase(self):
        # (1, 1) is the one vertex strictly inside the square (0, 0, 2);
        # the run is replaced by the staircase (1, 0) -> (2, 0) -> (2, 1)
        loop = LatticeLoop.from_word("ENENWWSS")
        spliced = splice_across_square(loop, (0, 0), (0, 0, 2))
        assert spliced.word() == "EENNWWSS"
        assert all(not (0 < x < 2 and 0 < y < 2) for x, y in spliced.vertices((0, 0)))
        assert turning_number(reduce_loop(spliced)) == turning_number(reduce_loop(loop))
