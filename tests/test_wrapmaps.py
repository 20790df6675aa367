import math
import tracemalloc

import numpy as np
import oracles
import pytest

from wrapcheck import wrapmaps
from wrapcheck.wrapmaps import (
    asymptotic_degree,
    constant_map,
    estimate_lipschitz,
    eval_f0,
    eval_fn,
    eval_sphere_wrap,
    eval_torus_collapse,
    f0_map,
    identity_map,
    jacobian_floor,
    join_map,
    operator_norm,
    quasiregularity_ratio,
    radial_stretch_map,
    signed_jacobian,
    sphere_wrap_map,
    sphere_wrap_strip_sampler,
    torus_collapse_map,
)


class TestF0:
    def test_bottom_edge_collapses_to_boundary_point(self):
        x = np.linspace(0, 1, 11)
        r, theta = eval_f0(x, np.zeros_like(x))
        assert np.allclose(r, 1.0) and np.allclose(theta, 0.0)

    def test_right_edge_wraps_boundary(self):
        r, theta = eval_f0(1.0, 7.5)
        assert float(r) == 1.0 and float(theta) == 7.5

    def test_center_line_spirals_inward(self):
        y = np.array([0.5, 2.0, 10.0])
        r, theta = eval_f0(np.zeros_like(y), y)
        assert np.allclose(r, np.exp(-y))
        assert np.allclose(theta, 0.0, atol=1e-12)

    def test_mirror_half(self):
        r1, t1 = eval_f0(0.4, 2.0)
        r2, t2 = eval_f0(-0.4, 2.0)
        assert r1 == r2 and t2 == -t1

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            eval_f0(1.5, 1.0)
        with pytest.raises(ValueError):
            eval_f0(0.5, -1.0)


class TestSphereWrap:
    def test_x_axis_maps_to_equator_point(self):
        x = np.linspace(0, 1, 5)
        v = eval_sphere_wrap(x, np.zeros_like(x))
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        v = eval_sphere_wrap(rng.uniform(-8, 8, 5000), rng.uniform(-30, 30, 5000))
        assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1)) < 1e-12

    def test_chart_consistency_on_boundary_circle(self):
        # p+ and p- agree on the boundary circle r = 1
        theta = np.linspace(0, 2 * np.pi, 64)
        from wrapcheck.wrapmaps import _hemisphere_chart

        up = _hemisphere_chart(np.ones_like(theta), theta, np.ones_like(theta, dtype=bool))
        dn = _hemisphere_chart(np.ones_like(theta), theta, np.zeros_like(theta, dtype=bool))
        assert np.max(np.abs(up - dn)) < 1e-12

    def test_seam_consistency(self):
        for x, xx in [(1.0, 1.0), (-1.0, 3.0)]:
            a = eval_sphere_wrap(np.array([x - 1e-13]), np.array([2.0]))
            b = eval_sphere_wrap(np.array([xx + 1e-13]), np.array([2.0]))
            assert np.linalg.norm(a - b) < 1e-10

    def test_poles_missed_on_grid(self):
        # y-window 12: the image can come within e^-12 of a pole, which
        # float64 still resolves; far larger windows round cos to 1
        xs = np.linspace(-2, 2, 1000)
        ys = np.linspace(-12, 12, 1000)
        X, Y = np.meshgrid(xs, ys)
        v = eval_sphere_wrap(X, Y)
        third = np.abs(v[..., 2])
        assert third.max() < 1.0
        dist_to_poles = np.minimum(
            np.linalg.norm(v - np.array([0, 0, 1.0]), axis=-1),
            np.linalg.norm(v - np.array([0, 0, -1.0]), axis=-1),
        )
        assert dist_to_poles.min() > 0

    def test_orientation_coherence(self):
        m = sphere_wrap_map()
        rng = np.random.default_rng(3)
        pts = np.stack([rng.uniform(-2, 6, 20000), rng.uniform(-12, 12, 20000)], -1)
        pts = pts[m.seam_dist(pts) > 1e-3]
        jac = signed_jacobian(m, pts)
        assert np.all(jac > 0)


class TestTorusCollapse:
    def test_cube_center_hits_antipode(self):
        v = eval_torus_collapse(np.array([[0.5, 0.5]]))
        assert np.allclose(v, [0, 0, 1.0], atol=1e-12)

    def test_faces_hit_basepoint(self):
        pts = np.array([[0.0, 0.3], [1.0, 0.77], [0.25, 0.0]])
        v = eval_torus_collapse(pts)
        assert np.allclose(v, [0, 0, -1.0], atol=1e-12)

    def test_periodic(self):
        a = eval_torus_collapse(np.array([[0.3, 0.6]]))
        b = eval_torus_collapse(np.array([[5.3, -3.4]]))
        assert np.allclose(a, b, atol=1e-12)

    def test_degree_one_over_regular_value(self):
        # analytic inversion gives the unique preimage in the cube;
        # a fine grid confirms no others, and the Jacobian sign is +
        d = 2
        u0 = np.array([0.13, 0.07])
        target = eval_torus_collapse((u0 + 0.5)[None, :])[0]
        alpha = math.acos(target[-1])
        s = alpha / (2 * math.pi)
        head = target[:-1]
        pre = s * head / np.linalg.norm(head) + 0.5
        assert np.allclose(pre, u0 + 0.5, atol=1e-12)
        grid = np.stack(
            np.meshgrid(np.linspace(0, 1, 301), np.linspace(0, 1, 301), indexing="ij"), -1
        ).reshape(-1, 2)
        vals = eval_torus_collapse(grid)
        close = grid[np.linalg.norm(vals - target, axis=-1) < 0.05]
        assert len(close) > 0
        assert np.max(np.linalg.norm(close - pre, axis=-1)) < 0.02  # a single cluster
        m = torus_collapse_map(d)
        assert signed_jacobian(m, pre[None, :])[0] > 0


class TestJoinMap:
    @pytest.mark.parametrize("n", [3, 4])
    def test_unit_norm_and_locus_distance(self, n):
        rng = np.random.default_rng(1)
        count = 4000
        pts = np.concatenate(
            [
                rng.uniform(-4, 4, (count, 1)),
                rng.uniform(-6, 6, (count, 1)),
                rng.uniform(-2, 2, (count, n - 2)),
            ],
            axis=-1,
        )
        v = eval_fn(pts[:, 0], pts[:, 1], pts[:, 2:], n)
        assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1)) < 1e-12
        # the equatorial sphere is the locus where the first two coords vanish
        assert np.min(np.linalg.norm(v[:, :2], axis=-1)) > 0

    def test_seam_consistency(self):
        z = np.array([0.37])
        for y in (0.5, 4.0):
            a = eval_fn(np.array([1 - 1e-13]), np.array([y]), z[None, :], 3)
            b = eval_fn(np.array([1 + 1e-13]), np.array([y]), z[None, :], 3)
            assert np.linalg.norm(a - b) < 1e-12
        a = eval_fn(np.array([0.4]), np.array([1e-13]), z[None, :], 3)
        b = eval_fn(np.array([0.4]), np.array([-1e-13]), z[None, :], 3)
        assert np.linalg.norm(a - b) < 1e-12

    def test_projection_reproduces_strip_data(self):
        # the circle-factor coordinates are the strip map in the chart
        xs = np.linspace(-0.9, 0.9, 21)
        ys = np.linspace(0.1, 5.0, 21)
        X, Y = np.meshgrid(xs, ys)
        Z = np.full(X.shape + (1,), 0.3)
        out = eval_fn(X, Y, Z, 3)
        r, theta = eval_f0(X, Y)
        s = np.sin(np.pi * r / 2)
        assert np.allclose(out[..., 0], s * np.cos(theta), atol=1e-12)
        assert np.allclose(out[..., 1], s * np.sin(theta), atol=1e-12)

    def test_positive_degree_window(self):
        rep = asymptotic_degree(join_map(3), [4, 8], 0.25)
        assert min(rep.normalized) > 1.0

    def test_needs_n_at_least_3(self):
        with pytest.raises(ValueError):
            join_map(2)


class TestLipschitz:
    def test_identity(self):
        lip = estimate_lipschitz(identity_map(2), [(-1, 1), (-1, 1)], 0.01)
        assert abs(lip - 1.0) < 1e-9

    def test_f0_bounded_near_infinity(self):
        # symbolic partials: r_x = 1 - e^-y, r_y = -e^-y (1-x),
        # theta_x = r_x / r, theta_y = 1 + r_y / r; the Frobenius norm
        # of the cartesian differential bounds the Lipschitz constant
        m = f0_map()
        lip = estimate_lipschitz(m, [(0.05, 0.95), (5.0, 30.0)], 0.01)
        xs = np.linspace(0.05, 0.95, 200)
        ys = np.linspace(5.0, 30.0, 200)
        X, Y = np.meshgrid(xs, ys)
        r = X + np.exp(-Y) * (1 - X)
        r_x = 1 - np.exp(-Y)
        r_y = -np.exp(-Y) * (1 - X)
        th_x = r_x / r
        th_y = 1 + r_y / r
        frob = np.sqrt(r_x**2 + r_y**2 + (r * th_x) ** 2 + (r * th_y) ** 2)
        assert lip <= float(frob.max()) + 0.05

    def test_sphere_wrap_stable_under_refinement(self):
        m = sphere_wrap_map()
        a = estimate_lipschitz(m, [(-2, 6), (-10, 10)], 1e-2)
        b = estimate_lipschitz(m, [(-2, 6), (-10, 10)], 5e-3)
        assert math.isfinite(a)
        assert abs(a - b) / b < 0.05


class TestAsymptoticDegree:
    def test_identity_gives_pi(self):
        rep = asymptotic_degree(identity_map(2), [5, 10], 0.05)
        for v in rep.normalized:
            assert abs(v - math.pi) < 0.02

    def test_constant_map_gives_zero(self):
        rep = asymptotic_degree(constant_map(2), [5, 10], 0.1)
        for v in rep.normalized:
            assert abs(v) < 1e-9

    def test_sphere_wrap_positive_floor(self):
        rep = asymptotic_degree(sphere_wrap_map(), [10, 20, 30], 0.2)
        assert min(rep.normalized) > 2.5
        assert rep.slope() >= -1e-3

    def test_report_serialization(self):
        rep = asymptotic_degree(identity_map(2), [5, 10], 0.1)
        text = rep.to_text()
        assert "normalized_integral" in text
        assert text.count("\n") >= 6

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            asymptotic_degree(identity_map(2), [10, 5], 0.1)

    @pytest.mark.parametrize(
        "radii, step",
        [
            ([0, 10], 0.1), ([-1, 10], 0.1), ([5, math.inf], 0.1),
            ([10], 0.0), ([10], -0.1), ([10], math.nan),
        ],
    )
    def test_rejects_nonpositive_or_nonfinite_input(self, radii, step):
        with pytest.raises(ValueError):
            asymptotic_degree(identity_map(2), radii, step)

    def test_refinement_stability_across_builtin_maps(self):
        cases = [
            (torus_collapse_map(2), [4, 8], 0.1),
            (join_map(3), [4, 8], 0.25),
            (f0_map(), None, None),
        ]
        for m, radii, step in cases:
            if radii is not None:
                a = asymptotic_degree(m, radii, step).normalized
                b = asymptotic_degree(m, radii, step / 2).normalized
                for x, y in zip(a, b):
                    assert abs(x - y) / abs(y) < 0.05, m.name
            else:
                la = estimate_lipschitz(m, [(0.05, 0.95), (0.0, 8.0)], 1e-2)
                lb = estimate_lipschitz(m, [(0.05, 0.95), (0.0, 8.0)], 5e-3)
                assert abs(la - lb) / lb < 0.05


class TestJacobianFloor:
    def test_identity(self):
        floor = jacobian_floor(
            identity_map(2), lambda k, rng: rng.uniform(-1, 1, (k, 2)), 1000
        )
        assert abs(floor - 1.0) < 1e-9

    def test_constant(self):
        floor = jacobian_floor(
            constant_map(2), lambda k, rng: rng.uniform(-1, 1, (k, 2)), 1000
        )
        assert abs(floor) < 1e-12

    def test_sphere_wrap_strips_positive(self):
        floor = jacobian_floor(sphere_wrap_map(), sphere_wrap_strip_sampler(), 20000, seed=1)
        assert floor > 0.5


class TestQuasiregularity:
    def test_identity(self):
        rng = np.random.default_rng(0)
        rep = quasiregularity_ratio(identity_map(2), rng.uniform(-1, 1, (500, 2)))
        assert abs(rep.ratio_sup - 1.0) < 1e-6 and not rep.diverged

    def test_radial_stretch_closed_form(self):
        # |Df|^2 / det Df = (1 + alpha) everywhere for f = |x|^alpha x
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.3, 2.0, (500, 2))
        rep = quasiregularity_ratio(radial_stretch_map(0.5), pts)
        assert abs(rep.ratio_sup - 1.5) < 1e-5 and not rep.diverged

    def test_sphere_wrap_diverges_near_collapse_lines(self):
        ys = np.geomspace(1e-7, 1e-3, 60)
        xs = np.full_like(ys, 0.5)
        rep = quasiregularity_ratio(sphere_wrap_map(), np.stack([xs, ys], -1))
        assert rep.diverged


class TestOperatorNorm:
    def test_linear_map(self):
        import dataclasses

        m = identity_map(2)
        scaled = dataclasses.replace(m, func=lambda p: p * np.array([3.0, 1.0]))
        norms = operator_norm(scaled, np.zeros((4, 2)))
        assert np.allclose(norms, 3.0, atol=1e-6)


def _samples(m, count, seed):
    """Seeded points of m's domain off its seams; the strip map's lie
    in its strip."""
    rng = np.random.default_rng(seed)
    if m.name == "strip-to-disk":
        pts = np.stack([rng.uniform(-0.9, 0.9, count), rng.uniform(0.0, 6.0, count)], axis=-1)
    else:
        pts = rng.uniform(-3.0, 3.0, (count, m.domain_dim))
    return pts[m.seam_dist(pts) > wrapmaps.SEAM_MASK_FACTOR * wrapmaps.FD_STEP]


class TestSignedVolume:
    """The cofactor expansion against the LAPACK determinant it replaced."""

    COFACTOR_MAPS = [
        *(lambda n=n: identity_map(n) for n in range(1, 5)),
        lambda: radial_stretch_map(0.5),
        f0_map,
        lambda: constant_map(2),
        sphere_wrap_map,
        lambda: torus_collapse_map(2),
        lambda: join_map(3),
        lambda: torus_collapse_map(3),
    ]
    LAPACK_MAPS = [lambda: join_map(4), lambda: torus_collapse_map(4), lambda: identity_map(5)]

    @staticmethod
    def _id(make):
        m = make()
        return f"{m.name}-{m.domain_dim}"

    @pytest.mark.parametrize("make", COFACTOR_MAPS, ids=_id)
    def test_within_hadamard_bound_of_lapack(self, make):
        m = make()
        pts = _samples(m, 4000, seed=m.domain_dim)
        cols = [wrapmaps.partials(m, pts)[..., j] for j in range(m.domain_dim)]
        if m.target.kind == "sphere":
            cols.append(m(pts))
        assert len(cols) <= wrapmaps.COFACTOR_MAX_ORDER and len(pts) > 3000
        hadamard = np.prod([np.linalg.norm(c, axis=-1) for c in cols], axis=0)
        got = signed_jacobian(m, pts)
        want = oracles.dense_signed_jacobian(m, pts)
        assert got.shape == want.shape == (len(pts),)
        assert np.all(np.abs(got - want) <= 1e-12 * hadamard)

    @pytest.mark.parametrize("make", LAPACK_MAPS, ids=_id)
    def test_lapack_above_the_cofactor_order(self, make):
        m = make()
        assert m.domain_dim + (m.target.kind == "sphere") > wrapmaps.COFACTOR_MAX_ORDER
        pts = _samples(m, 2000, seed=5)
        assert np.array_equal(signed_jacobian(m, pts), oracles.dense_signed_jacobian(m, pts))

    @pytest.mark.parametrize("make", COFACTOR_MAPS + LAPACK_MAPS, ids=_id)
    def test_empty_and_batched_inputs(self, make):
        m = make()
        # a chunk whose samples the ball or the seam mask dropped
        empty = signed_jacobian(m, np.zeros((0, m.domain_dim)))
        assert empty.shape == (0,)
        pts = _samples(m, 200, seed=9)[:100]
        flat = signed_jacobian(m, pts)
        assert np.array_equal(signed_jacobian(m, pts.reshape(2, 50, -1)), flat.reshape(2, 50))
        assert np.array_equal(signed_jacobian(m, pts[0][None, :]), flat[:1])


def _reference_sphere_wrap(x, y):
    """eval_sphere_wrap as first written, with a fresh array per step."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lower = y < 0
    xx = np.mod(x + 1.0, 4.0) - 1.0
    north = xx <= 1.0
    xb = np.where(north, xx, 2.0 - xx)
    r, theta = eval_f0(xb, np.abs(y))
    s = np.sin(np.pi * r / 2.0)
    z = np.cos(np.pi * r / 2.0)
    z = np.where(north, z, -z)
    out = np.stack([s * np.cos(theta), s * np.sin(theta), z], axis=-1)
    return np.where(lower[..., None], -out, out)


class TestStreamedQuadrature:
    """The chunked walks reproduce the whole-grid results and stay small."""

    # recorded with the whole-grid quadrature, before it was streamed
    RECORDED = [
        (
            sphere_wrap_map, [10, 20, 30], 0.2,
            (2.94352026817215, 3.047854394637816, 3.082062764207035),
        ),
        (lambda: join_map(3), [4, 8], 0.25, (9.403197277124253, 11.380764874617562)),
    ]

    @pytest.mark.parametrize("make, radii, step, want", RECORDED)
    def test_degree_tables_match_whole_grid(self, make, radii, step, want):
        got = asymptotic_degree(make(), radii, step).normalized
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_lipschitz_matches_whole_grid(self):
        lip = estimate_lipschitz(sphere_wrap_map(), [(-2.0, 6.0), (-10.0, 10.0)], 2e-2)
        assert repr(lip) == "2.21316713467225"

    def test_lipschitz_sees_pairs_across_slab_boundaries(self, monkeypatch):
        m = sphere_wrap_map()
        whole = estimate_lipschitz(m, [(-2.0, 6.0), (-10.0, 10.0)], 5e-2)
        # one row per slab: every pair along axis 0 crosses a boundary
        monkeypatch.setattr("wrapcheck.wrapmaps.CHUNK_POINTS", 1)
        assert estimate_lipschitz(m, [(-2.0, 6.0), (-10.0, 10.0)], 5e-2) == whole

    def test_sphere_wrap_matches_reference(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-9.0, 9.0, 20000)
        y = rng.uniform(-30.0, 30.0, 20000)
        # signed zeros and seam values
        x[:8] = [-1.0, 1.0, 3.0, 0.0, -0.0, 5.0, 2.0, -3.0]
        y[:8] = [0.0, -0.0, 0.0, -0.0, 2.0, -2.0, 0.0, -0.0]
        X, Y = np.meshgrid(np.linspace(-2, 2, 1000), np.linspace(-12, 12, 1000))
        for a, b in [(x, y), (X, Y), (x[:, None], y[None, :50]), (0.5, -2.0)]:
            got = eval_sphere_wrap(a, b)
            want = _reference_sphere_wrap(a, b)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_sample_counts(self):
        rep = asymptotic_degree(identity_map(2), [2, 5], 0.1)
        axis = np.arange(-5.0 + 0.05, 5.0, 0.1)
        X, Y = np.meshgrid(axis, axis)
        assert rep.samples == int(np.count_nonzero(X * X + Y * Y <= 25.0))
        assert rep.masked == 0
        # R / h = 4.5 puts the grid on the lines x = 0, +-1, ... and y = 0,
        # the sphere wrap's seams
        m = sphere_wrap_map()
        rep = asymptotic_degree(m, [2, 4.5], 1.0)
        axis = np.arange(-4.0, 4.5, 1.0)
        pts = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        pts = pts[np.sum(pts * pts, axis=-1) <= 4.5**2]
        assert rep.samples == len(pts)
        assert rep.masked == int(np.count_nonzero(m.seam_dist(pts) <= 1e-4))
        assert 0 < rep.masked < rep.samples
        text = rep.to_text()
        assert f"# samples\t{rep.samples}\n" in text
        assert f"# masked\t{rep.masked}\n" in text

    def test_memory_bounded_in_grid_size(self):
        # 268096 and 2144432 points in the ball: an 8x larger grid
        peaks = []
        for radius in (4, 8):
            tracemalloc.start()
            try:
                rep = asymptotic_degree(identity_map(3), [radius], 0.1)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
            assert abs(rep.normalized[0] - 4.0 * math.pi / 3.0) < 1e-3
        assert max(peaks) < 40.0, peaks


class TestParallelWalks:
    """The chunks run on a thread pool; the folds see them in span order."""

    def test_memory_bounded_at_most_workers(self, monkeypatch):
        # the most chunks in flight on any machine: the 8x larger grid of
        # test_memory_bounded_in_grid_size stays under the same bound
        monkeypatch.setattr(wrapmaps, "WORKERS", wrapmaps.MAX_WORKERS)
        tracemalloc.start()
        try:
            asymptotic_degree(identity_map(3), [8], 0.1)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 40.0, peak

    def test_results_do_not_depend_on_worker_count(self, monkeypatch):
        # 100-point chunks: 38 for the sphere-wrap table (its grid meets
        # the seams, so some samples are masked), 139 for the join table,
        # about 200 for the floor and 161 one-row Lipschitz slabs
        monkeypatch.setattr(wrapmaps, "CHUNK_POINTS", 100)
        m = sphere_wrap_map()
        runs = []
        for workers in (1, 4):
            monkeypatch.setattr(wrapmaps, "WORKERS", workers)
            runs.append(
                (
                    asymptotic_degree(m, [3, 6.1], 0.2),
                    asymptotic_degree(join_map(3), [2, 3], 0.25),
                    jacobian_floor(m, sphere_wrap_strip_sampler(), 20000, seed=2),
                    estimate_lipschitz(m, [(-2.0, 6.0), (-5.0, 5.0)], 5e-2),
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][0].samples > 0 and runs[0][0].masked > 0

    def test_spans_are_submitted_lazily(self, monkeypatch):
        # 10^15 one-point spans: the first result comes back without the
        # walk listing, or submitting, the rest
        monkeypatch.setattr(wrapmaps, "WORKERS", 2)
        started = []

        def chunk(start, stop):
            started.append(start)
            return (start, stop)

        walk = wrapmaps._chunk_walk(chunk, 10**15, 1)
        assert next(walk) == (0, 1)
        assert next(walk) == (1, 2)
        walk.close()
        assert len(started) <= 2 * 2 + 1

    def test_rejects_grids_past_the_index_range(self):
        with pytest.raises(ValueError, match="too large to index"):
            asymptotic_degree(identity_map(21), [4], 1)
        with pytest.raises(ValueError, match="too large to index"):
            wrapmaps.check_quadrature([4], 1, 10**9)
        assert wrapmaps.check_quadrature([4], 1, 20) == [4.0]

    def test_rejects_axes_past_the_axis_bound(self):
        # the axis is built whole: 2e15 points in 1-d would be 14.2 PiB
        with pytest.raises(ValueError, match="axis of 2000000000000000 points exceeds"):
            wrapmaps.check_quadrature([1e15], 1, 1)
        with pytest.raises(ValueError, match="axis of 3000000000 points exceeds"):
            wrapmaps.check_quadrature([1.5e9], 1, 2)
        bound = wrapmaps.MAX_AXIS_POINTS
        assert wrapmaps.check_quadrature([bound / 2], 1, 1) == [bound / 2]
        with pytest.raises(ValueError, match=f"axis of {bound + 2} points exceeds"):
            wrapmaps.check_quadrature([bound / 2 + 1], 1, 1)

    def test_chunk_exception_reaches_caller(self, monkeypatch):
        # every ball about the origin leaves the strip map's domain
        monkeypatch.setattr(wrapmaps, "CHUNK_POINTS", 100)
        monkeypatch.setattr(wrapmaps, "WORKERS", 4)
        with pytest.raises(ValueError) as err:
            asymptotic_degree(f0_map(), [4, 8], 0.5)
        assert type(err.value) is ValueError
        assert str(err.value) == "f0 domain is [-1,1] x [0,inf)"
