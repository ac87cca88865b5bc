import math

import numpy as np
import pytest

from ellipsurf import geometry, mc
from ellipsurf.geometry import Ellipsoid
from ellipsurf.mc import HomogeneousFn, McConfig, RngStream
from ellipsurf.quadrature import iso_ratio_quad

from oracles import ellipse_perimeter, sphere_coordinate_moment


CFG = McConfig(samples=100_000, seed=101)


def within_sigmas(estimate, expected, k=4.0):
    return abs(estimate.value - expected) <= k * max(estimate.abs_error, 1e-300)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 7).generator().standard_normal(16)
        b = RngStream(42, 7).generator().standard_normal(16)
        assert a.tobytes() == b.tobytes()

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(16)
        b = RngStream(42, 1).generator().standard_normal(16)
        assert not np.allclose(a, b)

    def test_negative_seed_ok(self):
        a = RngStream(-5, 0).generator().standard_normal(4)
        b = RngStream(-5, 0).generator().standard_normal(4)
        assert a.tobytes() == b.tobytes()


class TestSampleSphere:
    def test_unit_norm(self):
        for n in (1, 2, 5, 40):
            u = mc.sample_sphere(n, RngStream(1, n))
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-14

    def test_one_dimensional_is_sign(self):
        values = {float(mc.sample_sphere(1, RngStream(1, i))[0]) for i in range(32)}
        assert values <= {-1.0, 1.0}
        assert len(values) == 2

    def test_coordinate_mean_is_zero(self):
        # x_1 is homogeneous of degree 1, so the estimator applies directly
        f = HomogeneousFn(1.0, lambda x: x[:, 0], name="x1")
        est = mc.sphere_mean_mc(f, 3, CFG)
        assert within_sigmas(est, 0.0)

    def test_coordinate_square_mean(self):
        est = mc.sphere_mean_mc(mc.coord_square_fn(), 3, CFG)
        assert within_sigmas(est, 1.0 / 3.0)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            mc.sample_sphere(0, RngStream(0, 0))


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self, monkeypatch):
        e = Ellipsoid([1.0, 2.0, 0.7])
        cfg = McConfig(samples=50_000, seed=9, chunk_size=4096)
        monkeypatch.setenv("ELLIPSURF_THREADS", "1")
        serial = mc.iso_ratio_mc(e, cfg)
        monkeypatch.setenv("ELLIPSURF_THREADS", "4")
        threaded = mc.iso_ratio_mc(e, cfg)
        assert serial.value == threaded.value
        assert serial.abs_error == threaded.abs_error

    @pytest.mark.parametrize("route", ["direct_sphere", "gaussian_transform"])
    def test_bit_identical_across_worker_counts_with_row_blocks(self, monkeypatch, route):
        # three default chunks, each drawn in several row blocks
        e = Ellipsoid(np.random.default_rng(2).uniform(0.5, 3.0, 1000))
        cfg = McConfig(samples=140_000, seed=5)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ELLIPSURF_THREADS", threads)
            runs.append(mc.iso_ratio_mc(e, cfg, route=route))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("estimator, f", [(mc.sphere_mean_mc, mc.coord_square_fn()),
                                              (mc.gaussian_mean_mc, mc.lp_norm_fn(1.0))])
    def test_row_block_size_leaves_bits_unchanged(self, monkeypatch, estimator, f):
        # the stream drawn in row blocks is the stream drawn whole; f here
        # is free of BLAS (see test_kernels for row_sqrt_qform)
        cfg = McConfig(samples=3 * 4096 + 100, seed=6, chunk_size=4096)
        blocked = estimator(f, 1000, cfg)
        monkeypatch.setattr(mc._kernels, "BLOCK_ELEMENTS", 4096 * 1000)
        assert estimator(f, 1000, cfg) == blocked

    @pytest.mark.parametrize("n", [1000, 3000, 300_000])
    def test_draws_stay_within_block_budget(self, monkeypatch, n):
        shapes = []

        def recording(draw):
            def wrapped(gen, m, k):
                shapes.append((m, k))
                return draw(gen, m, k)
            return wrapped

        for name in ("_draw_sphere", "_draw_gauss"):
            monkeypatch.setattr(mc, name, recording(getattr(mc, name)))
        e = Ellipsoid(np.full(n, 2.0))
        samples = max(3, 20 * mc._kernels.BLOCK_ELEMENTS // n)
        cfg = McConfig(samples=samples, seed=1, chunk_size=-(-samples // 3))
        for route in ("direct_sphere", "gaussian_transform"):
            mc.iso_ratio_mc(e, cfg, route=route)
        assert sum(m for m, _ in shapes) == 2 * samples
        assert all(m * k <= mc._kernels.BLOCK_ELEMENTS and k == n for m, k in shapes)

    def test_bit_identical_across_runs(self):
        cfg = McConfig(samples=30_000, seed=77, chunk_size=7001)
        a = mc.sphere_mean_mc(mc.coord_square_fn(), 5, cfg)
        b = mc.sphere_mean_mc(mc.coord_square_fn(), 5, cfg)
        assert (a.value, a.abs_error) == (b.value, b.abs_error)

    def test_chunk_size_changes_partition_not_contract(self):
        # different chunking is a different configuration and may give a
        # different (still valid) estimate
        f = mc.coord_square_fn()
        a = mc.sphere_mean_mc(f, 4, McConfig(samples=20_000, seed=5, chunk_size=1000))
        b = mc.sphere_mean_mc(f, 4, McConfig(samples=20_000, seed=5, chunk_size=20_000))
        assert within_sigmas(a, 0.25) and within_sigmas(b, 0.25)

    def test_estimate_metadata(self):
        est = mc.sphere_mean_mc(mc.coord_square_fn(), 4, CFG)
        assert est.method == "mc"
        assert est.evals == CFG.samples
        assert est.seed == CFG.seed


class TestSphereMean:
    def test_constant_is_exact(self):
        f = HomogeneousFn(0.0, lambda x: np.ones(x.shape[0]), name="one")
        est = mc.sphere_mean_mc(f, 6, CFG)
        assert est.value == 1.0
        assert est.abs_error == 0.0

    def test_coordinate_square_quarter(self):
        est = mc.sphere_mean_mc(mc.coord_square_fn(), 4, CFG)
        assert within_sigmas(est, 0.25)

    def test_abs_coordinate_2d(self):
        est = mc.sphere_mean_mc(mc.coord_abs_pow_fn(1.0), 2, CFG)
        assert within_sigmas(est, 2.0 / math.pi)

    def test_nonfinite_value_reports_point(self):
        def bad(x):
            v = np.ones(x.shape[0])
            v[x[:, 0] > 0] = np.nan
            return v

        with pytest.raises(ValueError, match="sample point"):
            mc.sphere_mean_mc(HomogeneousFn(0.0, bad, name="bad"), 3, CFG)


class TestGaussianMean:
    def test_constant(self):
        f = HomogeneousFn(0.0, lambda x: np.ones(x.shape[0]), name="one")
        assert mc.gaussian_mean_mc(f, 3, CFG).value == 1.0

    def test_variance_is_half(self):
        est = mc.gaussian_mean_mc(mc.coord_square_fn(), 1, CFG)
        assert within_sigmas(est, 0.5)
        assert est.method == "gauss"

    def test_abs_moment_p1(self):
        est = mc.gaussian_mean_mc(mc.coord_abs_pow_fn(1.0), 1, CFG)
        assert within_sigmas(est, 1.0 / math.sqrt(math.pi))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_abs_moments_closed_form(self, p):
        expected = math.exp(math.lgamma(0.5 * (p + 1))) / math.sqrt(math.pi)
        est = mc.gaussian_mean_mc(mc.coord_abs_pow_fn(p), 1, CFG)
        assert within_sigmas(est, expected)


class TestSphereMeanViaGaussian:
    def test_cos_squared_on_circle(self):
        est = mc.sphere_mean_via_gaussian(mc.coord_square_fn(), 2, CFG)
        assert within_sigmas(est, 0.5)

    def test_norm_is_one(self):
        for n in (2, 6):
            est = mc.sphere_mean_via_gaussian(mc.lp_norm_fn(2.0), n, CFG)
            assert within_sigmas(est, 1.0)

    def test_sqrt_qform_unit(self):
        est = mc.sphere_mean_via_gaussian(mc.sqrt_qform_fn([1, 1, 1]), 3, CFG)
        assert within_sigmas(est, 1.0)

    def test_gamma_pole_rejected(self):
        f = HomogeneousFn(-3.0, lambda x: np.ones(x.shape[0]))
        with pytest.raises(ValueError):
            mc.sphere_mean_via_gaussian(f, 2, CFG)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_transform_consistency(self, n):
        # direct sphere mean and the Gaussian transform agree within 4
        # combined sigmas on a matched budget
        q = np.linspace(1.0, 2.0, n)
        fns = [mc.coord_square_fn(), mc.coord_abs_pow_fn(1.0),
               mc.lp_norm_fn(1.0), mc.sqrt_qform_fn(q)]
        for f in fns:
            direct = mc.sphere_mean_mc(f, n, CFG)
            transf = mc.sphere_mean_via_gaussian(f, n, CFG)
            budget = 4.0 * math.hypot(direct.abs_error, transf.abs_error)
            assert abs(direct.value - transf.value) <= budget


class TestIsoRatioMc:
    @pytest.mark.parametrize("route", ["direct_sphere", "gaussian_transform"])
    def test_unit_ball(self, route):
        for n in (2, 5):
            est = mc.iso_ratio_mc(Ellipsoid([1.0] * n), CFG, route=route)
            assert within_sigmas(est, float(n))

    def test_ellipse_against_perimeter_oracle(self):
        expected = ellipse_perimeter(1.0, 2.0) / (2 * math.pi)
        est = mc.iso_ratio_mc(Ellipsoid([1.0, 2.0]), McConfig(samples=400_000, seed=5))
        assert within_sigmas(est, expected)

    def test_vs_quadrature_3d(self):
        e = Ellipsoid([1.0, 1.0, 2.0])
        est = mc.iso_ratio_mc(e, CFG, route="gaussian_transform")
        assert within_sigmas(est, iso_ratio_quad(e).value)

    def test_bad_route(self):
        with pytest.raises(ValueError):
            mc.iso_ratio_mc(Ellipsoid([1.0]), CFG, route="nope")


class TestControlVariate:
    ROUTES = (("direct_sphere", mc.sphere_mean_mc),
              ("gaussian_transform", mc.sphere_mean_via_gaussian))

    @pytest.mark.parametrize("route,plain", ROUTES)
    @pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (1.0, 100.0, 1e4)])
    def test_variance_at_most_a_fifth_of_plain(self, route, plain, axes):
        # matched (samples, seed): the plain estimator is n times the
        # generic mean of f, which has no control variate
        e = Ellipsoid(axes)
        est = mc.iso_ratio_mc(e, CFG, route=route)
        base = plain(mc.sqrt_qform_fn(e.inverse_axes()), e.n, CFG)
        assert est.abs_error ** 2 <= (e.n * base.abs_error) ** 2 / 5.0

    def test_sigma_is_honest(self):
        # z = (mc - laplace) / sigma over many seeded ellipsoids must
        # have unit spread: sigma neither over- nor understates the error
        gen = np.random.Generator(np.random.Philox(key=np.array([31, 0], dtype=np.uint64)))
        zs = []
        for i in range(200):
            n = int(gen.integers(2, 25))
            span = 10.0 ** gen.uniform(0.0, 4.0)
            axes = span ** gen.random(n)
            axes[0], axes[-1] = 1.0, span
            e = Ellipsoid(axes)
            ref = iso_ratio_quad(e)
            if not ref.converged:
                continue
            cfg = McConfig(samples=8192, seed=1000 + i)
            for route, _ in self.ROUTES:
                est = mc.iso_ratio_mc(e, cfg, route=route)
                zs.append((est.value - ref.value) / est.abs_error)
        assert len(zs) >= 200
        assert 0.85 <= float(np.std(zs, ddof=1)) <= 1.15

    def test_ball_whose_sum_q2_overflows_is_exact(self):
        # sum q^2 = 2e308 overflows float64; the route runs on q / max q
        est = mc.iso_ratio_mc(Ellipsoid([1e-154, 1e-154]), McConfig(samples=1000, seed=1))
        assert (est.value, est.abs_error) == (2e154, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_unit_ball_is_exact_on_sphere(self, n):
        est = mc.iso_ratio_mc(Ellipsoid([1.0] * n), CFG, route="direct_sphere")
        assert est.value == float(n)
        assert est.abs_error == 0.0


class TestMeanLpNorm:
    def test_p2_is_one(self):
        est = mc.mean_lp_norm_mc(7, 2.0, CFG)
        assert within_sigmas(est, 1.0)

    def test_p1_2d(self):
        est = mc.mean_lp_norm_mc(2, 1.0, CFG)
        assert within_sigmas(est, 4.0 / math.pi)

    def test_p1_large_n_asymptotics(self):
        n = 1000
        expected = geometry.gamma_half_ratio(n, 1) * n / math.sqrt(math.pi)
        est = mc.mean_lp_norm_mc(n, 1.0, McConfig(samples=50_000, seed=11))
        assert abs(est.value - expected) <= 0.02 * expected


class TestMomentComparison:
    def test_half_moment_bounded_by_first_moment(self):
        # for nonnegative Y, E[Y^(1/2)] <= 1 + E[Y]; tested on quadratic
        # forms in the variance-1/2 Gaussians and on |x|^p
        gen = np.random.Generator(np.random.Philox(key=np.array([23, 0], dtype=np.uint64)))
        for _ in range(5):
            n = int(gen.integers(1, 7))
            q = gen.uniform(0.2, 3.0, size=n)
            half = mc.gaussian_mean_mc(mc.sqrt_qform_fn(q), n, CFG)
            first = 0.5 * float((q * q).sum())
            assert half.value <= 1.0 + first + 4.0 * half.abs_error
        for p in (0.5, 1.0, 2.0):
            half = mc.gaussian_mean_mc(mc.coord_abs_pow_fn(0.5 * p), 1, CFG)
            first = mc.gaussian_mean_mc(mc.coord_abs_pow_fn(p), 1, CFG)
            slack = 4.0 * math.hypot(half.abs_error, first.abs_error)
            assert half.value <= 1.0 + first.value + slack


class TestHomogeneityValidator:
    def test_accepts_homogeneous(self):
        mc.validate_homogeneity(mc.sqrt_qform_fn([1.0, 2.0]), 2, RngStream(3, 0))

    def test_rejects_affine(self):
        f = HomogeneousFn(1.0, lambda x: x[:, 0] + 1.0, name="affine")
        with pytest.raises(ValueError, match="not homogeneous"):
            mc.validate_homogeneity(f, 2, RngStream(3, 0))


class TestConfigValidation:
    def test_samples_floor(self):
        with pytest.raises(ValueError):
            McConfig(samples=1, seed=0)

    def test_chunk_floor(self):
        with pytest.raises(ValueError):
            McConfig(samples=10, seed=0, chunk_size=0)


def test_coordinate_moment_oracle_consistency():
    # the Beta-moment oracle itself must reproduce the known 2-D value
    assert abs(sphere_coordinate_moment(2, 1) - 2.0 / math.pi) < 1e-14
    est = mc.sphere_mean_mc(mc.coord_abs_pow_fn(1.0), 6, CFG)
    assert within_sigmas(est, sphere_coordinate_moment(6, 1))
