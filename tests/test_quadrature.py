import math

import mpmath as mp
import numpy as np
import pytest

from ellipsurf import geometry, mc, quadrature
from ellipsurf.geometry import Ellipsoid
from ellipsurf.lauricella import iso_ratio_lauricella
from ellipsurf.quadrature import (
    alpha_integral_corrected,
    check_alpha_admissible,
    default_alpha,
    iso_ratio_quad,
    sqrt_qform_moment,
)

from gen_discrepancy_report import alpha_integral_as_printed
from oracles import ellipse_perimeter, ellipsoid_surface_3d, iso_ratio_mpmath, iso_ratio_spheroid


SQRT_PI = math.sqrt(math.pi)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestSqrtQformMoment:
    def test_equal_axes_closed_form(self):
        for n in (1, 2, 3, 5, 10, 40):
            expected = math.exp(math.lgamma(0.5 * (n + 1)) - math.lgamma(0.5 * n))
            got = sqrt_qform_moment([1.0] * n)
            assert rel_err(got.value, expected) < 1e-11
            assert got.converged

    def test_three_equal_axes_value(self):
        assert rel_err(sqrt_qform_moment([1, 1, 1]).value, 2.0 / SQRT_PI) < 1e-11

    def test_single_component(self):
        for c in (0.001, 1.0, 2.5, 1e4):
            assert rel_err(sqrt_qform_moment([c]).value, c / SQRT_PI) < 1e-11

    def test_against_monte_carlo(self):
        # the backbone identity validated against the brute-force route
        q = [1.0, 2.0]
        det = sqrt_qform_moment(q)
        est = mc.gaussian_mean_mc(mc.sqrt_qform_fn(q), 2, mc.McConfig(samples=400_000, seed=2))
        assert abs(det.value - est.value) <= 4.0 * est.abs_error

    def test_matches_iso_ratio_mc_of_inverse(self):
        # q = (1, 2) corresponds to the ellipsoid with axes (1, 1/2)
        e = Ellipsoid([1.0, 0.5])
        est = mc.iso_ratio_mc(e, mc.McConfig(samples=400_000, seed=4))
        det = 2.0 * geometry.gamma_half_ratio(2, 1) * sqrt_qform_moment([1.0, 2.0]).value
        assert abs(det - est.value) <= 4.0 * est.abs_error

    def test_scaling(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
        q = gen.uniform(0.5, 2.0, size=6)
        base = sqrt_qform_moment(q).value
        for lam in (0.1, 10.0):
            assert rel_err(sqrt_qform_moment(lam * q).value, lam * base) < 1e-11

    def test_permutation_invariance(self):
        q = np.array([0.3, 2.2, 1.1, 0.9, 1.7])
        base = sqrt_qform_moment(q).value
        gen = np.random.Generator(np.random.Philox(key=np.array([19, 0], dtype=np.uint64)))
        for _ in range(5):
            assert rel_err(sqrt_qform_moment(gen.permutation(q)).value, base) < 1e-13

    def test_monotonicity(self):
        q = np.array([1.0, 0.5, 2.0])
        base = sqrt_qform_moment(q).value
        for i in range(3):
            bumped = q.copy()
            bumped[i] += 1e-6
            assert sqrt_qform_moment(bumped).value > base

    def test_large_n(self):
        n = 10**5
        got = sqrt_qform_moment(np.ones(n))
        expected = math.exp(math.lgamma(0.5 * (n + 1)) - math.lgamma(0.5 * n))
        assert rel_err(got.value, expected) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            sqrt_qform_moment([1.0, -1.0])
        with pytest.raises(ValueError):
            sqrt_qform_moment([])

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
        res = sqrt_qform_moment([1e-8, 1e-4, 1.0])
        assert not res.converged

    def test_converged_error_contract(self):
        res = sqrt_qform_moment([0.7, 1.9, 3.1], 1e-10)
        assert res.converged
        assert res.est_error <= 1e-10 * abs(res.value)
        assert res.evals >= 1


class TestIsoRatioQuad:
    def test_unit_balls(self):
        for n in range(2, 21):
            est = iso_ratio_quad(Ellipsoid([1.0] * n))
            assert rel_err(est.value, float(n)) < 1e-11
            assert est.method == "laplace"
            assert est.seed is None

    def test_ellipse_agm_oracle(self):
        expected = ellipse_perimeter(1.0, 2.0) / (2 * math.pi)
        est = iso_ratio_quad(Ellipsoid([1.0, 2.0]))
        assert rel_err(est.value, expected) < 1e-9

    def test_3d_elliptic_oracle(self):
        e = Ellipsoid([1.0, 2.0, 3.0])
        expected = ellipsoid_surface_3d((1.0, 2.0, 3.0)) / geometry.ellipsoid_volume(e)
        assert rel_err(iso_ratio_quad(e).value, expected) < 1e-8

    def test_agreement_with_mc_random(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([29, 0], dtype=np.uint64)))
        for i in range(20):
            n = int(gen.integers(2, 9))
            axes = np.exp(gen.uniform(0.0, math.log(10.0), size=n))
            e = Ellipsoid(axes)
            det = iso_ratio_quad(e)
            est = mc.iso_ratio_mc(e, mc.McConfig(samples=100_000, seed=500 + i))
            assert abs(det.value - est.value) <= 4.0 * est.abs_error


    def test_error_honest_against_mpmath(self):
        # over the whole axis domain: converged, and within its own
        # claimed error of a 30-digit oracle
        gen = np.random.Generator(np.random.Philox(key=np.array([67, 0], dtype=np.uint64)))
        for i in range(16):
            axes = 10.0 ** gen.uniform(-8.0, 8.0, size=1 + i % 8)
            est = iso_ratio_quad(Ellipsoid(axes))
            assert est.converged, axes
            assert abs(est.value - iso_ratio_mpmath(axes)) <= est.abs_error, axes


#: q whose squares fill 214 half-octaves, so n < 512 + B K/2 and both
#: routes keep the direct sums
WIDE_Q = np.geomspace(1e-8, 1e8, 2000)


class TestNodeBlocks:
    def test_block_bound_at_n_1e6(self, monkeypatch):
        # at n = 1e6 the route evaluates the bucket measure, whose node
        # costs measure.width values
        sizes = []
        kernel = quadrature._kernels.BucketMeasure.log1p_sum

        def recording(measure, t):
            sizes.append(np.size(t) * measure.width)
            return kernel(measure, t)

        monkeypatch.setattr(quadrature._kernels.BucketMeasure, "log1p_sum", recording)
        res = sqrt_qform_moment(np.ones(10**6))
        assert res.converged
        assert max(sizes) <= quadrature._kernels.BLOCK_ELEMENTS

    def test_block_bound_on_the_direct_path(self, monkeypatch):
        # a budget of 20 nodes cuts each level of 36 nodes or more into blocks
        sums = quadrature._kernels.node_sums(quadrature._scaled_q2(WIDE_Q)[1])
        assert isinstance(sums, quadrature._kernels.DirectSums)
        monkeypatch.setattr(quadrature._kernels, "BLOCK_ELEMENTS", 20 * WIDE_Q.size)
        sizes = []
        kernel = quadrature._kernels.sum_log1p

        def recording(q2, t):
            sizes.append(np.size(t) * q2.size)
            return kernel(q2, t)

        monkeypatch.setattr(quadrature._kernels, "sum_log1p", recording)
        res = sqrt_qform_moment(WIDE_Q)
        assert res.converged
        assert max(sizes) == quadrature._kernels.BLOCK_ELEMENTS
        assert res.evals == 289 and len(sizes) > 5  # more blocks than levels

    def test_block_size_leaves_bits_unchanged(self, monkeypatch):
        q = [0.3, 2.2, 1.1, 0.9, 1.7]
        whole = sqrt_qform_moment(q)
        monkeypatch.setattr(quadrature._kernels, "BLOCK_ELEMENTS", 3)
        assert sqrt_qform_moment(q) == whole

    @pytest.mark.parametrize("method", ["laplace", "lauricella"])
    def test_thread_count_leaves_bits_unchanged(self, monkeypatch, method):
        # at n = 1e5 the route evaluates the bucket measure, and each level
        # is one block
        route = {"laplace": iso_ratio_quad, "lauricella": iso_ratio_lauricella}[method]
        e = Ellipsoid(np.random.default_rng(4).uniform(1.0, 2.0, 10**5))
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ELLIPSURF_THREADS", threads)
            runs.append(route(e))
        assert runs[0].converged
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("method", ["laplace", "lauricella"])
    def test_thread_count_leaves_bits_unchanged_on_the_direct_path(self, monkeypatch, method):
        # a budget of 20 nodes cuts each level of 36 nodes or more into
        # blocks, which run on the worker pool
        route = {"laplace": iso_ratio_quad, "lauricella": iso_ratio_lauricella}[method]
        e = Ellipsoid.from_inverse_axes(WIDE_Q)
        monkeypatch.setattr(quadrature._kernels, "BLOCK_ELEMENTS", 20 * WIDE_Q.size)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ELLIPSURF_THREADS", threads)
            runs.append(route(e))
        assert runs[0].converged
        assert runs[0] == runs[1]


class TestSpheroidOracle:
    # q = A on k coordinates and 1 on the rest, against a 2F1 oracle that
    # shares no code with either route; the only independent check of the
    # claimed errors above n = 24
    @pytest.mark.parametrize("A,k,n", [(1e-3, 1, 100_001), (1e-3, 1, 1_000_000),
                                       (0.5, 50_000, 200_001),
                                       (0.2, 10, 1000), (0.9, 1, 24), (1e-6, 2, 5),
                                       (0.3, 1, 3), (0.5, 3, 8)])
    @pytest.mark.parametrize("route", [iso_ratio_quad, iso_ratio_lauricella])
    def test_within_claimed_error(self, route, A, k, n):
        q = np.ones(n)
        q[:k] = A
        est = route(Ellipsoid.from_inverse_axes(q))
        assert est.converged
        assert abs(est.value - iso_ratio_spheroid(A, 1.0, k, n)) <= est.abs_error


class TestNormFromRatio:
    def test_norm_axioms_deterministic(self):
        # ||q||_R = (iso ratio)/n must behave like a norm on q
        gen = np.random.Generator(np.random.Philox(key=np.array([31, 0], dtype=np.uint64)))

        def r_norm(q):
            return geometry.gamma_half_ratio(len(q), 1) * sqrt_qform_moment(q).value

        for _ in range(200):
            n = int(gen.integers(1, 11))
            q = gen.uniform(0.1, 5.0, size=n)
            qp = gen.uniform(0.1, 5.0, size=n)
            nq, nqp, nsum = r_norm(q), r_norm(qp), r_norm(q + qp)
            assert nsum <= nq + nqp + 1e-9
            assert nq > 0
            lam = float(gen.uniform(0.2, 5.0))
            assert rel_err(r_norm(lam * q), lam * nq) < 1e-10


class TestAlphaIntegrals:
    def test_corrected_single_axis_normalization(self):
        # sqrt(pi) * E[sqrt(q^2 X^2)] = 1 for q = 1
        res = alpha_integral_corrected([1.0], 1.0)
        assert rel_err(res.value, 1.0) < 1e-10

    def test_corrected_matches_backbone(self):
        res = alpha_integral_corrected([1.0, 3.0], 0.2)  # |1 - 0.2*9| = 0.8 < 1
        expected = SQRT_PI * sqrt_qform_moment([1.0, 3.0]).value
        assert rel_err(res.value, expected) < 1e-8

    def test_corrected_alpha_independence(self):
        values = [alpha_integral_corrected([1.0] * 4, a).value for a in (0.6, 1.0, 1.4)]
        for v in values[1:]:
            assert rel_err(v, values[0]) < 1e-9

    def test_as_printed_single_axis_value(self):
        # the literal reading evaluates to pi / (2 sqrt(2)) at q = (1),
        # alpha = 1: a well-defined number that simply is not the moment
        res = alpha_integral_as_printed([1.0], 1.0)
        assert res.converged
        assert rel_err(res.value, math.pi / (2.0 * math.sqrt(2.0))) < 1e-9
        corrected = alpha_integral_corrected([1.0], 1.0)
        assert rel_err(res.value, corrected.value) > 1e-2

    def test_as_printed_repeated_max_flagged(self):
        # with a repeated maximal q the literal integrand is
        # non-integrable at the end of its real prefix
        res = alpha_integral_as_printed([1.0, 1.0], 1.0)
        assert not res.converged

    def test_as_printed_two_axes_recorded(self):
        res = alpha_integral_as_printed([1.0, 2.0], 0.3)
        corrected = alpha_integral_corrected([1.0, 2.0], 0.3)
        assert math.isfinite(res.value)
        assert rel_err(res.value, corrected.value) > 1e-3

    def test_inadmissible_alpha_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            alpha_integral_corrected([1.0, 2.0], 1.0)  # |1 - 4| = 3 >= 1
        with pytest.raises(ValueError):
            alpha_integral_as_printed([1.0, 2.0], 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q", [[1e160, 1.0], [1e160, 1e-10], [1e-10, 1e160]])
    def test_inadmissible_alpha_on_huge_q_raises_no_warning(self, q):
        # alpha q^2 overflows, and (q_j / max q)^2 may underflow to 0
        with pytest.raises(ValueError, match=r"q_%d\^2\| = inf" % (1 + int(np.argmax(q)))):
            check_alpha_admissible(q, 0.5)

    def test_default_alpha_centers_and_admits(self):
        for axes in ([1.0, 2.0], [1.0, 1000.0], [0.3, 0.31]):
            q = 1.0 / np.asarray(axes)
            alpha = default_alpha(q)
            x = check_alpha_admissible(q, alpha)
            assert np.abs(x).max() < 1.0
            assert abs(x.max() + x.min()) < 1e-12


@pytest.mark.parametrize("aspect", [2.0, 7.0 / 3.0, 1e3, 1e4, 1e6, 1e8])
def test_agm_perimeter_oracle_against_mpmath(aspect):
    # the AGM oracle must stop and stay exact up to m within an ulp of 1
    with mp.workdps(40):
        b = mp.mpf(aspect)
        expected = float(4 * b * mp.ellipe(1 - 1 / b ** 2))
    assert rel_err(ellipse_perimeter(1.0, aspect), expected) <= 1e-14


class TestTol:
    def test_validation(self):
        with pytest.raises(ValueError, match="tol must be >= 1e-15"):
            sqrt_qform_moment([1.0, 2.0], 1e-16)
        with pytest.raises(ValueError, match="tol must be >= 1e-15"):
            sqrt_qform_moment([1.0, 2.0], math.nan)
        with pytest.raises(ValueError, match="tol must be >= 1e-15"):
            iso_ratio_lauricella(Ellipsoid([1.0, 2.0]), route="series", tol=1e-16)
        with pytest.raises(ValueError):
            iso_ratio_lauricella(Ellipsoid([1.0, 2.0]), alpha=-1.0)
