import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsurf import bounds, geometry, mc
from ellipsurf.geometry import Ellipsoid
from ellipsurf.quadrature import iso_ratio_quad


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestConcentrationDiagnostic:
    def test_equal_entries(self):
        for n in (1, 4, 50):
            d = bounds.concentration_diagnostic([1.0] * n)
            assert rel_err(d.ratio, 1.0 / n) < 1e-13

    def test_single_spike(self):
        d = bounds.concentration_diagnostic([1.0, 0.0, 0.0, 0.0])
        assert d.ratio == 1.0

    def test_arithmetic_example(self):
        d = bounds.concentration_diagnostic([1.0, 2.0, 3.0])
        assert d.sum_q2 == 14.0
        assert d.sum_q4 == 98.0
        assert d.ratio == 0.5

    def test_ratio_range(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([61, 0], dtype=np.uint64)))
        for _ in range(20):
            n = int(gen.integers(1, 30))
            q = gen.uniform(0.0, 5.0, size=n)
            if not q.any():
                continue
            d = bounds.concentration_diagnostic(q)
            assert 1.0 / n - 1e-12 <= d.ratio <= 1.0 + 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            bounds.concentration_diagnostic([0.0, 0.0])


class TestIsoRatioAsymptotic:
    def test_unit_ball_small_n_is_biased_high(self):
        est = bounds.iso_ratio_asymptotic(Ellipsoid([1.0, 1.0]))
        assert rel_err(est.value, 4.0 / math.sqrt(math.pi)) < 1e-13
        # 12.8% high against the true value 2: asymptotic, not exact
        assert 0.12 < est.value / 2.0 - 1.0 < 0.14
        assert est.abs_error == 0.0
        assert est.method == "asymptotic"

    def test_unit_ball_large_n(self):
        n = 10**4
        est = bounds.iso_ratio_asymptotic(Ellipsoid([1.0] * n))
        assert abs(est.value / n - 1.0) < 1e-4

    def test_equal_axes_homogeneity(self):
        n = 7
        base = bounds.iso_ratio_asymptotic(Ellipsoid([1.0] * n)).value
        for a in (0.25, 4.0):
            got = bounds.iso_ratio_asymptotic(Ellipsoid([a] * n)).value
            assert rel_err(got, base / a) < 1e-14


class TestLpNorm:
    def test_examples(self):
        assert bounds.lp_norm([3.0, 4.0], 2.0) == 5.0
        assert bounds.lp_norm([1.0, 1.0, 1.0, 1.0], 1.0) == 4.0

    def test_reverse_route_small_case(self):
        # ||q||_1 for q = (2, 3) through the product/symmetric-function
        # identity: prod(q) * sigma_1(1/2, 1/3) = 6 * 5/6 = 5
        via_sigma = 6.0 * (0.5 + 1.0 / 3.0)
        assert rel_err(bounds.lp_norm([2.0, 3.0], 1.0), via_sigma) < 1e-14

    def test_overflow_scaling(self):
        v = bounds.lp_norm([1e200, 1e200], 2.0)
        assert rel_err(v, math.sqrt(2.0) * 1e200) < 1e-14

    def test_zero_vector(self):
        assert bounds.lp_norm([0.0, 0.0], 2.0) == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8),
           st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, q, p):
        base = bounds.lp_norm(q, p)
        scaled = bounds.lp_norm([-2.5 * v for v in q], p)
        assert rel_err(scaled, 2.5 * base) < 1e-12


class TestElementarySymmetric:
    def test_lp_norm_reverse_identity_random(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([67, 0], dtype=np.uint64)))
        for _ in range(20):
            n = int(gen.integers(2, 9))
            q = gen.uniform(0.5, 2.0, size=n)
            a = 1.0 / q
            for p in (1.0, 2.0, 3.0):
                lhs = bounds.lp_norm(q, p)
                # sigma_(n-1)(a^p) by brute force over the (n-1)-subsets
                sigma = sum(math.prod(c) for c in itertools.combinations(a ** p, n - 1))
                rhs = float(np.prod(q)) * sigma ** (1.0 / p)
                assert rel_err(lhs, rhs) < 1e-10


class TestGammaRatioAsymptoticCheck:
    def test_large_argument(self):
        assert abs(bounds.gamma_ratio_asymptotic_check(1e6, 0.5) - 1.0) < 1e-5

    def test_y_zero_exact(self):
        assert bounds.gamma_ratio_asymptotic_check(3.7, 0.0) == 1.0

    def test_integer_shift(self):
        assert rel_err(bounds.gamma_ratio_asymptotic_check(10.0, 1.0), 10.0 / 11.0) < 1e-14

    def test_poles_rejected(self):
        with pytest.raises(ValueError):
            bounds.gamma_ratio_asymptotic_check(0.0, 1.0)
        with pytest.raises(ValueError):
            bounds.gamma_ratio_asymptotic_check(1.0, -2.0)


class TestBoundsL2:
    def test_one_dimensional_lower_bound_tight(self):
        rep = bounds.bounds_l2(Ellipsoid([1.0]))
        assert rel_err(rep.lower_const, 1.0) < 1e-14
        assert rel_err(rep.ratio_lower, 1.0) < 1e-14
        # in one dimension the ratio norm is exactly |q|
        assert rel_err(iso_ratio_quad(Ellipsoid([1.0])).value, 1.0) < 1e-10

    def test_unit_ball_sandwich_contains_one(self):
        for n in range(1, 51):
            rep = bounds.bounds_l2(Ellipsoid([1.0] * n))
            assert rep.ratio_lower <= 1.0 + 1e-12
            assert rep.ratio_upper >= 1.0 - 1e-12

    def test_constant_gap_is_universal(self):
        for n in range(1, 51):
            rep = bounds.bounds_l2(Ellipsoid([1.0] * n))
            assert rel_err(rep.upper_const / rep.lower_const,
                           1.5 * math.sqrt(math.pi)) < 1e-13

    def test_area_interval_orders(self):
        rep = bounds.bounds_l2(Ellipsoid([0.5, 2.0, 3.0]))
        assert 0.0 < rep.area_lower <= rep.area_upper

    def test_sandwich_random(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([71, 0], dtype=np.uint64)))
        for _ in range(100):
            n = int(gen.integers(2, 51))
            axes = np.exp(gen.uniform(math.log(0.1), math.log(10.0), size=n))
            e = Ellipsoid(axes)
            rep = bounds.bounds_l2(e)
            rn = iso_ratio_quad(e).value / n
            assert rep.ratio_lower * (1 - 1e-12) <= rn <= rep.ratio_upper * (1 + 1e-12)

    def test_upper_bound_mechanism(self):
        # E[sqrt(sum a_i X_i)] <= (1 + mu) sqrt(sum a_i) with mu = 1/2
        # specializes to the upper constant; quadrature must respect it
        gen = np.random.Generator(np.random.Philox(key=np.array([73, 0], dtype=np.uint64)))
        for _ in range(20):
            n = int(gen.integers(1, 20))
            axes = gen.uniform(0.2, 5.0, size=n)
            e = Ellipsoid(axes)
            rep = bounds.bounds_l2(e)
            assert iso_ratio_quad(e).value <= n * rep.ratio_upper * (1 + 1e-12)

    def test_lower_bound_mechanism_mc(self):
        # mean of |x_1| over the sphere equals the lower constant
        for n in (2, 5, 10):
            est = mc.sphere_mean_via_gaussian(
                mc.coord_abs_pow_fn(1.0), n, mc.McConfig(samples=100_000, seed=80 + n))
            expected = geometry.gamma_half_ratio(n, 1) / math.sqrt(math.pi)
            assert abs(est.value - expected) <= 4 * est.abs_error


class TestAsymptoticConvergence:
    def test_uniform_axes_deviation_shrinks(self):
        devs = {}
        for n in (100, 1000):
            gen = mc.RngStream(314, stream_id=n).generator()
            axes = 1.0 + gen.random(n)
            e = Ellipsoid(axes)
            quad_v = iso_ratio_quad(e).value
            asym_v = bounds.iso_ratio_asymptotic(e).value
            devs[n] = abs(quad_v / asym_v - 1.0)
        assert devs[1000] < devs[100]

    def test_applicability_bound_for_bounded_ratios(self):
        # axis ratios <= 2 force the concentration ratio below 16/n
        for n in (100, 1000, 10_000):
            gen = mc.RngStream(314, stream_id=n).generator()
            axes = 1.0 + gen.random(n)
            d = bounds.concentration_diagnostic(1.0 / axes)
            assert d.ratio <= 2.0 ** 4 / n
