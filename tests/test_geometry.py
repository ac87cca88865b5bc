import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellipsurf import geometry
from ellipsurf.geometry import Ellipsoid, Estimate, VolumeOverflowError


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestSphereConstants:
    def test_sphere_area_values(self):
        assert rel_err(geometry.unit_sphere_area(0), 2.0) < 1e-14
        assert rel_err(geometry.unit_sphere_area(1), 2 * math.pi) < 1e-14
        assert rel_err(geometry.unit_sphere_area(2), 4 * math.pi) < 1e-14

    def test_ball_volume_values(self):
        assert geometry.unit_ball_volume(0) == 1.0
        assert rel_err(geometry.unit_ball_volume(1), 2.0) < 1e-14
        assert rel_err(geometry.unit_ball_volume(2), math.pi) < 1e-14
        assert rel_err(geometry.unit_ball_volume(3), 4 * math.pi / 3) < 1e-14

    def test_area_volume_identity(self):
        for n in range(0, 51):
            lhs = geometry.unit_sphere_area(n)
            rhs = (n + 1) * geometry.unit_ball_volume(n + 1)
            assert rel_err(lhs, rhs) < 1e-13

    def test_log_and_linear_agree(self):
        for n in range(0, 60):
            assert rel_err(geometry.unit_sphere_area(n),
                           math.exp(geometry.log_unit_sphere_area(n))) < 1e-14
            assert rel_err(geometry.unit_ball_volume(n),
                           math.exp(geometry.log_unit_ball_volume(n))) < 1e-14

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            geometry.unit_sphere_area(-1)
        with pytest.raises(ValueError):
            geometry.unit_ball_volume(-2)

    def test_large_n_stays_finite_in_log_space(self):
        lv = geometry.log_unit_ball_volume(10**6)
        assert math.isfinite(lv) and lv < 0


class TestGammaHalfRatio:
    def test_spot_values(self):
        assert rel_err(geometry.gamma_half_ratio(1, 1), math.sqrt(math.pi)) < 1e-14
        assert rel_err(geometry.gamma_half_ratio(2, 1), 2 / math.sqrt(math.pi)) < 1e-14

    def test_large_n_asymptotics(self):
        n = 10**6
        assert rel_err(geometry.gamma_half_ratio(n, 1),
                       math.sqrt(2.0 / (n + 1))) < 1e-5

    @pytest.mark.parametrize("n", [10**5, 10**6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_large_n_against_mpmath(self, n, d):
        # the float64 difference of two lgamma values is 2e-11 off at
        # n = 1e5 and 5e-10 off at n = 1e6
        with mp.workdps(40):
            expected = float(mp.gamma(mp.mpf(n) / 2) / mp.gamma(mp.mpf(n + d) / 2))
        assert rel_err(geometry.gamma_half_ratio(n, d), expected) <= 1e-14

    def test_product_identity(self):
        for n in (1, 2, 7, 100, 10**4, 10**6):
            for d in (1, 2, 3):
                for e in (1, 2, 3):
                    lhs = (geometry.gamma_half_ratio(n, d)
                           * geometry.gamma_half_ratio(n + d, e))
                    rhs = geometry.gamma_half_ratio(n, d + e)
                    assert rel_err(lhs, rhs) < 1e-13

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            geometry.gamma_half_ratio(1, -1)
        with pytest.raises(ValueError):
            geometry.gamma_half_ratio(2, -5)


class TestEllipsoid:
    def test_basic_fields(self):
        e = Ellipsoid([1.0, 2.0, 3.0])
        assert e.n == 3
        assert e.axes == (1.0, 2.0, 3.0)
        np.testing.assert_allclose(e.inverse_axes(), [1.0, 0.5, 1 / 3], rtol=1e-15)

    def test_inverse_axes_bit_stable(self):
        e = Ellipsoid([0.3, 1.7, 2.9])
        a = e.inverse_axes()
        b = e.inverse_axes()
        assert a.tobytes() == b.tobytes()

    def test_from_inverse_axes_round_trip(self):
        e = Ellipsoid.from_inverse_axes([1.0, 0.5])
        assert e.axes == (1.0, 2.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_degenerate_axes_rejected(self, bad):
        with pytest.raises(ValueError, match="axis 2"):
            Ellipsoid([1.0, bad, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ellipsoid([])

    def test_last_bad_axis_of_long_input_named(self):
        axes = np.ones(100_000)
        axes[99_999] = -2.0
        with pytest.raises(ValueError, match=r"axis 100000 must be .* got -2\.0"):
            Ellipsoid(axes)

    def test_stored_arrays_read_only(self):
        e = Ellipsoid([0.3, 1.7, 2.9])
        for arr in (e.axes_array(), e.inverse_axes()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert e.inverse_axes().tobytes() == e.inverse_axes().tobytes()
        assert e.inverse_axes().tolist() == [1.0 / a for a in (0.3, 1.7, 2.9)]

    def test_caller_array_copied(self):
        axes = np.array([1.0, 2.0])
        e = Ellipsoid(axes)
        axes[0] = 5.0
        assert axes.flags.writeable
        assert e.axes == (1.0, 2.0)

    def test_from_inverse_axes_names_bad_entry(self):
        with pytest.raises(ValueError, match="inverse axis 3 must be .* got nan"):
            Ellipsoid.from_inverse_axes([1.0, 0.5, math.nan])

    def test_equality_hash_and_repr_by_value(self):
        a = Ellipsoid([1, 2])
        b = Ellipsoid(np.array([1.0, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert a != Ellipsoid([2.0, 1.0])
        assert repr(a) == "Ellipsoid(axes=(1.0, 2.0))"

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=12))
    def test_inverse_axes_are_reciprocals(self, axes):
        e = Ellipsoid(axes)
        np.testing.assert_allclose(e.inverse_axes() * e.axes_array(), 1.0, rtol=1e-15)


class TestVolume:
    def test_examples(self):
        assert rel_err(geometry.ellipsoid_volume(Ellipsoid([1, 1, 1])),
                       4 * math.pi / 3) < 1e-14
        assert rel_err(geometry.ellipsoid_volume(Ellipsoid([1, 2, 3])),
                       8 * math.pi) < 1e-14
        assert rel_err(geometry.ellipsoid_volume(Ellipsoid([2, 3])),
                       6 * math.pi) < 1e-14

    def test_log_volume_bits_match_the_scalar_loop(self):
        axes = 10.0 ** np.random.default_rng(8).uniform(-3.0, 3.0, 1000)
        expected = (geometry.log_unit_ball_volume(1000)
                    + math.fsum(math.log(a) for a in axes.tolist()))
        assert geometry.log_ellipsoid_volume(Ellipsoid(axes)) == expected

    def test_overflow_reported_with_log_value(self):
        e = Ellipsoid([1e300] * 10)
        with pytest.raises(VolumeOverflowError) as exc:
            geometry.ellipsoid_volume(e)
        expected_log = geometry.log_unit_ball_volume(10) + 10 * math.log(1e300)
        assert rel_err(exc.value.log_value, expected_log) < 1e-12

    def test_scaling_property(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
        for n in (1, 2, 5, 12, 30):
            axes = gen.uniform(0.5, 2.0, size=n)
            base = geometry.ellipsoid_volume(Ellipsoid(axes))
            for lam in (0.5, 2.0):
                scaled = geometry.ellipsoid_volume(Ellipsoid(lam * axes))
                assert rel_err(scaled, lam ** n * base) < 1e-12


class TestSurfaceArea:
    def test_from_exact_ratio(self):
        ball3 = Ellipsoid([1, 1, 1])
        ratio = Estimate(value=3.0, abs_error=0.0, method="closed_form", evals=1)
        s = geometry.surface_area(ball3, ratio)
        assert rel_err(s.value, 4 * math.pi) < 1e-14
        assert s.method == "closed_form"

        ball2 = Ellipsoid([1, 1])
        ratio2 = Estimate(value=2.0, abs_error=0.0, method="closed_form", evals=1)
        assert rel_err(geometry.surface_area(ball2, ratio2).value, 2 * math.pi) < 1e-14

    def test_error_propagates_multiplicatively(self):
        e = Ellipsoid([1, 2])
        ratio = Estimate(value=1.5, abs_error=0.01, method="laplace", evals=9)
        s = geometry.surface_area(e, ratio)
        v = geometry.ellipsoid_volume(e)
        assert rel_err(s.abs_error, 0.01 * v) < 1e-14
        assert s.evals == 9

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            geometry.surface_area(
                Ellipsoid([1.0]),
                Estimate(value=0.0, abs_error=0.0, method="closed_form", evals=1),
            )


class TestEstimate:
    def test_stochastic_requires_seed(self):
        with pytest.raises(ValueError):
            Estimate(value=1.0, abs_error=0.0, method="mc", evals=10)

    def test_deterministic_forbids_seed(self):
        with pytest.raises(ValueError):
            Estimate(value=1.0, abs_error=0.0, method="laplace", evals=10, seed=1)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            Estimate(value=1.0, abs_error=-1.0, method="laplace", evals=10)
        with pytest.raises(ValueError):
            Estimate(value=1.0, abs_error=0.0, method="laplace", evals=0)
        with pytest.raises(ValueError):
            Estimate(value=1.0, abs_error=0.0, method="nope", evals=1)
