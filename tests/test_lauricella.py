import math

import numpy as np
import pytest

from ellipsurf import lauricella
from ellipsurf.geometry import Ellipsoid
from ellipsurf.lauricella import (
    FdParams,
    fd_integral,
    fd_series,
    iso_ratio_lauricella,
)
from ellipsurf.quadrature import iso_ratio_quad

from oracles import gauss_2f1, iso_ratio_mpmath


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def random_params(gen, n=None, x_max=0.8):
    n = n or int(gen.integers(1, 6))
    return FdParams(
        a=float(gen.uniform(0.2, 1.5)),
        b=gen.uniform(0.2, 2.0, size=n),
        c=float(gen.uniform(1.8, 4.0)),
        x=gen.uniform(-x_max, x_max, size=n),
    )


class TestFdSeries:
    def test_all_x_zero_is_one(self):
        res = fd_series(FdParams(0.5, [0.5, 1.5, 0.5], 2.5, [0.0, 0.0, 0.0]))
        assert res.value == 1.0
        assert res.converged

    def test_arcsin_reduction(self):
        # one-variable case (a, b, c) = (1/2, 1/2, 3/2) at x^2 sums to
        # arcsin(x)/x; checked against both the closed form and a direct
        # power-series oracle
        x = 0.5
        res = fd_series(FdParams(0.5, [0.5], 1.5, [x * x]))
        assert rel_err(res.value, math.asin(x) / x) < 1e-12
        assert rel_err(res.value, gauss_2f1(0.5, 0.5, 1.5, x * x)) < 1e-12

    def test_equal_arguments_pool_the_exponents(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([41, 0], dtype=np.uint64)))
        for _ in range(10):
            n = int(gen.integers(2, 6))
            b = gen.uniform(0.2, 1.5, size=n)
            x = float(gen.uniform(-0.7, 0.7))
            a, c = 0.7, 3.2
            pooled = fd_series(FdParams(a, [float(b.sum())], c, [x]))
            full = fd_series(FdParams(a, b, c, [x] * n))
            assert rel_err(full.value, pooled.value) < 1e-10

    def test_symmetry_under_pair_permutation(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([43, 0], dtype=np.uint64)))
        p = random_params(gen, n=4)
        base = fd_series(p).value
        for _ in range(4):
            perm = gen.permutation(4)
            shuffled = FdParams(p.a, np.asarray(p.b)[perm], p.c, np.asarray(p.x)[perm])
            assert rel_err(fd_series(shuffled).value, base) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="x_2"):
            fd_series(FdParams(0.5, [0.5, 0.5], 1.5, [0.0, 1.0]))
        with pytest.raises(ValueError, match="nonpositive integer"):
            fd_series(FdParams(0.5, [0.5], -2.0, [0.1]))
        with pytest.raises(ValueError, match="tol must be >= 1e-15"):
            fd_series(FdParams(0.5, [0.5], 1.5, [0.1]), tol=1e-16)

    def test_budget_exhaustion_flags(self, monkeypatch):
        monkeypatch.setattr(lauricella, "_MAX_DEGREE", 50)
        res = fd_series(FdParams(0.5, [1.5], 1.5, [0.999]))
        assert not res.converged

    def test_terminating_series(self):
        # a = -1 terminates after the linear shell: F = 1 - sum b_i x_i / c
        p = FdParams(-1.0, [0.5, 1.5], 2.0, [0.3, -0.2])
        res = fd_series(p)
        expected = 1.0 - (0.5 * 0.3 + 1.5 * -0.2) / 2.0
        assert rel_err(res.value, expected) < 1e-14


class TestFdIntegral:
    def test_all_x_zero_beta_normalization(self):
        res = fd_integral(FdParams(0.5, [0.5, 0.5], 2.0, [0.0, 0.0]))
        assert rel_err(res.value, 1.0) < 1e-12

    def test_matches_series_on_arcsin_case(self):
        p = FdParams(0.5, [0.5], 1.5, [0.25])
        assert rel_err(fd_integral(p).value, fd_series(p).value) < 1e-10

    def test_dual_route_agreement_random(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([47, 0], dtype=np.uint64)))
        for _ in range(50):
            p = random_params(gen)
            s = fd_series(p)
            i = fd_integral(p)
            assert s.converged and i.converged
            assert rel_err(i.value, s.value) < 1e-8
            assert abs(i.value - s.value) <= s.est_error + i.est_error, p

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="a > 0"):
            fd_integral(FdParams(-0.5, [0.5], 1.5, [0.1]))
        with pytest.raises(ValueError, match="c - a"):
            fd_integral(FdParams(1.5, [0.5], 1.0, [0.1]))
        with pytest.raises(ValueError, match="pole"):
            fd_integral(FdParams(0.5, [0.5], 1.5, [1.2]))


class TestIsoRatioLauricella:
    @pytest.mark.parametrize("route", ["series", "integral"])
    def test_unit_ball_smoke(self, route):
        # exercises the identity's constant: must equal n exactly in the
        # all-x-zero limit
        for n in range(2, 9):
            est = iso_ratio_lauricella(Ellipsoid([1.0] * n), route=route)
            assert rel_err(est.value, float(n)) < 1e-9
            assert est.method == "lauricella"

    def test_alpha_sweep_invariance(self):
        e = Ellipsoid([1.0, 2.0])
        values = [iso_ratio_lauricella(e, alpha=a).value for a in (1.1, 1.6, 1.9)]
        for v in values[1:]:
            assert rel_err(v, values[0]) < 1e-7

    def test_matches_quadrature_example(self):
        e = Ellipsoid([1.0, 2.0])
        assert rel_err(iso_ratio_lauricella(e).value, iso_ratio_quad(e).value) < 1e-7

    def test_matches_quadrature_random(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([53, 0], dtype=np.uint64)))
        for _ in range(30):
            n = int(gen.integers(2, 7))
            axes = np.exp(gen.uniform(0.0, math.log(3.0), size=n))
            e = Ellipsoid(axes)
            lau = iso_ratio_lauricella(e)
            quad = iso_ratio_quad(e)
            assert lau.converged
            assert rel_err(lau.value, quad.value) < 1e-6

    def test_integral_route_beyond_series_cap(self):
        e = Ellipsoid(np.linspace(1.0, 2.0, 9))
        est = iso_ratio_lauricella(e)
        assert rel_err(est.value, iso_ratio_quad(e).value) < 1e-6

    def test_error_honest_against_mpmath(self):
        # the default route over the whole axis domain: converged, and
        # within its own claimed error of a 30-digit oracle
        gen = np.random.Generator(np.random.Philox(key=np.array([61, 0], dtype=np.uint64)))
        for i in range(16):
            axes = 10.0 ** gen.uniform(-8.0, 8.0, size=1 + i % 8)
            est = iso_ratio_lauricella(Ellipsoid(axes))
            assert est.converged, axes
            assert abs(est.value - iso_ratio_mpmath(axes)) <= est.abs_error, axes

    def test_series_route_error_honest_against_mpmath(self):
        # converged implies within the claimed error of a 30-digit oracle,
        # on n from 1 to 24 and aspect up to 30, where the series runs out
        # of its degree budget and has to say so
        gen = np.random.Generator(np.random.Philox(key=np.array([67, 0], dtype=np.uint64)))
        cases = [np.geomspace(1.0, 10.0, 8)]
        for _ in range(15):
            n = int(gen.integers(1, 25))
            aspect = 10.0 ** gen.uniform(0.0, math.log10(30.0))
            cases.append(np.concatenate(([1.0, aspect], aspect ** gen.random(n)))[:n])
        converged = []
        for axes in cases:
            est = iso_ratio_lauricella(Ellipsoid(axes), route="series")
            if est.converged:
                assert abs(est.value - iso_ratio_mpmath(axes)) <= est.abs_error, axes
            converged.append(est.converged)
        assert converged[0] and sum(converged) >= len(cases) // 2

    def test_integral_route_moderate_dimension(self):
        # exercises the log-space integrand assembly: at n = 40 the
        # (1-u) power and the product factor each leave float64 range
        # separately while their combination stays finite
        gen = np.random.Generator(np.random.Philox(key=np.array([59, 0], dtype=np.uint64)))
        e = Ellipsoid(1.0 + gen.random(40))
        est = iso_ratio_lauricella(e, route="integral")
        assert est.converged
        assert rel_err(est.value, iso_ratio_quad(e).value) < 1e-9

    def test_inadmissible_alpha_rejected(self):
        with pytest.raises(ValueError, match=r"inadmissible: \|1 - alpha\*q_1\^2\| = 3\.0 >= 1$"):
            iso_ratio_lauricella(Ellipsoid([1.0, 2.0]), alpha=4.0)

    def test_bad_route_rejected(self):
        with pytest.raises(ValueError):
            iso_ratio_lauricella(Ellipsoid([1.0]), route="nope")

    def test_near_boundary_arguments_flag_instead_of_lying(self):
        # axis ratio 1000 pushes |x| to ~0.999998; the series cannot get
        # there within budget and must say so
        est = iso_ratio_lauricella(Ellipsoid([1.0, 1000.0]), route="series")
        assert not est.converged


class TestFdParams:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            FdParams(0.5, [0.5, 0.5], 1.5, [0.1])

    def test_empty(self):
        with pytest.raises(ValueError):
            FdParams(0.5, [], 1.5, [])
