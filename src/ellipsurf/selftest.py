"""Embedded invariant suite behind the ``selftest`` CLI command.

Each property is a named callable that raises AssertionError on
failure.  Properties run in a fixed order with fixed seeds, so the
output bytes are identical across runs; the first failure is reported
by name and stops the run.  The whole suite is budgeted to stay well
under a minute.
"""

import math

import numpy as np

from . import bounds as bounds_mod
from . import geometry
from . import lauricella as lauricella_mod
from . import mc as mc_mod
from . import quadrature as quad_mod


def _check_rel(actual, expected, rel, label):
    denom = max(abs(expected), 1e-300)
    if abs(actual - expected) > rel * denom:
        raise AssertionError(
            f"{label}: got {actual!r}, expected {expected!r} (rel tol {rel})"
        )


def _prop_unit_sphere_area():
    _check_rel(geometry.unit_sphere_area(0), 2.0, 1e-14, "area of S^0")
    _check_rel(geometry.unit_sphere_area(1), 2 * math.pi, 1e-14, "area of S^1")
    _check_rel(geometry.unit_sphere_area(2), 4 * math.pi, 1e-14, "area of S^2")
    for n in range(0, 51):
        _check_rel(
            geometry.unit_sphere_area(n),
            (n + 1) * geometry.unit_ball_volume(n + 1),
            1e-13,
            f"omega({n}) = ({n}+1)*kappa({n}+1)",
        )


def _prop_gamma_half_ratio():
    _check_rel(geometry.gamma_half_ratio(1, 1), math.sqrt(math.pi), 1e-13,
               "Gamma(1/2)/Gamma(1)")
    _check_rel(geometry.gamma_half_ratio(2, 1), 2 / math.sqrt(math.pi), 1e-13,
               "Gamma(1)/Gamma(3/2)")
    for n in (3, 10, 1000, 10**6):
        for d in (1, 2, 3):
            for e in (1, 2, 3):
                lhs = geometry.gamma_half_ratio(n, d) * geometry.gamma_half_ratio(n + d, e)
                rhs = geometry.gamma_half_ratio(n, d + e)
                _check_rel(lhs, rhs, 1e-13, f"ratio product identity n={n} d={d} e={e}")
    _check_rel(geometry.gamma_half_ratio(10**6, 1),
               math.sqrt(2.0 / (10**6 + 1)), 1e-5, "large-n ratio asymptotics")


def _prop_sphere_surface_exactness():
    for n in range(2, 21):
        for r in (1.0, 3.0):
            e = geometry.Ellipsoid([r] * n)
            s = geometry.surface_area(e, quad_mod.iso_ratio_quad(e))
            expected = n * geometry.unit_ball_volume(n) * r ** (n - 1)
            _check_rel(s.value, expected, 1e-10, f"sphere surface n={n} r={r}")


def _prop_sphere_gaussian_transform():
    cfg = mc_mod.McConfig(samples=200_000, seed=20260810)
    cases = [
        (mc_mod.coord_square_fn(), 3),
        (mc_mod.coord_square_fn(), 7),
        (mc_mod.lp_norm_fn(1.0), 5),
    ]
    for f, n in cases:
        direct = mc_mod.sphere_mean_mc(f, n, cfg)
        transformed = mc_mod.sphere_mean_via_gaussian(f, n, cfg)
        gap = abs(direct.value - transformed.value)
        budget = 4.0 * math.hypot(direct.abs_error, transformed.abs_error)
        if gap > budget:
            raise AssertionError(
                f"sphere/Gaussian transform mismatch for {f.name}, n={n}: "
                f"gap {gap} > {budget}"
            )
    # mean of x_1^2 over the sphere is exactly 1/n
    est = mc_mod.sphere_mean_mc(mc_mod.coord_square_fn(), 4, cfg)
    if abs(est.value - 0.25) > 4 * est.abs_error:
        raise AssertionError(
            f"mean of x1^2 over S^3: {est.value} not within 4 sigma of 1/4"
        )


def _prop_l2_bounds_sandwich():
    gen = np.random.Generator(np.random.Philox(key=np.array([99, 0], dtype=np.uint64)))
    for _ in range(50):
        n = int(gen.integers(2, 21))
        axes = np.exp(gen.uniform(math.log(0.1), math.log(10.0), size=n))
        e = geometry.Ellipsoid(axes)
        rep = bounds_mod.bounds_l2(e)
        rn = quad_mod.iso_ratio_quad(e).value / n
        if not (rep.ratio_lower * (1 - 1e-12) <= rn <= rep.ratio_upper * (1 + 1e-12)):
            raise AssertionError(
                f"sandwich violated at n={n}: {rep.ratio_lower} <= {rn} <= {rep.ratio_upper}"
            )
        _check_rel(rep.upper_const / rep.lower_const, 1.5 * math.sqrt(math.pi),
                   1e-13, "constant ratio")


def _prop_lauricella_dual_route():
    laplace = quad_mod.iso_ratio_quad(geometry.Ellipsoid([1.0, 2.0])).value
    for route in ("series", "integral"):
        for axes, expected, rel in (([1.0] * 2, 2.0, 1e-9), ([1.0] * 5, 5.0, 1e-9),
                                    ([1.0, 2.0], laplace, 1e-7)):
            est = lauricella_mod.iso_ratio_lauricella(geometry.Ellipsoid(axes), route=route)
            _check_rel(est.value, expected, rel, f"axes {axes} ({route})")
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    for _ in range(5):
        n = int(gen.integers(1, 5))
        p = lauricella_mod.FdParams(
            a=float(gen.uniform(0.2, 1.5)),
            b=gen.uniform(0.2, 2.0, size=n),
            c=float(gen.uniform(1.8, 4.0)),
            x=gen.uniform(-0.8, 0.8, size=n),
        )
        s = lauricella_mod.fd_series(p)
        i = lauricella_mod.fd_integral(p)
        _check_rel(s.value, i.value, 1e-8, f"F_D dual route {p}")
        if abs(s.value - i.value) > s.est_error + i.est_error:
            raise AssertionError(f"F_D dual route {p}: {s} and {i} differ beyond their claims")


def _prop_mc_control_variate():
    cfg = mc_mod.McConfig(samples=200_000, seed=20261017)
    for n in (1, 3, 12):
        est = mc_mod.iso_ratio_mc(geometry.Ellipsoid([1.0] * n), cfg)
        if est.value != n or est.abs_error != 0.0:
            raise AssertionError(
                f"unit ball n={n}: got {est.value!r} +- {est.abs_error!r}, expected exactly {n}"
            )
    e = geometry.Ellipsoid([1.0, 2.0, 3.0])
    ref = quad_mod.iso_ratio_quad(e).value
    for route in ("direct_sphere", "gaussian_transform"):
        est = mc_mod.iso_ratio_mc(e, cfg, route=route)
        if abs(est.value - ref) > 4.0 * est.abs_error:
            raise AssertionError(
                f"axes (1,2,3) {route}: {est.value} +- {est.abs_error} not within "
                f"4 sigma of laplace {ref}"
            )


#: Ordered (name, property) pairs; names are stable output and also the
#: hook for fault-injection tests.
PROPERTIES = (
    ("unit_sphere_area", _prop_unit_sphere_area),
    ("gamma_half_ratio", _prop_gamma_half_ratio),
    ("sphere_surface_exactness", _prop_sphere_surface_exactness),
    ("sphere_gaussian_transform", _prop_sphere_gaussian_transform),
    ("mc_control_variate", _prop_mc_control_variate),
    ("l2_bounds_sandwich", _prop_l2_bounds_sandwich),
    ("lauricella_dual_route", _prop_lauricella_dual_route),
)


def run_selftest(write=print) -> int:
    """Run every property; 0 when all pass, 1 naming the first failure."""
    for name, prop in PROPERTIES:
        try:
            prop()
        except AssertionError as exc:
            write(f"FAIL {name}: {exc}")
            return 1
        write(f"PASS {name}")
    write("selftest: ok")
    return 0
