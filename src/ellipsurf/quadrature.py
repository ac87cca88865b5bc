"""Deterministic evaluation of E[sqrt(sum q_i^2 X_i^2)] by 1-D quadrature.

The backbone identity, for X_i independent Gaussians with variance 1/2
and Y = sum q_i^2 X_i^2:

    E[sqrt(Y)] = (1 / (2 sqrt(pi))) * integral_0^inf t^(-3/2)
                 * (1 - prod_j (1 + q_j^2 t)^(-1/2)) dt

since E[exp(-tY)] = prod_j (1 + q_j^2 t)^(-1/2).  The product is always
computed as exp(-0.5 * sum log1p(q_j^2 t)) so that n ~ 1e6 neither
overflows nor underflows.

Integration layout: the half line is split into a first panel t in
[0, 1], evaluated under the substitution t = w^2 which removes the
t^(-1/2) endpoint behaviour, followed by interval-doubling panels
[1, 2], [2, 4], ...  Each panel goes through an adaptive Gauss-Kronrod
rule (scipy's QUADPACK).  Doubling stops once the analytic tail
remainder bound falls below tolerance, and the exact tail of the
t^(-3/2) majorant is added in closed form.

The module also evaluates two variants of an alternative alpha-
parameterized integral for the same quantity: one with the product term
as it is sometimes (mis)printed, (1 - q_j^2 z)^(-1/2), which is only
real on a prefix of the half line, and a corrected reading with
(1 + alpha q_j^2 z)^(-1/2), which is alpha-free and matches the
backbone identity.  The as-printed variant exists to document the
discrepancy, not to be trusted.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import integrate

from . import _kernels
from . import geometry
from .geometry import Ellipsoid, Estimate

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the quadrature evaluators."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.rel_tol >= 1e-15:
            raise ValueError(f"rel_tol must be >= 1e-15, got {self.rel_tol}")
        if self.max_subdivisions < 10:
            raise ValueError(f"max_subdivisions must be >= 10, got {self.max_subdivisions}")


@dataclass(frozen=True)
class QuadResult:
    """Value with an error estimate, an eval count, and a convergence flag.

    When ``converged`` is set, est_error <= rel_tol*|value| + abs_tol.
    """

    value: float
    est_error: float
    evals: int
    converged: bool


def default_alpha(q: Sequence[float]) -> float:
    """2 / (min q^2 + max q^2): centers 1 - alpha*q_j^2 around zero.

    This maximizes the admissibility margin |1 - alpha*q_j^2| < 1 for
    any finite axis-ratio.
    """
    q2 = np.asarray(q, dtype=np.float64) ** 2
    return 2.0 / (float(q2.min()) + float(q2.max()))


def check_alpha_admissible(q: Sequence[float], alpha: float) -> np.ndarray:
    """Validate |1 - alpha*q_j^2| < 1 for all j; returns x = 1 - alpha*q^2."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    # tested as 0 < alpha*q^2 < 2: 1 - alpha*q^2 rounds to 1 at tiny alpha*q^2
    aq2 = alpha * np.asarray(q, dtype=np.float64) ** 2
    bad = ~((aq2 > 0.0) & (aq2 < 2.0))
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(
            f"alpha={alpha} is inadmissible: |1 - alpha*q_{j + 1}^2| = "
            f"{float(abs(1.0 - aq2[j]))!r} >= 1"
        )
    return 1.0 - aq2


def _validate_q(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size < 1:
        raise ValueError("q must be a 1-D vector with at least one entry")
    if not (np.isfinite(q).all() and (q > 0).all()):
        raise ValueError("every q_i must be a positive finite number")
    return q


class _Panels:
    """Shared adaptive-panel bookkeeping: value, error, evals, budget."""

    def __init__(self, cfg: QuadConfig):
        self.cfg = cfg
        self.value = 0.0
        self.error = 0.0
        self.evals = 0
        self.panels = 0
        self.trouble = False

    def add(self, f, a: float, b: float) -> float:
        count = [0]

        def counted(x):
            count[0] += 1
            return f(x)

        res = integrate.quad(
            counted, a, b,
            epsabs=self.cfg.abs_tol,
            epsrel=self.cfg.rel_tol / 4.0,
            limit=max(self.cfg.max_subdivisions, 50),
            full_output=1,
        )
        y, err = res[0], res[1]
        self.value += y
        self.error += err
        self.evals += count[0]
        self.panels += 1
        # a 4th tuple element is QUADPACK's trouble message
        if len(res) != 3:
            self.trouble = True
        return y

    @property
    def exhausted(self) -> bool:
        return self.panels >= self.cfg.max_subdivisions


def _finish(pan: _Panels, value: float, err: float, ok: bool, cfg: QuadConfig) -> QuadResult:
    converged = (ok and not pan.trouble
                 and err <= cfg.rel_tol * abs(value) + cfg.abs_tol)
    return QuadResult(value=value, est_error=err, evals=max(pan.evals, 1),
                      converged=converged)


def sqrt_qform_moment(q: Sequence[float], cfg: Optional[QuadConfig] = None) -> QuadResult:
    """E[sqrt(sum q_i^2 X_i^2)] for variance-1/2 Gaussian X_i.

    Deterministic counterpart of the Monte Carlo estimate
    ``gaussian_mean_mc(sqrt_qform_fn(q), ...)``; the identity against
    that brute-force route is exercised in the test suite.
    """
    cfg = cfg or QuadConfig()
    q = _validate_q(q)
    # canonical descending order makes the result exactly permutation
    # invariant instead of invariant up to summation-order ulps
    q2 = np.sort(q * q)[::-1].copy()
    n = q2.size
    sum_q2 = float(q2.sum())

    def one_minus_prod(t: float) -> float:
        return -math.expm1(-0.5 * _kernels.sum_log1p(q2, t))

    def prod(t: float) -> float:
        return math.exp(-0.5 * _kernels.sum_log1p(q2, t))

    pan = _Panels(cfg)

    # first panel t in [0, 1] under t = w^2; the integrand extends
    # smoothly to w = 0 with value sum(q^2)
    def first(w: float) -> float:
        if w == 0.0:
            return sum_q2
        return 2.0 * one_minus_prod(w * w) / (w * w)

    pan.add(first, 0.0, 1.0)

    t_hi = 1.0
    converged = False
    tail_err = math.inf
    while not pan.exhausted:
        # remainder past t_hi: integral <= 2 * P(t_hi) / (sqrt(t_hi) * (n+1))
        tail_err = 2.0 * prod(t_hi) / (math.sqrt(t_hi) * (n + 1))
        total_here = pan.value + 2.0 / math.sqrt(t_hi)
        if tail_err <= 0.25 * (cfg.abs_tol * _TWO_SQRT_PI + cfg.rel_tol * abs(total_here)):
            converged = True
            break
        pan.add(lambda t: t ** -1.5 * one_minus_prod(t), t_hi, 2.0 * t_hi)
        t_hi *= 2.0

    raw = pan.value + 2.0 / math.sqrt(t_hi)
    raw_err = pan.error + tail_err
    return _finish(pan, raw / _TWO_SQRT_PI, raw_err / _TWO_SQRT_PI, converged, cfg)


def sphere_mean_sqrt_qform(q: Sequence[float], cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Mean of sqrt(sum q_i^2 u_i^2) over S^(n-1), i.e. iso ratio / n."""
    cfg = cfg or QuadConfig()
    q = _validate_q(q)
    factor = geometry.gamma_half_ratio(q.size, 1)
    base = sqrt_qform_moment(q, cfg)
    return QuadResult(value=factor * base.value, est_error=factor * base.est_error,
                      evals=base.evals, converged=base.converged)


def iso_ratio_quad(e: Ellipsoid, cfg: Optional[QuadConfig] = None) -> Estimate:
    """Isoperimetric ratio R = n * gamma_half_ratio(n,1) * E[sqrt(...)]."""
    base = sphere_mean_sqrt_qform(e.inverse_axes(), cfg)
    return Estimate(value=e.n * base.value, abs_error=e.n * base.est_error,
                    method="laplace", evals=base.evals, seed=None,
                    converged=base.converged)


def _alpha_sum_term(q2: np.ndarray, alpha: float, z: float) -> float:
    return float((q2 / (2.0 * (1.0 + alpha * z * q2))).sum())


def alpha_integral_corrected(q: Sequence[float], alpha: float,
                             cfg: Optional[QuadConfig] = None) -> QuadResult:
    """sqrt(alpha) * integral_0^inf z^(-1/2) * S(z) * P(z) dz with
    S(z) = sum_j q_j^2 / (2 (1 + alpha z q_j^2)) and the corrected
    product P(z) = prod_j (1 + alpha q_j^2 z)^(-1/2).

    This equals sqrt(pi) * E[sqrt(sum q_j^2 X_j^2)] for every admissible
    alpha, which the test suite checks against :func:`sqrt_qform_moment`.
    """
    cfg = cfg or QuadConfig()
    q = _validate_q(q)
    check_alpha_admissible(q, alpha)
    q2 = np.sort(q * q)[::-1].copy()
    aq2 = alpha * q2
    n = q2.size
    q2_min = float(q2.min())

    def h(z: float) -> float:
        s = _alpha_sum_term(q2, alpha, z)
        p = math.exp(-0.5 * _kernels.sum_log1p(aq2, z))
        return z ** -0.5 * s * p

    pan = _Panels(cfg)

    def first(w: float) -> float:
        z = w * w
        s = _alpha_sum_term(q2, alpha, z)
        p = math.exp(-0.5 * _kernels.sum_log1p(aq2, z))
        return 2.0 * s * p

    pan.add(first, 0.0, 1.0)

    z_hi = 1.0
    converged = False
    tail_err = math.inf
    while not pan.exhausted:
        # S(z) <= n/(2 alpha z) and P(z) <= (1 + alpha q2_min z)^(-n/2)
        log_tail = (math.log(n / alpha)
                    - 0.5 * n * math.log1p(alpha * q2_min * z_hi)
                    - 0.5 * math.log(z_hi))
        tail_err = math.exp(log_tail) if log_tail > -700 else 0.0
        if tail_err <= 0.25 * (cfg.abs_tol + cfg.rel_tol * abs(pan.value)):
            converged = True
            break
        pan.add(h, z_hi, 2.0 * z_hi)
        z_hi *= 2.0

    value = math.sqrt(alpha) * pan.value
    err = math.sqrt(alpha) * (pan.error + tail_err)
    return _finish(pan, value, err, converged, cfg)


def alpha_integral_as_printed(q: Sequence[float], alpha: float,
                              cfg: Optional[QuadConfig] = None) -> QuadResult:
    """The same integral with the product term read as
    prod_j (1 - q_j^2 z)^(-1/2), taken literally.

    That product is only real for z < 1/max(q_j^2), so the integral is
    evaluated over the largest real prefix [0, 1/max q_j^2).  When the
    maximal q_j is repeated the integrand is non-integrable at the right
    endpoint and the result is flagged unconverged.  Documentation
    evaluator only; compare with :func:`alpha_integral_corrected`.
    """
    cfg = cfg or QuadConfig()
    q = _validate_q(q)
    check_alpha_admissible(q, alpha)
    q2 = np.sort(q * q)[::-1].copy()
    q2_max = float(q2.max())
    z_max = 1.0 / q2_max
    # residuals 1 - q_j^2 * z_max, exact zero at every maximal index
    c = 1.0 - q2 * z_max
    c[q2 == q2_max] = 0.0
    degenerate = int((q2 == q2_max).sum()) > 1

    mid = 0.5 * z_max
    pan = _Panels(cfg)

    def left(w: float) -> float:
        z = w * w
        s = _alpha_sum_term(q2, alpha, z)
        p = math.exp(-0.5 * float(np.log(1.0 - q2 * z).sum()))
        return 2.0 * s * p

    pan.add(left, 0.0, math.sqrt(mid))

    def right(u: float) -> float:
        # z = z_max - u^2, with 1 - q_j^2 z = c_j + q_j^2 u^2 held in
        # factored form so the vanishing residual stays exact
        z = z_max - u * u
        s = _alpha_sum_term(q2, alpha, z)
        logs = float(np.log(c + q2 * (u * u)).sum())
        return 2.0 * u * z ** -0.5 * s * math.exp(-0.5 * logs)

    pan.add(right, 0.0, math.sqrt(z_max - mid))

    value = math.sqrt(alpha) * pan.value
    err = math.sqrt(alpha) * pan.error
    return _finish(pan, value, err, not degenerate, cfg)
