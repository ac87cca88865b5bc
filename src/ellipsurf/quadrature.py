"""Deterministic evaluation of E[sqrt(sum q_i^2 X_i^2)] by 1-D quadrature.

The backbone identity, for X_i independent Gaussians with variance 1/2
and Y = sum q_i^2 X_i^2:

    E[sqrt(Y)] = (1 / (2 sqrt(pi))) * integral_0^inf t^(-3/2)
                 * (1 - prod_j (1 + q_j^2 t)^(-1/2)) dt

since E[exp(-tY)] = prod_j (1 + q_j^2 t)^(-1/2).  The product is always
computed as exp(-0.5 * sum log1p(q_j^2 t)) so that n ~ 1e6 neither
overflows nor underflows.

Integration rule.  Every integral of the package is one trapezoid sum
in a variable tau after a double-exponential change of variable
(Takahasi & Mori 1974; Trefethen & Weideman, SIAM Review 2014):

* a half-line integral in t runs in s = log t under the sinh map
  s = c + 2 sinh(tau).  The integrands here decay like exp(-|s - c|/2)
  at both ends, so the nodes cluster where the integrand lives once the
  centre c sits at its scale.  E[sqrt(Y)] is 1-homogeneous in q, so q
  is divided by max q first and c = -log sum (q_j / max q)^2;
* a finite integral over u in [0, 1] runs under the tanh-sinh map
  u = (1 + tanh(pi/2 sinh(tau))) / 2, with log u and log(1 - u) each
  computed from tau directly, so an algebraic endpoint factor
  u^(a-1) (1-u)^(b-1) is exact even where 1 - u rounds to zero.

The tau interval ends where the transformed integrand has fallen by
exp(-40), rounded out to the first step.  The step starts at h = 1/2 and
halves; each level adds only the odd multiples of the new step, cut
into blocks of nodes of at most about 2^20 float64 elements
(_kernels.BLOCK_ELEMENTS), so at n = 1e6 a block is one node.  The
blocks of a level run on the worker pool of :func:`_kernels.ordered_map`.
A node's value does not depend on the block it falls in, so neither the
block size nor the thread count changes the bits.  The error estimate of
the finer sum T_(h/2) is |T_h - T_(h/2)|, plus the edge-node terms, plus a
float64 rounding floor of 1024 eps |value| (2.3e-13 relative), which
no tolerance below it can get past.

The module also evaluates two variants of an alternative alpha-
parameterized integral for the same quantity: one with the product term
as it is sometimes (mis)printed, (1 - q_j^2 z)^(-1/2), which is only
real on a prefix of the half line, and a corrected reading with
(1 + alpha q_j^2 z)^(-1/2), which is alpha-free and matches the
backbone identity.  The as-printed variant exists to document the
discrepancy, not to be trusted.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from . import geometry
from .geometry import Ellipsoid, Estimate

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)

#: Relative error the rule can claim at best, for float64 rounding in
#: the integrands and node sums.  Against a 30-digit oracle, over n = 1..8
#: and axes log-uniform on [1e-8, 1e8], the worst errors seen were
#: 7.9e-15 (laplace) and 6.2e-14 (lauricella); the floor stays below a
#: quarter of the default rel_tol 1e-12.
_ROUNDING_FLOOR = 1024 * np.finfo(np.float64).eps

#: First trapezoid step in tau.
_H0 = 0.5

#: The tau interval ends where the integrand has decayed by exp(-_DECAY).
_DECAY = 40.0


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the quadrature evaluators.

    ``max_subdivisions`` bounds the refinement: the trapezoid step halves
    from 1/2 only while it stays at least 1/max_subdivisions, so at most
    max_subdivisions nodes fall on each unit of tau.
    """

    rel_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.rel_tol >= 1e-15:
            raise ValueError(f"rel_tol must be >= 1e-15, got {self.rel_tol}")
        if self.max_subdivisions < 10:
            raise ValueError(f"max_subdivisions must be >= 10, got {self.max_subdivisions}")


@dataclass(frozen=True)
class QuadResult:
    """Value with an error estimate, an eval count, and a convergence flag.

    When ``converged`` is set, est_error <= rel_tol*|value|.
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
    # with alpha > 0 and q > 0, only alpha*q^2 < 2 is left to test, as
    # gamma q_hat^2 with gamma = alpha m^2 and q_hat = q / m <= 1, so no
    # array square overflows; an alpha*q^2 that underflows to 0 is still
    # admissible.  A gamma that overflows fails at q_hat = 1, and its
    # product with a q_hat^2 that underflowed is nan, which >= skips.
    m, q_hat = geometry.scaled_inverse_axes(q)
    with np.errstate(invalid="ignore"):
        aq2 = (float(alpha) * m * m) * (q_hat * q_hat)
    bad = aq2 >= 2.0
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(
            f"alpha={alpha} is inadmissible: |1 - alpha*q_{j + 1}^2| = "
            f"{float(abs(1.0 - aq2[j]))!r} >= 1"
        )
    return 1.0 - aq2


def _scaled_q2(q: Sequence[float]):
    """(max q, (q / max q)^2 in descending order), from
    :func:`geometry.scaled_inverse_axes`, which also validates q.

    The canonical order makes every result exactly permutation invariant
    instead of invariant up to summation-order ulps.
    """
    m, q_hat = geometry.scaled_inverse_axes(q)
    return m, np.sort(q_hat * q_hat)[::-1].copy()


def _tau_end(rate: float) -> float:
    """End of the tau interval for an integrand decaying like
    exp(-rate * sinh|tau|), rounded out to the first step."""
    return _H0 * math.ceil(math.asinh(_DECAY / rate) / _H0)


def _tanh_sinh(tau: np.ndarray):
    """(log u, log(1 - u), log du/dtau) for u = (1 + tanh(pi/2 sinh tau)) / 2.

    With 2 sigma = pi sinh(tau), u = 1/(1 + exp(-2 sigma)) and
    1 - u = 1/(1 + exp(2 sigma)); neither is formed as a difference.
    An integrand that behaves like u^a near 0 and (1-u)^b near 1 decays
    like exp(-pi a sinh|tau|) and exp(-pi b sinh|tau|) in tau.
    """
    two_sigma = math.pi * np.sinh(tau)
    log_u = -np.logaddexp(0.0, -two_sigma)
    log_v = -np.logaddexp(0.0, two_sigma)
    return log_u, log_v, np.log(math.pi * np.cosh(tau)) + log_u + log_v


def _de_quad(g, lo: float, hi: float, width: int, cfg: QuadConfig,
             scale: float = 1.0) -> QuadResult:
    """scale * integral of g(tau) over [lo, hi] by the nested trapezoid rule
    (scale > 0).

    ``g`` maps a vector of tau to the transformed integrand at each node
    and is called on blocks of at most _kernels.BLOCK_ELEMENTS // width
    nodes, ``width`` being the float64 elements one node costs, on the
    worker threads of :func:`_kernels.ordered_map`.  ``lo`` and ``hi``
    are multiples of the first step.
    """
    block = max(1, _kernels.BLOCK_ELEMENTS // width)

    def nodes(tau):
        if tau.size <= block:
            return g(tau)
        return np.concatenate(_kernels.ordered_map(
            g, [tau[i:i + block] for i in range(0, tau.size, block)]))

    h = _H0
    count = int(round((hi - lo) / h))
    first = nodes(lo + h * np.arange(count + 1))
    edge = float(abs(first[0]) + abs(first[-1]))
    total = float(first.sum())
    evals = count + 1
    value = scale * h * total
    while True:
        h *= 0.5
        total += float(nodes(lo + h * np.arange(1, 2 * count, 2)).sum())
        evals += count
        count *= 2
        fine = scale * h * total
        discretization = abs(fine - value) + scale * h * edge
        value = fine
        floor = _ROUNDING_FLOOR * abs(value)
        target = cfg.rel_tol * abs(value)
        converged = discretization + floor <= target
        if (converged or not math.isfinite(value) or h * cfg.max_subdivisions < 2.0
                # the floor alone misses the tolerance, and halving only
                # shrinks the discretization term
                or (floor > target and discretization <= floor)):
            return QuadResult(value=float(value), est_error=float(discretization + floor),
                              evals=evals, converged=bool(converged))


def sqrt_qform_moment(q: Sequence[float], cfg: Optional[QuadConfig] = None) -> QuadResult:
    """E[sqrt(sum q_i^2 X_i^2)] for variance-1/2 Gaussian X_i.

    Deterministic counterpart of the Monte Carlo estimate
    ``gaussian_mean_mc(sqrt_qform_fn(q), ...)``; the identity against
    that brute-force route is exercised in the test suite.
    """
    cfg = cfg or QuadConfig()
    m, q2 = _scaled_q2(q)
    centre = -math.log(float(q2.sum()))

    # t^(-3/2) (1 - prod) dt = t^(-1/2) (1 - prod) ds with s = log t
    def g(tau):
        s = centre + 2.0 * np.sinh(tau)
        one_minus_prod = -np.expm1(-0.5 * _kernels.sum_log1p(q2, np.exp(s)))
        return np.exp(-0.5 * s) * one_minus_prod * (2.0 * np.cosh(tau))

    end = _tau_end(1.0)
    return _de_quad(g, -end, end, q2.size, cfg, scale=m / _TWO_SQRT_PI)


def sphere_mean_sqrt_qform(q: Sequence[float], cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Mean of sqrt(sum q_i^2 u_i^2) over S^(n-1), i.e. iso ratio / n."""
    base = sqrt_qform_moment(q, cfg)
    factor = geometry.gamma_half_ratio(np.size(q), 1)
    return QuadResult(value=factor * base.value, est_error=factor * base.est_error,
                      evals=base.evals, converged=base.converged)


def iso_ratio_quad(e: Ellipsoid, cfg: Optional[QuadConfig] = None) -> Estimate:
    """Isoperimetric ratio R = n * gamma_half_ratio(n,1) * E[sqrt(...)]."""
    base = sphere_mean_sqrt_qform(e.inverse_axes(), cfg)
    return Estimate(value=e.n * base.value, abs_error=e.n * base.est_error,
                    method="laplace", evals=base.evals, seed=None,
                    converged=base.converged)


def alpha_integral_corrected(q: Sequence[float], alpha: float,
                             cfg: Optional[QuadConfig] = None) -> QuadResult:
    """sqrt(alpha) * integral_0^inf z^(-1/2) * S(z) * P(z) dz with
    S(z) = sum_j q_j^2 / (2 (1 + alpha z q_j^2)) and the corrected
    product P(z) = prod_j (1 + alpha q_j^2 z)^(-1/2).

    This equals sqrt(pi) * E[sqrt(sum q_j^2 X_j^2)] for every admissible
    alpha, which the test suite checks against :func:`sqrt_qform_moment`.
    """
    cfg = cfg or QuadConfig()
    m, q2 = _scaled_q2(q)
    check_alpha_admissible(q, alpha)
    # with q = m q_hat: alpha q^2 = gamma q_hat^2 and sqrt(alpha) m^2 = m sqrt(gamma)
    gamma = alpha * m * m
    aq2 = gamma * q2
    centre = -math.log(float(aq2.sum()))

    # z^(-1/2) S P dz = z^(1/2) S P ds with s = log z
    def g(tau):
        s = centre + 2.0 * np.sinh(tau)
        z = np.exp(s)
        block = np.multiply.outer(z, aq2)
        block += 1.0
        s_term = 0.5 * np.divide(q2, block, out=block).sum(axis=-1)
        prod = np.exp(-0.5 * _kernels.sum_log1p(aq2, z))
        return np.exp(0.5 * s) * s_term * prod * (2.0 * np.cosh(tau))

    end = _tau_end(1.0)
    return _de_quad(g, -end, end, q2.size, cfg, scale=m * math.sqrt(gamma))


def alpha_integral_as_printed(q: Sequence[float], alpha: float,
                              cfg: Optional[QuadConfig] = None) -> QuadResult:
    """The same integral with the product term read as
    prod_j (1 - q_j^2 z)^(-1/2), taken literally.

    That product is only real for z < 1/max(q_j^2), so the integral is
    evaluated over the largest real prefix [0, 1/max q_j^2), which
    z = u / max(q_j^2) maps onto u in [0, 1).  When the
    maximal q_j is repeated the integrand is non-integrable at the right
    endpoint and the result is flagged unconverged.  Documentation
    evaluator only; compare with :func:`alpha_integral_corrected`.
    """
    cfg = cfg or QuadConfig()
    m, q2 = _scaled_q2(q)
    check_alpha_admissible(q, alpha)
    # 1 - q_j^2 z = (1 - u) + u c_j with the residual c_j = 1 - (q_j / m)^2,
    # exactly zero at every maximal index, where (q_j / m)^2 is exactly 1
    c = 1.0 - q2
    degenerate = int((q2 == 1.0).sum()) > 1

    # z^(-1/2) S(z) P(z) dz = m u^(-1/2) S_hat(u) P(z) du, S_hat being S
    # on q / m
    def g(tau):
        log_u, log_v, log_du = _tanh_sinh(tau)
        u = np.exp(log_u)
        s_term = 0.5 * (q2 / (1.0 + alpha * np.multiply.outer(u, q2))).sum(axis=-1)
        log_prod = -0.5 * np.log(np.exp(log_v)[:, None] + np.multiply.outer(u, c)).sum(axis=-1)
        return s_term * np.exp(log_prod - 0.5 * log_u + log_du)

    # both ends behave like the square root of their distance
    end = _tau_end(0.5 * math.pi)
    res = _de_quad(g, -end, end, q2.size, cfg, scale=m * math.sqrt(alpha))
    return replace(res, converged=res.converged and not degenerate)
