"""Deterministic evaluation of E[sqrt(sum q_i^2 X_i^2)] by 1-D quadrature.

The backbone identity, for X_i independent Gaussians with variance 1/2
and Y = sum q_i^2 X_i^2:

    E[sqrt(Y)] = (1 / (2 sqrt(pi))) * integral_0^inf t^(-3/2)
                 * (1 - prod_j (1 + q_j^2 t)^(-1/2)) dt

since E[exp(-tY)] = prod_j (1 + q_j^2 t)^(-1/2).  The product is always
computed as exp(-0.5 * sum log1p(q_j^2 t)) so that n ~ 1e6 neither
overflows nor underflows.

The sum over the axes.  With lam = (q / max q)^2, each integrand needs
S(t) = sum_j log1p(lam_j t) at every node, and the default lauricella
route also sum_j lam_j / (1 + lam_j t).  Both come from
:func:`_kernels.node_sums`, which picks the cheaper of two evaluations
for the given lam.  The direct sums cost O(n) per node.  Where
n > 512 + B K/2, B being the number of half-octaves of lam that hold a
value and K = 22, :class:`_kernels.BucketMeasure` is built once, in
K + 1 passes over n, and a node costs O(B K) instead.  Its truncation
is proved below 1.6e-19 (log1p) and 3.5e-18 (resolvent) of each
bucket's own sum, far below the rounding floor, so the error model is
unchanged.  Every n <= 512 keeps the direct sums.

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
(_kernels.BLOCK_ELEMENTS), a node holding n elements on the direct sums
and at most B (K + 2) on the measure, where a level is one block.  The
blocks of a level run on the worker pool of :func:`_kernels.ordered_map`.
A node's value does not depend on the block it falls in, so neither the
block size nor the thread count changes the bits.  The error estimate of
the finer sum T_(h/2) is |T_h - T_(h/2)|, plus the edge-node terms, plus a
float64 rounding floor of 1024 eps |value| (2.3e-13 relative), which
no tolerance below it can get past.

The module also evaluates an alternative alpha-parameterized integral
for the same quantity, with the product term read as
(1 + alpha q_j^2 z)^(-1/2); that reading is alpha-free and matches the
backbone identity.  The literal printed reading is evaluated only by
``scripts/gen_discrepancy_report.py``, which documents the discrepancy.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from . import geometry
from .geometry import Ellipsoid, Estimate

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)

#: Relative error the rule can claim at best, for float64 rounding in
#: the integrands and node sums.  Against a 30-digit oracle, over n = 1..8
#: and axes log-uniform on [1e-8, 1e8], the worst errors seen were
#: 7.9e-15 (laplace) and 6.2e-14 (lauricella); the floor stays below a
#: quarter of the default tol 1e-12.
_ROUNDING_FLOOR = 1024 * np.finfo(np.float64).eps

#: First trapezoid step in tau.
_H0 = 0.5

#: The tau interval ends where the integrand has decayed by exp(-_DECAY).
_DECAY = 40.0

#: Refinement budget: the trapezoid step halves from 1/2 only while it
#: stays at least 1/_MAX_SUBDIVISIONS, so at most that many nodes fall on
#: each unit of tau.
_MAX_SUBDIVISIONS = 200


def _check_tol(tol: float) -> None:
    """Reject a relative tolerance below 1e-15 (or nan)."""
    if not tol >= 1e-15:
        raise ValueError(f"tol must be >= 1e-15, got {tol}")


@dataclass(frozen=True)
class QuadResult:
    """Value with an error estimate, an eval count, and a convergence flag.

    When ``converged`` is set, est_error <= tol*|value|.
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


def _de_quad(g, lo: float, hi: float, width: int, tol: float,
             scale: float = 1.0) -> QuadResult:
    """scale * integral of g(tau) over [lo, hi] by the nested trapezoid rule
    (scale > 0).

    ``g`` maps a vector of tau to the transformed integrand at each node
    and is called on blocks of at most _kernels.BLOCK_ELEMENTS // width
    nodes, ``width`` being the float64 elements one node costs, on the
    worker threads of :func:`_kernels.ordered_map`.  ``lo`` and ``hi``
    are multiples of the first step.
    """
    _check_tol(tol)
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
        target = tol * abs(value)
        converged = discretization + floor <= target
        if (converged or not math.isfinite(value) or h * _MAX_SUBDIVISIONS < 2.0
                # the floor alone misses the tolerance, and halving only
                # shrinks the discretization term
                or (floor > target and discretization <= floor)):
            return QuadResult(value=float(value), est_error=float(discretization + floor),
                              evals=evals, converged=bool(converged))


def sqrt_qform_moment(q: Sequence[float], tol: float = 1e-12) -> QuadResult:
    """E[sqrt(sum q_i^2 X_i^2)] for variance-1/2 Gaussian X_i.

    Deterministic counterpart of the Monte Carlo estimate
    ``gaussian_mean_mc(sqrt_qform_fn(q), ...)``; the identity against
    that brute-force route is exercised in the test suite.
    """
    m, q2 = _scaled_q2(q)
    centre = -math.log(float(q2.sum()))
    sums = _kernels.node_sums(q2)

    # t^(-3/2) (1 - prod) dt = t^(-1/2) (1 - prod) ds with s = log t
    def g(tau):
        s = centre + 2.0 * np.sinh(tau)
        one_minus_prod = -np.expm1(-0.5 * sums.log1p_sum(np.exp(s)))
        return np.exp(-0.5 * s) * one_minus_prod * (2.0 * np.cosh(tau))

    end = _tau_end(1.0)
    return _de_quad(g, -end, end, sums.width, tol, scale=m / _TWO_SQRT_PI)


def iso_ratio_quad(e: Ellipsoid, tol: float = 1e-12) -> Estimate:
    """Isoperimetric ratio R = n * gamma_half_ratio(n,1) * E[sqrt(...)]."""
    base = sqrt_qform_moment(e.inverse_axes(), tol)
    factor = geometry.gamma_half_ratio(e.n, 1)
    return Estimate(value=e.n * (factor * base.value),
                    abs_error=e.n * (factor * base.est_error),
                    method="laplace", evals=base.evals, seed=None,
                    converged=base.converged)


def alpha_integral_corrected(q: Sequence[float], alpha: float,
                             tol: float = 1e-12) -> QuadResult:
    """sqrt(alpha) * integral_0^inf z^(-1/2) * S(z) * P(z) dz with
    S(z) = sum_j q_j^2 / (2 (1 + alpha z q_j^2)) and the corrected
    product P(z) = prod_j (1 + alpha q_j^2 z)^(-1/2).

    This equals sqrt(pi) * E[sqrt(sum q_j^2 X_j^2)] for every admissible
    alpha, which the test suite checks against :func:`sqrt_qform_moment`.
    """
    m, q2 = _scaled_q2(q)
    check_alpha_admissible(q, alpha)
    # with q = m q_hat: alpha q^2 = gamma q_hat^2 and sqrt(alpha) m^2 = m sqrt(gamma)
    gamma = alpha * m * m
    centre = -math.log(float((gamma * q2).sum()))
    sums = _kernels.node_sums(q2, gamma)

    # z^(-1/2) S P dz = z^(1/2) S P ds with s = log z
    def g(tau):
        s = centre + 2.0 * np.sinh(tau)
        z = np.exp(s)
        s_term = 0.5 * sums.resolvent_sum(z)
        log_sum = sums.log1p_sum(z)
        return np.exp(0.5 * s) * s_term * np.exp(-0.5 * log_sum) * (2.0 * np.cosh(tau))

    end = _tau_end(1.0)
    return _de_quad(g, -end, end, sums.width, tol, scale=m * math.sqrt(gamma))

