"""Lauricella hypergeometric function F_D and the surface-area identity.

F_D(a; b_1..b_n; c; x_1..x_n) is evaluated two independent ways:

* :func:`fd_series` sums the multi-index power series by total-degree
  shells.  The shell sum of degree s is the coefficient of y^s in
  prod_i (1 - x_i y)^(-b_i), so it is assembled by convolving the n
  one-dimensional factor series instead of enumerating compositions;
  the factor coefficients follow the incremental Pochhammer recurrence
  and the shared ratio (a)_s / (c)_s is carried as a (sign, log) pair
  because (c)_s overflows float64 near shell 170.

* :func:`fd_integral` evaluates the Euler-type representation
  Gamma(c)/(Gamma(a)Gamma(c-a)) * integral_0^1 u^(a-1) (1-u)^(c-a-1)
  prod_i (1 - u x_i)^(-b_i) du by the tanh-sinh form of the package's
  one integration rule (see :mod:`ellipsurf.quadrature`).  log u and
  log(1 - u) come from the map directly, so the algebraic endpoint
  factors stay exact, and the tau interval at each end follows from
  the exponent there (a at u = 0, c - a at u = 1).

The isoperimetric ratio of an ellipsoid with inverse axes q is

    R = sqrt(alpha) * sum_j q_j^2
        * F_D(1/2; eta_1j..eta_nj; n/2 + 1; 1 - alpha q_1^2, ...)

with eta_ij = 1/2 + (1 if i == j else 0), valid (and alpha-free) for
any alpha with |1 - alpha q_j^2| < 1.  This constant was rederived here
from the moment-generating-function route because the commonly printed
prefactor n * Gamma(n/2)^2 / Gamma((n+1)/2)^2 with denominator
parameter (n+1)/2 fails the unit-ball check (it gives 9*pi/8 instead of
3 at n = 3); see docs/alpha_integral_discrepancy.md for the comparison.

Written as Euler integrals, the q_j^2-weighted sum of the n F_D values
collapses under z = u/(1 - u) into the one integral
:func:`~ellipsurf.quadrature.alpha_integral_corrected`, the Laplace
identity in another variable, which :func:`iso_ratio_lauricella`
evaluates by default; its series route stays the independent check.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Ellipsoid, Estimate, gamma_half_ratio, scaled_inverse_axes
from .quadrature import (QuadConfig, QuadResult, _de_quad, _tanh_sinh, _tau_end,
                         alpha_integral_corrected, check_alpha_admissible, default_alpha)


@dataclass(frozen=True)
class FdParams:
    """Argument bundle (a; b_1..b_n; c; x_1..x_n) of F_D."""

    a: float
    b: tuple
    c: float
    x: tuple

    def __init__(self, a: float, b: Sequence[float], c: float, x: Sequence[float]):
        b = tuple(float(v) for v in b)
        x = tuple(float(v) for v in x)
        if len(b) != len(x):
            raise ValueError(f"b and x must have equal length, got {len(b)} and {len(x)}")
        if len(b) < 1:
            raise ValueError("F_D needs at least one (b, x) pair")
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.b)


def eta_vector(n: int, j: int) -> np.ndarray:
    """The exponent vector (1/2 + delta_ij)_i for the j-th term."""
    if not 0 <= j < n:
        raise ValueError(f"j must be in [0, {n}), got {j}")
    b = np.full(n, 0.5)
    b[j] = 1.5
    return b


def _factor_coeffs(b: float, x: float, degree: int) -> np.ndarray:
    """Coefficients of (1 - x y)^(-b) up to y^degree: (b)_m x^m / m!."""
    out = np.empty(degree + 1)
    out[0] = 1.0
    g = 1.0
    for m in range(degree):
        g = g * (b + m) * x / (m + 1)
        out[m + 1] = g
    return out


def _shell_coeffs(p: FdParams, degree: int) -> np.ndarray:
    prod = _factor_coeffs(p.b[0], p.x[0], degree)
    for i in range(1, p.n):
        prod = np.convolve(prod, _factor_coeffs(p.b[i], p.x[i], degree))[:degree + 1]
    return prod


def _pochhammer_ratio(a: float, c: float, degree: int) -> np.ndarray:
    """(a)_s / (c)_s for s = 0..degree, via incremental (sign, log) pairs."""
    out = np.empty(degree + 1)
    out[0] = 1.0
    log_mag = 0.0
    sign = 1.0
    dead = False
    for s in range(degree):
        num = a + s
        if dead or num == 0.0:
            dead = True
            out[s + 1] = 0.0
            continue
        log_mag += math.log(abs(num)) - math.log(abs(c + s))
        sign *= math.copysign(1.0, num) * math.copysign(1.0, c + s)
        out[s + 1] = sign * math.exp(log_mag)
    return out


def fd_series(p: FdParams, tol: float = 1e-12, max_total_degree: int = 2000) -> QuadResult:
    """Sum the F_D power series by total-degree shells.

    Stops once the absolute shell contribution stays below
    tol * |partial sum| for two consecutive shells; if the degree budget
    runs out first, the partial value is returned with
    ``converged=False``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x_arr = np.asarray(p.x)
    if (np.abs(x_arr) >= 1.0).any():
        j = int(np.argmax(np.abs(x_arr) >= 1.0))
        raise ValueError(f"series route requires |x_i| < 1; |x_{j + 1}| = {abs(p.x[j])!r}")
    if p.c <= 0 and p.c == round(p.c):
        raise ValueError(f"c must not be a nonpositive integer, got {p.c}")

    degree = 64
    shells = _shell_coeffs(p, degree)
    ratios = _pochhammer_ratio(p.a, p.c, degree)

    partial = 0.0
    below = 0
    last = [0.0, 0.0]
    s = 0
    while s <= max_total_degree:
        if s > degree:
            degree = min(2 * degree, max_total_degree)
            shells = _shell_coeffs(p, degree)
            ratios = _pochhammer_ratio(p.a, p.c, degree)
        term = ratios[s] * shells[s]
        partial += term
        last[s % 2] = abs(term)
        if s >= 1 and abs(term) <= tol * max(abs(partial), 1e-300):
            below += 1
            if below >= 2:
                return QuadResult(value=partial, est_error=max(last),
                                  evals=s + 1, converged=True)
        else:
            below = 0
        s += 1
    return QuadResult(value=partial, est_error=max(last), evals=s, converged=False)


def fd_integral(p: FdParams, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Evaluate F_D through its 1-D Euler-type integral.

    Requires a > 0 and c - a > 0, and every x_i < 1 so the integrand has
    no pole on [0, 1].
    """
    cfg = cfg or QuadConfig()
    if not p.a > 0:
        raise ValueError(f"integral route requires a > 0, got a = {p.a}")
    if not p.c - p.a > 0:
        raise ValueError(f"integral route requires c - a > 0, got c - a = {p.c - p.a}")
    x_arr = np.asarray(p.x)
    if (x_arr >= 1.0).any():
        j = int(np.argmax(x_arr >= 1.0))
        raise ValueError(
            f"x_{j + 1} = {p.x[j]!r} >= 1 puts a pole inside the integration interval"
        )
    b_arr = np.asarray(p.b)
    one_minus_x = 1.0 - x_arr
    a, c = p.a, p.c

    # u^(a-1) (1-u)^(c-a-1) du = u^a (1-u)^(c-a) pi cosh(tau) dtau, and
    # 1 - u x_i = (1 - u) + u (1 - x_i) has no negative term for x_i < 1.
    # Exponents combine in log space before a single exp: with many
    # factors the product and the (1-u) power can each leave float64
    # range while their combination stays finite.
    def g(tau):
        log_u, log_v, log_du = _tanh_sinh(tau)
        base = np.multiply.outer(np.exp(log_u), one_minus_x)
        base += np.exp(log_v)[:, None]
        log_prod = -(b_arr * np.log(base)).sum(axis=-1)
        return np.exp((a - 1.0) * log_u + (c - a - 1.0) * log_v + log_prod + log_du)

    pref = math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a))
    return _de_quad(g, -_tau_end(math.pi * a), _tau_end(math.pi * (c - a)), p.n, cfg,
                    scale=pref)


def iso_ratio_lauricella(e: Ellipsoid, alpha: Optional[float] = None,
                         route: str = "integral",
                         cfg: Optional[QuadConfig] = None) -> Estimate:
    """Isoperimetric ratio through the F_D identity.

    ``route="integral"`` returns n * gamma_half_ratio(n, 1) * A / sqrt(pi)
    with A = alpha_integral_corrected(q, alpha), the n Euler integrals
    collapsed into one; ``route="series"`` sums the n series, the
    independent check where it converges.  Both are alpha-invariant for
    admissible alpha, so a caller's alpha is only checked.  Both routes
    run on q / max q and multiply by max q once: the integral at
    alpha = 1, the series at :func:`default_alpha` of q / max q, or at
    alpha * max q^2 when an alpha is given.
    """
    cfg = cfg or QuadConfig()
    n = e.n
    if route not in ("series", "integral"):
        raise ValueError(f"route must be 'series' or 'integral', got {route!r}")
    if alpha is not None:
        check_alpha_admissible(e.inverse_axes(), alpha)
    m, q_hat = scaled_inverse_axes(e.inverse_axes())
    if route == "integral":
        res = alpha_integral_corrected(q_hat, 1.0, cfg)
        scale = n * gamma_half_ratio(n, 1) / math.sqrt(math.pi) * m
        return Estimate(value=scale * res.value, abs_error=scale * res.est_error,
                        method="lauricella", evals=res.evals, seed=None,
                        converged=res.converged)
    alpha_hat = default_alpha(q_hat) if alpha is None else alpha * m * m
    q2 = q_hat * q_hat
    x = check_alpha_admissible(q_hat, alpha_hat)
    fs = [fd_series(FdParams(0.5, eta_vector(n, j), 0.5 * n + 1.0, x), tol=cfg.rel_tol)
          for j in range(n)]
    scale = m * math.sqrt(alpha_hat)
    return Estimate(value=scale * sum(w * f.value for w, f in zip(q2, fs)),
                    abs_error=scale * sum(w * f.est_error for w, f in zip(q2, fs)),
                    method="lauricella", evals=sum(f.evals for f in fs), seed=None,
                    converged=all(f.converged for f in fs))
