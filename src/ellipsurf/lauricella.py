"""Lauricella hypergeometric function F_D and the surface-area identity.

F_D(a; b_1..b_n; c; x_1..x_n) is evaluated two independent ways:

* :func:`fd_series` sums the power series by total-degree shells.  Shell
  s is (a)_s / (c)_s * c_s with c_s = [y^s] prod_i (1 - x_i y)^(-b_i); the
  log of that product is sum_m p_m y^m / m with p_m = sum_i b_i x_i^m, so
  s c_s = sum_(m=1..s) p_m c_(s-m).  |c_s| <= (B)_s r^s / s! with
  B = sum |b_i| and r = max |x_i|, so the recurrence runs on x / r and on
  c_s divided by (B)_s / s!, which stay within 1 where c_s overflows;
  (a)_s (B)_s r^s / ((c)_s s!) is summed in logs.

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
evaluates by default; its series route (:func:`_weighted_series`) sums
them as one series and stays the independent check.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Ellipsoid, Estimate, gamma_half_ratio, scaled_inverse_axes
from .quadrature import (_ROUNDING_FLOOR, QuadResult, _check_tol, _de_quad, _tanh_sinh,
                         _tau_end, alpha_integral_corrected, check_alpha_admissible,
                         default_alpha)

#: Largest total degree either series sums.
_MAX_DEGREE = 2000


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


def _product_coeffs(b: np.ndarray, x: np.ndarray, degree: int) -> np.ndarray:
    """c_s s! / (B)_s for s = 0..degree, as in the module docstring (B = 1 if b = 0)."""
    big_b = float(np.abs(b).sum()) or 1.0
    p, c, d = np.empty(degree + 1), np.ones(degree + 1), np.ones(degree + 1)
    for s in range(1, degree + 1):
        b = b * x  # b_i x_i^s
        p[s] = b.sum()
        d[:s] *= s / (big_b + s - 1)  # d[j] = c_j s! (B)_j / (j! (B)_s)
        c[s] = d[s] = np.dot(p[s:0:-1], d[:s]) / s
    return c


def _pochhammer_ratio(num: tuple, den: tuple, degree: int, rate: float = 1.0) -> np.ndarray:
    """rate^s prod_i (num_i)_s / prod_j (den_j)_s for s = 0..degree from summed
    logs, since its factors alone overflow float64; zero once a num_i + s is."""
    s = np.arange(degree)
    with np.errstate(divide="ignore", over="ignore"):
        log_mag = (math.log(rate) + sum(np.log(np.abs(v + s)) for v in num)
                   - sum(np.log(np.abs(v + s)) for v in den))
        sign = np.prod([np.sign(v + s) for v in num + den], axis=0)
        return np.concatenate(([1.0], np.cumprod(sign) * np.exp(np.cumsum(log_mag))))


def _shell_sum(terms: np.ndarray, tail: float, tol: float) -> QuadResult:
    """Sum the shells; claim the tail plus the quadrature rounding floor."""
    value = float(terms.sum())
    error = float(tail + _ROUNDING_FLOOR * abs(value))
    return QuadResult(value=value, est_error=error, evals=terms.size,
                      converged=math.isfinite(value) and error <= tol * abs(value))


def fd_series(p: FdParams, tol: float = 1e-12) -> QuadResult:
    """Sum the F_D power series by total-degree shells, to a proved tail.

    Shell s is at most beta_s = |(a)_s (B)_s r^s / ((c)_s s!)|, with B and r
    as in the module docstring.  Once a + D, c + D > 0, beta_(s+1) / beta_s
    <= rho_D = r max(1, (a+D)/(c+D)) max(1, (B+D)/(D+1)) for all s >= D, so the
    shells past D sum to at most beta_(D+1) / (1 - rho_D).  D doubles from 64 up
    to ``_MAX_DEGREE`` until that tail plus the rounding floor is at most
    tol |value|; ``evals`` counts the shells summed last.
    """
    _check_tol(tol)
    x = np.asarray(p.x)
    if (np.abs(x) >= 1.0).any():
        j = int(np.argmax(np.abs(x) >= 1.0))
        raise ValueError(f"series route requires |x_i| < 1; |x_{j + 1}| = {abs(p.x[j])!r}")
    if p.c <= 0 and p.c == round(p.c):
        raise ValueError(f"c must not be a nonpositive integer, got {p.c}")
    b = np.asarray(p.b)
    r, big_b = float(np.abs(x).max()), float(np.abs(b).sum()) or 1.0
    degree = min(64, _MAX_DEGREE)
    while True:
        s = degree + 1
        ratios = _pochhammer_ratio((p.a, big_b), (p.c, 1.0), s, r or 1.0)
        beta = abs(ratios[-1]) if r else 0.0
        rho = r * max(1.0, (p.a + degree) / (p.c + degree)) * max(1.0, (big_b + degree) / s)
        proved = p.a + degree > 0 and p.c + degree > 0 and rho < 1.0
        res = _shell_sum(ratios[:-1] * _product_coeffs(b, x / (r or 1.0), degree),
                         beta / (1.0 - rho) if proved else (math.inf if beta else 0.0), tol)
        if res.converged or degree >= _MAX_DEGREE:
            return res
        degree = min(2 * degree, _MAX_DEGREE)


def fd_integral(p: FdParams, tol: float = 1e-12) -> QuadResult:
    """Evaluate F_D through its 1-D Euler-type integral.

    Requires a > 0 and c - a > 0, and every x_i < 1 so the integrand has
    no pole on [0, 1].
    """
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
    return _de_quad(g, -_tau_end(math.pi * a), _tau_end(math.pi * (c - a)), p.n, tol,
                    scale=pref)


def _weighted_series(q2: np.ndarray, alpha: float, tol: float) -> QuadResult:
    """sum_j q2_j F_D(1/2; 1/2 + delta_1j..1/2 + delta_nj; n/2 + 1; 1 - alpha q2).

    Shell s is (1/2)_s / (n/2 + 1)_s [y^s] P(y) W(y), P = prod_i (1 - x_i y)^(-1/2),
    W = sum_j q2_j / (1 - x_j y).  Each term's exponents add up to n/2 + 1, so shell
    s is at most sum q2 r^s; as R >= n min q bounds the value below, the degree D
    whose tail sum q2 r^(D+1) / (1 - r) meets tol is fixed before any shell is summed.
    With q2_j = (1 - x_j) / alpha, W = (n - 2 (1 - y) P'/P) / alpha, so shell s is
    (n / alpha) (1/2)_s / s! (c_s - c_(s+1)) in the scaled coefficients c of P.
    """
    n = q2.size
    x = 1.0 - alpha * q2
    r = float(np.abs(x).max())
    weight = float(q2.sum())
    budget = (tol - _ROUNDING_FLOOR) * n * math.sqrt(q2.min() / alpha) * (1.0 - r) / weight
    if r > 0.0 and budget > 0.0:
        degree = min(_MAX_DEGREE, max(0, math.ceil(math.log(budget, r)) - 1))
    else:
        degree = 0 if r == 0.0 else _MAX_DEGREE
    c = _product_coeffs(np.full(n, 0.5), x, degree + 1)
    return _shell_sum((n / alpha) * _pochhammer_ratio((0.5,), (1.0,), degree) * (c[:-1] - c[1:]),
                      weight * r ** (degree + 1) / (1.0 - r) if r < 1.0 else math.inf, tol)


def iso_ratio_lauricella(e: Ellipsoid, alpha: Optional[float] = None,
                         route: str = "integral",
                         tol: float = 1e-12) -> Estimate:
    """Isoperimetric ratio through the F_D identity.

    ``route="integral"`` returns n * gamma_half_ratio(n, 1) * A / sqrt(pi)
    with A = alpha_integral_corrected(q, alpha), the n Euler integrals
    collapsed into one; ``route="series"`` sums the n series as one, on the
    descending squares so its bits ignore the axis order, with ``evals``
    its shells.  Both are alpha-invariant for admissible alpha, so a
    caller's alpha is only checked.  Both run on q / max q and multiply by
    max q once: the integral at alpha = 1, the series at
    :func:`default_alpha` of q / max q, or at alpha * max q^2 if given.
    """
    _check_tol(tol)
    if route not in ("series", "integral"):
        raise ValueError(f"route must be 'series' or 'integral', got {route!r}")
    if alpha is not None:
        check_alpha_admissible(e.inverse_axes(), alpha)
    m, q_hat = scaled_inverse_axes(e.inverse_axes())
    if route == "integral":
        res = alpha_integral_corrected(q_hat, 1.0, tol)
        scale = e.n * gamma_half_ratio(e.n, 1) / math.sqrt(math.pi) * m
    else:
        alpha_hat = default_alpha(q_hat) if alpha is None else alpha * m * m
        res = _weighted_series(np.sort(q_hat * q_hat)[::-1], alpha_hat, tol)
        scale = m * math.sqrt(alpha_hat)
    return Estimate(value=scale * res.value, abs_error=scale * res.est_error,
                    method="lauricella", evals=res.evals, seed=None,
                    converged=res.converged)
