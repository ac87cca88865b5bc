"""Independent oracles used only by the test suite.

These deliberately avoid every code path under test: complete elliptic
integrals come from the arithmetic-geometric mean iteration, the 3-D
ellipsoid surface area from the classical incomplete-elliptic-integral
formula (scipy's Legendre-form functions), the Gauss hypergeometric
value from a direct power-series sum, and the isoperimetric ratio at any
n from a 30-digit mpmath quadrature of the Laplace identity.
"""

import math
import sys

import mpmath as mp
import numpy as np
import scipy.special as sp


#: AGM stopping tolerance, two float64 ulps: a and b can settle an ulp
#: apart and stay there, so a finer test never ends.
AGM_TOL = 2 * sys.float_info.epsilon


def agm_complete_k(m: float, tol: float = AGM_TOL) -> float:
    """Complete elliptic integral K(m), parameter m = k^2, by AGM."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"need 0 <= m < 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    while abs(a - b) > tol * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def agm_complete_e(m: float, tol: float = AGM_TOL) -> float:
    """Complete elliptic integral E(m), parameter m = k^2, by AGM.

    Uses E = K * (1 - sum_k 2^(k-1) c_k^2) with c_0^2 = m.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"need 0 <= m < 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    c2_sum = 0.5 * m
    k = 0
    while abs(a - b) > tol * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        k += 1
        c2_sum += 2.0 ** (k - 1) * c * c
    return (math.pi / (2.0 * a)) * (1.0 - c2_sum)


def ellipse_perimeter(a: float, b: float) -> float:
    """Perimeter of an ellipse with semi-axes a, b: 4 * max * E(ecc^2)."""
    hi, lo = max(a, b), min(a, b)
    m = 1.0 - (lo / hi) ** 2
    return 4.0 * hi * agm_complete_e(m)


def ellipsoid_surface_3d(axes) -> float:
    """Surface area of a 3-D ellipsoid with distinct semi-axes.

    Classical formula for a > b > c:
        S = 2 pi c^2 + (2 pi a b / sin phi)
            * (E(phi|m) sin^2 phi + F(phi|m) cos^2 phi)
    with cos phi = c/a and m = a^2 (b^2 - c^2) / (b^2 (a^2 - c^2)).
    """
    a, b, c = sorted(axes, reverse=True)
    if not a > b > c > 0:
        raise ValueError(f"needs three distinct positive axes, got {axes}")
    phi = math.acos(c / a)
    m = (a * a * (b * b - c * c)) / (b * b * (a * a - c * c))
    big_f = sp.ellipkinc(phi, m)
    big_e = sp.ellipeinc(phi, m)
    s = math.sin(phi)
    return 2 * math.pi * c * c + (2 * math.pi * a * b / s) * (
        big_e * s * s + big_f * math.cos(phi) ** 2
    )


def gauss_2f1(a: float, b: float, c: float, x: float, terms: int = 500) -> float:
    """2F1(a, b; c; x) by its plain power series (|x| < 1)."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
        if abs(term) < 1e-17 * max(abs(total), 1.0):
            total += term
            break
    return total


def sphere_coordinate_moment(n: int, p: int) -> float:
    """E[|u_1|^p] over S^(n-1), via Beta-function moments.

    |u_1|^2 is Beta(1/2, (n-1)/2) distributed, so
    E[|u_1|^p] = Gamma((p+1)/2) Gamma(n/2) / (Gamma(1/2) Gamma((n+p)/2)).
    """
    return math.exp(
        math.lgamma(0.5 * (p + 1)) + math.lgamma(0.5 * n)
        - math.lgamma(0.5) - math.lgamma(0.5 * (n + p))
    )


def sphere_mean_brute_2d(f, points: int = 2_000_001) -> float:
    """Mean of f over the unit circle by the trapezoid rule on the angle."""
    theta = np.linspace(0.0, 2.0 * math.pi, points)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    v = f(u)
    return float(np.trapezoid(v, theta) / (2.0 * math.pi))


def iso_ratio_mpmath(axes, dps: int = 30) -> float:
    """Isoperimetric ratio R = surface / volume to about 30 digits.

    R = n Gamma(n/2) / Gamma((n+1)/2) * E[sqrt(sum q_i^2 X_i^2)] with
    variance-1/2 Gaussian X_i, and the expectation is the Laplace
    identity (1 / (2 sqrt(pi))) * integral_0^inf t^(-3/2)
    * (1 - prod_i (1 + q_i^2 t)^(-1/2)) dt.  Under t = exp(s) the
    integrand decays exponentially at both ends; mpmath's tanh-sinh rule
    integrates it between breakpoints at every scale s = log(1/q_i^2),
    the first of them at 1/max q^2.
    """
    with mp.workdps(dps):
        q2 = [1 / mp.mpf(a) ** 2 for a in axes]
        n = len(q2)

        def integrand(s):
            t = mp.exp(s)
            return -mp.expm1(-sum(mp.log1p(c * t) for c in q2) / 2) / mp.sqrt(t)

        points = [-mp.inf] + sorted(set(-mp.log(c) for c in q2)) + [mp.inf]
        integral, err = mp.quad(integrand, points, error=True)
        if err > mp.mpf(10) ** (5 - dps) * integral:
            raise ArithmeticError(f"mpmath quadrature error {err} on {integral}")
        moment = integral / (2 * mp.sqrt(mp.pi))
        return float(n * mp.gamma(mp.mpf(n) / 2) / mp.gamma(mp.mpf(n + 1) / 2) * moment)


def iso_ratio_spheroid(A: float, B: float, k: int, n: int, dps: int = 30) -> float:
    """Isoperimetric ratio for inverse semi-axes q = A on k coordinates and
    q = B >= A on the other n - k, to about 30 digits.

    R = n * E[|q u|] over the unit sphere.  With T the sum of u_i^2 over
    the k coordinates, T is Beta(k/2, (n-k)/2) distributed and
    |q u| = B sqrt(1 - (1 - (A/B)^2) T), so
    R = n B 2F1(-1/2, k/2; n/2; 1 - (A/B)^2), summed by mpmath's hyp2f1.
    """
    if not 0 < A <= B or not 0 < k <= n:
        raise ValueError(f"needs 0 < A <= B and 0 < k <= n, got {A, B, k, n}")
    with mp.workdps(dps):
        A, B = mp.mpf(A), mp.mpf(B)
        return float(n * B * mp.hyp2f1(-mp.mpf(1) / 2, mp.mpf(k) / 2, mp.mpf(n) / 2,
                                       1 - (A / B) ** 2))
