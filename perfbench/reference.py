"""Reference values for the benchmark, written without any ellipsurf code.

The isoperimetric ratio of the ellipsoid with semi-axes a_i (q_i = 1/a_i)
is

    R = n * Gamma(n/2) / Gamma((n+1)/2) * M,
    M = 1/(2 sqrt(pi)) * integral_R e^(-s/2) (1 - P(e^s)) ds,
    P(t) = prod_j (1 + q_j^2 t)^(-1/2),

the Laplace identity written over s = log t.  The integrand is analytic
in the strip |Im s| < pi and decays exponentially at both ends, so the
plain trapezoidal rule on s converges geometrically in 1/h.  Both tails
are summed in closed form as geometric series of the leading terms
(1 - P ~ S1 t / 2 for small t, 1 - P ~ 1 for large t), so no node is
spent where the integrand is a pure exponential.

Before any timed op, :func:`self_check` makes the reference reproduce
closed forms (R = n/a for balls, the 2-D perimeter and the 3-D
Legendre surface formula, both through mpmath elliptic integrals) and
an mpmath 30-digit quadrature at small n.
"""

import math

import numpy as np

#: Trapezoid step in s.  The error decays like exp(-2 pi d / h).  The
#: strip half-width d is pi for small n but shrinks towards pi/2 as n
#: grows, because P(e^s) then behaves like exp(-e^u) and blows up past
#: |Im u| = pi/2; 0.25 keeps exp(-pi^2 / h) below float64 rounding.
STEP = 0.25

#: The reference's own relative accuracy claim, used as slack in checks.
REL_ERR = 1e-13

#: log1p evaluations per block, bounding the scratch array to 32 MiB.
_BLOCK_ELEMS = 1 << 22


def _gamma_factor(n):
    """n Gamma(n/2) / Gamma((n+1)/2).

    Evaluated in mpmath: the float64 difference of two lgamma values
    near 5e5 (n = 1e6) already loses 1e-10 relative accuracy.
    """
    import mpmath as mp
    with mp.workdps(30):
        return float(n * mp.exp(mp.loggamma(mp.mpf(n) / 2) - mp.loggamma(mp.mpf(n + 1) / 2)))


def _moment(q2):
    """M for q2 = q^2 normalised so that max q2 == 1."""
    h = STEP
    s1 = float(q2.sum())
    s_lo = -math.log(s1) - 44.0
    # lower tail: sum_{k<0} h * (S1/2) e^(s_k/2), geometric in e^(-h/2)
    r = math.exp(-0.5 * h)
    total = h * 0.5 * s1 * math.exp(0.5 * s_lo) * r / (1.0 - r)
    block = max(8, min(256, _BLOCK_ELEMS // q2.size))
    k0 = 0
    while True:
        s = s_lo + h * np.arange(k0, k0 + block)
        logs = np.log1p(np.multiply.outer(np.exp(s), q2)).sum(axis=1)
        decay = np.exp(-0.5 * s)
        total += h * float((decay * -np.expm1(-0.5 * logs)).sum())
        # stop once the P part of the last node is negligible; beyond it
        # the integrand is e^(-s/2), whose node sum is geometric
        last = decay[-1] * math.exp(-0.5 * logs[-1])
        if last <= 1e-19 * total:
            total += h * decay[-1] * r / (1.0 - r)
            return total / (2.0 * math.sqrt(math.pi))
        k0 += block


def iso_ratio(axes):
    """Reference isoperimetric ratio S/V of the ellipsoid with these semi-axes."""
    a = np.asarray(axes, dtype=np.float64)
    q = 1.0 / a
    qmax = float(q.max())
    q2 = (q / qmax) ** 2
    return _gamma_factor(a.size) * qmax * _moment(q2)


def plain_mc_variance(axes, ratio):
    """Per-sample variance of n * sqrt(sum q^2 u^2), u uniform on the sphere.

    E[sum q^2 u^2] = sum q^2 / n, so the variance is n * sum q^2 - R^2.
    """
    q = 1.0 / np.asarray(axes, dtype=np.float64)
    return max(q.size * math.fsum(q * q) - ratio * ratio, 0.0)


def concentration(axes):
    """sum q^4 / (sum q^2)^2, the asymptotic formula's applicability ratio."""
    q = 1.0 / np.asarray(axes, dtype=np.float64)
    q2 = (q / q.max()) ** 2
    return math.fsum(q2 * q2) / math.fsum(q2) ** 2


def l2_bounds(axes):
    """The two-sided sandwich on R/n: Gamma ratio times ||q||_2 times
    1/sqrt(pi) (lower) and 3/2 (upper)."""
    a = np.asarray(axes, dtype=np.float64)
    n = a.size
    q = 1.0 / a
    qmax = float(q.max())
    l2 = qmax * math.sqrt(math.fsum((q / qmax) ** 2))
    g = _gamma_factor(n) / n
    return g * l2 / math.sqrt(math.pi), 1.5 * g * l2


def _mp_perimeter_ratio(a, b):
    import mpmath as mp
    a, b = max(a, b), min(a, b)
    perimeter = 4 * a * mp.ellipe(1 - (b / a) ** 2)
    return float(perimeter / (mp.pi * a * b))


def _mp_surface3_ratio(a, b, c):
    # Legendre's form: S = 2 pi c^2 + 2 pi a b / sin(phi) *
    # (E(phi, m) sin^2 phi + F(phi, m) cos^2 phi), a >= b >= c
    import mpmath as mp
    a, b, c = sorted((mp.mpf(a), mp.mpf(b), mp.mpf(c)), reverse=True)
    phi = mp.acos(c / a)
    m = a * a * (b * b - c * c) / (b * b * (a * a - c * c))
    s = 2 * mp.pi * c * c + 2 * mp.pi * a * b / mp.sin(phi) * (
        mp.ellipe(phi, m) * mp.sin(phi) ** 2 + mp.ellipf(phi, m) * mp.cos(phi) ** 2)
    return float(s / (4 * mp.pi * a * b * c / 3))


def _mp_laplace_ratio(axes):
    import mpmath as mp
    with mp.workdps(30):
        q2 = [1 / mp.mpf(a) ** 2 for a in axes]
        n = len(q2)

        def f(s):
            t = mp.exp(s)
            return mp.exp(-s / 2) * -mp.expm1(-mp.fsum(mp.log1p(v * t) for v in q2) / 2)

        pts = sorted(-mp.log(v) for v in q2)
        m = mp.quad(f, [-mp.inf] + pts + [mp.inf]) / (2 * mp.sqrt(mp.pi))
        g = n * mp.gamma(mp.mpf(n) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
        return float(g * m)


def _agree(name, got, want, rel):
    if not abs(got - want) <= rel * abs(want):
        raise AssertionError(f"reference self-check {name}: got {got!r}, want {want!r}")


def self_check():
    """Reproduce closed forms and mpmath values; raises AssertionError if not."""
    for n in (1, 2, 3, 7, 24, 1000, 100_000):
        for a in (1e-3, 0.7, 250.0):
            _agree(f"ball n={n} a={a}", iso_ratio([a] * n), n / a, 1e-13)
    for a, b in ((1.0, 1.0), (1.0, 0.5), (3.0, 1e-2), (1.0, 1e-4), (7.0, 6.5)):
        _agree(f"perimeter {a},{b}", iso_ratio([a, b]), _mp_perimeter_ratio(a, b), 1e-13)
    for abc in ((1.0, 2.0, 3.0), (1.0, 1.0, 1e-3), (50.0, 1.0, 0.02)):
        _agree(f"surface3 {abc}", iso_ratio(abc), _mp_surface3_ratio(*abc), 1e-13)
    for axes in ((0.3, 1.0, 4.0, 9.0, 20.0), (1.0, 1e-2, 1e2, 5.0, 5.0, 1e-1, 3.0, 1e3)):
        _agree(f"mpmath {axes}", iso_ratio(axes), _mp_laplace_ratio(axes), 1e-13)
