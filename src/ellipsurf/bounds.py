"""Large-n asymptotics and rigorous two-sided L2 bounds.

Writing ||q||_R = R(E)/n for the norm that the isoperimetric ratio
induces on the inverse-axis vector q, the sandwich implemented here is

    (Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2))) * ||q||_2
        <= ||q||_R <=
    (3 Gamma(n/2) / (2 Gamma((n+1)/2))) * ||q||_2

so the upper/lower constant ratio is 3*sqrt(pi)/2 in every dimension.
The large-n estimate replaces E[sqrt(Y)] by sqrt(E[Y]) and is exact in
the limit whenever sum q^4 / (sum q^2)^2 -> 0; that ratio is the
applicability diagnostic, reported instead of a fabricated error bar
because no convergence rate is claimed.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import Ellipsoid, Estimate


@dataclass(frozen=True)
class ConcentrationDiagnostic:
    """sum q^2, sum q^4, and their concentration ratio.

    ratio = sum q^4 / (sum q^2)^2 lies in [1/n, 1]; the asymptotic
    iso-ratio formula is trustworthy only when it is small.  The ratio
    is scale-free and taken on q / max q; the two sums are those of q
    itself, so they may be 0.0 or inf where the ratio is not.
    """

    sum_q2: float
    sum_q4: float
    ratio: float


def concentration_diagnostic(q: Sequence[float]) -> ConcentrationDiagnostic:
    q = np.asarray(q, dtype=np.float64)
    # zero entries add nothing to either sum
    m, q_hat = geometry.scaled_inverse_axes(q[q != 0.0])
    q2 = q_hat * q_hat
    s2 = math.fsum(q2.tolist())
    s4 = math.fsum((q2 * q2).tolist())
    m2 = m * m  # float *, not **, which raises OverflowError
    return ConcentrationDiagnostic(sum_q2=s2 * m2, sum_q4=s4 * (m2 * m2),
                                   ratio=s4 / (s2 * s2))


def iso_ratio_asymptotic(e: Ellipsoid) -> Estimate:
    """Large-n estimate R ~ n * gamma_half_ratio(n,1) * sqrt(sum q^2 / 2).

    abs_error is reported as 0 because no rate is claimed; callers must
    consult :func:`concentration_diagnostic` for applicability.
    """
    m, q_hat = geometry.scaled_inverse_axes(e.inverse_axes())
    s2 = math.fsum((q_hat * q_hat).tolist())
    value = e.n * geometry.gamma_half_ratio(e.n, 1) * math.sqrt(0.5 * s2) * m
    return Estimate(value=value, abs_error=0.0, method="asymptotic",
                    evals=1, seed=None)


def lp_norm(q: Sequence[float], p: float) -> float:
    """(sum |q_i|^p)^(1/p), scaled by max|q_i| to avoid overflow."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    q = np.abs(np.asarray(q, dtype=np.float64))
    m = float(q.max()) if q.size else 0.0
    if m == 0.0:
        return 0.0
    return m * float(((q / m) ** p).sum()) ** (1.0 / p)


def gamma_ratio_asymptotic_check(x: float, y: float) -> float:
    """Gamma(x+y) / (Gamma(x) * (x+y)^y); tends to 1 as x -> infinity."""
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    if not x + y > 0:
        raise ValueError(f"gamma pole: need x + y > 0, got x={x}, y={y}")
    return math.exp(math.lgamma(x + y) - math.lgamma(x) - y * math.log(x + y))


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided bounds on ||q||_R and the induced surface-area interval."""

    n: int
    lower_const: float
    upper_const: float
    l2_norm: float
    ratio_lower: float
    ratio_upper: float
    area_lower: float
    area_upper: float


def bounds_l2(e: Ellipsoid) -> BoundsReport:
    """Bracket ||q||_R between the L2-norm constants and derive the
    surface-area interval S in [n*V*lower, n*V*upper]."""
    n = e.n
    g = geometry.gamma_half_ratio(n, 1)
    lower_const = g / math.sqrt(math.pi)
    upper_const = 1.5 * g
    l2 = lp_norm(e.inverse_axes(), 2)
    volume = geometry.ellipsoid_volume(e)
    return BoundsReport(
        n=n,
        lower_const=lower_const,
        upper_const=upper_const,
        l2_norm=l2,
        ratio_lower=lower_const * l2,
        ratio_upper=upper_const * l2,
        area_lower=n * volume * lower_const * l2,
        area_upper=n * volume * upper_const * l2,
    )
