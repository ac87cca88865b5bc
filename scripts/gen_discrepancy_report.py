#!/usr/bin/env python3
"""Regenerate docs/alpha_integral_discrepancy.md.

Evaluates the alpha-parameterized surface-area integral in both its
as-printed and corrected readings for the reference cases and writes
the comparison table.  Run from the repository root:

    python3 scripts/gen_discrepancy_report.py

The corrected reading, with the product term (1 + alpha q_j^2 z)^(-1/2),
is ``ellipsurf.quadrature.alpha_integral_corrected``.  The reading as it
is sometimes (mis)printed, with (1 - q_j^2 z)^(-1/2), is only real on a
prefix of the half line; :func:`alpha_integral_as_printed` below
evaluates it there to document the discrepancy, and nothing in the
package calls it.
"""

import math
import pathlib
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from ellipsurf.quadrature import (
    QuadResult,
    _de_quad,
    _scaled_q2,
    _tanh_sinh,
    _tau_end,
    alpha_integral_corrected,
    check_alpha_admissible,
    sqrt_qform_moment,
)


def alpha_integral_as_printed(q: Sequence[float], alpha: float,
                              tol: float = 1e-12) -> QuadResult:
    """The integral of :func:`alpha_integral_corrected` with the product
    term read as prod_j (1 - q_j^2 z)^(-1/2), taken literally.

    That product is only real for z < 1/max(q_j^2), so the integral is
    evaluated over the largest real prefix [0, 1/max q_j^2), which
    z = u / max(q_j^2) maps onto u in [0, 1).  When the
    maximal q_j is repeated the integrand is non-integrable at the right
    endpoint and the result is flagged unconverged.  Documentation
    evaluator only; compare with :func:`alpha_integral_corrected`.
    """
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
    res = _de_quad(g, -end, end, q2.size, tol, scale=m * math.sqrt(alpha))
    return replace(res, converged=res.converged and not degenerate)


CASES = [
    ((1.0,), 1.0),
    ((1.0, 1.0), 1.0),
    ((1.0, 2.0), 0.3),
]

HEADER = """\
# The alpha-parameterized integral: as-printed vs corrected

The deterministic backbone of this package evaluates
`E[sqrt(sum_j q_j^2 X_j^2)]` (X_j Gaussian with variance 1/2) through
the Laplace-transform identity; see `ellipsurf/quadrature.py`.  An
alternative alpha-parameterized integral form for the same quantity

    sqrt(alpha) * integral_0^inf z^(-1/2)
        * sum_j q_j^2 / (2 (1 + alpha z q_j^2))
        * prod_j (...)^(-1/2) dz

circulates with the product term printed as `(1 - q_j^2 z)^(-1/2)`.
That reading cannot be right: the product turns complex for
`z > 1/max_j q_j^2`, while the admissibility condition
`|1 - alpha q_j^2| < 1` suggests the factors were meant to involve
alpha.  Reading the product as `(1 + alpha q_j^2 z)^(-1/2)` makes the
integral real on the whole half line, alpha-free, and exactly equal to
`sqrt(pi) * E[sqrt(...)]` (a short computation: the summed term is
`-(1/alpha) d/dz` of the product, which is the Laplace transform of the
quadratic form, so the z-integral collapses to the half moment).

Both readings are implemented: `alpha_integral_corrected` is asserted
against `sqrt_qform_moment` in the test suite, while
`alpha_integral_as_printed` integrates over the largest real prefix
`[0, 1/max q_j^2)` and is recorded here, not trusted.  With a repeated
maximal q_j the as-printed integrand is non-integrable at the end of
the prefix and the evaluator flags `converged=False`.

## Comparison table

| q | alpha | as-printed value | as-printed converged | corrected value | sqrt(pi)*E[sqrt(.)] | corrected rel. err. |
|---|-------|------------------|----------------------|-----------------|---------------------|---------------------|
"""

FOOTER = """\

## Related: the F_D identity constant

The companion hypergeometric identity used by `iso_ratio_lauricella`
is also commonly printed with the prefactor
`n * Gamma(n/2)^2 / Gamma((n+1)/2)^2 * sqrt(alpha) * sum_j q_j^2/2` and
denominator parameter `(n+1)/2`.  That constant fails the unit-ball
check: at n = 3 it yields 9*pi/8 = 3.534... where the isoperimetric
ratio must equal 3.  Substituting z = u/(1-u) in the corrected integral
above gives the reading implemented here,

    R = sqrt(alpha) * sum_j q_j^2
        * F_D(1/2; eta_1j..eta_nj; n/2 + 1; 1 - alpha q_1^2, ...)

which returns exactly n on every unit ball and is alpha-invariant; the
test suite verifies it against the quadrature route on random
ellipsoids.
"""


def main() -> int:
    lines = [HEADER]
    for q, alpha in CASES:
        printed = alpha_integral_as_printed(q, alpha)
        corrected = alpha_integral_corrected(q, alpha)
        target = math.sqrt(math.pi) * sqrt_qform_moment(q).value
        rel = abs(corrected.value - target) / target
        lines.append(
            f"| {tuple(q)} | {alpha} | {printed.value:.12g} | {printed.converged} "
            f"| {corrected.value:.12g} | {target:.12g} | {rel:.2e} |\n"
        )
    lines.append(FOOTER)
    out = pathlib.Path(__file__).resolve().parent.parent / "docs" / "alpha_integral_discrepancy.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
