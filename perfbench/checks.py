"""Outcome of one op, judged against the reference.

Every op ends in exactly one status:

* ``failed``: the program itself reported trouble: ``converged=False``,
  a documented exception (``ValueError``, ``OverflowError``) or a
  non-zero CLI exit code;
* ``wrong``: the program claimed success, but some value lies outside
  that method's stated tolerance of the reference;
* ``ok``: every value is within tolerance.

Separately, a value that the program did not flag in any way (no
``converged=False``, no ``contained: false``, exit 0) and that misses
the reference by more than ``GROSS_REL`` relative and ten times its
tolerance is *gross*.  Gross values make the run incorrect; ``wrong``
values are counted in ``wrong_share``.

Tolerances per method, each plus ``reference.REL_ERR`` relative slack
for the reference itself:

* ``laplace``, ``lauricella``: the larger of the reported error and the
  requested relative tolerance (1e-12, the default);
* Monte Carlo: six reported standard errors.  Four sigma is the
  per-case acceptance threshold of the test suite; a run checks
  thousands of cases, and six keeps the chance that a correct estimator
  is flagged anywhere in a run below 1e-5;
* ``asymptotic``: the estimate claims no rate.  By Jensen's inequality
  it can only exceed R, and its documented applicability ratio
  sum q^4 / (sum q^2)^2 bounds the relative excess (the first-order
  excess is a quarter of it);
* L2 bounds: R/n must lie inside [lower, upper] with the 1e-12 slack
  the CLI's own containment check uses.  The bounds state no tolerance
  of their own; their constants are closed forms that the program
  evaluates as a float64 difference of two lgamma values, which at
  n = 1e6 carries about 1e-10 relative rounding, so they must match the
  reference's to ``BOUNDS_CONST_REL``, which catches a wrong formula.
"""

from dataclasses import dataclass, field

import reference

GROSS_REL = 1e-6
MC_SIGMAS = 6.0
QUAD_REL_TOL = 1e-12
BOUNDS_CONST_REL = 1e-9


@dataclass
class Outcome:
    """Accumulates the judgements of the calls that make up one op."""

    failed: bool = False
    wrong: bool = False
    gross: bool = False
    notes: list = field(default_factory=list)

    def fail(self, why):
        self.failed = True
        self.notes.append(why)

    def value(self, what, got, want, tol, flagged=False):
        """Judge ``got`` against ``want`` +- ``tol``; returns True if inside."""
        tol += reference.REL_ERR * abs(want)
        err = abs(got - want)
        if err <= tol:
            return True
        self.wrong = True
        self.notes.append(f"{what}: {got!r} vs reference {want!r} (tol {tol:.3g})")
        if not flagged and err > max(GROSS_REL * abs(want), 10.0 * tol):
            self.gross = True
        return False

    def asymptotic(self, what, got, ratio, concentration, flagged=False):
        """Jensen: ratio <= got <= ratio * (1 + concentration)."""
        mid = ratio * (1.0 + 0.5 * concentration)
        return self.value(what, got, mid, 0.5 * concentration * ratio, flagged)

    def close(self, record):
        """Copy the verdict onto an op's record."""
        record.status = "failed" if self.failed else "wrong" if self.wrong else "ok"
        record.gross = self.gross
        record.notes = self.notes


def quad_tol(ratio, reported_abs_error):
    return max(QUAD_REL_TOL * abs(ratio), reported_abs_error)


def l2_bounds(out, lower, upper, ref_bounds, ratio, n):
    """Judge reported L2 bounds on R/n against the reference."""
    lo, hi = ref_bounds
    out.value("bounds.lower", lower, lo, BOUNDS_CONST_REL * lo)
    out.value("bounds.upper", upper, hi, BOUNDS_CONST_REL * hi)
    if not lower * (1 - 1e-12) <= ratio / n <= upper * (1 + 1e-12):
        out.value("bounds.contains", min(max(ratio / n, lower), upper), ratio / n, 0.0)
