"""Exact closed-form geometry of spheres, balls, and axis-aligned ellipsoids.

Index convention, used everywhere in this package: ``unit_sphere_area(n)``
is the area of the n-sphere S^n embedded in R^(n+1).  The boundary of the
unit ball of R^n is therefore S^(n-1), with area ``unit_sphere_area(n-1)
= n * unit_ball_volume(n)``.  Mixing this up is the main correctness
hazard of the whole library, so no other module computes these constants
on its own.

All gamma/area/volume arithmetic goes through log-gamma and stays in
log space until a linear value is requested; this keeps dimensions up to
about 10^6 usable without overflow.

An :class:`Ellipsoid` stores its semi-axes a and inverse axes q = 1/a
as two read-only float64 arrays, validated in one vector pass, so no
O(n) step between the input and the estimators loops in Python.  The
log-volume sum of log a_i is taken once per ellipsoid, with
``math.log`` and ``math.fsum`` so that its bits do not depend on
numpy's vector log.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

#: Methods an Estimate may be tagged with.
METHODS = ("mc", "gauss", "laplace", "lauricella", "asymptotic", "closed_form")

#: Methods whose estimates depend on a random seed.
STOCHASTIC_METHODS = ("mc", "gauss")

#: Largest log-volume that still exponentiates to a finite float64.
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


class VolumeOverflowError(OverflowError):
    """A linear volume/area does not fit in float64.

    The log-space value is preserved in ``log_value`` so callers can keep
    working in log space.
    """

    def __init__(self, message: str, log_value: float):
        super().__init__(message)
        self.log_value = log_value


def _check_dimension_index(n: int) -> int:
    if int(n) != n or n < 0:
        raise ValueError(f"dimension index must be a nonnegative integer, got {n!r}")
    return int(n)


def log_unit_sphere_area(n: int) -> float:
    """log of the area of S^n: log(2 pi^((n+1)/2) / Gamma((n+1)/2))."""
    n = _check_dimension_index(n)
    return math.log(2.0) + 0.5 * (n + 1) * math.log(math.pi) - math.lgamma(0.5 * (n + 1))


def unit_sphere_area(n: int) -> float:
    """Area of the unit n-sphere S^n (S^0 has 'area' 2)."""
    return math.exp(log_unit_sphere_area(n))


def log_unit_ball_volume(n: int) -> float:
    """log of the volume of the unit ball B^n: log(pi^(n/2) / Gamma(n/2 + 1))."""
    n = _check_dimension_index(n)
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball B^n (B^0 is a point with volume 1)."""
    return math.exp(log_unit_ball_volume(n))


#: From this argument up, log-gamma ratios come from Stirling's series.
_STIRLING_MIN_X = 20.0

#: B_2k / (2k (2k - 1)) for k = 1..6: Stirling's series coefficients.
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def log_gamma_half_ratio(n: float, d: float) -> float:
    """log of Gamma(n/2) / Gamma((n+d)/2).

    With x = n/2 and a = d/2, once x and x + a reach _STIRLING_MIN_X
    this is -(x - 1/2) log1p(a/x) - a log(x + a) + a plus the Bernoulli
    terms of Stirling's series: within 6e-15 relative of 40-digit
    mpmath for n >= 40 and d up to 7.  The float64 difference of two
    lgamma values would be 5.5e-10 off at n = 1e6.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n + d <= 0:
        raise ValueError(f"gamma pole: need n + d > 0, got n={n}, d={d}")
    x, a = 0.5 * n, 0.5 * d
    if min(x, x + a) < _STIRLING_MIN_X:
        return math.lgamma(x) - math.lgamma(x + a)
    series = sum(c * (x ** (1 - 2 * k) - (x + a) ** (1 - 2 * k))
                 for k, c in enumerate(_STIRLING_COEFFS, start=1))
    return -(x - 0.5) * math.log1p(a / x) - a * math.log(x + a) + a + series


def gamma_half_ratio(n: float, d: float) -> float:
    """Gamma(n/2) / Gamma((n+d)/2), via log-gamma so n ~ 1e8 is fine.

    This is the conversion factor between the mean of a d-homogeneous
    function over S^(n-1) and its Gaussian-weighted expectation.
    """
    return math.exp(log_gamma_half_ratio(n, d))


@dataclass(frozen=True)
class Estimate:
    """A computed scalar with provenance.

    ``abs_error`` is an estimated one-sigma error for stochastic methods
    and a propagated deterministic error bound otherwise; it is zero for
    closed forms.  ``seed`` is present exactly for stochastic methods.
    """

    value: float
    abs_error: float
    method: str
    evals: int
    seed: Optional[int] = None
    converged: bool = True

    def __post_init__(self):
        # numpy scalars from vector arithmetic are normalized to plain
        # Python types so estimates serialize cleanly
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "abs_error", float(self.abs_error))
        object.__setattr__(self, "evals", int(self.evals))
        object.__setattr__(self, "converged", bool(self.converged))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.abs_error >= 0.0:
            raise ValueError(f"abs_error must be >= 0, got {self.abs_error}")
        if self.evals < 1:
            raise ValueError(f"evals must be >= 1, got {self.evals}")
        stochastic = self.method in STOCHASTIC_METHODS
        if stochastic and self.seed is None:
            raise ValueError(f"method {self.method!r} is stochastic and requires a seed")
        if not stochastic and self.seed is not None:
            raise ValueError(f"method {self.method!r} is deterministic; seed must be None")


def _positive_finite_vector(values: Sequence[float], name: str) -> np.ndarray:
    """values as a new read-only float64 vector, checked in one vector pass.

    The first entry that is not positive and finite is named by its
    1-based index and value.
    """
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} values must form a 1-D sequence, got shape {v.shape}")
    ok = np.isfinite(v) & (v > 0.0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{name} {i + 1} must be a positive finite number, got {float(v[i])!r}")
    v.flags.writeable = False
    return v


def scaled_inverse_axes(q: Sequence[float]) -> tuple:
    """(m, q / m) with m = max q, for positive finite inverse axes q.

    The isoperimetric ratio is 1-homogeneous in q, R(c q) = c R(q).  So
    every ratio route runs on q / m, whose entries lie in (0, 1] and
    whose squares cannot overflow, and multiplies by m once at the end.
    That also makes R(2^k q) == 2^k R(q) exactly.
    """
    q = _positive_finite_vector(q, "inverse axis")
    if q.size < 1:
        raise ValueError("q must have at least one nonzero entry")
    m = float(q.max())
    return m, q / m


class Ellipsoid:
    """Axis-aligned ellipsoid {x : sum_i (x_i / a_i)^2 <= 1}.

    Holds two read-only float64 arrays, the semi-axes a and q = 1/a.
    Semi-axes must be positive and finite; degenerate values are rejected at construction because
    every downstream formula divides by them.  ``axes`` is the same
    values as a tuple, built on first use; equality, hashing and repr go
    by the axis values.
    """

    def __init__(self, axes: Sequence[float]):
        a = _positive_finite_vector(axes, "axis")
        if a.size < 1:
            raise ValueError("an ellipsoid needs at least one semi-axis")
        with np.errstate(over="ignore"):  # 1/a of a subnormal a is inf, as in Python
            q = 1.0 / a
        q.flags.writeable = False
        self._a = a
        self._q = q

    @classmethod
    def from_inverse_axes(cls, q: Sequence[float]) -> "Ellipsoid":
        q = _positive_finite_vector(q, "inverse axis")
        with np.errstate(over="ignore"):  # an inf axis is then rejected by name
            return cls(1.0 / q)

    @cached_property
    def axes(self) -> tuple:
        return tuple(self._a.tolist())

    @cached_property
    def _log_axes_sum(self) -> float:
        # math.log, not np.log, which differs in the last bit on some inputs
        return math.fsum(map(math.log, self._a.tolist()))

    @property
    def n(self) -> int:
        return self._a.size

    def axes_array(self) -> np.ndarray:
        return self._a

    def inverse_axes(self) -> np.ndarray:
        """q with q_i = 1/a_i; the same read-only array on every call."""
        return self._q

    def __eq__(self, other):
        if not isinstance(other, Ellipsoid):
            return NotImplemented
        return np.array_equal(self._a, other._a)

    def __hash__(self):
        return hash(self._a.tobytes())

    def __repr__(self):
        return f"Ellipsoid(axes={self.axes!r})"


def log_ellipsoid_volume(e: Ellipsoid) -> float:
    """log of kappa_n * prod(a_i)."""
    return log_unit_ball_volume(e.n) + e._log_axes_sum


def ellipsoid_volume(e: Ellipsoid) -> float:
    """Volume kappa_n * prod(a_i); raises instead of silently returning inf."""
    lv = log_ellipsoid_volume(e)
    if lv > _LOG_FLOAT_MAX:
        raise VolumeOverflowError(
            f"volume overflows float64 (log volume = {lv:.6g})", log_value=lv
        )
    return math.exp(lv)


def surface_area(e: Ellipsoid, ratio: Estimate) -> Estimate:
    """Surface area from an isoperimetric-ratio estimate: S = R * volume.

    The error propagates multiplicatively and the method tag is inherited
    from the ratio estimate.
    """
    if not ratio.value > 0.0:
        raise ValueError(f"isoperimetric ratio must be positive, got {ratio.value}")
    v = ellipsoid_volume(e)
    return Estimate(
        value=ratio.value * v,
        abs_error=ratio.abs_error * v,
        method=ratio.method,
        evals=ratio.evals,
        seed=ratio.seed,
        converged=ratio.converged,
    )

