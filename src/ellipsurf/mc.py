"""Monte Carlo estimators on the sphere and for Gaussian expectations.

Two sampling measures are used:

* the uniform measure on S^(n-1), sampled by normalizing standard
  Gaussian vectors;
* the product measure with one-dimensional density exp(-x^2)/sqrt(pi)
  per coordinate, i.e. centered Gaussians with variance 1/2.

Both samplers draw rows x of standard normals and never build the
scaled points.  A row stands for the point x / r, with r = ||x|| on the
sphere and r = sqrt(2) under the Gaussian, and f is evaluated in one
pass on x by homogeneity: f(x / r) = f(x) / r^d for f of degree d.  A
non-finite value is reported with that scaled point.

For a function f homogeneous of degree d, the two are linked by

    mean over S^(n-1) of f = gamma_half_ratio(n, d) * E[f(X_1..X_n)]

which is what :func:`sphere_mean_via_gaussian` implements.

The generic estimators average f itself.  :func:`iso_ratio_mc` knows
more: for f = sqrt(sum q_i^2 x_i^2), the square g = f^2 has the exact
mean mu = sum q_i^2 / n on the sphere and sum q_i^2 / 2 under the
Gaussian, and the exact variance sd^2 = 2 sum (q_i^2 - mu)^2 / (n (n + 2))
on the sphere and sum q_i^4 / 2 under the Gaussian.  Each row gives

    h = f - (g - mu) / (2 sqrt(mu)) = sqrt(mu) - (f - sqrt(mu))^2 / (2 sqrt(mu)),

the tangent of sqrt at mu in Jensen-gap form, and two controls of mean
exactly zero, z = (g - mu) / sd and w = z^2 - 1.  The estimate is the
mean of h less its least-squares regression on (z, w), fitted once over
all rows (Glasserman, Monte Carlo Methods in Financial Engineering,
2003, 4.1.2).  The standard error is that of the regression residual,
with N - 3 degrees of freedom.  Fitting the coefficients costs an
O(1/N) bias, so the estimate is no longer exactly unbiased; it is small
next to the standard error at any N the tests use.  Against the plain
average of f, the variance per sample falls about 20x to 2600x at
n <= 24, 700x to 2e4x at n = 100 and 3e4x to 1.6e6x at n = 1000, least
where the axes span the widest range.  With fewer than 4 samples, or
when the fit is singular (sd = 0, as on a ball), the estimate is the
mean of h alone.

Determinism contract: an estimate is a pure function of
(samples, seed, chunk_size).  Samples are split into fixed chunks, chunk
c is generated from the counter-based Philox stream keyed by
(seed, c), and per-chunk statistics are merged pairwise in chunk order.
Within a chunk, rows are drawn and evaluated in order, in blocks of
:func:`_kernels.row_block` rows, at most 2^20 float64 values (8 MB), so
memory stays bounded at any n.  The stream drawn block by block is the
stream drawn whole, and every row kernel evaluates each row on its own,
without BLAS, so neither the block size nor the BLAS thread count can
change a row's bits.  Chunks run on the worker pool of
:func:`_kernels.ordered_map`, so the worker-thread count
(ELLIPSURF_THREADS) cannot change the result bits.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from . import geometry
from .geometry import Ellipsoid, Estimate

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RngStream:
    """One reproducible random stream: Philox keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce the identical sample
    sequence on every platform; distinct stream_ids are independent by
    the counter-based construction.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF),
             np.uint64(self.stream_id & 0xFFFFFFFFFFFFFFFF)],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class McConfig:
    """Sample budget, seed, and the fixed chunking of the sample stream."""

    samples: int
    seed: int
    chunk_size: int = 65536

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    def chunk_sizes(self) -> list:
        full, rem = divmod(self.samples, self.chunk_size)
        sizes = [self.chunk_size] * full
        if rem:
            sizes.append(rem)
        return sizes


@dataclass(frozen=True)
class HomogeneousFn:
    """A degree-d homogeneous function evaluated on batches of points.

    ``eval`` maps an (m, n) array of row points to an (m,) array of
    values.  Homogeneity (eval(lam*x) = lam**d * eval(x)) is assumed,
    not checked.
    """

    degree: float
    eval: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def sqrt_qform_fn(q: Sequence[float]) -> HomogeneousFn:
    """f(x) = sqrt(sum_i q_i^2 x_i^2), homogeneous of degree 1."""
    q2 = np.asarray(q, dtype=np.float64) ** 2
    return HomogeneousFn(1.0, lambda x: _kernels.row_sqrt_qform(x, q2), name="sqrt_qform")


def lp_norm_fn(p: float) -> HomogeneousFn:
    """f(x) = ||x||_p, homogeneous of degree 1."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    p = float(p)
    return HomogeneousFn(1.0, lambda x: _kernels.row_pnorm(x, p), name=f"l{p}_norm")


def coord_abs_pow_fn(p: float, index: int = 0) -> HomogeneousFn:
    """f(x) = |x_index|^p, homogeneous of degree p."""
    return HomogeneousFn(float(p), lambda x: np.abs(x[:, index]) ** p,
                         name=f"abs_x{index}^%g" % p)


def coord_square_fn(index: int = 0) -> HomogeneousFn:
    """f(x) = x_index^2, homogeneous of degree 2."""
    return HomogeneousFn(2.0, lambda x: x[:, index] ** 2, name=f"x{index}^2")


def _merge_stats(a, b):
    # Chan's parallel update of (count, mean, sum of squared deviations).
    ma, mean_a, m2a = a
    mb, mean_b, m2b = b
    m = ma + mb
    delta = mean_b - mean_a
    mean = mean_a + delta * (mb / m)
    m2 = m2a + m2b + delta * delta * (ma * mb / m)
    return (m, mean, m2)


def _add_sums(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _pairwise_merge(stats, merge):
    stats = list(stats)
    while len(stats) > 1:
        merged = []
        for i in range(0, len(stats) - 1, 2):
            merged.append(merge(stats[i], stats[i + 1]))
        if len(stats) % 2:
            merged.append(stats[-1])
        stats = merged
    return stats[0]


def _chunk_stats(v: np.ndarray):
    m = int(v.size)
    mean = float(v.mean())
    d = v - mean
    return (m, mean, float((d * d).sum()))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum, not np.dot: a 1-D np.dot is a BLAS call
    return float(np.einsum("i,i->", a, b))


def _control_sums(y: np.ndarray, z: np.ndarray, w: np.ndarray):
    """(count, sum y, sum z, sum w, and the six cross products)."""
    return (int(y.size), float(y.sum()), float(z.sum()), float(w.sum()),
            _dot(y, y), _dot(y, z), _dot(y, w), _dot(z, z), _dot(z, w), _dot(w, w))


def _regress(sums) -> tuple:
    """Mean of y less its regression on the zero-mean controls (z, w),
    and the variance of that mean, from merged :func:`_control_sums`.

    The variance is the residual sum of squares over N - 3 degrees of
    freedom, divided by N.  With fewer than 4 rows, or when the 2x2
    system is singular (a constant z, as on a ball, or corr(z, w)^2
    within 1e-9 of 1, where rounding would pick the coefficients), it is
    the plain mean of y with its sample variance over N - 1.
    """
    count, sy, sz, sw, syy, syz, syw, szz, szw, sww = sums
    y_bar = sy / count
    cyy = syy - sy * y_bar
    if count >= 4:
        z_bar, w_bar = sz / count, sw / count
        czz, czw, cww = szz - sz * z_bar, szw - sz * w_bar, sww - sw * w_bar
        cyz, cyw = syz - sy * z_bar, syw - sy * w_bar
        det = czz * cww - czw * czw
        if det > 1e-9 * czz * cww:
            beta_z = (cww * cyz - czw * cyw) / det
            beta_w = (czz * cyw - czw * cyz) / det
            rss = cyy - beta_z * cyz - beta_w * cyw
            return (y_bar - beta_z * z_bar - beta_w * w_bar,
                    max(rss, 0.0) / (count - 3) / count)
    return y_bar, max(cyy, 0.0) / (count - 1) / count


def _check_finite(v: np.ndarray, x: np.ndarray, r, fname: str) -> None:
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        point = x[i] / np.broadcast_to(r, v.shape)[i]
        raise ValueError(
            f"non-finite value {v[i]!r} from {fname or 'f'} at sample point "
            f"{point.tolist()!r}"
        )


def _draw_sphere(gen: np.random.Generator, m: int, n: int) -> tuple:
    """m rows x of standard normals and their norms r; row i stands for
    the uniform point x[i] / r[i] of S^(n-1)."""
    x = gen.standard_normal((m, n))
    r2 = np.einsum("ij,ij->i", x, x)
    while True:
        bad = r2 == 0.0
        if not bad.any():
            return x, np.sqrt(r2, out=r2)
        x[bad] = gen.standard_normal((int(bad.sum()), n))
        r2[bad] = np.einsum("ij,ij->i", x[bad], x[bad])


def _draw_gauss(gen: np.random.Generator, m: int, n: int) -> tuple:
    """m rows x of standard normals and r = sqrt(2); row i stands for
    the variance-1/2 point x[i] / sqrt(2)."""
    return gen.standard_normal((m, n)), _SQRT2


def _mc_mean(f: HomogeneousFn, n: int, cfg: McConfig, draw,
             control: Optional[tuple] = None) -> tuple:
    """(mean, standard error) of f under the measure ``draw`` samples.

    Each row block is one fused pass: ``draw`` returns the raw normal
    rows x and their scale r, and f(x) / r^d is f at the sampled point
    x / r, which is also the point a non-finite value is reported at.

    Without ``control``, the plain mean of f and its sample standard
    error.  ``control`` is (mu, sd), the exact mean and standard
    deviation of g = f^2 under the measure.  Rows then give the response
    y = h - sqrt(mu), with h = sqrt(mu) - (f - sqrt(mu))^2 / (2 sqrt(mu))
    in Jensen-gap form, and the zero-mean controls z = (g - mu) / sd and
    w = z^2 - 1.  Each chunk returns raw sums, merged pairwise in chunk
    order, and :func:`_regress` fits (z, w) once: the mean is sqrt(mu)
    plus the fitted mean of y, with an O(1/N) bias, and the standard
    error has N - 3 degrees of freedom.
    """
    sizes = cfg.chunk_sizes()
    block = _kernels.row_block(n)

    def run_rows(gen: np.random.Generator, rows: int) -> np.ndarray:
        x, r = draw(gen, rows, n)
        # f(x / r) = f(x) / r^d for f homogeneous of degree d
        v = np.asarray(f.eval(x), dtype=np.float64) / (r if f.degree == 1.0 else r ** f.degree)
        _check_finite(v, x, r, f.name)
        return v

    def chunk_values(c: int) -> np.ndarray:
        gen = RngStream(cfg.seed, stream_id=c).generator()
        rows = sizes[c]
        if rows <= block:
            return run_rows(gen, rows)
        return np.concatenate([run_rows(gen, min(block, rows - i))
                               for i in range(0, rows, block)])

    chunks = range(len(sizes))
    if control is None:
        stats = _kernels.ordered_map(lambda c: _chunk_stats(chunk_values(c)), chunks)
        count, mean, m2 = _pairwise_merge(stats, _merge_stats)
        stderr = math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0
        return mean, stderr

    mu, sd = control
    root = math.sqrt(mu)
    half_inv_root = 0.5 / root
    # sd = 0 (g constant) makes z = 0, which the fit treats as singular
    inv_sd = 1.0 / sd if sd > 0.0 else 0.0

    def chunk_sums(c: int):
        # in place where possible: fewer fresh row arrays per chunk means
        # fewer page faults from the allocator returning memory between chunks
        y = chunk_values(c)
        z = y * y
        y -= root
        y *= y
        y *= -half_inv_root
        # through h, so that a ball's rows, where h rounds to root, give y = 0
        y += root
        y -= root
        z -= mu
        z *= inv_sd
        w = z * z
        w -= 1.0
        return _control_sums(y, z, w)

    sums = _pairwise_merge(_kernels.ordered_map(chunk_sums, chunks), _add_sums)
    offset, var = _regress(sums)
    return root + offset, math.sqrt(var)


def sphere_mean_mc(f: HomogeneousFn, n: int, cfg: McConfig) -> Estimate:
    """Sample mean of f over uniform points of S^(n-1).

    abs_error is the one-sigma standard error of the mean.
    """
    mean, se = _mc_mean(f, n, cfg, _draw_sphere)
    return Estimate(value=mean, abs_error=se, method="mc",
                    evals=cfg.samples, seed=cfg.seed)


def gaussian_mean_mc(f: HomogeneousFn, n: int, cfg: McConfig) -> Estimate:
    """Monte Carlo estimate of E[f(X)] for the variance-1/2 Gaussian X."""
    mean, se = _mc_mean(f, n, cfg, _draw_gauss)
    return Estimate(value=mean, abs_error=se, method="gauss",
                    evals=cfg.samples, seed=cfg.seed)


def sphere_mean_via_gaussian(f: HomogeneousFn, n: int, cfg: McConfig) -> Estimate:
    """Sphere mean of a homogeneous f through its Gaussian expectation."""
    factor = geometry.gamma_half_ratio(n, f.degree)
    base = gaussian_mean_mc(f, n, cfg)
    return Estimate(value=factor * base.value, abs_error=factor * base.abs_error,
                    method="gauss", evals=base.evals, seed=base.seed)


def iso_ratio_mc(e: Ellipsoid, cfg: McConfig, route: str = "direct_sphere") -> Estimate:
    """Isoperimetric ratio R = n * sphere mean of f(u) = sqrt(sum u_i^2 q_i^2).

    route 'direct_sphere' samples the sphere; 'gaussian_transform' uses
    the homogeneous-moment identity.  The two agree within error bars,
    which is a test property.

    Both routes average the tangent response h of g = f^2, whose mean
    and variance are exact, less its fitted regression on the controls
    z = (g - mu) / sd and w = z^2 - 1 (see the module docstring).
    abs_error is the residual standard error with N - 3 degrees of
    freedom; the fit adds an O(1/N) bias.  Every ball is exact on
    'direct_sphere' (sd = 0, so no fit, and h rounds to sqrt(mu)).  Both
    routes run on q / max q, where the mean of g lies in [1/n, 1], and
    multiply by max q once.
    """
    n = e.n
    m, q_hat = geometry.scaled_inverse_axes(e.inverse_axes())
    f = sqrt_qform_fn(q_hat)
    q2 = q_hat * q_hat
    q2_sum = float(q2.sum())
    if route == "direct_sphere":
        draw, mu, factor, method = _draw_sphere, q2_sum / n, 1.0, "mc"
        var = 2.0 * float(np.square(q2 - mu).sum()) / (n * (n + 2.0))
    elif route == "gaussian_transform":
        draw, mu, method = _draw_gauss, 0.5 * q2_sum, "gauss"
        var = 0.5 * float(np.square(q2).sum())
        factor = geometry.gamma_half_ratio(n, f.degree)
    else:
        raise ValueError(
            f"route must be 'direct_sphere' or 'gaussian_transform', got {route!r}"
        )
    mean, se = _mc_mean(f, n, cfg, draw, control=(mu, math.sqrt(var)))
    return Estimate(value=m * (n * (factor * mean)), abs_error=m * (n * (factor * se)),
                    method=method, evals=cfg.samples, seed=cfg.seed)

