"""Hot numeric kernels, as plain vectorized numpy.

Every kernel is deterministic run-to-run: identical inputs give
identical bits.  The measured hot spots of the package are the random
draw and the sums over the axes at each quadrature node.  The draw is
vectorized numpy; the node sums of :func:`node_sums` are ``log1p`` over
all n values below the size where :class:`BucketMeasure` pays, and
O(B K) moment series above it.  There is one implementation per kernel.

Work that can outgrow memory is cut into blocks of at most
:data:`BLOCK_ELEMENTS` float64 values, and independent blocks or chunks
run on the worker threads of :func:`ordered_map`.  numpy's draws,
``log1p``, ``exp`` and reductions release the interpreter lock, so the
threads overlap.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Largest number of float64 elements one block of work may hold (8 MB).
BLOCK_ELEMENTS = 1 << 20


def row_sqrt_qform(x, q2):
    """sqrt(sum_j q2[j] * x[i,j]^2) for every row i.

    einsum without ``optimize`` sums each row in its own loop and never
    calls BLAS, so a row's bits depend on that row alone: not on the
    rows batched with it, nor on the BLAS thread count.
    """
    return np.sqrt(np.einsum("ij,ij,j->i", x, x, q2))


def row_block(n: int) -> int:
    """Rows per block of an (m, n) row batch: as many as hold at most
    BLOCK_ELEMENTS values, and at least one."""
    return max(1, BLOCK_ELEMENTS // n)


def row_norm(x):
    """Euclidean norm of every row."""
    return np.sqrt((x * x).sum(axis=1))


def row_pnorm(x, p):
    """(sum_j |x[i,j]|^p)^(1/p) for every row i.

    No overflow scaling: meant for Monte Carlo batches with moderate p.
    """
    return (np.abs(x) ** p).sum(axis=1) ** (1.0 / p)


def sum_log1p(q2, t):
    """sum_j log(1 + q2[j] * t[i]) for every node t[i], the log of the
    moment-product kernel; one (len(t), len(q2)) block in memory."""
    x = np.multiply.outer(t, q2)
    return np.log1p(x, out=x).sum(axis=-1)


def node_sums(lam, scale=1.0):
    """The node sums of ``lam`` (descending, in [0, 1], lam[0] > 0) for
    nodes z >= 0,

        log1p_sum(z)     = sum_j log1p(scale lam_j z)
        resolvent_sum(z) = sum_j lam_j / (1 + scale lam_j z),

    with ``width``, the float64 values one node holds: a
    :class:`BucketMeasure` of B buckets where n > OVERHEAD + B K/2, the
    number of values whose direct sums cost as much as the measure
    (:attr:`BucketMeasure.OVERHEAD`), else :class:`DirectSums`.
    """
    if lam.size > BucketMeasure.OVERHEAD:
        positive = lam[:np.count_nonzero(lam)]
        mantissa, exponent = np.frexp(positive)
        key = 2 * exponent + (mantissa >= math.sqrt(0.5))
        starts = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
        if BucketMeasure.OVERHEAD + starts.size * (BucketMeasure.TERMS // 2) < lam.size:
            return BucketMeasure(mantissa, exponent, starts, scale)
    return DirectSums(lam, scale)


class DirectSums:
    """The node sums over all n values: n float64 values per node."""

    def __init__(self, lam, scale):
        self.lam = lam
        self.scaled = scale * lam
        self.width = lam.size

    def log1p_sum(self, z):
        """sum_j log1p(scale lam_j z[i]) for every node z[i]."""
        return sum_log1p(self.scaled, z)

    def resolvent_sum(self, z):
        """sum_j lam_j / (1 + scale lam_j z[i]) for every node z[i]."""
        block = np.multiply.outer(z, self.scaled)
        block += 1.0
        return np.divide(self.lam, block, out=block).sum(axis=-1)


class BucketMeasure:
    """n values lam_j in [0, 1], compressed to moments over half-octaves:
    the node sums of :func:`node_sums` in O(B K) per node instead of
    O(n), B being the number of occupied half-octaves and
    K = :attr:`TERMS`.

    Buckets.  With lam = m 2^e from ``frexp`` (m in [1/2, 1)), the key
    2e + (m >= 1/sqrt 2) is exact, so no rounding moves a boundary, and
    in descending order each bucket is one contiguous slice sharing one
    e.  A bucket keeps its count n_b, centre c = (max + min)/2,
    half-width h = (max - min)/2 and moments M_k = sum u^k of
    u = (lam - c)/h in [-1, 1]; where h = 0, u = 0.  u is formed from
    the mantissas m, so it stays in [-1, 1] where lam, c or h are
    subnormal; there c and h are rounded to the nearest subnormal, in
    buckets that add less than 2^-1022 n_b t to sums of at least
    t / (1 + t).  Zeros, squares that underflowed, add nothing to
    either sum and are dropped.

    Series.  With t = scale z and y = t h / (1 + c t),
    1 + lam t = (1 + c t)(1 + y u), and max/min < sqrt 2 gives
    y <= h/c < 3 - 2 sqrt 2 < 0.172, so per bucket

        sum log1p(lam t)       = n_b log1p(c t) + sum_(k=1..K) (-1)^(k+1) y^k M_k / k
        sum lam / (1 + lam t)  = sum_(k=0..K) (-y)^k (c M_k + h M_(k+1)) / (1 + c t)

    both by Horner.  Every term of either sum is positive, so each
    truncation is bounded relative to the bucket's own sum: the log
    tail by h y^K / ((c - h)(K + 1)(1 - y)) <= 0.207 y^K / (0.83 (K + 1)),
    the resolvent tail by (1 + y) y^(K+1) / (1 - y).  K = 22 puts them at
    1.6e-19 and 3.5e-18, below eps/8 = 2.8e-17.

    A node holds at most B (K + 2) float64 values (:attr:`width`).  The
    moments take K + 1 passes over n, and a node's value does not depend
    on the nodes evaluated with it.

    Cost.  A call makes about 50 numpy calls per level of the
    quadrature, against about 3 on the direct sums, and a bucket's
    K-term Horner sum costs about as much as K/2 direct values.  Timed
    on both routes over n = 100..8000 and B = 2..214, the measure costs
    as much as the direct sums over OVERHEAD + B K/2 values.
    """

    #: Series terms K.
    TERMS = 22
    #: The measure's fixed cost per call, in direct values per node.
    OVERHEAD = 512

    def __init__(self, mantissa, exponent, starts, scale):
        """Moments of the positive descending values
        ``ldexp(mantissa, exponent)`` over the buckets that begin at
        ``starts``."""
        ends = np.append(starts[1:], mantissa.size)
        top, bottom = mantissa[starts], mantissa[ends - 1]
        centres, half_widths = 0.5 * (top + bottom), 0.5 * (top - bottom)
        self.scale = scale
        self.counts = ends - starts
        self.centres = np.ldexp(centres, exponent[starts])
        self.half_widths = np.ldexp(half_widths, exponent[starts])
        self.width = starts.size * (self.TERMS + 2)
        inverse = np.divide(1.0, half_widths, out=np.zeros_like(half_widths),
                            where=half_widths > 0.0)
        u = mantissa - np.repeat(centres, self.counts)
        u *= np.repeat(inverse, self.counts)
        moments = np.empty((self.TERMS + 2, starts.size))
        moments[0] = self.counts
        power = u.copy()
        for k in range(1, self.TERMS + 2):
            if k > 1:
                power *= u
            moments[k] = np.add.reduceat(power, starts)
        k = np.arange(self.TERMS + 1)[:, None]
        # log coefficients (-1)^(k+1) M_k / k, k = 1..K
        self._log_coef = (-1.0) ** (k[1:] + 1) * moments[1:-1] / k[1:]
        # resolvent coefficients (-1)^k (c M_k + h M_(k+1)), k = 0..K
        self._resolvent_coef = (-1.0) ** k * (self.centres * moments[:-1]
                                              + self.half_widths * moments[1:])

    def _nodes(self, z):
        """(c t, y) for every node and bucket, each (len(z), B)."""
        t = self.scale * z
        ct = np.multiply.outer(t, self.centres)
        y = np.multiply.outer(t, self.half_widths)
        y /= 1.0 + ct
        return ct, y

    @staticmethod
    def _horner(coef, y):
        """sum_k coef[k-1] y^k over the rows of ``coef``, for every (node, bucket)."""
        acc = y * coef[-1]
        for row in coef[-2::-1]:
            acc += row
            acc *= y
        return acc

    def log1p_sum(self, z):
        """sum_j log1p(scale lam_j z[i]) for every node z[i] >= 0."""
        ct, y = self._nodes(z)
        acc = self._horner(self._log_coef, y)
        acc += self.counts * np.log1p(ct)
        return acc.sum(axis=-1)

    def resolvent_sum(self, z):
        """sum_j lam_j / (1 + scale lam_j z[i]) for every node z[i] >= 0."""
        ct, y = self._nodes(z)
        acc = self._horner(self._resolvent_coef[1:], y)
        acc += self._resolvent_coef[0]
        ct += 1.0
        acc /= ct
        return acc.sum(axis=-1)


def backend_threads() -> int:
    """Worker-thread cap from ELLIPSURF_THREADS (0 or unset = auto)."""
    raw = os.environ.get("ELLIPSURF_THREADS", "0").strip() or "0"
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"ELLIPSURF_THREADS must be an integer, got {raw!r}") from None
    if value <= 0:
        value = os.cpu_count() or 1
    return max(1, value)


def ordered_map(fn, items):
    """[fn(x) for x in items], on up to backend_threads() worker threads.

    Results come back in the order of ``items``, so a caller that merges
    them in that order gets bits that do not depend on the thread count.
    A single item, or a cap of one thread, runs inline without a pool.
    """
    workers = min(backend_threads(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
