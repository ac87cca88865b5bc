"""Hot numeric kernels, as plain vectorized numpy.

Every kernel is deterministic run-to-run: identical inputs give
identical bits.  The measured hot spots of the package are the random
draw and ``log1p``, both already vectorized numpy, so there is one
implementation per kernel.
"""

import os

import numpy as np


def row_sqrt_qform(x, q2):
    """sqrt(sum_j q2[j] * x[i,j]^2) for every row i."""
    return np.sqrt((x * x) @ q2)


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


def backend_threads() -> int:
    """Worker-thread cap from ELLIPSURF_THREADS (0 or unset = auto)."""
    raw = os.environ.get("ELLIPSURF_THREADS", "0").strip() or "0"
    value = int(raw)
    if value <= 0:
        value = os.cpu_count() or 1
    return max(1, value)
