"""Hot numeric kernels, as plain vectorized numpy.

Every kernel is deterministic run-to-run: identical inputs give
identical bits.  The measured hot spots of the package are the random
draw and ``log1p``, both already vectorized numpy, so there is one
implementation per kernel.

Work that can outgrow memory is cut into blocks of at most
:data:`BLOCK_ELEMENTS` float64 values, and independent blocks or chunks
run on the worker threads of :func:`ordered_map`.  numpy's draws,
``log1p``, ``exp`` and reductions release the interpreter lock, so the
threads overlap.
"""

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


def backend_threads() -> int:
    """Worker-thread cap from ELLIPSURF_THREADS (0 or unset = auto)."""
    raw = os.environ.get("ELLIPSURF_THREADS", "0").strip() or "0"
    value = int(raw)
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
