import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from ellipsurf import _kernels


@pytest.fixture
def batch():
    gen = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    x = gen.standard_normal((5000, 7))
    q2 = gen.uniform(0.1, 4.0, size=7)
    return x, q2


def test_active_kernels_are_deterministic(batch):
    x, q2 = batch
    a = _kernels.row_sqrt_qform(x, q2)
    b = _kernels.row_sqrt_qform(x.copy(), q2.copy())
    assert a.tobytes() == b.tobytes()


def test_sum_log1p_per_node_matches_one_node(batch):
    _, q2 = batch
    t = np.geomspace(1e-30, 1e30, 41)
    block = _kernels.sum_log1p(q2, t)
    assert block.shape == t.shape
    for i, ti in enumerate(t):
        assert block[i] == float(np.log1p(q2 * ti).sum())


def test_no_jit_env_flag_selects_numpy_path():
    # smoke test: a fresh interpreter imports the package and runs one
    # deterministic and one Monte Carlo estimate
    code = (
        "import ellipsurf\n"
        "e = ellipsurf.Ellipsoid([1.0, 2.0])\n"
        "r = ellipsurf.iso_ratio_quad(e)\n"
        "assert abs(r.value - 1.5419644251900493) < 1e-9\n"
        "m = ellipsurf.iso_ratio_mc(e, ellipsurf.McConfig(samples=20000, seed=3))\n"
        "assert abs(m.value - r.value) < 4 * m.abs_error\n"
        "print('smoke-ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "smoke-ok" in proc.stdout


def test_backend_threads_env(monkeypatch):
    monkeypatch.setenv("ELLIPSURF_THREADS", "3")
    assert _kernels.backend_threads() == 3
    monkeypatch.setenv("ELLIPSURF_THREADS", "0")
    assert _kernels.backend_threads() >= 1
    monkeypatch.delenv("ELLIPSURF_THREADS")
    assert _kernels.backend_threads() >= 1
    monkeypatch.setenv("ELLIPSURF_THREADS", "junk")
    with pytest.raises(ValueError):
        _kernels.backend_threads()


def test_ordered_map_keeps_order_on_threads(monkeypatch):
    monkeypatch.setenv("ELLIPSURF_THREADS", "3")
    assert _kernels.ordered_map(lambda i: i * i, range(50)) == [i * i for i in range(50)]


@pytest.mark.parametrize("threads, items", [("4", [7]), ("1", [7, 8, 9])])
def test_ordered_map_runs_inline_without_a_pool(monkeypatch, threads, items):
    monkeypatch.setenv("ELLIPSURF_THREADS", threads)
    caller = threading.get_ident()
    assert _kernels.ordered_map(lambda _: threading.get_ident(), items) == [caller] * len(items)


@pytest.mark.parametrize("n", [1, 3, 100, 1000, 3000, 2**20, 3 * 10**6])
def test_row_block_fills_the_budget(n):
    rows = _kernels.row_block(n)
    assert rows >= 1
    assert rows * n <= _kernels.BLOCK_ELEMENTS or rows == 1
    assert (rows + 1) * n > _kernels.BLOCK_ELEMENTS


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_row_sqrt_qform_rows_match_whole_batch_in_any_blocks(blas_threads):
    # a row's bits must not depend on the rows evaluated with it, for
    # blocks of any row count; a BLAS matrix-vector product sums some
    # rows of a slice with another kernel.  Pinned per BLAS thread count
    # in a fresh process.
    code = (
        "import numpy as np\n"
        "from ellipsurf import _kernels\n"
        "gen = np.random.Generator(np.random.Philox(key=np.array([12, 0], dtype=np.uint64)))\n"
        "for m, n in ((4096, 3), (4096, 8), (4096, 300), (1200, 2000)):\n"
        "    x = gen.standard_normal((m, n))\n"
        "    q2 = gen.uniform(0.1, 4.0, size=n)\n"
        "    whole = _kernels.row_sqrt_qform(x, q2).tobytes()\n"
        "    for rows in (1, 3, 7, 8, 64, 524, 1024):\n"
        "        parts = [_kernels.row_sqrt_qform(x[i:i + rows].copy(), q2)\n"
        "                 for i in range(0, m, rows)]\n"
        "        assert np.concatenate(parts).tobytes() == whole, (n, rows)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
