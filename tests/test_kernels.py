import subprocess
import sys

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
