import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from ellipsurf import _kernels, quadrature
from ellipsurf.geometry import Ellipsoid
from ellipsurf.lauricella import iso_ratio_lauricella


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


def _law(name, n):
    gen = np.random.Generator(np.random.Philox(key=np.array([13, 0], dtype=np.uint64)))
    if name == "uniform":
        return gen.uniform(1.0, 2.0, n)
    if name.startswith("loguniform"):
        span = float(name.partition(":")[2])
        return 10.0 ** gen.uniform(-span, span, n)
    if name == "a_i=i":
        return np.arange(1.0, n + 1.0)
    if name == "spheroid":
        return np.concatenate((np.full(3, 2.0), np.ones(n - 3)))
    if name == "equal":
        return np.full(n, 3.0)
    if name == "subnormal":  # the other squares are subnormal, spread over buckets
        return np.concatenate(([1e-155], gen.uniform(1.0, 2.0, n - 1)))
    if name == "subnormal_width":  # squares near 1e-298 whose half-width is subnormal
        return np.concatenate(([1e-149], gen.uniform(1.0, 1.0 + 1e-12, n - 1)))
    assert name == "one_tiny"  # the other squares underflow to 0
    return np.concatenate(([1e-200], np.ones(n - 1)))


LAWS = ["uniform", "loguniform:3", "loguniform:8", "a_i=i", "spheroid", "equal",
        "subnormal", "subnormal_width", "one_tiny"]
EPS = np.finfo(np.float64).eps


def _laplace_nodes(lam):
    # the 289 nodes of the laplace grid at step 1/32
    end = quadrature._tau_end(1.0)
    tau = -end + np.arange(int(64 * end) + 1) / 32.0
    assert tau.size == 289
    return np.exp(-math.log(float(lam.sum())) + 2.0 * np.sinh(tau))


@pytest.mark.parametrize("law", LAWS)
def test_bucket_measure_matches_direct_sums(law):
    _, lam = quadrature._scaled_q2(1.0 / _law(law, 10**5))
    measure = _kernels.node_sums(lam)
    assert isinstance(measure, _kernels.BucketMeasure)
    t = _laplace_nodes(lam)
    direct_log = np.concatenate([_kernels.sum_log1p(lam, t[i:i + 10])
                                 for i in range(0, t.size, 10)])
    direct_res = np.concatenate([(lam / (1.0 + np.multiply.outer(t[i:i + 10], lam))).sum(axis=-1)
                                 for i in range(0, t.size, 10)])
    log_sum, res_sum = measure.log1p_sum(t), measure.resolvent_sum(t)
    assert np.all(np.abs(log_sum - direct_log) <= 8 * EPS * direct_log)
    assert np.all(np.abs(res_sum - direct_res) <= 8 * EPS * direct_res)
    # the proved truncation bounds of the docstring, per node
    k = _kernels.BucketMeasure.TERMS
    c, h, n_b = measure.centres, measure.half_widths, measure.counts
    y = np.multiply.outer(t, h) / (1.0 + np.multiply.outer(t, c))
    log_tail = (n_b * y ** (k + 1) / ((k + 1) * (1.0 - y))).sum(axis=-1)
    res_tail = (n_b * (c + h) / (1.0 + np.multiply.outer(t, c))
                * y ** (k + 1) / (1.0 - y)).sum(axis=-1)
    assert np.all(log_tail <= EPS / 8 * log_sum)
    assert np.all(res_tail <= EPS / 8 * res_sum)


def test_bucket_measure_node_matches_one_node():
    _, lam = quadrature._scaled_q2(1.0 / _law("loguniform:3", 10**4))
    measure = _kernels.node_sums(lam)
    assert isinstance(measure, _kernels.BucketMeasure)
    t = _laplace_nodes(lam)
    log_sum, res_sum = measure.log1p_sum(t), measure.resolvent_sum(t)
    for i in range(0, t.size, 7):
        assert measure.log1p_sum(t[i:i + 1])[0] == log_sum[i]
        assert measure.resolvent_sum(t[i:i + 1])[0] == res_sum[i]


def test_bucket_measure_only_where_it_costs_less():
    # n > OVERHEAD + B K/2, else the direct sums: 523 values of one bucket
    # are direct, 524 not
    assert isinstance(_kernels.node_sums(np.ones(523)), _kernels.DirectSums)
    assert _kernels.node_sums(np.ones(524)).width == 24
    _, lam = quadrature._scaled_q2(np.geomspace(1e-8, 1e8, 2000))
    assert isinstance(_kernels.node_sums(lam), _kernels.DirectSums)


@pytest.mark.parametrize("law", ["subnormal", "subnormal_width", "loguniform:8"])
@pytest.mark.parametrize("route", [quadrature.iso_ratio_quad, iso_ratio_lauricella])
def test_bucket_measure_routes_match_the_direct_routes(monkeypatch, route, law):
    e = Ellipsoid(_law(law, 10**5))
    est = route(e)
    monkeypatch.setattr(_kernels, "node_sums", lambda lam, scale=1.0: _kernels.DirectSums(lam, scale))
    direct = route(e)
    assert est.converged and direct.converged
    assert abs(est.value - direct.value) <= min(est.abs_error, direct.abs_error)


@pytest.mark.parametrize("route", [quadrature.iso_ratio_quad, iso_ratio_lauricella])
def test_bucket_measure_routes_are_permutation_bit_identical(route):
    axes = _law("loguniform:3", 10**5)
    whole = route(Ellipsoid(axes))
    gen = np.random.Generator(np.random.Philox(key=np.array([14, 0], dtype=np.uint64)))
    assert route(Ellipsoid(gen.permutation(axes))) == whole


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
    with pytest.raises(ValueError, match="ELLIPSURF_THREADS"):
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
