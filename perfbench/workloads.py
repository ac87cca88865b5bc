"""The three workloads: inputs from the seed, one op, and its judgement.

Each workload builds a fixed op list from ``--seed``, sized so that the
parent commit spends about ``--seconds`` on it on a 2-core machine, and
computes every reference value before any op is timed.  Every run of a
workload therefore has the same number of samples, so the tail
percentile is the same from run to run.

Inputs are stratified (a fixed grid with seeded jitter) over the
properties that drive cost and failure, so that the figures of two seeds
differ by sampling noise only, not by which corner of the domain a seed
happened to draw.
"""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: A CLI child taking longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0

#: Relative one-sigma that mc_s_to_target prices every Monte Carlo call at.
MC_TARGET_REL = 1e-4


@dataclass
class Record:
    """What one op did: wall time, status and the figures metrics need."""

    kind: str
    wall: float
    status: str
    gross: bool = False
    harness_error: str = ""
    notes: list = field(default_factory=list)
    mc: list = field(default_factory=list)        # (wall, sigma, R, samples, chunk_bytes)
    laplace: list = field(default_factory=list)   # (evals, relative error)
    rss_kb: int = 0
    spans: dict = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdout_path):
    """Run one child to completion; returns (exit code, wall s, peak RSS kB).

    Waits with wait4 so the child's own peak RSS is read; a watchdog
    kills it after CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.send_signal, (signal.SIGKILL,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def mc_cost(wall, sigma, ratio):
    """Seconds to bring one Monte Carlo call to MC_TARGET_REL relative sigma."""
    return wall * (sigma / (MC_TARGET_REL * ratio)) ** 2


def _rel_err(got, want):
    return abs(got - want) / abs(want)


@dataclass
class AxesRef:
    """Reference figures for one set of axes."""

    axes: np.ndarray
    ratio: float
    concentration: float
    bounds: tuple


def _ref(axes):
    return AxesRef(axes, reference.iso_ratio(axes), reference.concentration(axes),
                   reference.l2_bounds(axes))


# ---------------------------------------------------------------------------
# small_n


@dataclass
class SmallOp:
    ref: AxesRef
    mc_seed: int


class SmallN:
    """In-process cross-check of one ellipsoid per op, n = 1..24."""

    name = "small_n"
    in_process = True
    MAX_N = 24
    MC_SAMPLES = 8192
    SETUP = ("import ellipsurf as es\n"
             "e = es.Ellipsoid([1.0, 2.0, 3.0])\n"
             "es.iso_ratio_quad(e); es.iso_ratio_lauricella(e)\n"
             "es.iso_ratio_asymptotic(e); es.bounds_l2(e)\n"
             "es.iso_ratio_mc(e, es.McConfig(samples=8192, seed=0))\n")

    def __init__(self, seed, seconds):
        rng = np.random.default_rng([seed, 1])
        strata = max(1, round(3.5 * seconds))
        self.ops = []
        for i in range(strata * self.MAX_N):
            n = 1 + i % self.MAX_N
            k = i // self.MAX_N
            base = rng.uniform(-1.0, 1.0)
            # the two extreme axes span exactly 10^span, which is what
            # decides whether the Lauricella series converges; the rest
            # are log-uniform in between
            span = 4.0 * (k + rng.random()) / strata
            logs = base + span * rng.random(n)
            if n >= 2:
                logs[:2] = (base, base + span)
            axes = 10.0 ** rng.permutation(logs)
            self.ops.append(SmallOp(_ref(axes), int(rng.integers(2**31))))

    def trace_subset(self):
        return self.ops[::4]

    def mc_chunks(self, es):
        return [(self.MC_SAMPLES, n) for n in range(1, self.MAX_N + 1)]

    def run(self, op, es, tracer=None):
        out = checks.Outcome()
        calls = {}
        crash = ""
        t0 = time.perf_counter()
        try:
            e = es.Ellipsoid(op.ref.axes)
            calls["laplace"] = es.iso_ratio_quad(e)
            calls["lauricella"] = es.iso_ratio_lauricella(e)
            calls["asymptotic"] = es.iso_ratio_asymptotic(e)
            calls["bounds"] = es.bounds_l2(e)
            cfg = es.McConfig(samples=self.MC_SAMPLES, seed=op.mc_seed)
            m0 = time.perf_counter()
            calls["mc"] = es.iso_ratio_mc(e, cfg)
            mc_wall = time.perf_counter() - m0
        except (ValueError, OverflowError) as exc:
            out.fail(f"raised {exc!r}")
        except Exception:  # undocumented: a crash, recorded so the run goes on
            crash = traceback.format_exc(limit=4)
            out.fail(crash)
        wall = time.perf_counter() - t0

        rec = Record("compare", wall, "ok", harness_error=crash)
        r = op.ref.ratio
        for method in ("laplace", "lauricella"):
            est = calls.get(method)
            if est is None:
                continue
            if not est.converged:
                out.fail(f"{method} converged=False")
            out.value(method, est.value, r, checks.quad_tol(r, est.abs_error),
                      flagged=not est.converged)
        if "laplace" in calls:
            rec.laplace.append((calls["laplace"].evals, _rel_err(calls["laplace"].value, r)))
        if "asymptotic" in calls:
            out.asymptotic("asymptotic", calls["asymptotic"].value, r, op.ref.concentration)
        if "bounds" in calls:
            b = calls["bounds"]
            checks.l2_bounds(out, b.ratio_lower, b.ratio_upper, op.ref.bounds, r, len(op.ref.axes))
        if "mc" in calls:
            est = calls["mc"]
            out.value("mc", est.value, r, checks.MC_SIGMAS * est.abs_error)
            chunk = max(cfg.chunk_sizes()) * len(op.ref.axes) * 8
            rec.mc.append((mc_wall, est.abs_error, r, self.MC_SAMPLES, chunk))
        out.close(rec)
        return rec


# ---------------------------------------------------------------------------
# mc


@dataclass
class McOp:
    axes: np.ndarray
    route: str
    samples: int
    mc_seed: int
    ratio: float


class Mc:
    """In-process iso_ratio_mc, both routes, samples * n held equal."""

    name = "mc"
    in_process = True
    DIMS = (3, 8, 100, 1000)
    ROUTES = ("direct_sphere", "gaussian_transform")
    #: samples * n per op: two full default chunks of 65536 rows at n = 1000
    WORK = 2 * 65536 * 1000
    SETUP = ("import ellipsurf as es\n"
             "es.iso_ratio_mc(es.Ellipsoid([1.0, 2.0, 3.0]), es.McConfig(samples=65536, seed=0))\n")

    def __init__(self, seed, seconds):
        rng = np.random.default_rng([seed, 2])
        reps = max(1, round(seconds / 9))
        self.ops = []
        for _ in range(reps):
            for n in self.DIMS:
                # log10 axes stratified over [0, 1] keep the variance of
                # sqrt(sum q^2 u^2) about equal across seeds
                logs = (np.arange(n) + rng.random(n)) / n
                axes = 10.0 ** rng.permutation(logs)
                ratio = reference.iso_ratio(axes)
                for route in self.ROUTES:
                    self.ops.append(McOp(axes, route, -(-self.WORK // n),
                                         int(rng.integers(2**31)), ratio))

    def trace_subset(self):
        return self.ops[:len(self.DIMS) * len(self.ROUTES)]

    def mc_chunks(self, es):
        chunk = es.McConfig(samples=2, seed=0).chunk_size
        return [(min(chunk, -(-self.WORK // n)), n) for n in self.DIMS]

    def run(self, op, es, tracer=None):
        out = checks.Outcome()
        cfg = es.McConfig(samples=op.samples, seed=op.mc_seed)
        est = None
        crash = ""
        t0 = time.perf_counter()
        try:
            est = es.iso_ratio_mc(es.Ellipsoid(op.axes), cfg, route=op.route)
        except (ValueError, OverflowError) as exc:
            out.fail(f"raised {exc!r}")
        except Exception:  # undocumented: a crash, recorded so the run goes on
            crash = traceback.format_exc(limit=4)
            out.fail(crash)
        wall = time.perf_counter() - t0
        rec = Record(op.route, wall, "ok", harness_error=crash)
        if est is not None:
            out.value(op.route, est.value, op.ratio, checks.MC_SIGMAS * est.abs_error)
            chunk = max(cfg.chunk_sizes()) * len(op.axes) * 8
            rec.mc.append((wall, est.abs_error, op.ratio, op.samples, chunk))
        out.close(rec)
        return rec


# ---------------------------------------------------------------------------
# large_n


@dataclass
class CliOp:
    kind: str
    argv: list
    ref: AxesRef
    text: tuple = ()     # (master text, length) of the @file prefix it reads
    samples: int = 0


def _law_axes(law, n, rng):
    if law == "uniform:1,2":
        return rng.uniform(1.0, 2.0, n)
    if law == "loguniform:1e-3,1e3":
        return 10.0 ** rng.uniform(-3.0, 3.0, n)
    if law == "zipf-like:1":
        return np.arange(1, n + 1, dtype=np.float64)
    raise ValueError(law)


def converge_axes(law, n, seed):
    """The axes ``ellipsurf converge`` builds, from its documented stream:
    Philox keyed by (seed, n) for ``uniform:lo,hi``; a_i = i^s for
    ``zipf-like:s``."""
    kind, _, rest = law.partition(":")
    if kind == "uniform":
        lo, hi = (float(v) for v in rest.split(","))
        key = np.array([seed, n], dtype=np.uint64)
        return lo + (hi - lo) * np.random.Generator(np.random.Philox(key=key)).random(n)
    if kind == "zipf-like":
        return np.arange(1, n + 1, dtype=np.float64) ** float(rest)
    raise ValueError(law)


def _log_grid(cells, rng):
    """One n per cell of a log grid over [1e5, 1e6], jittered within +-10% of a cell."""
    return [int(round(10 ** (5 + (k + 0.5 + 0.2 * (rng.random() - 0.5)) / cells)))
            for k in range(cells)]


class LargeN:
    """ellipsurf CLI processes on @file axes with n in [1e5, 1e6].

    Every op has its own n, one cell of a log grid.  With ops of distinct
    sizes the latencies form a continuum, so a slow outlier shifts the
    median to a neighbour of similar cost instead of across a gap between
    clusters of equal-n ops.  Cell k runs law k mod 3 and op kind
    (k div 3) mod 4, so every (law, kind) pair recurs across the range.
    """

    name = "large_n"
    in_process = False
    LAWS = ("uniform:1,2", "loguniform:1e-3,1e3", "zipf-like:1")
    KINDS = ("area_auto", "area_laplace", "bounds_check", "area_mc")
    CONVERGE_LAWS = ("uniform:1,2", "zipf-like:1")
    #: samples * n of the Monte Carlo op; bounds a chunk to 128 MiB
    MC_WORK = 1 << 24
    SETUP = None  # set-up is one CLI process on three axes

    def __init__(self, seed, seconds):
        rng = np.random.default_rng([seed, 3])
        cells = len(self.LAWS) * len(self.KINDS) * max(1, round(seconds / 15))
        grid = _log_grid(cells, rng)
        # one master list per law; an op reads the prefix of its n
        master = {}
        for law in self.LAWS:
            n_max = max(n for k, n in enumerate(grid) if self.LAWS[k % len(self.LAWS)] == law)
            axes = _law_axes(law, n_max, rng)
            lines = list(map(repr, axes.tolist()))
            ends = np.cumsum([len(line) + 1 for line in lines])
            master[law] = (axes, "\n".join(lines) + "\n", ends.tolist())
        self.ops = []
        for k, n in enumerate(grid):
            law = self.LAWS[k % len(self.LAWS)]
            kind = self.KINDS[(k // len(self.LAWS)) % len(self.KINDS)]
            axes, text, ends = master[law]
            op = CliOp(kind, ["--axes", f"@{OUT / 'axes.txt'}"], _ref(axes[:n]),
                       (text, ends[n - 1]))
            if kind == "area_auto":
                op.argv = ["area"] + op.argv
            elif kind == "area_laplace":
                op.argv = ["area"] + op.argv + ["--method", "laplace"]
            elif kind == "bounds_check":
                op.argv = ["bounds"] + op.argv + ["--check"]
            else:
                op.samples = max(2, self.MC_WORK // n)
                op.argv = ["area"] + op.argv + ["--method", "mc", "--samples", str(op.samples),
                                                "--seed", str(int(rng.integers(2**31)))]
            self.ops.append(op)
        for law, n in zip(self.CONVERGE_LAWS, _log_grid(len(self.CONVERGE_LAWS), rng)):
            cseed = int(rng.integers(2**31))
            self.ops.append(CliOp("converge", ["converge", "--dims", str(n), "--axis-law", law,
                                               "--seed", str(cseed)],
                                  _ref(converge_axes(law, n, cseed))))

    def trace_subset(self):
        return self.ops[::2] + [op for op in self.ops[1::2] if op.kind == "converge"]

    def mc_chunks(self, es):
        chunk = es.McConfig(samples=2, seed=0).chunk_size
        return [(min(chunk, op.samples), len(op.ref.axes)) for op in self.ops if op.kind == "area_mc"]

    def cleanup(self):
        (OUT / "axes.txt").unlink(missing_ok=True)

    def run(self, op, es, tracer=None):
        stdout = OUT / "child.out"
        if op.text:
            text, length = op.text
            with open(OUT / "axes.txt", "w", encoding="ascii") as fh:
                fh.write(text[:length])
        if tracer is None:
            argv = [sys.executable, "-m", "ellipsurf.cli"] + op.argv
        else:
            argv = [sys.executable, str(HERE / "cli_launcher.py"), str(OUT / "spans.json")] + op.argv
        code, wall, rss = run_child(argv, stdout)
        rec = Record(op.kind, wall, "ok", rss_kb=rss)
        text = stdout.read_text(encoding="utf-8", errors="replace")
        err = Path(str(stdout) + ".err").read_text(encoding="utf-8", errors="replace")
        if tracer is not None:
            spans_path = OUT / "spans.json"
            if spans_path.exists():
                rec.spans = json.loads(spans_path.read_text())
                spans_path.unlink()
        out = checks.Outcome()
        if code in (2, 3):
            out.fail(f"exit {code}: {err.strip()[-200:]}")
        elif code != 0:
            rec.harness_error = f"exit {code}: {err.strip()[-300:]}"
            out.fail(rec.harness_error)
        if op.kind == "area_mc":
            # priced whatever the outcome, so that fixing a failure does not
            # read as a cost increase
            chunk = min(op.samples, es.McConfig(samples=2, seed=0).chunk_size)
            rec.mc.append((wall, _plain_sigma(op), op.ref.ratio, op.samples,
                           chunk * len(op.ref.axes) * 8))
        if code in (0, 3):
            try:
                self._judge(op, text, rec, out)
            except (ValueError, KeyError, IndexError) as exc:
                rec.harness_error = f"unreadable output ({exc!r}): {text[:200]!r}"
                out.fail(rec.harness_error)
        out.close(rec)
        return rec

    def _judge(self, op, text, rec, out):
        if op.kind == "converge":
            ratio, conc = op.ref.ratio, op.ref.concentration
            rows = text.strip().splitlines()
            fields = dict(zip(rows[0].split(","), rows[1].split(",")))
            out.value("converge.laplace", float(fields["iso_ratio_laplace"]), ratio,
                      checks.quad_tol(ratio, 0.0))
            out.asymptotic("converge.asymptotic", float(fields["iso_ratio_asymptotic"]),
                           ratio, conc)
            rec.laplace.append((0, _rel_err(float(fields["iso_ratio_laplace"]), ratio)))
            return
        ref = op.ref
        report = json.loads(text)
        r = ref.ratio
        if op.kind == "bounds_check":
            checks.l2_bounds(out, report["ratio_lower"], report["ratio_upper"], ref.bounds,
                             r, len(ref.axes))
            # no error estimate is reported: the requested 1e-12 applies;
            # contained: false is the program's own flag
            out.value("bounds.iso_ratio_laplace", report["iso_ratio_laplace"], r,
                      checks.quad_tol(r, 0.0), flagged=not report["contained"])
            return
        volume = report["volume"]
        # abs_error is on the surface area; it maps back to R only when
        # the volume is a finite non-zero float
        sigma = report["abs_error"] / volume if 0.0 < volume < math.inf else 0.0
        flagged = not report["converged"]
        if not report["converged"]:
            out.fail("converged=False")
        method = report["method"]
        got = report["iso_ratio"]
        if method == "laplace":
            out.value("area.laplace", got, r, checks.quad_tol(r, sigma), flagged)
            rec.laplace.append((report["evals"], _rel_err(got, r)))
        elif method == "asymptotic":
            out.asymptotic("area.asymptotic", got, r, ref.concentration, flagged)
        elif method == "mc":
            out.value("area.mc", got, r, checks.MC_SIGMAS * _plain_sigma(op), flagged)
        else:
            raise ValueError(f"unexpected method {method!r}")


def _plain_sigma(op):
    """Exact standard error of the plain sphere estimator for a CLI mc op.

    The CLI reports sigma only as abs_error on the surface area, which
    the volume's underflow or overflow destroys at every large_n size.
    """
    return math.sqrt(reference.plain_mc_variance(op.ref.axes, op.ref.ratio) / op.samples)


WORKLOADS = {w.name: w for w in (SmallN, LargeN, Mc)}
