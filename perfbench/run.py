#!/usr/bin/env python3
"""ellipsurf benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload {small_n,large_n,mc} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; ellipsurf is imported from its
``src`` directory, and CLI children get it on PYTHONPATH.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
a fuller result file (machine context, per-op notes, percentiles) goes
to ``perfbench/out/``.  See ``perfbench/README.md`` for the metrics.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs a subset of the op list twice, untraced and traced,
and reports the per-layer metrics and the tracing overhead.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import mpmath
import numpy
import scipy

import reference
import tracing
import workloads as wl
from workloads import HERE, ROOT, SRC

#: Child processes over which set-up time and import time take a median.
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3

#: In-process ops run untimed before the untraced pass of a traced run.
WARMUP_OPS = 8

#: Rows of the kernel micro-batch, after bench/bench_kernels.py (dim 8).
KERNEL_ROWS = 1 << 18


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="ellipsurf benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# context


def context():
    kernels = sys.modules.get("ellipsurf._kernels")
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "ellipsurf").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "l3_cache": l3_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": "numba" if getattr(kernels, "JIT_ENABLED", False) else "numpy",
        "threads": threads(),
        "load": "closed loop, one client, one op (or one CLI child) at a time",
    }


def l3_cache():
    """The 'L3 cache' line of lscpu, e.g. '32 MiB (1 instance)', or None."""
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("L3 cache:"):
            return line.split(":", 1)[1].strip()
    return None


# ---------------------------------------------------------------------------
# child-process measurements


def setup_seconds(workload):
    """Median wall time of fresh processes that import and run one tiny op."""
    if workload.SETUP is None:
        argv = [sys.executable, "-m", "ellipsurf.cli", "area", "--axes", "1,2,3"]
    else:
        argv = [sys.executable, "-c", workload.SETUP]
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _rss = wl.run_child(argv, wl.OUT / "setup.out")
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}")
        times.append(wall)
    return statistics.median(times)


def import_times():
    """Median (ellipsurf.cli, scipy) cumulative import seconds from -X importtime.

    importtime prints a module after the modules it imported, indented by
    depth; walking the lines backwards meets each parent before its
    children, so the scipy total counts only scipy modules whose importer
    is not itself a scipy module.
    """
    cli, sci = [], []
    for _ in range(IMPORTTIME_REPEATS):
        code, _wall, _rss = wl.run_child(
            [sys.executable, "-X", "importtime", "-c", "import ellipsurf.cli"], wl.OUT / "imp.out")
        if code != 0:
            raise RuntimeError(f"import child exited {code}")
        total = scipy_total = 0
        ancestors = []
        lines = Path(str(wl.OUT / "imp.out") + ".err").read_text().splitlines()
        for line in reversed(lines):
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cum = int(parts[1])
            depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
            top = parts[2].strip().split(".")[0]
            del ancestors[depth:]
            if depth == 0 and top == "ellipsurf":
                total += cum
            elif top == "scipy" and "scipy" not in ancestors[-1:]:
                scipy_total += cum
            ancestors.append(top)
        cli.append(total * 1e-6)
        sci.append(scipy_total * 1e-6)
    return statistics.median(cli), statistics.median(sci)


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


def end_to_end(workload, records, wall, setup_s):
    ops = len(records)
    lat_ms = [r.wall * 1e3 for r in records]
    tail_ms, tail_pct = tail(lat_ms)
    failed = sum(r.status == "failed" for r in records)
    wrong = sum(r.status == "wrong" for r in records)
    mc_cost = sum(wl.mc_cost(w, s, R) for r in records for (w, s, R, _n, _c) in r.mc)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(r.rss_kb for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "mc_s_to_target": (mc_cost, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        # add-one smoothed, so that a share of 0 still has a ratio to
        # compare a later run against
        "failed_share": ((failed + 1) / (ops + 1), "share"),
        "wrong_share": ((wrong + 1) / (ops + 1), "share"),
    }
    detail = {"ops": ops, "failed_ops": failed, "wrong_ops": wrong,
              "op_ms_tail_percentile": tail_pct, "op_ms_tail_samples": ops,
              "wall_s": wall}
    return metrics, detail


def per_layer(workload, es, records, untraced_wall, traced_wall, counts, spans_by_child,
              import_s_by_child):
    ops = len(records)
    self_by_layer = defaultdict(float)
    by_name_self = defaultdict(float)
    by_name_dur = defaultdict(float)
    for spans in spans_by_child:
        for layer, name, _op, dur, self_t in tracing.self_times(spans):
            self_by_layer[layer] += self_t
            by_name_self[(layer, name)] += self_t
            by_name_dur[(layer, name)] += dur

    def named(layer, prefix, field=by_name_dur):
        return sum(v for (lay, n), v in field.items() if lay == layer and n.startswith(prefix))

    cli_import, scipy_import = import_times()
    mc_calls = [c for r in records for c in r.mc]
    # converge reports no eval count (0); its results are left out
    lap = [c for r in records for c in r.laplace if c[0]]
    digits = sum(max(0.0, -math.log10(max(err, 1e-16))) for _e, err in lap)
    evals = sum(e for e, _err in lap)
    op_wall = sum(r.wall for r in records)
    accounted = sum(self_by_layer.values()) + sum(import_s_by_child)
    m = {
        "cli.import_s": (cli_import, "s"),
        "cli.import_scipy_s": (scipy_import, "s"),
        "cli.parse_axes_s": (named("cli", "parse_axes") / ops, "s"),
        "cli.axes_sha256_s": (named("cli", "axes_sha256") / ops, "s"),
        "geometry.ellipsoid_s": (named("geometry", "Ellipsoid.", by_name_self) / ops, "s"),
        "geometry.volume_s": (named("geometry", "ellipsoid_volume") / ops, "s"),
        "geometry.volume_underflow": (counts["geometry.volume_underflow"], "count"),
        "quadrature.evals": (counts["quadrature.evals"] / ops, "count"),
        "quadrature.evals_per_digit": (evals / digits if digits else 0.0, "count"),
        "quadrature.unconverged": (counts["quadrature.unconverged"], "count"),
        "kernels.sum_log1p_s": (named("kernels", "sum_log1p") / ops, "s"),
        "kernels.sum_log1p_calls": (counts["kernels.sum_log1p_calls"] / ops, "count"),
        "kernels.log1p_bytes": (counts["kernels.log1p_bytes"] / ops, "B"),
        "lauricella.fd_calls": (counts["lauricella.fd_calls"] / ops, "count"),
        "lauricella.series_terms": (counts["lauricella.series_terms"] / ops, "count"),
        "lauricella.integral_evals": (counts["lauricella.integral_evals"] / ops, "count"),
        "lauricella.unconverged": (counts["lauricella.unconverged"], "count"),
        "mc.rng_draw_s": (rng_draw_seconds(workload, es), "s"),
        "kernels.row_kernel_s": (named("kernels", "row_") / ops, "s"),
        "mc.var_per_sample": (statistics.fmean(n * (s / R) ** 2 for (_w, s, R, n, _c) in mc_calls)
                              if mc_calls else 0.0, "1"),
        "mc.chunk_bytes": (max((c for *_x, c in mc_calls), default=0), "B"),
        "mc.threads": (threads(), "count"),
        "trace.op_wall_s": (op_wall / ops, "s"),
        "trace.accounted_share": (accounted / op_wall, "share"),
        "trace.overhead_share": (traced_wall / untraced_wall - 1.0, "share"),
    }
    for layer in ("cli", "geometry", "quadrature", "lauricella", "mc", "bounds", "kernels"):
        m[f"{layer}.self_s"] = (self_by_layer[layer] / ops, "s")
    m.update(kernel_rows(es))
    return m


def threads():
    kernels = sys.modules.get("ellipsurf._kernels")
    if kernels is not None and hasattr(kernels, "backend_threads"):
        return kernels.backend_threads()
    return os.cpu_count()


def rng_draw_seconds(workload, es):
    """Sum over the workload's Monte Carlo chunk shapes of one chunk's
    standard-normal draw from the program's own stream (median of 3)."""
    total = 0.0
    for rows, n in sorted(set(workload.mc_chunks(es))):
        gen = es.RngStream(0, 0).generator()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            gen.standard_normal((rows, n))
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total


def kernel_rows(es):
    """The four rows bench/bench_kernels.py times, on the active backend."""
    kernels = sys.modules["ellipsurf._kernels"]
    gen = es.RngStream(0, 0).generator()
    x = gen.standard_normal((KERNEL_ROWS, 8))
    q2 = gen.uniform(0.1, 4.0, size=8)
    rows = {
        "kernels.row_sqrt_qform_s": lambda: kernels.row_sqrt_qform(x, q2),
        "kernels.row_norm_s": lambda: kernels.row_norm(x),
        "kernels.row_pnorm_p1_s": lambda: kernels.row_pnorm(x, 1.0),
        "kernels.row_pnorm_p3_s": lambda: kernels.row_pnorm(x, 3.0),
    }
    out = {}
    for name, call in rows.items():
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            numpy.asarray(call())
            best = min(best, time.perf_counter() - t0)
        out[name] = (best, "s")
    return out


# ---------------------------------------------------------------------------
# driver


def run_pass(workload, es, ops, tracer=None):
    """Run ``ops`` in order, one at a time; returns (records, wall seconds).

    ``tracer`` is a Tracer for in-process workloads, ``True`` to trace
    CLI children, or None.
    """
    records = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if hasattr(tracer, "op"):
            tracer.op = i
        records.append(workload.run(op, es, tracer))
    return records, time.perf_counter() - t0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ellipsurf" / "__init__.py").is_file():
        print(f"error: no ellipsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ellipsurf as es

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl.OUT.mkdir(exist_ok=True)
    ctx = context()
    reference.self_check()
    workload = wl.WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        if args.trace == 0:
            setup_s = setup_seconds(workload)
            records, wall = run_pass(workload, es, workload.ops)
            metrics, detail = end_to_end(workload, records, wall, setup_s)
        else:
            subset = workload.trace_subset()
            if workload.in_process:
                # first calls pay lazy imports and allocator growth; keep
                # them out of the untraced figure the overhead is taken against
                run_pass(workload, es, subset[:WARMUP_OPS])
            plain, untraced = run_pass(workload, es, subset)
            records, traced, counts, spans, imports = traced_pass(workload, es, subset)
            metrics = per_layer(workload, es, records, untraced, traced, counts, spans, imports)
            # spans of each process, as (id, parent, layer, name, t0, t1, op)
            spans_name = f"{args.workload}_seed{args.seed}_spans.json"
            (wl.OUT / spans_name).write_text(json.dumps(spans), encoding="utf-8")
            detail = {"ops": len(subset), "untraced_wall_s": untraced, "traced_wall_s": traced}
            records = plain + records
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    harness = [r.harness_error for r in records if r.harness_error]
    gross = [n for r in records if r.gross for n in r.notes]
    correct = not harness and not gross
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(harness),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": ctx,
        "predictions": json.loads((HERE / "predictions.json").read_text())[args.workload],
        "detail": detail, **result,
        "harness_errors": harness[:20], "gross": gross[:20],
        "fault_notes": sorted({n.split(":")[0] for r in records for n in r.notes}),
        "ops": [{"kind": r.kind, "ms": r.wall * 1e3, "status": r.status, "notes": r.notes[:3]}
                for r in records],
    }
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (wl.OUT / name).write_text(json.dumps(full, indent=1), encoding="utf-8")
    print(f"{args.workload}: backend={ctx['kernel_backend']} threads={ctx['threads']} "
          f"detail={json.dumps(detail)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def traced_pass(workload, es, ops):
    """Run ``ops`` traced; returns (records, wall, counts, spans per
    process, import seconds per CLI child)."""
    if workload.in_process:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records, wall = run_pass(workload, es, ops, tracer)
        finally:
            tracer.uninstall()
        spans = [tracer.spans]
        return records, wall, defaultdict(int, tracer.counts), spans, []
    records, wall = run_pass(workload, es, ops, tracer=True)
    counts = defaultdict(int)
    spans, imports = [], []
    for r in records:
        if r.spans:
            for k, v in r.spans["counts"].items():
                counts[k] += v
            spans.append([tuple(s) for s in r.spans["spans"]])
            imports.append(r.spans["import_s"])
    return records, wall, counts, spans, imports


if __name__ == "__main__":
    sys.exit(main())
