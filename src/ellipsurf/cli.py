"""Command-line front end.

Subcommands: ``area`` (single computation), ``compare`` (multi-method
agreement report), ``converge`` (large-n study, CSV), ``bounds``
(two-sided report), ``selftest`` (embedded invariants).

Exit codes, exhaustively: 0 success or verdict, 1 selftest failure,
2 invalid input, 3 numerical non-convergence.

Value output for a fixed request (including seed) is byte-identical
across runs; wall_time_ms is the single field excluded from that
contract.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from . import bounds as bounds_mod
from . import geometry
from . import lauricella as lauricella_mod
from . import mc as mc_mod
from . import quadrature as quad_mod
from .geometry import Ellipsoid, VolumeOverflowError
from .selftest import run_selftest

#: Ratio estimators by name: (ellipsoid, parsed args) -> Estimate.  Each
#: entry looks its function up through the module at call time, so a
#: wrapper installed on the module attribute sees the call.
METHODS = {
    "mc": lambda e, a: mc_mod.iso_ratio_mc(
        e, mc_mod.McConfig(samples=a.samples, seed=a.seed), route="direct_sphere"),
    "gauss": lambda e, a: mc_mod.iso_ratio_mc(
        e, mc_mod.McConfig(samples=a.samples, seed=a.seed), route="gaussian_transform"),
    "laplace": lambda e, a: quad_mod.iso_ratio_quad(e, a.tol),
    "lauricella": lambda e, a: lauricella_mod.iso_ratio_lauricella(e, alpha=a.alpha, tol=a.tol),
    "asymptotic": lambda e, a: bounds_mod.iso_ratio_asymptotic(e),
}

#: deterministic-pair agreement tolerance used by ``compare``.
DETERMINISTIC_PAIR_RTOL = 1e-6


def parse_axes(raw: str) -> np.ndarray:
    """Parse '1,2,3' or '@path' (one decimal per line) into a float64 array.

    Items are spelled as Python ``float`` accepts them; only when one
    fails are they parsed again one by one, to name it.
    """
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="ascii") as fh:
            items = list(filter(None, map(str.strip, fh)))
    else:
        items = list(filter(None, map(str.strip, raw.split(","))))
    if not items:
        raise ValueError("no axes given")
    try:
        return np.fromiter(map(float, items), dtype=np.float64, count=len(items))
    except ValueError:
        for i, item in enumerate(items):
            try:
                float(item)
            except ValueError:
                raise ValueError(f"axis {i + 1} is not a number: {item!r}") from None
        raise


def build_ellipsoid(axes: Sequence[float], inverse: bool) -> Ellipsoid:
    if inverse:
        return Ellipsoid.from_inverse_axes(axes)
    return Ellipsoid(axes)


def axes_sha256(e: Ellipsoid) -> str:
    """sha256 of the semi-axes as little-endian float64 bytes."""
    return hashlib.sha256(e.axes_array().astype("<f8").tobytes()).hexdigest()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_flat(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.keys())
        writer.writerow("" if v is None else v for v in report.values())
        return buf.getvalue()
    lines = [f"{k}: {v}" for k, v in report.items()]
    return "\n".join(lines) + "\n"


def _method_report(e: Ellipsoid, method: str, args) -> tuple:
    """Run one method of :data:`METHODS`: its ratio Estimate, and the
    fields ``area`` and ``compare`` share."""
    t0 = time.perf_counter()
    ratio = METHODS[method](e, args)
    surface = geometry.surface_area(e, ratio)
    return ratio, {
        "iso_ratio": ratio.value,
        "surface_area": surface.value,
        "abs_error": surface.abs_error,
        "evals": ratio.evals,
        "seed": ratio.seed,
        "alpha": args.alpha if method == "lauricella" else None,
        "converged": ratio.converged,
        "wall_time_ms": (time.perf_counter() - t0) * 1000.0,
    }


def cmd_area(args) -> int:
    e = build_ellipsoid(parse_axes(args.axes), args.inverse)
    method = "laplace" if args.method == "auto" else args.method
    _, shared = _method_report(e, method, args)  # before the volume, whose overflow is exit 2
    report = {"dimension": e.n, "axes_sha256": axes_sha256(e), "method": method,
              "volume": geometry.ellipsoid_volume(e), **shared}
    _emit(_render_flat(report, args.format), args.out)
    return 0 if report["converged"] else 3


def _bounds_report(e: Ellipsoid, check: bool, tol: float) -> dict:
    rep = bounds_mod.bounds_l2(e)
    out = {
        "dimension": rep.n,
        "axes_sha256": axes_sha256(e),
        "lower_const": rep.lower_const,
        "upper_const": rep.upper_const,
        "l2_norm": rep.l2_norm,
        "ratio_lower": rep.ratio_lower,
        "ratio_upper": rep.ratio_upper,
        "area_lower": rep.area_lower,
        "area_upper": rep.area_upper,
    }
    if check:
        est = quad_mod.iso_ratio_quad(e, tol)
        rn = est.value / e.n
        out["iso_ratio_laplace"] = est.value
        out["contained"] = bool(
            rep.ratio_lower * (1 - 1e-12) <= rn <= rep.ratio_upper * (1 + 1e-12)
        )
    return out


def cmd_bounds(args) -> int:
    e = build_ellipsoid(parse_axes(args.axes), args.inverse)
    _emit(_render_flat(_bounds_report(e, args.check, args.tol), args.format), args.out)
    return 0


def cmd_compare(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if len(methods) < 2:
        raise ValueError("compare needs at least two methods")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is repeated; name each method once")
    e = build_ellipsoid(parse_axes(args.axes), args.inverse)

    ratios, per_method = {}, {}
    for m in methods:
        ratios[m], per_method[m] = _method_report(e, m, args)
    failed = not all(info["converged"] for info in per_method.values())

    deviations = []
    all_pass = True
    names = list(methods)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            # judged on the ratios, where the volume cancels: the areas
            # underflow to 0.0 together at large n
            a, b = names[i], names[j]
            ra, rb = ratios[a], ratios[b]
            diff = abs(ra.value - rb.value)
            rel = diff / max(ra.value, rb.value)
            stochastic = not {a, b}.isdisjoint(geometry.STOCHASTIC_METHODS)
            if stochastic:
                tol = 4.0 * math.hypot(ra.abs_error, rb.abs_error)
                ok = diff <= tol
                kind = "4sigma_abs"
            else:
                tol = DETERMINISTIC_PAIR_RTOL
                ok = rel <= tol
                kind = "relative"
            all_pass = all_pass and ok
            deviations.append({"a": a, "b": b, "rel_deviation": rel,
                               "tolerance_kind": kind, "tolerance": tol,
                               "pass": ok})

    diag = bounds_mod.concentration_diagnostic(e.inverse_axes())
    brep = bounds_mod.bounds_l2(e)
    report = {
        "dimension": e.n,
        "axes_sha256": axes_sha256(e),
        "methods": per_method,
        "deviations": deviations,
        "bound_interval": [brep.area_lower, brep.area_upper],
        "concentration_ratio": diag.ratio,
        "verdict": "PASS" if all_pass else "FAIL",
    }
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = [f"dimension: {e.n}", f"verdict: {report['verdict']}"]
        for m, info in per_method.items():
            lines.append(f"{m}: surface_area={info['surface_area']!r} "
                         f"abs_error={info['abs_error']!r}")
        for d in deviations:
            lines.append(f"{d['a']} vs {d['b']}: rel_dev={d['rel_deviation']:.3e} "
                         f"{'PASS' if d['pass'] else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 3 if failed else 0


def _axes_for_law(law: str, n: int, seed: int):
    kind, _, rest = law.partition(":")
    kind = kind.strip()
    if kind == "uniform":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"uniform law needs 'uniform:lo,hi', got {law!r}")
        lo, hi = float(parts[0]), float(parts[1])
        if not (0 < lo <= hi):
            raise ValueError(f"uniform law needs 0 < lo <= hi, got {law!r}")
        gen = mc_mod.RngStream(seed, stream_id=n).generator()
        return lo + (hi - lo) * gen.random(n)
    if kind == "equal":
        v = float(rest)
        if not v > 0:
            raise ValueError(f"equal law needs a positive value, got {law!r}")
        return [v] * n
    if kind == "zipf-like":
        s = float(rest)
        try:
            return [float(i) ** s for i in range(1, n + 1)]
        except OverflowError:
            raise ValueError(f"axis law {law!r} overflows float64 at n = {n}") from None
    raise ValueError(
        f"unknown axis law {law!r}; expected uniform:lo,hi | equal:v | zipf-like:exponent"
    )


def cmd_converge(args) -> int:
    dims = [int(part) for part in args.dims.split(",") if part.strip()]
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be a strictly ascending comma-separated list")
    rows = []
    for n in dims:
        e = Ellipsoid(_axes_for_law(args.axis_law, n, args.seed))
        diag = bounds_mod.concentration_diagnostic(e.inverse_axes())
        quad_value = quad_mod.iso_ratio_quad(e).value
        asym_value = bounds_mod.iso_ratio_asymptotic(e).value
        rows.append((n, diag.ratio, quad_value, asym_value,
                     abs(quad_value / asym_value - 1.0)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dimension", "concentration_ratio", "iso_ratio_laplace",
                     "iso_ratio_asymptotic", "rel_deviation"])
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_selftest(_args) -> int:
    return run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsurf",
        description="Surface area, volume, and isoperimetric ratio of "
                    "n-dimensional ellipsoids by independent methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_axes(p):
        p.add_argument("--axes", required=True,
                       help="comma-separated semi-axes, or @FILE with one per line")
        p.add_argument("--inverse", action="store_true",
                       help="interpret the values as inverse semi-axes q_i = 1/a_i")

    def add_estimator_options(p):
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--alpha", type=float, default=None)

    area = sub.add_parser("area", help="compute volume, iso ratio, and surface area")
    add_axes(area)
    area.add_argument("--method", choices=("auto", *METHODS), default="auto")
    add_estimator_options(area)
    area.add_argument("--format", choices=("json", "csv", "text"), default="json")
    area.add_argument("--out", default=None, metavar="FILE")
    area.set_defaults(handler=cmd_area)

    comp = sub.add_parser("compare", help="run several methods and report agreement")
    add_axes(comp)
    comp.add_argument("--methods", required=True,
                      help="comma-separated list from: " + ",".join(METHODS))
    add_estimator_options(comp)
    comp.add_argument("--format", choices=("json", "text"), default="json")
    comp.add_argument("--out", default=None, metavar="FILE")
    comp.set_defaults(handler=cmd_compare)

    conv = sub.add_parser("converge", help="large-n study of the asymptotic formula (CSV)")
    conv.add_argument("--dims", required=True, help="ascending dimensions, e.g. 100,10000")
    conv.add_argument("--axis-law", required=True, dest="axis_law",
                      help="uniform:lo,hi | equal:v | zipf-like:exponent")
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--out", default=None, metavar="FILE")
    conv.set_defaults(handler=cmd_converge)

    bnd = sub.add_parser("bounds", help="two-sided surface-area bounds")
    add_axes(bnd)
    bnd.add_argument("--check", action="store_true",
                     help="also compute the quadrature value and report containment")
    bnd.add_argument("--tol", type=float, default=1e-12)
    bnd.add_argument("--format", choices=("json", "csv", "text"), default="json")
    bnd.add_argument("--out", default=None, metavar="FILE")
    bnd.set_defaults(handler=cmd_bounds)

    st = sub.add_parser("selftest", help="run the embedded invariant suite")
    st.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _kernels.backend_threads()  # a bad ELLIPSURF_THREADS fails every subcommand alike
        return args.handler(args)
    except (ValueError, VolumeOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
