import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import time

import jsonschema
import mpmath as mp
import numpy as np
import pytest

from importlib import resources

from ellipsurf import cli, geometry
from ellipsurf.cli import main, parse_axes

from oracles import ellipse_perimeter, iso_ratio_mpmath


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def load_schema():
    text = resources.files("ellipsurf").joinpath(
        "schemas/area_report.schema.json").read_text()
    return json.loads(text)


def strip_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if "wall_time_ms" not in line)


class TestAreaCommand:
    def test_sphere_laplace(self, capsys):
        rc, out, _ = run_cli(capsys, "area", "--axes", "1,1,1", "--method", "laplace")
        assert rc == 0
        report = json.loads(out)
        assert abs(report["surface_area"] - 4 * math.pi) <= 1e-10 * 4 * math.pi
        assert report["method"] == "laplace"
        assert report["converged"] is True
        jsonschema.validate(report, load_schema())

    @pytest.mark.parametrize("axes", ["1,2", "1,1e8"])
    def test_ellipse_perimeter(self, capsys, axes):
        rc, out, _ = run_cli(capsys, "area", "--axes", axes, "--method", "laplace")
        assert rc == 0
        report = json.loads(out)
        expected = ellipse_perimeter(*parse_axes(axes))
        assert abs(report["surface_area"] - expected) <= 1e-9 * expected

    def test_laplace_error_claim_holds_at_aspect_1e8(self, capsys):
        rc, out, _ = run_cli(capsys, "area", "--axes", "1,1e8", "--method", "laplace")
        assert rc == 0
        report = json.loads(out)
        with mp.workdps(40):
            expected = float(4 * mp.mpf(1e8) * mp.ellipe(1 - 1 / mp.mpf(1e8) ** 2))
        assert report["converged"] is True
        assert abs(report["surface_area"] - expected) <= report["abs_error"]

    def test_zero_axis_is_input_error(self, capsys):
        rc, _, err = run_cli(capsys, "area", "--axes", "1,2,0")
        assert rc == 2
        assert "axis 3" in err

    def test_garbage_axis_is_input_error(self, capsys):
        rc, _, err = run_cli(capsys, "area", "--axes", "1,zap")
        assert rc == 2
        assert "axis 2" in err

    def test_inverse_flag(self, capsys):
        rc1, out1, _ = run_cli(capsys, "area", "--axes", "1,0.5", "--inverse",
                               "--method", "laplace")
        rc2, out2, _ = run_cli(capsys, "area", "--axes", "1,2", "--method", "laplace")
        assert rc1 == rc2 == 0
        a, b = json.loads(out1), json.loads(out2)
        assert a["surface_area"] == b["surface_area"]
        assert a["axes_sha256"] == b["axes_sha256"]

    def test_every_method_validates_schema(self, capsys):
        schema = load_schema()
        for method in cli.METHODS:
            rc, out, _ = run_cli(capsys, "area", "--axes", "1,2,3",
                                 "--method", method, "--samples", "20000",
                                 "--seed", "4")
            assert rc == 0, method
            report = json.loads(out)
            jsonschema.validate(report, schema)
            assert report["method"] == method

    def test_field_set_stable_across_methods(self, capsys):
        keys = set()
        for method in ("mc", "laplace", "asymptotic"):
            _, out, _ = run_cli(capsys, "area", "--axes", "1,2",
                                "--method", method, "--samples", "20000")
            keys.add(tuple(json.loads(out).keys()))
        assert len(keys) == 1

    def test_auto_switches_to_asymptotic_for_large_n(self, tmp_path, capsys):
        axes_file = tmp_path / "axes.txt"
        axes_file.write_text("1.0\n" * (cli.AUTO_ASYMPTOTIC_ABOVE + 1))
        rc, out, _ = run_cli(capsys, "area", "--axes", f"@{axes_file}")
        assert rc == 0
        report = json.loads(out)
        assert report["method"] == "asymptotic"
        # the linear volume underflows to zero at this dimension; the
        # report stays schema-valid
        assert report["volume"] == 0.0
        jsonschema.validate(report, load_schema())

    def test_auto_uses_laplace_for_small_n(self, capsys):
        rc, out, _ = run_cli(capsys, "area", "--axes", "1,2")
        assert rc == 0
        assert json.loads(out)["method"] == "laplace"

    def test_axes_file(self, tmp_path, capsys):
        axes_file = tmp_path / "axes.txt"
        axes_file.write_text("1.0\n2.0\n3.0\n")
        rc, out, _ = run_cli(capsys, "area", "--axes", f"@{axes_file}",
                             "--method", "laplace")
        assert rc == 0
        assert json.loads(out)["dimension"] == 3

    def test_axes_file_line_with_two_numbers_rejected(self, tmp_path, capsys):
        axes_file = tmp_path / "axes.txt"
        axes_file.write_text("1.0\n1 2\n3.0\n")
        rc, _, err = run_cli(capsys, "area", "--axes", f"@{axes_file}")
        assert rc == 2
        assert "axis 2 is not a number: '1 2'" in err

    def test_axes_sha256_hashes_little_endian_float64(self, capsys):
        hashes = []
        for axes in ("1,2,3", "1.0,2e0,3"):
            rc, out, _ = run_cli(capsys, "area", "--axes", axes, "--method", "asymptotic")
            assert rc == 0
            hashes.append(json.loads(out)["axes_sha256"])
        payload = np.array([1.0, 2.0, 3.0], dtype="<f8").tobytes()
        assert hashes[0] == hashlib.sha256(payload).hexdigest()
        assert hashes == ["a68de4b5e96a60c8ceb3c7b7ef93461725bdbbff3516b136585a743b5c0ec664"] * 2

    def test_lauricella_tiny_axis_matches_laplace(self, capsys):
        # 1/max q^2 underflows to 0 here, so no alpha may be derived from q^2
        values = {}
        for method in ("laplace", "lauricella"):
            rc, out, _ = run_cli(capsys, "area", "--axes", "1e-160,1", "--method", method)
            assert rc == 0, method
            report = json.loads(out)
            assert report["converged"] is True
            values[method] = report["iso_ratio"]
        assert abs(values["lauricella"] - values["laplace"]) <= 1e-12 * values["laplace"]

    @pytest.mark.parametrize("method", ["lauricella", "mc", "gauss", "asymptotic"])
    def test_axis_below_1e_154_is_not_an_input_error(self, capsys, method):
        # q_1 = 1e160: q_1^2 overflows, and (q_j / q_1)^2 underflows to 0
        axes = "1e-160,1e100,1e100"
        reports = {}
        for m in ("laplace", method):
            rc, out, _ = run_cli(capsys, "area", "--axes", axes, "--method", m,
                                 "--samples", "20000", "--seed", "3")
            assert rc == 0, m
            reports[m] = json.loads(out)
        got, ref = reports[method]["iso_ratio"], reports["laplace"]["iso_ratio"]
        if method == "asymptotic":
            # n Gamma(n/2) / Gamma((n+1)/2) sqrt(sum q^2 / 2), not laplace
            q = [mp.mpf(10) ** 160, mp.mpf(10) ** -100, mp.mpf(10) ** -100]
            ref = float(3 * mp.gamma(1.5) / mp.gamma(2) * mp.sqrt(sum(v * v for v in q) / 2))
        if method in geometry.STOCHASTIC_METHODS:
            sigma = reports[method]["abs_error"] / reports[method]["volume"]
            assert abs(got - ref) <= 4.0 * sigma
        else:
            assert abs(got - ref) <= 1e-12 * ref

    def test_missing_axes_file(self, capsys):
        rc, _, err = run_cli(capsys, "area", "--axes", "@/no/such/file")
        assert rc == 2

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc, out, _ = run_cli(capsys, "area", "--axes", "1,1", "--method",
                             "laplace", "--out", str(target))
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["dimension"] == 2

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "area", "--axes", "1,2", "--method",
                             "laplace", "--format", "csv")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "dimension"
        assert len(rows) == 2

    def test_text_format(self, capsys):
        rc, out, _ = run_cli(capsys, "area", "--axes", "1,2", "--method",
                             "laplace", "--format", "text")
        assert rc == 0
        assert "surface_area:" in out

    def test_method_bounds_delegates(self, capsys):
        rc, out, _ = run_cli(capsys, "area", "--axes", "1,2", "--method", "bounds")
        assert rc == 0
        assert "ratio_lower" in json.loads(out)

    def test_nonconvergence_exit_code(self, capsys):
        rc, out, _ = run_cli(capsys, "area", "--axes", "1,1000",
                             "--method", "lauricella", "--tol", "1e-15")
        assert rc == 3
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize("axes", ["1,1e8", "1e-8,1e8,3"])
    def test_lauricella_extreme_aspect_converges(self, capsys, axes):
        # the largest aspects of the axis domain [1e-8, 1e8]
        rc, out, _ = run_cli(capsys, "area", "--axes", axes, "--method", "lauricella")
        assert rc == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert report["alpha"] is None
        oracle = iso_ratio_mpmath(parse_axes(axes))
        assert abs(report["iso_ratio"] - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("axes", [
        "1e-6,1,1",
        "1e-8,1e8,3",
        # once gave a negative error estimate, so the CLI exited 2
        "9571843.474811066,1.5217230306134997e-07,449799.0151102721",
    ])
    def test_laplace_extreme_aspect_converges(self, capsys, axes):
        rc, out, _ = run_cli(capsys, "area", "--axes", axes, "--method", "laplace")
        assert rc == 0
        report = json.loads(out)
        assert report["converged"] is True
        oracle = iso_ratio_mpmath(parse_axes(axes))
        assert abs(report["iso_ratio"] - oracle) <= 1e-12 * oracle

    def test_import_leaves_scipy_out(self):
        code = "import sys, ellipsurf.cli\nprint('scipy' in sys.modules)\n"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_inadmissible_alpha_on_tiny_axis_exits_2_under_warnings_as_errors(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ellipsurf.cli", "area", "--method",
             "lauricella", "--alpha", "0.5", "--axes", "1e-160,1"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "inadmissible" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_volume_overflow_is_input_error(self, capsys):
        rc, _, err = run_cli(capsys, "area", "--axes", ",".join(["1e5"] * 100),
                             "--method", "asymptotic")
        assert rc == 2
        assert "log volume" in err


class TestDeterminism:
    def test_mc_output_bytes_reproducible(self, capsys):
        args = ("area", "--axes", "1,2,3", "--method", "mc",
                "--samples", "30000", "--seed", "42")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0
        assert strip_wall_time(out1) == strip_wall_time(out2)
        assert json.loads(out1)["seed"] == 42


class TestMethodTable:
    OPTIONS = ("--samples", "20000", "--seed", "6", "--tol", "1e-11", "--alpha", "0.5")

    def test_area_and_compare_report_the_same_fields(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--axes", "1,2,3",
                             "--methods", ",".join(cli.METHODS), *self.OPTIONS)
        assert rc == 0
        compared = json.loads(out)["methods"]
        assert list(compared) == list(cli.METHODS)
        # --alpha is Lauricella's alone
        assert {m: info["alpha"] for m, info in compared.items()} == {
            m: 0.5 if m == "lauricella" else None for m in cli.METHODS}
        for method in cli.METHODS:
            rc, out, _ = run_cli(capsys, "area", "--axes", "1,2,3",
                                 "--method", method, *self.OPTIONS)
            assert rc == 0, method
            area = json.loads(out)
            for key in ("dimension", "axes_sha256", "method", "volume", "wall_time_ms"):
                del area[key]
            del compared[method]["wall_time_ms"]
            assert list(area.items()) == list(compared[method].items()), method

    @pytest.mark.parametrize("k", [40, -40, 200, -200, 600, -600])
    @pytest.mark.parametrize("method", list(cli.METHODS))
    def test_ratio_exactly_homogeneous_in_powers_of_two(self, method, k):
        # R(2^k a) == 2^-k R(a) bit for bit: every route runs on q / max q
        args = cli.build_parser().parse_args(
            ["area", "--axes", "1", "--samples", "4000", "--seed", "9"])
        axes = np.array([0.3, 1.7, 2.9, 40.0])
        base = cli.METHODS[method](geometry.Ellipsoid(axes), args)
        scaled = cli.METHODS[method](geometry.Ellipsoid(axes * 2.0 ** k), args)
        assert (scaled.value, scaled.abs_error) == (base.value * 2.0 ** -k,
                                                    base.abs_error * 2.0 ** -k)

    def test_unknown_method_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["area", "--axes", "1,2", "--method", "warp"])
        assert exc.value.code == 2
        assert "invalid choice: 'warp'" in capsys.readouterr().err
        rc, _, err = run_cli(capsys, "compare", "--axes", "1,2",
                             "--methods", "laplace,warp")
        assert rc == 2
        assert "unknown method 'warp'" in err
        assert all(repr(m) in err for m in cli.METHODS)


class TestCompareCommand:
    def test_unit_ball_all_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--axes", "1,1,1,1,1",
                             "--methods", "mc,laplace,lauricella",
                             "--samples", "50000", "--seed", "1")
        assert rc == 0
        report = json.loads(out)
        assert report["verdict"] == "PASS"
        ran = set(report["methods"])
        for d in report["deviations"]:
            assert d["a"] in ran and d["b"] in ran
        assert len(report["deviations"]) == 3

    def test_mixed_pair_passes_at_4_sigma(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--axes", "1,2,3",
                             "--methods", "laplace,mc",
                             "--samples", "100000", "--seed", "2")
        assert rc == 0
        report = json.loads(out)
        assert report["verdict"] == "PASS"
        assert report["deviations"][0]["tolerance_kind"] == "4sigma_abs"

    def test_single_method_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "compare", "--axes", "1,2",
                             "--methods", "laplace")
        assert rc == 2

    def test_unknown_method_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "compare", "--axes", "1,2",
                             "--methods", "laplace,warp")
        assert rc == 2

    def test_unreachable_tol_flags_lauricella(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--axes", "1,1000",
                             "--methods", "laplace,lauricella", "--tol", "1e-15")
        assert rc == 3
        report = json.loads(out)
        assert report["methods"]["lauricella"]["converged"] is False

    @pytest.mark.parametrize("methods", ["laplace,lauricella", "laplace,asymptotic"])
    def test_underflowed_volume_compares_ratios(self, tmp_path, capsys, methods):
        # n = 1e5 axes of 1.5: both surface areas underflow to 0.0
        axes_file = tmp_path / "axes.txt"
        axes_file.write_text("1.5\n" * 100_000)
        rc, out, _ = run_cli(capsys, "compare", "--axes", f"@{axes_file}",
                             "--methods", methods)
        assert rc == 0
        report = json.loads(out)
        a, b = methods.split(",")
        ra, rb = (report["methods"][m]["iso_ratio"] for m in (a, b))
        assert report["methods"][a]["surface_area"] == 0.0
        rel = report["deviations"][0]["rel_deviation"]
        assert rel == abs(ra - rb) / max(ra, rb)
        # the asymptotic formula is off by O(1/n) on equal axes
        assert rel < 1e-12 if methods == "laplace,lauricella" else rel < 1e-5

    def test_stochastic_pair_judged_on_ratios(self, capsys):
        # both areas underflow to 0.0; the asymptotic ratio is 8.5% above
        # the exact one on a ball of n = 3, which mc returns with sigma 0
        rc, out, _ = run_cli(capsys, "compare", "--axes", "1e-120,1e-120,1e-120",
                             "--methods", "asymptotic,mc", "--samples", "2000")
        assert rc == 0
        report = json.loads(out)
        assert report["methods"]["mc"]["surface_area"] == 0.0
        (dev,) = report["deviations"]
        assert (dev["tolerance"], dev["pass"]) == (0.0, False)
        assert report["verdict"] == "FAIL"

    def test_axes_below_1e_154_report_finite_fields(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--axes", "1e-200,1e-200,1e-200",
                             "--methods", "laplace,lauricella,asymptotic,mc,gauss",
                             "--samples", "1000")
        assert rc == 0
        report = json.loads(out)
        assert report["concentration_ratio"] == 1.0 / 3.0
        assert "NaN" not in out and "Infinity" not in out
        assert report["methods"]["mc"]["iso_ratio"] == 3e200

    def test_asymptotic_small_n_fails_honestly(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--axes", "1,1,1",
                             "--methods", "laplace,asymptotic")
        assert rc == 0
        assert json.loads(out)["verdict"] == "FAIL"


class TestConvergeCommand:
    def test_uniform_law_deviation_shrinks(self, capsys):
        rc, out, _ = run_cli(capsys, "converge", "--dims", "100,10000",
                             "--axis-law", "uniform:1,2", "--seed", "3")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["dimension"]) for r in rows] == [100, 10000]
        assert float(rows[1]["rel_deviation"]) < float(rows[0]["rel_deviation"])
        assert float(rows[1]["rel_deviation"]) <= 0.01

    def test_equal_law_pure_gamma_artifact(self, capsys):
        rc, out, _ = run_cli(capsys, "converge", "--dims", "50,400",
                             "--axis-law", "equal:1", "--seed", "0")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            n = int(row["dimension"])
            artifact = abs(
                1.0 / (geometry.gamma_half_ratio(n, 1) * math.sqrt(0.5 * n)) - 1.0)
            assert abs(float(row["rel_deviation"]) - artifact) < 1e-8
        assert float(rows[1]["rel_deviation"]) < float(rows[0]["rel_deviation"])

    def test_zipf_law_non_vanishing(self, capsys):
        rc, out, _ = run_cli(capsys, "converge", "--dims", "50,500",
                             "--axis-law", "zipf-like:1", "--seed", "0")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(r["rel_deviation"]) > 0.01 for r in rows)
        assert all(float(r["concentration_ratio"]) > 0.1 for r in rows)

    def test_descending_dims_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "converge", "--dims", "100,50",
                             "--axis-law", "equal:1")
        assert rc == 2

    def test_malformed_law_rejected(self, capsys):
        for law in ("uniform:1", "equal:-1", "pareto:2", "uniform:2,1,3"):
            rc, _, err = run_cli(capsys, "converge", "--dims", "10,20",
                                 "--axis-law", law)
            assert rc == 2, law


class TestBoundsCommand:
    def test_unit_ball_check_contained(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--axes", "1,1,1", "--check")
        assert rc == 0
        report = json.loads(out)
        assert report["contained"] is True

    def test_random_ellipsoid_contained(self, capsys):
        gen = np.random.Generator(np.random.Philox(key=7))
        axes = ",".join(repr(float(v)) for v in 0.5 + 2.0 * gen.random(20))
        rc, out, _ = run_cli(capsys, "bounds", "--axes", axes, "--check")
        assert rc == 0
        assert json.loads(out)["contained"] is True

    def test_one_dimensional_lower_attained(self, capsys):
        rc, out, _ = run_cli(capsys, "bounds", "--axes", "1", "--inverse")
        assert rc == 0
        report = json.loads(out)
        assert abs(report["lower_const"] - 1.0) < 1e-14
        assert abs(report["ratio_lower"] - 1.0) < 1e-14


class TestSelftestCommand:
    def test_fresh_build_passes_quickly(self, capsys):
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "selftest")
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 60.0
        assert out.endswith("selftest: ok\n")

    def test_output_bytes_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "selftest")
        _, out2, _ = run_cli(capsys, "selftest")
        assert out1 == out2

    def test_broken_gamma_ratio_named(self, capsys, monkeypatch):
        monkeypatch.setattr(geometry, "gamma_half_ratio",
                            lambda n, d: 1.0)
        rc, out, _ = run_cli(capsys, "selftest")
        assert rc == 1
        assert "FAIL gamma_half_ratio" in out
