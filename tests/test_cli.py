import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taildep import boot_tests, cli, tail_core
from taildep.cli import main
from taildep.datagen import pareto


def run(args):
    return main([str(a) for a in args])


def write_sample_csv(path, x, y):
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def ex1_csv(tmp_path_factory):
    """Example-1 sample written once via the CLI itself."""
    path = tmp_path_factory.mktemp("data") / "ex1.csv"
    assert run(["simulate", "--example", 1, "--n", 30000, "--seed", 0,
                "--output", path]) == 0
    return path


class TestSimulate:
    def test_row_count_and_nonnegative(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--example", 2, "--n", 10, "--seed", 3,
                    "--output", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y" and len(lines) == 11
        for line in lines[1:]:
            x, y = map(float, line.split(","))
            assert x >= 0 and y >= 0

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--example", 1, "--n", 500, "--seed", 11]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_spec(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["simulate", "--n", 100, "--seed", 1, "--alpha-main", 2,
                    "--alpha-hidden", 4, "--cone", "0.4,0.6", "--beta-p", 1,
                    "--beta-q", 1, "--mix-prob", 1.0, "--output", out]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        theta = data[:, 0] / data.sum(axis=1)
        assert np.all((theta >= 0.4) & (theta <= 0.6))

    def test_tiny_beta_shapes(self, tmp_path):
        # shapes 0.001 underflow both gamma draws of many points; they are redrawn
        out = tmp_path / "t.csv"
        assert run(["simulate", "--n", 2000, "--beta-p", 0.001, "--beta-q", 0.001,
                    "--output", out]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (2000, 2) and np.all(np.isfinite(data)) and np.all(data >= 0)

    def test_shapes_where_every_gamma_draw_underflows(self, tmp_path):
        # at shapes 1e-300 each Beta draw is 0 or 1, so each on-cone angle
        # is a cone edge; a child process, so a draw that never ends times out
        out = tmp_path / "t.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "taildep.cli", "simulate", "--n", "1000",
             "--beta-p", "1e-300", "--beta-q", "1e-300", "--mix-prob", "1", "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stderr == ""
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        theta = data[:, 0] / data.sum(axis=1)
        assert np.all(np.isclose(theta, 0.25) | np.isclose(theta, 0.75))

    def test_overflowing_pareto_draw_refused(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--n", 30000, "--alpha-main", 0.01, "--output", out]) == 1
        assert capsys.readouterr().err == (
            "error: alpha = 0.01 is too small: a Pareto draw overflows the float range\n"
        )
        assert not out.exists()

    def test_invalid_spec_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert run(["simulate", "--n", 10, "--alpha-main", 4,
                    "--alpha-hidden", 2, "--output", out]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--example", 1, "--n", 10, "--seed", -1,
                    "--output", out]) == 1
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestPrep:
    def _write_prices(self, path, prices):
        path.write_text("price\n" + "\n".join(repr(float(p)) for p in prices) + "\n")

    def test_geometric_walk_row_count(self, tmp_path):
        # 1761 prices at stride 2 -> 880 returns
        gen = np.random.Generator(np.random.Philox(0))
        prices = np.exp(np.cumsum(gen.normal(0, 0.01, 1761)))
        src = tmp_path / "prices.csv"
        self._write_prices(src, prices)
        assert run(["prep", "--input", src, "--stride", 2, "--output",
                    tmp_path / "out"]) == 0
        rows = (tmp_path / "out" / "returns.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 880

    def test_stride_one_doubles_rows(self, tmp_path):
        gen = np.random.Generator(np.random.Philox(1))
        prices = np.exp(np.cumsum(gen.normal(0, 0.01, 401)))
        src = tmp_path / "p.csv"
        self._write_prices(src, prices)
        for stride, sub in ((1, "o1"), (2, "o2")):
            assert run(["prep", "--input", src, "--stride", stride,
                        "--output", tmp_path / sub]) == 0
        n1 = len((tmp_path / "o1" / "returns.csv").read_text().strip().splitlines()) - 1
        n2 = len((tmp_path / "o2" / "returns.csv").read_text().strip().splitlines()) - 1
        assert abs(n1 - 2 * n2) <= 1

    def test_constant_prices_warn(self, tmp_path, capsys):
        src = tmp_path / "c.csv"
        self._write_prices(src, [5.0] * 30)
        assert run(["prep", "--input", src, "--stride", 1, "--max-lag", 5,
                    "--output", tmp_path / "out"]) == 0
        assert "autocorrelation unavailable" in capsys.readouterr().err
        returns = np.loadtxt(tmp_path / "out" / "returns.csv", delimiter=",",
                             skiprows=1)
        assert np.all(returns == 0.0)
        acf_rows = (tmp_path / "out" / "acf.csv").read_text().strip().splitlines()
        assert acf_rows == ["lag,acf_return,acf_abs_return"]

    def test_acf_values_emitted(self, tmp_path):
        gen = np.random.Generator(np.random.Philox(2))
        prices = np.exp(np.cumsum(gen.normal(0, 0.02, 200)))
        src = tmp_path / "p.csv"
        self._write_prices(src, prices)
        assert run(["prep", "--input", src, "--stride", 1, "--max-lag", 10,
                    "--output", tmp_path / "out"]) == 0
        table = np.loadtxt(tmp_path / "out" / "acf.csv", delimiter=",", skiprows=1)
        assert table.shape == (11, 3)
        assert table[0, 1] == 1.0 and table[0, 2] == 1.0

    def test_nonpositive_price_errors(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        self._write_prices(src, [1.0, -2.0, 3.0])
        assert run(["prep", "--input", src, "--output", tmp_path / "out"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSupport:
    def test_example1_recovery(self, ex1_csv, tmp_path):
        out = tmp_path / "supp.json"
        assert run(["support", "--input", ex1_csv, "--k", 100, "--lambda", 1.0,
                    "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["schema_version"] == 3
        assert rep["a_hat"] == pytest.approx(0.25, abs=0.01)
        assert rep["b_hat"] == pytest.approx(0.75, abs=0.01)

    def test_ray_data(self, tmp_path):
        out = tmp_path / "ray.json"
        src = tmp_path / "ray.csv"
        gen = np.random.Generator(np.random.Philox(3))
        r = (1 - gen.random(5000)) ** -0.5
        write_sample_csv(src, 0.5 * r, 0.5 * r)
        assert run(["support", "--input", src, "--k", 100, "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["a_hat"] == pytest.approx(rep["b_hat"], abs=1e-9)

    def test_malformed_csv(self, tmp_path, capsys):
        src = tmp_path / "m.csv"
        src.write_text("x,y\n1.0,2.0\n3.0\n")
        assert run(["support", "--input", src, "--output", tmp_path / "o.json"]) == 1
        assert "expected 2 fields" in capsys.readouterr().err

    def test_csv_format(self, tmp_path):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(4))
        write_sample_csv(src, gen.random(200) + 0.1, gen.random(200) + 0.1)
        out = tmp_path / "o.csv"
        assert run(["support", "--input", src, "--k", 20, "--format", "csv",
                    "--output", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert {"a_hat", "b_hat", "schema_version"} <= keys

    def test_negative_zero_x_reports_positive_a_hat(self, tmp_path):
        # --no-abs keeps the -0.0 cells; the report once read "a_hat": -0.0
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(5))
        r = (1 - gen.random(2000)) ** -0.5
        theta = gen.random(2000)
        x, y = r * theta, r * (1 - theta)
        x[:1500], y[:1500] = -0.0, r[:1500]
        write_sample_csv(src, x, y)
        out = tmp_path / "o.json"
        assert run(["support", "--input", src, "--k", 100, "--no-abs", "--output", out]) == 0
        assert '"a_hat": 0.0,' in out.read_text()

    @pytest.mark.parametrize("cmd", [["support"], ["test", "--B", 20]])
    def test_no_numpy_ma_import(self, ex1_csv, tmp_path, cmd):
        # np.unique imports numpy.ma, 9-13 ms of a run's start-up; no run needs it
        script = (
            "import sys\n"
            "from taildep import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        args = [*cmd, "--input", ex1_csv, "--k", 100, "--output", tmp_path / "o.json"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("cmd", [["support"], ["test", "--B", 20]])
    def test_lambda_sqrt_k_overflow_refused(self, tmp_path, capsys, cmd):
        # lambda * sqrt(20) overflows; test without --cone fits the support
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(14))
        write_sample_csv(src, gen.random(500) + 0.1, gen.random(500) + 0.1)
        out = tmp_path / "o.json"
        assert run([*cmd, "--input", src, "--k", 20, "--lambda", "1e308",
                    "--output", out]) == 1
        assert capsys.readouterr().err == (
            "error: lambda * sqrt(k) must be positive and finite, got lambda = 1e+308, k = 20\n")
        assert not out.exists()


    @pytest.mark.parametrize("cmd", [["support"], ["test", "--B", 20]])
    def test_radius_overflow_refused(self, tmp_path, capsys, cmd):
        # both cells are finite, their sum is not
        src = tmp_path / "s.csv"
        src.write_text("x,y\n1,2\n1e308,1e308\n3,4\n", encoding="utf-8")
        out = tmp_path / "o.json"
        assert run([*cmd, "--input", src, "--k", 1, "--output", out]) == 1
        assert capsys.readouterr().err == (
            "error: the radius x + y of point 1 overflows (x = 1e+308, y = 1e+308)\n")
        assert not out.exists()

    def test_huge_lambda_weight_overflow_without_warning(self, tmp_path):
        # lambda * sqrt(k) is finite, lambda * sqrt(k) times the weight of
        # the 1e250 radius is not; the fit still picks a finite pair
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(3))
        r = (1 - gen.random(300)) ** -0.5
        theta = gen.random(300)
        r[np.argmax(r)] = 1e250
        write_sample_csv(src, r * theta, r * (1 - theta))
        out = tmp_path / "o.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["support", "--input", src, "--k", 20, "--lambda", "1e300",
                        "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert 0.0 <= rep["a_hat"] <= rep["b_hat"] <= 1.0


class TestTest:
    def test_which_all_emits_three_reports(self, tmp_path):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(5))
        r = (1 - gen.random(2000)) ** -0.5
        theta = 0.3 + 0.4 * gen.random(2000)
        write_sample_csv(src, r * theta, r * (1 - theta))
        out = tmp_path / "rep.json"
        assert run(["test", "--input", src, "--which", "all", "--k", 50,
                    "--cone", "0.25,0.75", "--B", 100, "--seed", 4,
                    "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert [r["test_id"] for r in rep["reports"]] == ["H1", "H2", "H3"]
        assert rep["cone_source"] == "flag"
        for block in rep["reports"]:
            assert block["verdict"] in ("reject", "fail_to_reject")
            assert len(block["per_resample"]) == 100

    def test_smoke_scale_b2(self, tmp_path):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(6))
        r = (1 - gen.random(500)) ** -0.5
        write_sample_csv(src, 0.4 * r, 0.6 * r)
        out = tmp_path / "rep.json"
        assert run(["test", "--input", src, "--which", "full", "--k", 30,
                    "--B", 2, "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["reports"][0]["per_resample"]) == 2

    def test_cone_estimated_when_omitted(self, tmp_path):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(7))
        r = (1 - gen.random(2000)) ** -0.5
        theta = 0.3 + 0.4 * gen.random(2000)
        write_sample_csv(src, r * theta, r * (1 - theta))
        out = tmp_path / "rep.json"
        assert run(["test", "--input", src, "--which", "strong", "--k", 50,
                    "--B", 50, "--output", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["cone_source"] == "estimated"
        a, b = rep["cone"]
        assert 0.0 <= a <= b <= 1.0

    def test_report_json_round_trip(self, tmp_path):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(8))
        r = (1 - gen.random(600)) ** -0.5
        write_sample_csv(src, 0.5 * r, 0.5 * r)
        out = tmp_path / "rep.json"
        assert run(["test", "--input", src, "--which", "weak", "--k", 30,
                    "--cone", "0.4,0.6", "--B", 50, "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert json.loads(json.dumps(payload)) == payload

    def test_tied_radii_error(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_sample_csv(src, np.ones(1000), np.ones(1000))
        assert run(["test", "--input", src, "--which", "full", "--k", 10,
                    "--B", 20, "--output", tmp_path / "o.json"]) == 1
        assert "error: the 10 largest radii are all tied" in capsys.readouterr().err

    def test_nan_lambda_rejected_with_fixed_cone(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(10))
        r = (1 - gen.random(500)) ** -0.5
        write_sample_csv(src, 0.4 * r, 0.6 * r)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--k", 30, "--cone", "0.25,0.75",
                    "--lambda", "nan", "--B", 20, "--output", out]) == 1
        assert "error: lambda must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_statistic_fails_without_report(self, tmp_path, capsys, monkeypatch, fmt):
        # the 100 largest radii lie on the theta = 0 ray and the rest off
        # it, so the full sample's cone-adjusted Hill value on a cone whose
        # upper slope is inf is finite, but a resample whose top k_mn holds
        # a point with x > 0 is infinitely far from the cone and its value
        # is +inf: the cone is refused before any resampling, by the count
        # of points that cone_distances puts at infinite distance. The scale
        # 1e9 makes a finite slope overflow too: 1e300 x for b = 1e-300
        def refuse(*args):
            raise AssertionError("resampled before refusing the cone")

        monkeypatch.setattr(boot_tests, "_resample_stats", refuse)
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(13))
        r = (1 - gen.random(3000)) ** -0.5
        top = r >= np.sort(r)[-100]
        write_sample_csv(src, 1e9 * np.where(top, 0.0, 0.5 * r), 1e9 * np.where(top, r, 0.5 * r))
        out = tmp_path / "o.json"
        for cone, edge in [
            ("0,0", "[0.0, 0.0]"),
            # 1/b overflows, so the distance's slope 1/b - 1 is inf as at b = 0
            ("0,1e-320", "[0.0, 1e-320]"),
            ("0,1e-300", "[0.0, 1e-300]"),
        ]:
            assert run(["test", "--input", src, "--which", "strong", "--k", 100,
                        "--cone", cone, "--B", 20, "--format", fmt, "--output", out]) == 1
            assert capsys.readouterr().err == (
                f"error: the cone {edge} puts 2900 of the 3000 points at infinite distance, "
                "as (1/b - 1) x overflows; a resample that ranks one above its k_mn-th radius "
                "has an infinite cone-adjusted Hill value, so the strong-dependence test is "
                "undefined\n"
            )
            assert not out.exists()

    def test_non_finite_resamples_fail_without_report(self, tmp_path, capsys):
        # radii span more than the float range (60 near 1e200, the rest near
        # 1e-200), so a resample whose top k_mn holds both has a log ratio
        # of inf; H1 runs first and is refused after resampling
        gen = np.random.Generator(np.random.Philox(23))
        r = np.where(np.arange(3000) < 60, 1e200, 1e-200) * (1 - gen.random(3000)) ** -0.5
        theta = 0.3 + 0.4 * gen.random(3000)
        src = tmp_path / "s.csv"
        write_sample_csv(src, r * theta, r * (1 - theta))
        out = tmp_path / "o.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["test", "--input", src, "--which", "all", "--k", 50, "--B", 200,
                        "--output", out]) == 1
        assert capsys.readouterr().err == (
            "error: the H1 test is undefined on this sample: 151 of its 200 resamples have a "
            "non-finite statistic, as a radius or cone distance over the resample's k_mn-th "
            "radius overflows\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_report_is_not_written(self, tmp_path, fmt):
        out = tmp_path / "o.json"
        with pytest.raises(ValueError) as exc:
            cli._emit_report(str(out), {"reports": [{"per_resample": [1.0, math.inf]}]}, fmt)
        assert str(exc.value).startswith(f"{out}: non-finite value, report not written")
        assert not out.exists()

    def test_zero_ray_cone_refused_before_resampling(self, ex1_csv, tmp_path, capsys, monkeypatch):
        # every point of Example 1 has x > 0, so a cone whose upper slope
        # 1/b - 1 is inf (b = 0, or 1/b overflows) puts all of them at
        # infinite distance; only the first of the two is the theta = 0 ray
        def refuse(*args):
            raise AssertionError("resampled before refusing the cone")

        monkeypatch.setattr(boot_tests, "_resample_stats", refuse)
        out = tmp_path / "o.json"
        for cone, edge in [("0,0", "[0.0, 0.0]"), ("0,1e-320", "[0.0, 1e-320]")]:
            assert run(["test", "--input", ex1_csv, "--which", "strong", "--k", 100,
                        "--cone", cone, "--output", out]) == 1
            assert capsys.readouterr().err == (
                f"error: the cone {edge} puts 30000 of the 30000 points at infinite distance, "
                "as (1/b - 1) x overflows; a resample that ranks one above its k_mn-th radius "
                "has an infinite cone-adjusted Hill value, so the strong-dependence test is "
                "undefined\n"
            )
            assert not out.exists()

    def test_m_n_above_n_refused_before_any_draw(self, ex1_csv, tmp_path, capsys, monkeypatch):
        # m_n = 5e6 on 30000 points would draw a (64, 2500001) block of words per chunk
        def refuse(*args):
            raise AssertionError("drew resample indices before refusing m_n")

        monkeypatch.setattr(boot_tests, "_SlotDraws", refuse)
        out = tmp_path / "o.json"
        assert run(["test", "--input", ex1_csv, "--which", "full", "--k", 100,
                    "--mn", 5000000, "--kmn", 25, "--B", 100, "--output", out]) == 1
        assert capsys.readouterr().err == (
            "error: m_n = 5000000 must not exceed the sample size 30000: "
            "the m-out-of-n bootstrap resamples m_n <= n points\n"
        )
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(11))
        r = (1 - gen.random(500)) ** -0.5
        write_sample_csv(src, 0.4 * r, 0.6 * r)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--k", 30, "--B", 20,
                    "--seed", -1, "--output", out]) == 1
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_threads_rejected(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_sample_csv(src, [3.0, 1.0, 2.0], [1.0, 0.5, 2.5])
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--threads", 0, "--output", out]) == 1
        assert capsys.readouterr().err == "error: threads must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd, flags, error", [
        ("test", ["--threads", 0], "threads must be positive"),
        ("test", ["--lambda", "nan"], "lambda must be positive and finite, got nan"),
        ("support", ["--lambda", "nan"], "lambda must be positive and finite, got nan"),
        ("support", ["--lambda", 0], "lambda must be positive and finite, got 0.0"),
        ("prep", ["--max-lag", 0], "max_lag must be a positive integer, got 0"),
        ("prep", ["--max-lag", -3], "max_lag must be a positive integer, got -3"),
    ])
    def test_flag_values_checked_before_reading_the_input(self, tmp_path, capsys, monkeypatch,
                                                          cmd, flags, error):
        def refuse(*args):
            raise ValueError("read the input before checking the flags")

        monkeypatch.setattr(cli, "_read_csv_columns", refuse)
        out = tmp_path / "o.json"
        assert run([cmd, "--input", tmp_path / "s.csv", *flags, "--output", out]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cone, reason", [
        ("0.5,0.2", "cone requires 0 <= a <= b <= 1, got [0.5, 0.2]"),
        ("a,b", "not a number: 'a,b'"),
        ("0.25", "cone must be given as 'a,b'"),
    ], ids=["reversed", "not_numbers", "one_number"])
    def test_bad_cone_gives_its_reason(self, tmp_path, capsys, cone, reason):
        src = tmp_path / "s.csv"
        write_sample_csv(src, [3.0, 1.0, 2.0], [1.0, 0.5, 2.5])
        with pytest.raises(SystemExit) as exc:
            run(["test", "--input", src, "--cone", cone, "--output", tmp_path / "o.json"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --cone: {reason}\n")

    @pytest.mark.parametrize("which", ["full", "weak", "all"])
    def test_zero_angle_data_rejected(self, tmp_path, capsys, monkeypatch, which):
        # x = 0 throughout: every angle is 0, which H2 and H3 refuse before
        # any test resamples (with --which all, before H1)
        def refuse(*args):
            raise AssertionError("resampled before refusing theta == 0 data")

        monkeypatch.setattr(boot_tests, "_resample_stats", refuse)
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(12))
        write_sample_csv(src, np.zeros(3000), (1 - gen.random(3000)) ** -0.5)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--which", which, "--k", 100,
                    "--B", 200, "--output", out]) == 1
        assert "statistic is undefined on theta == 0 data" in capsys.readouterr().err
        assert not out.exists()

    def test_mostly_zero_x_gets_a_report(self, tmp_path):
        # in/out-degree shape: x = 0 for about 95 % of points, so most
        # resamples' top k_mn angles are all 0 and many H2 slots are
        # degenerate; each takes the estimators' convention and the run reports
        gen = np.random.Generator(np.random.Philox(95))
        x = pareto(1.0, 2000, gen) * (gen.random(2000) >= 0.95)
        y = pareto(1.0, 2000, gen)
        src = tmp_path / "s.csv"
        write_sample_csv(src, x, y)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--which", "all", "--k", 50, "--output", out]) == 0
        rep = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        h2 = next(r for r in rep["reports"] if r["test_id"] == "H2")
        assert h2["per_resample"].count(1.0) > 1000
        assert [r["test_id"] for r in rep["reports"]] == ["H1", "H2", "H3"]

    @pytest.mark.parametrize("which", ["weak", "all"])
    def test_full_cone_refused_before_resampling(self, tmp_path, capsys, monkeypatch, which):
        # in/out-degree counts with zeros, as in network data: the fitted
        # cone is [0, 1], which H3 refuses before any test resamples
        def refuse(*args):
            raise AssertionError("resampled before refusing the cone")

        monkeypatch.setattr(boot_tests, "_resample_stats", refuse)
        gen = np.random.Generator(np.random.Philox(0))
        degrees = [np.floor((1 - gen.random(3000)) ** (-1 / 1.5)) * (gen.random(3000) < 0.7)
                   for _ in range(2)]
        src = tmp_path / "s.csv"
        write_sample_csv(src, *degrees)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--which", which, "--k", 100,
                    "--output", out]) == 1
        assert capsys.readouterr().err == (
            "error: weak-dependence test needs a proper cone [a, b] != [0, 1]\n")
        assert not out.exists()

    @pytest.mark.parametrize("which", ["weak", "all"])
    @pytest.mark.parametrize("cone, x_zero", [("0.9,0.95", 0), ("0,0.1", 500)],
                             ids=["no_point", "only_angle_0"])
    def test_empty_cone_refused_before_resampling(self, tmp_path, capsys, monkeypatch,
                                                  which, cone, x_zero):
        # every angle is 0.5 but for x_zero points on the theta = 0 ray: no
        # point of positive angle lies in the cone, so every masked resample
        # is 1 and H3 refuses the cone before any test resamples
        def refuse(*args):
            raise AssertionError("resampled before refusing the cone")

        monkeypatch.setattr(boot_tests, "_resample_stats", refuse)
        gen = np.random.Generator(np.random.Philox(17))
        r = (1 - gen.random(3000)) ** -0.5
        x = np.where(np.arange(3000) < x_zero, 0.0, 0.5 * r)
        src = tmp_path / "s.csv"
        write_sample_csv(src, x, r - x)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--which", which, "--k", 100, "--cone", cone,
                    "--output", out]) == 1
        a, b = map(float, cone.split(","))
        assert capsys.readouterr().err == (
            f"error: the cone [{a}, {b}] holds no top-5 mass in any resample: no point with "
            "a positive angle lies in it, so the masked statistic is always 1 and the F "
            "ratio is undefined\n")
        assert not out.exists()

    @pytest.mark.parametrize("n, flags, message", [
        (4, [], "k_n must be at least 2, got 1 from the default min(ceil(n/10), 100) "
                "with n = 4: give --k"),
        (30, ["--k", 10], "need k_mn < m_n, got k_mn=5, m_n=3 from the default "
                          "m_n = max(2, round(n / k_n)) and k_mn = max(5, round(0.05 * m_n)) "
                          "with n = 30"),
    ], ids=["default_k", "default_m_and_kmn"])
    def test_refused_default_is_named(self, tmp_path, capsys, n, flags, message):
        # a value the user did not give is named with the rule that chose it
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(18))
        r = (1 - gen.random(n)) ** -0.5
        write_sample_csv(src, 0.4 * r, 0.6 * r)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, *flags, "--B", 20, "--output", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--which", "all"],
                                       ["--which", "all", "--cone", "0.25,0.75"],
                                       ["--which", "weak"]],
                             ids=["all_estimated", "all_flag", "weak_estimated"])
    def test_one_sort_per_run(self, ex1_csv, tmp_path, monkeypatch, flags):
        # the support fit and every test share the one sort of the sample
        calls = []
        sort = tail_core._decreasing_order
        monkeypatch.setattr(tail_core, "_decreasing_order",
                            lambda values: calls.append(values.size) or sort(values))
        assert run(["test", "--input", ex1_csv, "--k", 100, "--B", 20, *flags,
                    "--output", tmp_path / "o.json"]) == 0
        assert calls == [30000]

    @pytest.mark.parametrize("flags, name", [(["--k", 1], "k_n"), (["--kmn", 1], "k_mn")])
    def test_one_radius_refused(self, tmp_path, capsys, flags, name):
        # on one radius every Hill-type statistic is 0: --kmn 1 --which full
        # used to report fail_to_reject over all-zero resamples
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(15))
        r = (1 - gen.random(500)) ** -0.5
        write_sample_csv(src, 0.4 * r, 0.6 * r)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--which", "full", "--k", 30, *flags,
                    "--B", 20, "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {name} must be at least 2, got 1: on one radius every Hill-type "
            "statistic is log(R_(1)/R_(1)) = 0\n")
        assert not out.exists()

    def test_seed_env_default_and_flag_override(self, tmp_path, monkeypatch):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(9))
        r = (1 - gen.random(500)) ** -0.5
        write_sample_csv(src, 0.4 * r, 0.6 * r)

        def cfg_seed(out, extra):
            assert run(["test", "--input", src, "--which", "full", "--k", 30,
                        "--B", 20, "--output", out] + extra) == 0
            return json.loads(out.read_text())["config"]["seed"]

        monkeypatch.setenv("TAILDEP_SEED", "99")
        assert cfg_seed(tmp_path / "a.json", []) == 99
        assert cfg_seed(tmp_path / "b.json", ["--seed", "5"]) == 5

    def test_malformed_seed_env_is_a_usage_error_only_where_read(self, tmp_path, capsys,
                                                                 monkeypatch):
        # only simulate and test draw random numbers, so only they take --seed
        # and read TAILDEP_SEED; the others run whatever it holds
        monkeypatch.setenv("TAILDEP_SEED", "abc")
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(16))
        r = (1 - gen.random(500)) ** -0.5
        write_sample_csv(src, 0.4 * r, 0.6 * r)
        assert run(["prep", "--input", src, "--output", tmp_path / "prep"]) == 0
        assert run(["support", "--input", src, "--k", 20, "--output", tmp_path / "s.json"]) == 0
        assert run(["diamond", "--input", src, "--output", tmp_path / "dia"]) == 0
        for cmd in (["simulate", "--example", 1, "--n", 10, "--output", tmp_path / "x.csv"],
                    ["test", "--input", src, "--k", 20, "--B", 20, "--output", tmp_path / "t.json"]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                run(cmd)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                "error: argument --seed: invalid int value: 'abc'\n")
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "t.json").exists()

    def test_support_takes_no_seed(self, tmp_path, capsys):
        # the support fit is exact and draws no random numbers
        src = tmp_path / "s.csv"
        write_sample_csv(src, [3.0, 1.0, 2.0], [1.0, 0.5, 2.5])
        with pytest.raises(SystemExit) as exc:
            run(["support", "--input", src, "--seed", 1, "--output", tmp_path / "o.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("which, B, alpha", [("full", 100000, 0.5), ("weak", 10000, 1e-6)])
    def test_extreme_thresholds_get_a_report(self, tmp_path, which, B, alpha):
        # the chi-square quantile at df = 99999 needs more series terms than a
        # fixed cap of 1000 allows, and the F quantile at alpha 1e-6 reaches
        # densities below e^-700, where a Newton step would overflow
        src, out = tmp_path / "ex1.csv", tmp_path / "o.json"
        assert run(["simulate", "--example", 1, "--n", 3000, "--seed", 0, "--output", src]) == 0
        assert run(["test", "--input", src, "--which", which, "--B", B, "--alpha-sig", alpha,
                    "--output", out]) == 0
        rep = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        threshold = rep["reports"][0]["threshold"]
        if which == "full":
            assert threshold == pytest.approx(scipy.stats.chi2.ppf(1 - alpha, B - 1) / (B - 1),
                                              rel=1e-12)
        else:
            assert threshold == pytest.approx(
                scipy.stats.f.ppf([alpha / 2, 1 - alpha / 2], B - 1, B - 1), rel=1e-10)

    def test_arithmetic_error_is_reported(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise ArithmeticError("series failed to converge")

        monkeypatch.setattr(boot_tests, "chisq_quantile", fail)
        src, out = tmp_path / "s.csv", tmp_path / "o.json"
        assert run(["simulate", "--example", 1, "--n", 300, "--seed", 0, "--output", src]) == 0
        assert run(["test", "--input", src, "--which", "full", "--B", 20, "--output", out]) == 1
        assert capsys.readouterr().err == "error: series failed to converge\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd, flags", [("test", ["--k", 100, "--B", 100000000000]),
                                            ("diamond", ["--bins", 100000000000])],
                             ids=["test", "diamond"])
    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                     "and data type float64"),
         "error: out of memory: Unable to allocate 745. GiB for an array with shape "
         "(100000000000,) and data type float64\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_reported(self, tmp_path, capsys, monkeypatch, cmd, flags, exc,
                                      message):
        # whether these allocations fail depends on the host's overcommit
        # policy, so the command raises what numpy (or Python) raises there
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, f"cmd_{cmd}", fail)
        src = tmp_path / "s.csv"
        assert run(["simulate", "--example", 1, "--n", 3000, "--seed", 0, "--output", src]) == 0
        assert run([cmd, "--input", src, *flags, "--output", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == message


class TestDiamond:
    def test_single_point_on_unit_diamond(self, tmp_path):
        src = tmp_path / "s.csv"
        write_sample_csv(src, [3.0, 1.0], [1.0, 0.5])
        assert run(["diamond", "--input", src, "--k", 1,
                    "--output", tmp_path / "out"]) == 0
        rows = (tmp_path / "out" / "diamond.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        x, y, theta = map(float, rows[1].split(","))
        assert abs(x) + abs(y) == pytest.approx(1.0, rel=1e-12)
        assert theta == pytest.approx(0.75)

    def test_all_positive_first_quadrant(self, tmp_path):
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(10))
        write_sample_csv(src, gen.random(100) + 0.01, gen.random(100) + 0.01)
        assert run(["diamond", "--input", src, "--k", 50,
                    "--output", tmp_path / "out"]) == 0
        data = np.loadtxt(tmp_path / "out" / "diamond.csv", delimiter=",",
                          skiprows=1)
        assert np.all(data[:, :2] >= 0)

    def test_example1_angle_histogram_mass(self, ex1_csv, tmp_path):
        assert run(["diamond", "--input", ex1_csv, "--k", 100, "--bins", 20,
                    "--output", tmp_path / "out"]) == 0
        hist = np.loadtxt(tmp_path / "out" / "angles.csv", delimiter=",",
                          skiprows=1)
        inside = (hist[:, 0] >= 0.25) & (hist[:, 1] <= 0.75)
        assert hist[inside, 2].sum() / hist[:, 2].sum() >= 0.9
        assert hist[:, 2].sum() == 100

    def test_k_below_one_errors(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_sample_csv(src, [3.0, 1.0], [1.0, 0.5])
        assert run(["diamond", "--input", src, "--k", 0,
                    "--output", tmp_path / "out"]) == 1
        assert "error: --k must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, cols, message", [
        ("x\n1.0\n2.0\n", None, "{src}: need at least two columns"),
        ("x,y\n1.0,2.0\n", "x", "--cols needs exactly two comma-separated names"),
    ], ids=["one_column", "one_name"])
    def test_fewer_than_two_columns(self, tmp_path, capsys, text, cols, message):
        src = tmp_path / "s.csv"
        src.write_text(text, encoding="utf-8")
        flags = ["--cols", cols] if cols else []
        assert run(["diamond", "--input", src, *flags, "--output", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {message.format(src=src)}\n"
        assert not (tmp_path / "out").exists()

    def test_origin_points_never_in_top_k(self, tmp_path):
        # two of four points lie at the origin, where x / (|x| + |y|) is
        # 0 / 0; asking for all four gives the two with a direction
        src = tmp_path / "s.csv"
        src.write_text("x,y\n0,0\n3,-1\n-0.0,0\n0.5,0.25\n", encoding="utf-8")
        assert run(["diamond", "--input", src, "--k", 4, "--bins", 4,
                    "--output", tmp_path / "out"]) == 0
        assert (tmp_path / "out" / "diamond.csv").read_text() == (
            "x,y,theta\n0.75,-0.25,0.75\n"
            "0.6666666666666666,0.3333333333333333,0.6666666666666666\n")
        assert (tmp_path / "out" / "angles.csv").read_text() == (
            "bin_left,bin_right,count\n0.0,0.25,0\n0.25,0.5,0\n0.5,0.75,1\n0.75,1.0,1\n")

    def test_ties_keep_input_order(self, tmp_path):
        # four points tie at |x| + |y| = 2 behind one at 3; they come out
        # in input order, however numpy's sort orders equal keys
        src = tmp_path / "s.csv"
        src.write_text("x,y\n1,1\n2,0\n0,2\n-1,1\n0,3\n", encoding="utf-8")
        assert run(["diamond", "--input", src, "--k", 4, "--bins", 2,
                    "--output", tmp_path / "out"]) == 0
        assert (tmp_path / "out" / "diamond.csv").read_text() == (
            "x,y,theta\n0.0,1.0,0.0\n0.5,0.5,0.5\n1.0,0.0,1.0\n0.0,1.0,0.0\n")

    def test_tie_heavy_output_matches_stable_argsort(self, tmp_path):
        # integer coordinates of both signs: most norms tie
        gen = np.random.Generator(np.random.Philox(17))
        x = gen.integers(-6, 7, 5000).astype(float)
        y = gen.integers(-6, 7, 5000).astype(float)
        src = tmp_path / "s.csv"
        write_sample_csv(src, x, y)
        assert run(["diamond", "--input", src, "--k", 3000, "--output", tmp_path / "out"]) == 0
        norm = np.abs(x) + np.abs(y)
        top = np.argsort(-norm, kind="stable")[:3000]
        rows = zip(*(v.tolist() for v in (x[top] / norm[top], y[top] / norm[top],
                                          np.abs(x[top]) / norm[top])))
        assert (tmp_path / "out" / "diamond.csv").read_text().splitlines() == [
            "x,y,theta", *(f"{a!r},{b!r},{t!r}" for a, b, t in rows)]

    def test_norm_overflow_refused(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("x,y\n1,2\n-1e308,1e308\n", encoding="utf-8")
        assert run(["diamond", "--input", src, "--output", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: the radius x + y of point 1 overflows (x = 1e+308, y = 1e+308)\n")
        assert not (tmp_path / "out").exists()

    def test_bad_bins_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_sample_csv(src, [3.0, 1.0], [1.0, 0.5])
        assert run(["diamond", "--input", src, "--bins", 0,
                    "--output", tmp_path / "out"]) == 1
        assert "bins" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWriteCsv:
    def test_cells_keep_every_bit(self, tmp_path):
        out = tmp_path / "sub" / "t.csv"
        values = np.array([-0.0, 0.1 + 0.2, 1 / 3, 5e-324, -1.7976931348623157e308])
        cli._write_csv(str(out), "lag,value,count", np.arange(5), values,
                       np.array([0, 1, 2, 10**12, 7], dtype=np.int64))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == [
            "lag,value,count",
            "0,-0.0,0",
            "1,0.30000000000000004,1",
            "2,0.3333333333333333,2",
            "3,5e-324,1000000000000",
            "4,-1.7976931348623157e+308,7",
        ]
        back = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert back.view(np.uint64).tolist() == values.view(np.uint64).tolist()

    def test_header_only_without_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        cli._write_csv(str(out), "lag,acf_return,acf_abs_return")
        assert out.read_text(encoding="utf-8") == "lag,acf_return,acf_abs_return\n"


def _reference_read(path, names=None):
    """The reader before it parsed with np.loadtxt, verbatim but for the
    byte-order mark it strips from the header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().removeprefix("\ufeff").strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        cols = [c.strip() for c in header.split(",")]
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise ValueError(f"{path}:{line_no}: expected {len(cols)} fields")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    table = {name: data[:, i] for i, name in enumerate(cols)}
    if names is not None:
        for name in names:
            if name not in table:
                raise ValueError(f"{path}: missing column {name!r}")
    return table


def _reference_read_finite(path, names=None):
    """_reference_read plus the non-finite rule: a file it accepts is
    refused at its first non-finite cell, in file order."""
    table = _reference_read(path, names)
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            for cell in line.split(",") if line else []:
                if not math.isfinite(float(cell)):
                    raise ValueError(f"{path}:{line_no}: non-finite value {cell!r}")
    return table


def _outcome(reader, path, names):
    try:
        table = reader(str(path), names)
    except ValueError as exc:
        return "error", str(exc)
    # bit patterns, so -0.0 and 0.0 differ
    return "table", {k: (v.shape, v.view(np.uint64).tolist()) for k, v in table.items()}


_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_JUNK = st.text(alphabet="0123456789.e+-_ \t#\"\u0663", max_size=6)
_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "Infinity", " NaN ", "1e999", "1_0", "\u0663", "-0.0", "2#1"])
_CELL = st.one_of(_NUMBER, _NUMBER, _JUNK, _SPECIAL)
_ROW = st.one_of(
    st.lists(_CELL, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", " ", "\t ", "  "]),
)


@st.composite
def _csv_files(draw):
    """(file bytes, names): a header of 1-3 columns, then rows that, in a
    clean file, all match it; mixed line endings and an optional UTF-8 BOM."""
    width = draw(st.integers(1, 3))
    cols = ["x", "y", "z"][:width]
    clean = draw(st.booleans())
    cell = _NUMBER if clean else st.one_of(_NUMBER, _NUMBER, _NUMBER, _SPECIAL)
    good_row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    other_row = st.just("") if clean else _ROW
    rows = draw(st.lists(st.one_of(good_row, good_row, good_row, other_row), min_size=1, max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(rows) + 1, max_size=len(rows) + 1))
    text = ",".join(cols) + "".join(e + r for e, r in zip(ends, rows)) + ends[-1]
    if draw(st.booleans()):
        text = "\ufeff" + text
    names = draw(st.sampled_from([None, None, ["x"], ["x", "y"], ["y", "q"]]))
    return text.encode("utf-8"), names


class TestReader:
    def _read_error(self, tmp_path, text, names=None, name="r.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError) as info:
            cli._read_csv_columns(str(path), names)
        return path, str(info.value)

    def test_empty_file(self, tmp_path):
        path, msg = self._read_error(tmp_path, "")
        assert msg == f"{path}: empty file"

    @pytest.mark.parametrize("text", ["x,y\n", "x,y", "x,y\n\n \n\t\r\n\r\n", "price\n\n"])
    def test_no_data_rows_without_warning(self, tmp_path, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path, msg = self._read_error(tmp_path, text)
        assert msg == f"{path}: no data rows"
        assert caught == []

    def test_field_count_names_line_after_blank_lines(self, tmp_path):
        path, msg = self._read_error(tmp_path, "x,y\n1,2\n\n  \n3\n4,5\n")
        assert msg == f"{path}:5: expected 2 fields"

    def test_bad_cell_names_line_after_blank_lines(self, tmp_path):
        path, msg = self._read_error(tmp_path, "x,y\r\n1,2\r\n\r\n1,abc\r\n")
        assert msg == f"{path}:4: could not convert string to float: 'abc'"

    def test_hash_is_not_a_comment(self, tmp_path):
        path, msg = self._read_error(tmp_path, "x,y\n1,2 # note\n")
        assert msg == f"{path}:2: could not convert string to float: '2 # note'"
        path, msg = self._read_error(tmp_path, "x,y\n# note\n1,2\n")
        assert msg == f"{path}:2: expected 2 fields"

    @pytest.mark.parametrize("header, name", [("a,b,a", "a"), ("x,x", "x")])
    def test_repeated_column_name_refused_before_rows(self, tmp_path, header, name):
        # the bad row shows that the header is refused before any row is parsed
        width = header.count(",") + 1
        path, msg = self._read_error(tmp_path, f"{header}\n{','.join(['1'] * width)}\nbad\n")
        assert msg == f"{path}: column {name!r} is named twice in the header"

    def test_missing_column(self, tmp_path):
        path, msg = self._read_error(tmp_path, "x,y\n1,2\n", ["x", "z"])
        assert msg == f"{path}: missing column 'z'"

    def test_non_finite_cell_names_line(self, tmp_path):
        path, msg = self._read_error(tmp_path, "x,y\n1,2\n\n3, inf\nnan,4\n")
        assert msg == f"{path}:4: non-finite value ' inf'"

    def test_other_errors_come_before_non_finite(self, tmp_path):
        path, msg = self._read_error(tmp_path, "x,y\nnan,2\n3,4,5\n")
        assert msg == f"{path}:3: expected 2 fields"
        path, msg = self._read_error(tmp_path, "x,y\nnan,2\n", ["z"])
        assert msg == f"{path}: missing column 'z'"

    def test_one_column_and_one_row(self, tmp_path):
        src = tmp_path / "p.csv"
        src.write_text("price\n1.5\n\n2.5\n")
        table = cli._read_csv_columns(str(src))
        assert list(table) == ["price"] and table["price"].tolist() == [1.5, 2.5]
        src.write_text("x,y\n1.5,-0.0\n")
        table = cli._read_csv_columns(str(src))
        assert table["x"].tolist() == [1.5] and table["y"].tolist() == [0.0]
        assert math.copysign(1.0, table["y"][0]) == -1.0

    def test_float_syntax_loadtxt_refuses(self, tmp_path):
        # underscores, non-ASCII digits and whitespace-only lines parse as float does
        src = tmp_path / "f.csv"
        src.write_text("x,y\n1_0,\u0663\n \t \n2,3\n", encoding="utf-8")
        table = cli._read_csv_columns(str(src))
        assert table["x"].tolist() == [10.0, 2.0] and table["y"].tolist() == [3.0, 3.0]

    def test_byte_order_mark_stripped_from_header(self, tmp_path):
        src = tmp_path / "bom.csv"
        src.write_bytes("\ufeffx,y\n1,2\n3,4\n".encode("utf-8"))
        table = cli._read_csv_columns(str(src), ["x", "y"])
        assert list(table) == ["x", "y"] and table["x"].tolist() == [1.0, 3.0]
        out = tmp_path / "supp.json"
        assert run(["support", "--input", src, "--cols", "x,y", "--k", 1, "--output", out]) == 0

    def test_plain_text_with_archive_suffix(self, tmp_path):
        src = tmp_path / "data.csv.gz"
        src.write_text("x,y\n1,2\n")
        assert cli._read_csv_columns(str(src))["y"].tolist() == [2.0]

    def test_well_formed_file_skips_line_loop(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("line loop ran on a well-formed file")

        monkeypatch.setattr(cli, "_read_csv_lines", refuse)
        src = tmp_path / "s.csv"
        write_sample_csv(src, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert cli._read_csv_columns(str(src), ["y"])["y"].tolist() == [4.0, 5.0, 6.0]

    @staticmethod
    def _feed(open_writer, data):
        """Write data from a thread into the pipe that open_writer() opens."""
        def write():
            try:
                with open_writer() as fh:
                    fh.write(data)
            except BrokenPipeError:
                pass  # the reader stopped at an error

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        return writer

    # 3000 rows, about 40 KB: several of the header read's 8 KB buffers
    _STREAM_ROWS = [f"{i}.25,{-i}e-3" for i in range(3000)]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("bad_line, bad_row", [(None, None), (2500, "1,2,3"), (2900, "nan,1")])
    def test_fifo_read_once(self, tmp_path, bad_line, bad_row):
        rows = list(self._STREAM_ROWS)
        if bad_line is not None:
            rows[bad_line - 2] = bad_row
        data = ("x,y\n" + "\n".join(rows) + "\n").encode("utf-8")
        fifo, src = tmp_path / "s.fifo", tmp_path / "s.csv"
        os.mkfifo(fifo)
        src.write_bytes(data)
        writer = self._feed(lambda: open(fifo, "wb"), data)
        result = []
        reader = threading.Thread(
            target=lambda: result.append(_outcome(cli._read_csv_columns, fifo, None)), daemon=True)
        reader.start()
        reader.join(10)
        # a reader that opens the FIFO a second time waits for a writer forever
        assert not reader.is_alive(), "reader blocked on the FIFO"
        writer.join(10)
        outcome = result[0]
        expected = _outcome(_reference_read_finite, src, None)
        assert outcome == (expected[0], expected[1].replace(str(src), str(fifo))
                           if expected[0] == "error" else expected[1])
        if bad_line is None:
            assert outcome[0] == "table" and len(outcome[1]["x"][1]) == len(rows)
        else:
            assert outcome[1].startswith(f"{fifo}:{bad_line}: ")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_through_dev_fd(self, tmp_path):
        data = ("x,y\n" + "\n".join(self._STREAM_ROWS) + "\n").encode("utf-8")
        src = tmp_path / "s.csv"
        src.write_bytes(data)
        read_fd, write_fd = os.pipe()
        try:
            # the writer closes write_fd, so the reader sees the end of the pipe
            writer = self._feed(lambda: os.fdopen(write_fd, "wb"), data)
            table = cli._read_csv_columns(f"/dev/fd/{read_fd}")
            writer.join(10)
        finally:
            os.close(read_fd)
        expected = _reference_read(str(src))
        assert table.keys() == expected.keys()
        for name in table:
            assert np.array_equal(table[name], expected[name])

    @pytest.mark.parametrize("cmd", ["prep", "support", "test", "diamond"])
    def test_non_finite_cell_fails_every_command(self, tmp_path, capsys, cmd):
        src = tmp_path / "s.csv"
        if cmd == "prep":
            src.write_text("price\n1.0\ninf\n3.0\n")
        else:
            src.write_text("x,y\n1,2\ninf,3\n4,5\n")
        out = tmp_path / "out"
        assert run([cmd, "--input", src, "--output", out]) == 1
        assert capsys.readouterr().err == f"error: {src}:3: non-finite value 'inf'\n"
        assert not out.exists()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_csv_files())
    def test_matches_line_loop(self, tmp_path_factory, case):
        data, names = case
        path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
        path.write_bytes(data)
        expected = _outcome(_reference_read_finite, path, names)
        assert _outcome(cli._read_csv_columns, path, names) == expected
