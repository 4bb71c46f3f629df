import json
import math

import numpy as np
import pytest

from taildep.cli import main


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

    def test_invalid_spec_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert run(["simulate", "--n", 10, "--alpha-main", 4,
                    "--alpha-hidden", 2, "--output", out]) == 1
        assert "error:" in capsys.readouterr().err


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
        assert rep["schema_version"] == 2
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
    def test_non_finite_statistic_fails_without_report(self, ex1_csv, tmp_path, capsys, fmt):
        # on the theta = 0 ray every top-k point with x > 0 is infinitely
        # far from the cone, so each cone-adjusted Hill value is +inf
        out = tmp_path / "o.json"
        assert run(["test", "--input", ex1_csv, "--which", "strong", "--k", 100,
                    "--cone", "0,0", "--B", 20, "--format", fmt, "--output", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: non-finite value, report not written")
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

    @pytest.mark.parametrize("which", ["full", "weak"])
    def test_zero_angle_data_rejected(self, tmp_path, capsys, which):
        # x = 0 throughout: every angle is 0
        src = tmp_path / "s.csv"
        gen = np.random.Generator(np.random.Philox(12))
        write_sample_csv(src, np.zeros(3000), (1 - gen.random(3000)) ** -0.5)
        out = tmp_path / "o.json"
        assert run(["test", "--input", src, "--which", which, "--k", 100,
                    "--B", 200, "--output", out]) == 1
        assert "statistic is undefined on theta == 0 data" in capsys.readouterr().err
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
