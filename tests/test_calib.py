"""CALIB.json is what calib/run.py writes for the code in this tree.

Its settings are run.py's, and seed 0 of each data set, rebuilt from
run.py's DATA, gives the committed per-seed values bit for bit, on the
true cone and on the fitted one. A change that moves a statistic fails
here until calib/run.py is run again. The calibration and `taildep test`
reach the tests by the same names, so the table measures the command's run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from taildep import cli
from taildep.datagen import EXAMPLE1_SPEC

ROOT = Path(__file__).resolve().parents[1]
NAMES = ["bare_ray", "ray_hrv", "example1", "example2"]
TESTS = ["strong_dependence_test", "full_dependence_test", "weak_dependence_test"]


@pytest.fixture(scope="module")
def calib():
    spec = importlib.util.spec_from_file_location("calib_run", ROOT / "calib" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run, json.loads((ROOT / "CALIB.json").read_text(encoding="utf-8"))


def test_settings_are_run_py_settings(calib):
    run, table = calib
    assert table["settings"] == run.SETTINGS


def _check_seed_zero(reports, committed):
    h1, h2, h3 = reports
    assert h1.statistic == committed["H1"]["rejection_rate"][0]
    assert h2.statistic == committed["H2"]["statistic"][0]
    assert h2.auxiliary["proportion_rule_rate"] == committed["H2"]["proportion_rule_rate"][0]
    assert (h3 is None) == ("H3" not in committed)
    if h3 is not None:
        assert h3.statistic == committed["H3"]["statistic"][0]


@pytest.mark.parametrize("name", NAMES)
def test_seed_zero_gives_the_committed_values(calib, name):
    run, table = calib
    assert run.SEEDS[0] == 0
    spec = run.DATA[name][0]
    cone, *reports = run.run_seed(spec, 0, spec.cone)
    assert cone == spec.cone
    _check_seed_zero(reports, table["data"][name])


@pytest.mark.parametrize("name", NAMES)
def test_seed_zero_gives_the_committed_estimated_cone(calib, name):
    run, table = calib
    committed = table["data"][name]["estimated_cone"]
    cone, *reports = run.run_seed(run.DATA[name][0], 0, None)
    assert (cone.a, cone.b) == (committed["a"][0], committed["b"][0])
    _check_seed_zero(reports, committed)


@pytest.mark.parametrize("name", NAMES)
def test_estimated_cone_block_agrees_with_itself(calib, name):
    run, table = calib
    row = table["data"][name]
    est = row["estimated_cone"]
    seeds = len(run.SEEDS)
    assert len(est["a"]) == len(est["b"]) == seeds
    # H2 reads no cone: both paths give the same entries
    assert est["H2"] == {key: value for key, value in row["H2"].items() if key != "null"}
    for rule, rejects in [("chi_square", est["H2"]["chi_square_rejects"]),
                          ("proportion", est["H2"]["proportion_rejects"])]:
        classes = est["classes"][rule]
        assert sum(classes.values()) == seeds
        assert classes["full"] == seeds - rejects


@pytest.fixture
def reached(monkeypatch):
    """The names of the support fit and the tests as cli binds them, in the
    order they are called, as perfbench/tracer.py wraps them."""
    calls = []
    for name in ["estimate_support", *TESTS]:
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


def test_command_reaches_the_fit_and_each_test_once(reached, tmp_path):
    data = tmp_path / "ex1.csv"
    assert cli.main(["simulate", "--n", "3000", "--seed", "0", "--output", str(data)]) == 0
    assert cli.main(["test", "--which", "all", "--input", str(data), "--B", "200",
                     "--output", str(tmp_path / "report.json")]) == 0
    assert reached == ["estimate_support", *TESTS]


def test_calibration_reaches_the_tests_through_cli(calib, reached):
    run, _ = calib
    run.run_seed(EXAMPLE1_SPEC, 0, EXAMPLE1_SPEC.cone)
    assert reached == TESTS
    reached.clear()
    run.run_seed(EXAMPLE1_SPEC, 0, None)
    assert reached == ["estimate_support", *TESTS]
