"""CALIB.json is what calib/run.py writes for the code in this tree.

Its settings are run.py's, and seed 0 of each data set, rebuilt from
run.py's DATA, gives the committed per-seed values bit for bit. A change
that moves a statistic fails here until calib/run.py is run again.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def calib():
    spec = importlib.util.spec_from_file_location("calib_run", ROOT / "calib" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run, json.loads((ROOT / "CALIB.json").read_text(encoding="utf-8"))


def test_settings_are_run_py_settings(calib):
    run, table = calib
    assert table["settings"] == run.SETTINGS


@pytest.mark.parametrize("name", ["bare_ray", "ray_hrv", "example1", "example2"])
def test_seed_zero_gives_the_committed_values(calib, name):
    run, table = calib
    assert run.SEEDS[0] == 0
    committed = table["data"][name]
    h1, h2, h3 = run.run_seed(run.DATA[name][0], 0)
    assert h1.statistic == committed["H1"]["rejection_rate"][0]
    assert h2.statistic == committed["H2"]["statistic"][0]
    assert h2.auxiliary["proportion_rule_rate"] == committed["H2"]["proportion_rule_rate"][0]
    assert (h3 is None) == ("H3" not in committed)
    if h3 is not None:
        assert h3.statistic == committed["H3"]["statistic"][0]
