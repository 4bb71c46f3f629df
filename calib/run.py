"""Calibration table: how often each bootstrap verdict rule rejects, per data set.

    python3 calib/run.py

Run from anywhere; the program is imported from the tree's src/ and the
table goes to CALIB.json at the tree's root.
Every data set, seed and setting is fixed below, so two runs with the same
Python and numpy write the same bytes.

Data, n = 30000 each, seeds 0-49 (the seed is both the sample seed and the
bootstrap seed):
  bare_ray      MixtureSpec(2, 4, AngularCone(0.5, 0.5), 1, 1, 1.0)
  ray_hrv       the same ray with an HRV component (mix_prob 0.5)
  example1      datagen.EXAMPLE1_SPEC, cone [0.25, 0.75]
  example2      datagen.EXAMPLE2_SPEC, cone [0.25, 0.75]
Settings: k_n 100, m_n 500, k_mn 25, B 2000, alpha 0.05.

Tests, each given the data set's true cone where it takes one:
  H1  strong_dependence_test, on every data set (its null holds on all four)
  H2  full_dependence_test, chi-square rule and proportion rule, on every
      data set (its null holds on the rays; the Examples are alternatives)
  H3  weak_dependence_test, on the Examples only (a ray is not a proper cone)

Each entry records the reject count and every seed's statistic; "null"
says whether the data satisfy that test's null hypothesis, so the count is
a size (against alpha * seeds) or a power.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from taildep.boot_tests import (  # noqa: E402
    REJECT,
    TestConfig,
    _prepare,
    full_dependence_test,
    strong_dependence_test,
    weak_dependence_test,
)
from taildep.datagen import EXAMPLE1_SPEC, EXAMPLE2_SPEC, MixtureSpec, generate  # noqa: E402
from taildep.tail_core import AngularCone  # noqa: E402

N = 30000
SEEDS = range(50)
SETTINGS = {"n": N, "seeds": [SEEDS.start, SEEDS.stop - 1], "k_n": 100, "m_n": 500,
            "k_mn": 25, "B": 2000, "alpha": 0.05}
RAY = AngularCone(0.5, 0.5)
# name -> (spec, whether the data have full dependence, i.e. H2's null holds)
DATA = {
    "bare_ray": (MixtureSpec(2.0, 4.0, RAY, 1.0, 1.0, 1.0), True),
    "ray_hrv": (MixtureSpec(2.0, 4.0, RAY, 1.0, 1.0, 0.5), True),
    "example1": (EXAMPLE1_SPEC, False),
    "example2": (EXAMPLE2_SPEC, False),
}


def run_seed(spec: MixtureSpec, seed: int) -> tuple:
    """The H1, H2 and H3 reports on one seed of a data set; H3 is None
    where the data set's cone is a ray. The sample is prepared once for
    all three tests, as `taildep test` prepares it."""
    cone = spec.cone
    cfg = TestConfig(k_n=SETTINGS["k_n"], seed=seed, m_n=SETTINGS["m_n"],
                     k_mn=SETTINGS["k_mn"], B=SETTINGS["B"], alpha_sig=SETTINGS["alpha"])
    s = _prepare(generate(spec, N, seed), cfg)
    h1 = strong_dependence_test(s, cone, cfg)
    h2 = full_dependence_test(s, cfg)
    return h1, h2, weak_dependence_test(s, cone, cfg) if cone.a < cone.b else None


def calibrate(spec: MixtureSpec, full: bool) -> dict:
    """Every test's per-seed statistic and reject count on one data set."""
    cone = spec.cone
    proper = cone.a < cone.b
    h1, h2, h3 = zip(*(run_seed(spec, seed) for seed in SEEDS))
    out = {
        "spec": {**vars(spec), "cone": [cone.a, cone.b]},
        "H1": {"null": True, "rejects": sum(r.verdict == REJECT for r in h1),
               "rejection_rate": [r.statistic for r in h1]},
        "H2": {"null": full,
               "chi_square_rejects": sum(r.verdict == REJECT for r in h2),
               "proportion_rejects": sum(r.auxiliary["proportion_rule_reject"] for r in h2),
               "statistic": [r.statistic for r in h2],
               "proportion_rule_rate": [r.auxiliary["proportion_rule_rate"] for r in h2]},
    }
    if proper:
        out["H3"] = {"null": True, "rejects": sum(r.verdict == REJECT for r in h3),
                     "statistic": [r.statistic for r in h3]}
    return out


def main() -> int:
    table = {
        "settings": SETTINGS,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "data": {name: calibrate(spec, full) for name, (spec, full) in DATA.items()},
    }
    text = json.dumps(table, indent=1, sort_keys=True, allow_nan=False) + "\n"
    (ROOT / "CALIB.json").write_text(text, encoding="utf-8")
    for name, row in table["data"].items():
        h3 = row.get("H3", {}).get("rejects", "-")
        print(f"{name:9s} H1 {row['H1']['rejects']:2d}  H2 chi-square "
              f"{row['H2']['chi_square_rejects']:2d}  proportion "
              f"{row['H2']['proportion_rejects']:2d}  H3 {h3}  (of {len(SEEDS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
