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
  weak          MixtureSpec(2, 4, AngularCone(0, 1), 1, 1, 1.0): support the
                whole quadrant, so the data have weak dependence
Settings: k_n 100, m_n 500, k_mn 25, B 2000, alpha 0.05.

Tests, each given the data set's true cone where it takes one:
  H1  strong_dependence_test, on every data set (its null holds on all five)
  H2  full_dependence_test, chi-square rule and proportion rule, on every
      data set (its null holds on the rays; the others are alternatives)
  H3  weak_dependence_test, on the Examples only (it takes a proper cone
      other than [0, 1], and a ray is not proper)

Each entry records the reject count and every seed's statistic; "null"
says whether the data satisfy that test's null hypothesis, so the count is
a size (against alpha * seeds) or a power.

Each data set's "estimated_cone" block runs `taildep test`'s default on
the same seeds: the cone fitted at k_n with lambda 1, then H1, H2 and H3
on it (H3 on the rays too). It holds the fitted a and b per seed, each
test's entry as above without "null" (whether a fitted cone holds the
support is not known), and how many seeds take each provisional class,
once by H2's chi-square rule and once by its proportion rule: full where
H2 does not reject, else strong where H3 does not reject, else weak. H2
reads no cone, so its entries equal the true-cone ones.

Both paths run through cli._run_tests, the run that `taildep test` makes.
The run prints each block's counts and the sha256 of the CALIB.json it wrote.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from taildep.boot_tests import REJECT, TestConfig  # noqa: E402
from taildep.cli import _run_tests  # noqa: E402
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
    "weak": (MixtureSpec(2.0, 4.0, AngularCone(0.0, 1.0), 1.0, 1.0, 1.0), False),
}


def run_seed(spec: MixtureSpec, seed: int, cone: AngularCone | None) -> tuple:
    """The cone the tests ran on and the H1, H2 and H3 reports on one seed of
    a data set, run as `taildep test` runs them: on cone, or with cone None
    on the cone fitted at k_n with the default lambda. H3 is None where the
    given cone is a ray or [0, 1], on which weak_dependence_test is undefined."""
    cfg = TestConfig(k_n=SETTINGS["k_n"], seed=seed, m_n=SETTINGS["m_n"],
                     k_mn=SETTINGS["k_mn"], B=SETTINGS["B"], alpha_sig=SETTINGS["alpha"])
    proper = cone is None or (cone.a < cone.b and not cone.is_full)
    tests = ("H1", "H2", "H3") if proper else ("H1", "H2")
    cone, (h1, h2, *h3) = _run_tests(generate(spec, N, seed), cfg, tests, cone)
    return cone, h1, h2, h3[0] if h3 else None


def _entries(h1, h2, h3) -> dict:
    """Each test's reject count and per-seed statistic over the seeds' reports."""
    out = {
        "H1": {"rejects": sum(r.verdict == REJECT for r in h1),
               "rejection_rate": [r.statistic for r in h1]},
        "H2": {"chi_square_rejects": sum(r.verdict == REJECT for r in h2),
               "proportion_rejects": sum(r.auxiliary["proportion_rule_reject"] for r in h2),
               "statistic": [r.statistic for r in h2],
               "proportion_rule_rate": [r.auxiliary["proportion_rule_rate"] for r in h2]},
    }
    if h3[0] is not None:
        out["H3"] = {"rejects": sum(r.verdict == REJECT for r in h3),
                     "statistic": [r.statistic for r in h3]}
    return out


def _classes(h2_rejects, h3) -> dict:
    """How many seeds each class takes: full where H2 does not reject,
    else strong where H3 does not reject, else weak."""
    found = ["full" if not r2 else "weak" if r3.verdict == REJECT else "strong"
             for r2, r3 in zip(h2_rejects, h3)]
    return {c: found.count(c) for c in ("full", "strong", "weak")}


def calibrate(spec: MixtureSpec, full: bool) -> dict:
    """Every test's per-seed statistic and reject count on one data set, on
    its true cone and on the cone fitted to each seed's sample."""
    cone = spec.cone
    _, *true = zip(*(run_seed(spec, seed, cone) for seed in SEEDS))
    fitted, h1, h2, h3 = zip(*(run_seed(spec, seed, None) for seed in SEEDS))
    out = {"spec": {**vars(spec), "cone": [cone.a, cone.b]}}
    for test, entry in _entries(*true).items():
        out[test] = {"null": full if test == "H2" else True, **entry}
    out["estimated_cone"] = {
        "a": [c.a for c in fitted], "b": [c.b for c in fitted], **_entries(h1, h2, h3),
        "classes": {
            "chi_square": _classes([r.verdict == REJECT for r in h2], h3),
            "proportion": _classes([r.auxiliary["proportion_rule_reject"] for r in h2], h3),
        },
    }
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
        for path, block in (("true cone", row), ("fitted cone", row["estimated_cone"])):
            classes = [f"{rule} {'/'.join(map(str, c.values()))}"
                       for rule, c in block.get("classes", {}).items()]
            h3 = block.get("H3", {}).get("rejects", "-")
            print(f"{name:9s} {path:11s} H1 {block['H1']['rejects']:2d}  H2 chi-square "
                  f"{block['H2']['chi_square_rejects']:2d}  proportion "
                  f"{block['H2']['proportion_rejects']:2d}  H3 {h3}  (of {len(SEEDS)})", *classes)
    print(f"CALIB.json sha256 {hashlib.sha256(text.encode('utf-8')).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
