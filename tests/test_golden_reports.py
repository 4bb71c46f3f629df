"""Pinned report bytes: the sha256 of `taildep test --which all` and
`taildep support` reports on two small fixed inputs, and of one
paper-scale `taildep test --which all` run.

The small inputs' hashes were computed with the argsort-based radial
order that the packed-key sort replaced, and the paper-scale one with the
slot draws that repaired a rejected half by a stable argsort and redrew
short rows with more words (numpy 2.4.6, x86-64). So they hold the
byte-identity contract: a change to the sort, the slot draws, the support
fit or a test statistic that moves any report value, tie order included,
fails here. A deliberate change to a report bumps SCHEMA_VERSION and
re-pins them. Schema 3 scores a degenerate resample once, by the
estimators' convention, where schema 2 drew it again: of the five reports
only the degrees test report's values moved.

The two weak-dependence reports on the degrees input pin the masked
statistic's edge cases under schema 3: origin points inside the cone, and
a cone whose every masked slot takes the convention (k-th masked radius 0,
or no in-cone angle mass). They were computed with the masked statistic's
own row kernel, which re-sorted each resample by the cone mask and
clamped its log ratios at 0, before it became the angle-weighted kernel
on the sample with out-of-cone points moved to the origin.
"""

import hashlib

import pytest

from taildep.cli import main
from taildep.datagen import example1


def _example1(path):
    assert main(["simulate", "--example", "1", "--n", "3000", "--seed", "0",
                 "--output", str(path)]) == 0


def _example1_30000(path):
    # at n = 30000 a row of 500 halves is rejected with probability about
    # 0.003: 19 of this run's 8000 slot rows take numpy's own draw
    assert main(["simulate", "--example", "1", "--n", "30000", "--seed", "3",
                 "--output", str(path)]) == 0


def _degrees(path):
    # Example 1 rounded down to integers: 17 distinct radii, most points
    # tied, 2187 zero x and 1287 points at the origin
    s = example1(3000, 11)
    rows = [f"{float(a // 1)!r},{float(b // 1)!r}" for a, b in zip(s.x, s.y)]
    path.write_text("\n".join(["x,y", *rows]) + "\n", encoding="utf-8")


_COMMANDS = {
    "test": ["test", "--which", "all", "--B", "200", "--seed", "0"],
    "support": ["support"],
    "paper_test": ["test", "--which", "all", "--k", "100", "--mn", "500", "--kmn", "25",
                   "--B", "2000", "--seed", "3"],
    # a = 0 puts the origin points in the cone
    "weak_origin_in_cone": ["test", "--which", "weak", "--cone", "0,0.5", "--B", "200",
                            "--seed", "0"],
    # every masked slot takes the convention: 108 are 0 and 92 are 1
    "weak_masked_convention": ["test", "--which", "weak", "--cone", "0.2,0.6", "--B", "200",
                               "--seed", "0"],
}

_GOLDEN = {
    ("example1", "test"):
        "9bd93d3b9bd5dd48f95757e80134a3684af9b69e3299b89dc3b0cf933d5d4813",
    ("example1", "support"):
        "544a0447bb5ca815f5f578aa2515da57a47625d7a2b83307e7b0a08973b79a55",
    ("degrees", "test"):
        "d231e30b8a2e7dfd57da177bfb12ea0460414246fe855f52cff198dc63bfb1ae",
    ("degrees", "support"):
        "7ffb7b18affb3bad799b927f123df906080ca6deff4495207a2a6e795301e559",
    ("example1_30000", "paper_test"):
        "51f6cc9a9aa830970938bb8e5a5f1397c418854a60c77294d325a3708eb4b01a",
    ("degrees", "weak_origin_in_cone"):
        "ffd58b477cfc933e47b2994ebd23d01a7a0c56c0d7b1462eb7b8269f49a92f45",
    ("degrees", "weak_masked_convention"):
        "028efaabdb19ed4212a704cc8bf0868e59fa42820a017407c09a80f7db988594",
}


@pytest.mark.parametrize("data, command", list(_GOLDEN), ids=lambda v: v)
def test_report_bytes_are_pinned(tmp_path, data, command):
    data_path = tmp_path / "in.csv"
    {"example1": _example1, "example1_30000": _example1_30000, "degrees": _degrees}[data](data_path)
    out = tmp_path / "report.json"
    cmd, *flags = _COMMANDS[command]
    assert main([cmd, "--input", str(data_path), *flags, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[data, command]
