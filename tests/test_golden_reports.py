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
re-pins them.
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
}

_GOLDEN = {
    ("example1", "test"):
        "7952d0dc06dae61128390ad690bb17ecf65e064b72f7b9df85e626268297346c",
    ("example1", "support"):
        "299603ee59be6db9591d5778e541a55ddb1d8afec3db9b3063e62ef5bc7e4400",
    ("degrees", "test"):
        "c809def07fc90be312fa709731f6591ee246a19790321dac53433c17610c319e",
    ("degrees", "support"):
        "d225357da3fd7e63d6924fd3f052e3d0700be0936f7a38d0611bace964c42b53",
    ("example1_30000", "paper_test"):
        "3e248314a99e466ef4c554594b38bbd9f53a69119aa057882ce75f4aa5b152db",
}


@pytest.mark.parametrize("data, command", list(_GOLDEN), ids=lambda v: v)
def test_report_bytes_are_pinned(tmp_path, data, command):
    data_path = tmp_path / "in.csv"
    {"example1": _example1, "example1_30000": _example1_30000, "degrees": _degrees}[data](data_path)
    out = tmp_path / "report.json"
    cmd, *flags = _COMMANDS[command]
    assert main([cmd, "--input", str(data_path), *flags, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[data, command]
