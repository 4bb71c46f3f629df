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
only the degrees test report's values moved. Schema 4 takes the chi-square
and F thresholds by bisection on the float grid, where schema 3 took them
by a safeguarded Newton inversion: H2's threshold and H3's band moved by
ulps in every test report, the schema field in every report, and no
verdict; all seven hashes were re-pinned.

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
        "01f06eb71111cb35fccce0052d5953b023ff63d9cd01ba5741a5feb657154b37",
    ("example1", "support"):
        "a7a07111c9b46121172d5f80a87a1bc895986b60954d43f08a54bc375c8b4fb2",
    ("degrees", "test"):
        "676d188fa904738033c89d44b9163cc2beab11067ce17d50f77a98aa94224765",
    ("degrees", "support"):
        "796766b821c7f8b86de2a27860b482b0da6db2b7672d5e0b3bbcb403e09faffa",
    ("example1_30000", "paper_test"):
        "1e73f6bd04ddc2adea6fa50a543bf6c7f1a78eab8f86877f3a395ee3ec35b97e",
    ("degrees", "weak_origin_in_cone"):
        "b5ae0bb6f525c12e726e7043dabc650dc196bf6392f2f369a667864b876a7795",
    ("degrees", "weak_masked_convention"):
        "291cd12cd004d3f01d5a139ec6817dff04a8540d7baeb5a8f998588c4dc92aef",
}


@pytest.mark.parametrize("data, command", list(_GOLDEN), ids=lambda v: v)
def test_report_bytes_are_pinned(tmp_path, data, command):
    data_path = tmp_path / "in.csv"
    {"example1": _example1, "example1_30000": _example1_30000, "degrees": _degrees}[data](data_path)
    out = tmp_path / "report.json"
    cmd, *flags = _COMMANDS[command]
    assert main([cmd, "--input", str(data_path), *flags, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[data, command]
