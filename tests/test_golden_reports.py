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
verdict; all seven hashes were re-pinned. Schema 5 takes the normal
quantile by the same bisection, where schema 4 took it by a rational start
and Halley steps: z(0.975) kept its bits, so at alpha = 0.05 only the
schema field moved, in every report; all seven hashes were re-pinned.

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
        "4fa677646cd8fc3817c0ed5e0b34686b60cc85738e39ebcb12a42a1aec25804b",
    ("example1", "support"):
        "ba44a88783e245fd59aac1831386f7208a5b0d278a4df46cb5fb65dd177b50ff",
    ("degrees", "test"):
        "a98df9dc1397dbdfe4b8eeb7a954a9787d5ce77e6d34f55383fb45b96eb4f161",
    ("degrees", "support"):
        "89f8f54231ab873d00ff5c77c17764802baf63255c6d31e783d6b6a6ac8a6c8e",
    ("example1_30000", "paper_test"):
        "2b3ee4108b56c0c3e5767c3098b21464abbf07f0bdb62e3231bc0e6f37355ede",
    ("degrees", "weak_origin_in_cone"):
        "8218fc055e278ab818ebc9d399088d74225b122229e6b966295c5b757061fa05",
    ("degrees", "weak_masked_convention"):
        "27c47ea12c6d8910c3fe5b20bebfc1c79a49e4854e2128c0ec72f151e903f123",
}


@pytest.mark.parametrize("data, command", list(_GOLDEN), ids=lambda v: v)
def test_report_bytes_are_pinned(tmp_path, data, command):
    data_path = tmp_path / "in.csv"
    {"example1": _example1, "example1_30000": _example1_30000, "degrees": _degrees}[data](data_path)
    out = tmp_path / "report.json"
    cmd, *flags = _COMMANDS[command]
    assert main([cmd, "--input", str(data_path), *flags, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[data, command]
