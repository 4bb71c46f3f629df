"""Pinned report bytes: the sha256 of `taildep test --which all` and
`taildep support` reports on two small fixed inputs, of two
`taildep test --which weak` reports on one of them, and of one
paper-scale `taildep test --which all` run.

Each pin holds every byte of its report as this tree writes it under
SCHEMA_VERSION 7 (numpy 2.4.6, x86-64): the radial order with its tie
order, the bootstrap's slot draws, the support fit, each statistic and
threshold, and each verdict. A change that moves any report value fails
here; a deliberate change to a report bumps SCHEMA_VERSION and re-pins
them. No pin depends on the BLAS library, its kernel or its thread
count. The pins do assume an x86-64 host on which numpy dispatches its
AVX-512 (SVML) loops for log, log1p, exp and power: with that dispatch
switched off, as on a host without AVX-512, Example 1 draws other bits,
and the example1 test, example1 support and paper_test hashes change
while the four degrees hashes hold.

Schema 3 scores a degenerate resample once, by the estimators'
convention, where schema 2 drew it again: of the five reports only the
degrees test report's values moved. Schema 4 takes the chi-square and F
thresholds by bisection on the float grid, where schema 3 took them by a
safeguarded Newton inversion: H2's threshold and H3's band moved by ulps
in every test report, the schema field in every report, and no verdict;
all seven hashes were re-pinned. Schema 5 takes the normal quantile by
the same bisection, where schema 4 took it by a rational start and
Halley steps: z(0.975) kept its bits, so at alpha = 0.05 only the schema
field moved, in every report; all seven hashes were re-pinned. Schema 6
sums the angle-weighted statistic with np.add.reduce: H2's and H3's
per-resample values moved by ulps, and no verdict changed; all seven
hashes were re-pinned. Schema 7 solves each two-sided band once, on its
lower tail at alpha/2: z is -Phi^-1(alpha/2), not Phi^-1(1 - alpha/2),
and H3's upper F bound is 1/lo, F(B - 1, B - 1) being the law of its own
reciprocal. H1's band_halfwidth moved by ulps in every test report, H3's
threshold[1] by 2 ulps at B = 200 and not at B = 2000, and the schema
field in every report; no statistic, rate, per-resample value or verdict
moved. All seven hashes were re-pinned.

The two weak-dependence reports on the degrees input pin the masked
statistic's edge cases: origin points inside the cone, and a cone whose
every masked slot takes the convention (k-th masked radius 0, or no
in-cone angle mass).
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
        "6aa3bd112afcec786ec26af1935b8875684ae53250bb589d620cd33e7f23ae67",
    ("example1", "support"):
        "9840b6e53a6d063dcf87bb91c4129a24221f0873851871361415a272c5761709",
    ("degrees", "test"):
        "05cfa5f17573313d5e61aa316f1920d212d4b81ef20e0f337121920bca11a480",
    ("degrees", "support"):
        "02f6148e32b196aadafaac6b633b6edadb4de8c1dc0fc316b6e73b4fe0d3b05f",
    ("example1_30000", "paper_test"):
        "5f0e29bdc981e1feee181ffed5208949055524e773cec31d542f385879cc06e7",
    ("degrees", "weak_origin_in_cone"):
        "279d5dad73b2b30feaffcff12641fd679d74e78a7ec3f78c7c175e6ec911ed35",
    ("degrees", "weak_masked_convention"):
        "722d6fc44870dc6a48b1beed8b0805bf6c68f911e9de0eef2581018f3bd21064",
}


@pytest.mark.parametrize("data, command", list(_GOLDEN), ids=lambda v: v)
def test_report_bytes_are_pinned(tmp_path, data, command):
    data_path = tmp_path / "in.csv"
    {"example1": _example1, "example1_30000": _example1_30000, "degrees": _degrees}[data](data_path)
    out = tmp_path / "report.json"
    cmd, *flags = _COMMANDS[command]
    assert main([cmd, "--input", str(data_path), *flags, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[data, command]
