"""Pinned report bytes: the sha256 of `taildep test --which all` and
`taildep support` reports on two small fixed inputs, of two
`taildep test --which weak` reports on one of them, and of one
paper-scale `taildep test --which all` run.

Each pin holds every byte of its report as this tree writes it under
SCHEMA_VERSION 6 (numpy 2.4.6, x86-64): the radial order with its tie
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
hashes were re-pinned.

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
        "843b96b51e87a48fcc1b9317a494554deb122e2175340f80e1bfea8403eae6e5",
    ("example1", "support"):
        "8bd3a65f9802f8befa487c0b986c8dce4c9be3637b8cd1de3ff34aff6c0b6ac5",
    ("degrees", "test"):
        "99bcc423e4ddc9a3766d25eb31f355ea5627b6c27869e7ebbdc9b677e74b2a7e",
    ("degrees", "support"):
        "a918002914189cb537083909371681539c9a0788d5ce0a132780570650d2e607",
    ("example1_30000", "paper_test"):
        "16b4a67d4c86ad00cf5fdb759560069e54c6ca6f5aacb2bc8c146d81a3146873",
    ("degrees", "weak_origin_in_cone"):
        "6f010d00cb133cf84f3bd63f51d9aeec6d278cc71ab01d48310955d3155b44aa",
    ("degrees", "weak_masked_convention"):
        "c8546bc4c727d97efdaa795b68972d984c9431fc67ae536e6eaacbb4da6b71f1",
}


@pytest.mark.parametrize("data, command", list(_GOLDEN), ids=lambda v: v)
def test_report_bytes_are_pinned(tmp_path, data, command):
    data_path = tmp_path / "in.csv"
    {"example1": _example1, "example1_30000": _example1_30000, "degrees": _degrees}[data](data_path)
    out = tmp_path / "report.json"
    cmd, *flags = _COMMANDS[command]
    assert main([cmd, "--input", str(data_path), *flags, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[data, command]
