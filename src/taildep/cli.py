"""Command-line front end: data ingestion, pipeline orchestration and
plot-data emission.

Subcommands: simulate | prep | support | test | diamond. Every command
is deterministic given its flags (simulate and test take --seed); reports
are emitted as JSON (or flattened CSV) and plot data as plain CSV. No
output depends on the host's core count: nothing sums through BLAS, and
BLAS runs on one thread only to save start-up CPU.
Verdicts never affect the exit code; only failures to complete do.
test runs its tests through _run_tests, which calib/run.py calls too, so
the calibration table measures the run that the command makes.

prep, support, test and diamond take their columns from _read_columns,
which reads through _read_csv_columns. That parses a regular file's rows
in one vectorised np.loadtxt pass. Its line loop is the error path: it
runs when that pass fails or its result is refused, and it names the
line at fault. It also reads a pipe or FIFO, which can be read only once.
"""

from __future__ import annotations

import argparse
import json
import lzma
import math
import os
import stat
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

# OpenBLAS reads this once, as numpy loads it; one thread spins no idle CPU
# at start-up. No output depends on it. Child processes get the caller's.
_caller_blas = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
if _caller_blas is None:
    del os.environ["OPENBLAS_NUM_THREADS"]
else:
    os.environ["OPENBLAS_NUM_THREADS"] = _caller_blas

from taildep.boot_tests import (
    TestConfig,
    _prepare,
    _refuse,
    full_dependence_test,
    strong_dependence_test,
    weak_dependence_test,
)
from taildep.datagen import EXAMPLE1_SPEC, EXAMPLE2_SPEC, generate
from taildep.support_fit import SupportFitOptions, estimate_support
from taildep.tail_core import (
    AngularCone,
    BivariateSample,
    _angles,
    _decreasing_head,
    _off_origin,
    acf,
    log_returns,
    radial_order,
)

SCHEMA_VERSION = 6
DEFAULT_SEED_ENV = "TAILDEP_SEED"
# the most histogram bins diamond writes, as many as the resamples a test may draw
_MAX_BINS = 10**7
# the bootstrap tests that each --which value runs
_TESTS = {"strong": ("H1",), "full": ("H2",), "weak": ("H3",), "all": ("H1", "H2", "H3")}


def _default_k(n: int) -> int:
    # heuristic only; thresholds should be chosen by the analyst
    return min(-(-n // 10), 100)


def _given(args, *names: str) -> dict:
    """The flags among names that the command line gave, keyed by dest: a
    flag left out keeps the default of the library field it sets."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _parse_cone(text: str) -> AngularCone:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("cone must be given as 'a,b'")
    try:
        a, b = map(float, parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    try:
        return AngularCone(a, b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_csv_columns(path: str, names: list[str] | None = None) -> dict[str, np.ndarray]:
    """Read a comma-separated file with a header row; returns named columns.

    Cells are parsed as Python's float parses them, blank lines are skipped,
    a UTF-8 byte-order mark before the header is dropped, a header that
    names a column twice is refused before any row is read, and every error
    names the file and, for a data row, its line. The data
    rows of a regular file are parsed by one np.loadtxt call; if it fails or
    its result does not match the header or holds a non-finite value, or the
    input is a pipe or FIFO, the line loop reads the rows after the header
    from the same handle, and its result or error is the reader's.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # spreadsheet exports often start with a byte-order mark
        header = fh.readline().removeprefix("\ufeff").strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        cols = [c.strip() for c in header.split(",")]
        repeated = next((c for i, c in enumerate(cols) if c in cols[:i]), None)
        if repeated is not None:
            raise ValueError(f"{path}: column {repeated!r} is named twice in the header")
        data = None
        # loadtxt opens the path again, which only a regular file allows: a
        # pipe's bytes that the header read buffered are gone for a new reader
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            try:
                with warnings.catch_warnings():
                    # a file with no data rows is reported by the line loop
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    # comments=None: '#' is not a comment. Path(path): numpy
                    # downloads a str that parses as a URL, and a Path's string
                    # never does. A path and not fh: loadtxt reads a file it
                    # opens in .read() blocks but iterates a handle it is given
                    # line by line, which on a 1M-row CSV was slower in 14 of
                    # 14 alternated runs (median 0.95 against 0.78 s, 2 cores).
                    data = np.loadtxt(Path(path), delimiter=",", skiprows=1, comments=None,
                                      ndmin=2, encoding="utf-8")
            except (ValueError, OSError, EOFError, lzma.LZMAError):
                # left to the line loop: a cell that float accepts and loadtxt
                # does not (1_0, a non-ASCII digit, a whitespace-only line), a
                # bad one, or a text file named *.gz, *.bz2 or *.xz, which
                # numpy opens as an archive
                pass
        non_finite = None
        if data is None or not data.size or data.shape[1] != len(cols) or not np.isfinite(data).all():
            data, non_finite = _read_csv_lines(fh, path, len(cols))
    table = {name: data[:, i] for i, name in enumerate(cols)}
    if names is not None:
        for name in names:
            if name not in table:
                raise ValueError(f"{path}: missing column {name!r}")
    if non_finite is not None:
        raise ValueError(f"{path}:{non_finite[0]}: non-finite value {non_finite[1]!r}")
    return table


def _read_csv_lines(fh, path: str, width: int) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The rows left in fh, an open text handle just past the header of the
    file at path, parsed line by line, and the line number and text of the
    first non-finite cell (None if there is none).

    Raises the reader's row errors in file order; a non-finite cell is left
    to the caller, so a file with another error anywhere reports that error.
    """
    rows = []
    non_finite = None
    for line_no, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}:{line_no}: expected {width} fields")
        try:
            row = [float(v) for v in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
        if non_finite is None and not all(map(math.isfinite, row)):
            non_finite = (line_no, next(v for v, f in zip(parts, row) if not math.isfinite(f)))
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows), non_finite


def _read_columns(path: str, names: list[str] | None, count: int) -> list[np.ndarray]:
    """The columns of the CSV at path that names lists, or its first count
    (1 or 2) columns when names is None."""
    if names is not None and len(names) != count:
        raise ValueError("--cols needs exactly two comma-separated names")
    table = _read_csv_columns(path, names)
    if names is None:
        names = list(table)[:count]
        if len(names) < count:
            raise ValueError(f"{path}: need at least two columns")
    return [table[name] for name in names]


def _load_pair(args) -> tuple[np.ndarray, np.ndarray]:
    x, y = _read_columns(args.input, args.cols.split(",") if args.cols else None, 2)
    if args.abs:
        x = np.abs(x)
        y = np.abs(y)
    return x, y


def _write_text(path: str, text: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")


def _write_csv(path: str, header: str, *columns) -> None:
    """Write the columns, arrays of equal length, under a header line; a
    cell is the repr of its Python number, so a float keeps every bit."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    _write_text(path, "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n")


def _emit_report(path: str, payload: dict, fmt: str) -> None:
    # JSON has no NaN or infinity, so a report holding one is not written
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    try:
        if fmt == "json":
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        else:
            lines = ["key,value"]
            for key in sorted(payload):
                value = json.dumps(payload[key], sort_keys=True, allow_nan=False)
                value = value.replace('"', '""')
                lines.append(f'{key},"{value}"')
            text = "\n".join(lines) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: non-finite value, report not written ({exc})") from exc
    _write_text(path, text)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    spec = replace(EXAMPLE2_SPEC if args.example == 2 else EXAMPLE1_SPEC,
                   **_given(args, "alpha_main", "alpha_hidden", "cone", "z_p", "z_q", "mix_prob"))
    sample = generate(spec, args.n, args.seed)
    _write_csv(args.output, "x,y", sample.x, sample.y)
    return 0


def cmd_prep(args) -> int:
    if args.max_lag < 1:
        raise ValueError(f"max_lag must be a positive integer, got {args.max_lag}")
    (prices,) = _read_columns(args.input, [args.price_col] if args.price_col else None, 1)
    returns = log_returns(prices, args.stride)
    abs_returns = np.abs(returns)
    outdir = Path(args.output)
    _write_csv(str(outdir / "returns.csv"), "log_return,abs_log_return", returns, abs_returns)

    try:
        acf_columns = (np.arange(args.max_lag + 1), acf(returns, args.max_lag),
                       acf(abs_returns, args.max_lag))
    except ValueError as exc:
        print(f"warning: autocorrelation unavailable: {exc}", file=sys.stderr)
        acf_columns = ()
    _write_csv(str(outdir / "acf.csv"), "lag,acf_return,acf_abs_return", *acf_columns)
    return 0


def cmd_support(args) -> int:
    fit_opts = SupportFitOptions(**_given(args, "lam"))
    x, y = _load_pair(args)
    sample = BivariateSample(x, y)
    ordered = radial_order(sample)
    k = args.k if args.k is not None else _default_k(sample.n)
    est = estimate_support(ordered, k, fit_opts)
    _emit_report(
        args.output,
        {
            "a_hat": est.a_hat,
            "b_hat": est.b_hat,
            "objective_value": est.objective_value,
            "k": k,
            "lambda": fit_opts.lam,
            "n": sample.n,
        },
        args.format,
    )
    return 0


def _run_tests(sample: BivariateSample, cfg: TestConfig, tests, cone: AngularCone | None,
               fit_opts: SupportFitOptions = SupportFitOptions()) -> tuple:
    """The cone that the tests in tests ("H1", "H2", "H3") ran on and their
    reports, in H1, H2, H3 order: the run that `taildep test` and calib/run.py
    share. The sample is prepared once; with no cone, one is fitted at cfg.k_n
    if H1 or H3 needs it, and _refuse checks every test before any resamples.
    The names called are cli's, which perfbench/tracer.py wraps in spans."""
    prepared = _prepare(sample, cfg)
    if cone is None and ("H1" in tests or "H3" in tests):
        est = estimate_support(prepared.ordered, cfg.k_n, fit_opts)
        cone = AngularCone(est.a_hat, est.b_hat)
    _refuse(prepared, cone, tests)
    reports = []
    if "H1" in tests:
        reports.append(strong_dependence_test(prepared, cone, cfg))
    if "H2" in tests:
        reports.append(full_dependence_test(prepared, cfg))
    if "H3" in tests:
        reports.append(weak_dependence_test(prepared, cone, cfg))
    return cone, reports


def cmd_test(args) -> int:
    fit_opts = SupportFitOptions(**_given(args, "lam"))
    if args.threads < 1:
        raise ValueError("threads must be positive")
    x, y = _load_pair(args)
    sample = BivariateSample(x, y)
    k = args.k if args.k is not None else _default_k(sample.n)
    if args.k is None and k < 2:
        raise ValueError(f"k_n must be at least 2, got {k} from the default "
                         f"min(ceil(n/10), 100) with n = {sample.n}: give --k")
    cfg = TestConfig(k_n=k, seed=args.seed, **_given(args, "m_n", "k_mn", "B", "alpha_sig"))
    cone, reports = _run_tests(sample, cfg, _TESTS[args.which], args.cone, fit_opts)

    payload = {
        "which": args.which,
        "cone": [cone.a, cone.b] if cone is not None else None,
        "cone_source": None if cone is None else "flag" if args.cone is not None else "estimated",
        "config": {**asdict(cfg), "lambda": fit_opts.lam},
        # a report's own fields; asdict would deep-copy each per-resample float
        "reports": [vars(r) for r in reports],
    }
    _emit_report(args.output, payload, args.format)
    return 0


def cmd_diamond(args) -> int:
    if args.bins < 1:
        raise ValueError(f"bins must be a positive integer, got {args.bins}")
    if args.bins > _MAX_BINS:
        raise ValueError(f"bins must be at most {_MAX_BINS}, got {args.bins}")
    x, y = _read_columns(args.input, args.cols.split(",") if args.cols else None, 2)
    # the L1 norm |x| + |y| is the radius of (|x|, |y|); one that overflows is refused
    sample = BivariateSample(np.abs(x), np.abs(y))
    k = args.k if args.k is not None else _default_k(x.size)
    if k < 1:
        raise ValueError(f"--k must be at least 1, got {k}")
    top = _decreasing_head(r := _off_origin(sample.radii), k)
    # a point at the origin has no direction; it sorts after every other point
    top = top[r[top] > 0]
    norm, theta = r[top], _angles(sample.x[top], r[top])
    mx = x[top] / norm
    my = y[top] / norm
    counts, edges = np.histogram(theta, bins=args.bins, range=(0.0, 1.0))

    outdir = Path(args.output)
    _write_csv(str(outdir / "diamond.csv"), "x,y,theta", mx, my, theta)
    _write_csv(str(outdir / "angles.csv"), "bin_left,bin_right,count", edges[:-1], edges[1:], counts)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV (header row required)")
    p.add_argument("--cols", default=None, help="two column names, e.g. 'x,y'")
    p.add_argument("--abs", dest="abs", action="store_true", default=True,
                   help="use absolute values of both columns (default)")
    p.add_argument("--no-abs", dest="abs", action="store_false")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None,
                   help="upper order statistics (default: min(ceil(n/10), 100), a heuristic)")
    p.add_argument("--lambda", dest="lam", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taildep",
        description="Classify asymptotic dependence of bivariate heavy-tailed data.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    # argparse passes a string default through type only when --seed is
    # absent, so a malformed TAILDEP_SEED is a usage error of simulate and test
    seed = dict(type=int, default=os.environ.get(DEFAULT_SEED_ENV, "0"))

    sim = sub.add_parser("simulate", help="emit a synthetic sample as CSV")
    sim.add_argument("--example", type=int, choices=(1, 2), default=1,
                     help="the paper's Example 1 or 2 as the base spec (default 1); "
                          "each mixture flag given overrides its field")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", **seed)
    sim.add_argument("--alpha-main", type=float)
    sim.add_argument("--alpha-hidden", type=float)
    sim.add_argument("--cone", type=_parse_cone)
    sim.add_argument("--beta-p", dest="z_p", type=float, metavar="P")
    sim.add_argument("--beta-q", dest="z_q", type=float, metavar="Q")
    sim.add_argument("--mix-prob", type=float)
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    prep = sub.add_parser("prep", help="strided log returns and their ACF")
    prep.add_argument("--input", required=True)
    prep.add_argument("--price-col", default=None)
    prep.add_argument("--stride", type=int, default=2)
    prep.add_argument("--max-lag", type=int, default=20)
    prep.add_argument("--output", required=True, help="output directory")
    prep.set_defaults(func=cmd_prep)

    supp = sub.add_parser("support", help="estimate the angular support [a, b]")
    _add_common_data_flags(supp)
    _add_fit_flags(supp)
    supp.add_argument("--output", required=True)
    supp.add_argument("--format", choices=("json", "csv"), default="json")
    supp.set_defaults(func=cmd_support)

    test = sub.add_parser("test", help="run the bootstrap dependence tests")
    _add_common_data_flags(test)
    _add_fit_flags(test)
    test.add_argument("--seed", **seed)
    test.add_argument("--which", choices=tuple(_TESTS), default="all")
    test.add_argument("--cone", type=_parse_cone, default=None,
                      help="fixed cone 'a,b'; omitted: estimated from the data")
    test.add_argument("--mn", dest="m_n", type=int)
    test.add_argument("--kmn", dest="k_mn", type=int)
    test.add_argument("--B", type=int)
    test.add_argument("--alpha-sig", type=float)
    test.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility; the bootstrap runs on one thread, "
                           "so outputs do not depend on the host's cores")
    test.add_argument("--output", required=True)
    test.add_argument("--format", choices=("json", "csv"), default="json")
    test.set_defaults(func=cmd_test)

    dia = sub.add_parser("diamond", help="L1 unit-sphere plot data and angle histogram")
    dia.add_argument("--input", required=True)
    dia.add_argument("--cols", default=None)
    dia.add_argument("--k", type=int, default=None)
    dia.add_argument("--bins", type=int, default=20)
    dia.add_argument("--output", required=True, help="output directory")
    dia.set_defaults(func=cmd_diamond)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's MemoryError names the allocation it could not make; Python's says nothing
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
