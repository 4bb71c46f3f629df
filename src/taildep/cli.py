"""Command-line front end: data ingestion, pipeline orchestration and
plot-data emission.

Subcommands: simulate | prep | support | test | diamond. Every command
is deterministic given its full flag set including --seed; reports are
emitted as JSON (or flattened CSV) and plot data as plain CSV. Verdicts
never affect the exit code; only failures to complete do.

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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from taildep.boot_tests import (
    TestConfig,
    full_dependence_test,
    strong_dependence_test,
    weak_dependence_test,
)
from taildep.datagen import EXAMPLE1_SPEC, EXAMPLE2_SPEC, MixtureSpec, generate
from taildep.support_fit import SupportFitOptions, estimate_support
from taildep.tail_core import AngularCone, BivariateSample, acf, log_returns, radial_order

SCHEMA_VERSION = 2
DEFAULT_SEED_ENV = "TAILDEP_SEED"


def _default_seed() -> int:
    return int(os.environ.get(DEFAULT_SEED_ENV, "0"))


def _default_k(n: int) -> int:
    # heuristic only; thresholds should be chosen by the analyst
    return min(-(-n // 10), 100)


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
    a UTF-8 byte-order mark before the header is dropped, and every error
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
                    # never does.
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
    if args.example == 1:
        spec = EXAMPLE1_SPEC
    elif args.example == 2:
        spec = EXAMPLE2_SPEC
    else:
        cone = args.cone if args.cone is not None else AngularCone(0.25, 0.75)
        spec = MixtureSpec(
            alpha_main=args.alpha_main,
            alpha_hidden=args.alpha_hidden,
            cone=cone,
            z_p=args.beta_p,
            z_q=args.beta_q,
            mix_prob=args.mix_prob,
        )
    sample = generate(spec, args.n, args.seed)
    _write_csv(args.output, "x,y", sample.x, sample.y)
    return 0


def cmd_prep(args) -> int:
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
    x, y = _load_pair(args)
    sample = BivariateSample(x, y)
    ordered = radial_order(sample)
    k = args.k if args.k is not None else _default_k(sample.n)
    est = estimate_support(ordered, k, SupportFitOptions(lam=args.lam))
    _emit_report(
        args.output,
        {
            "a_hat": est.a_hat,
            "b_hat": est.b_hat,
            "objective_value": est.objective_value,
            "k": k,
            "lambda": args.lam,
            "n": sample.n,
        },
        args.format,
    )
    return 0


def cmd_test(args) -> int:
    x, y = _load_pair(args)
    sample = BivariateSample(x, y)
    k = args.k if args.k is not None else _default_k(sample.n)
    fit_opts = SupportFitOptions(lam=args.lam)
    if args.threads < 1:
        raise ValueError("threads must be positive")
    cfg = TestConfig(
        k_n=k,
        seed=args.seed,
        m_n=args.mn,
        k_mn=args.kmn,
        B=args.B,
        alpha_sig=args.alpha_sig,
    )
    cone = args.cone
    cone_source = "flag"
    if cone is None and args.which in ("strong", "weak", "all"):
        ordered = radial_order(sample)
        est = estimate_support(ordered, k, fit_opts)
        cone = AngularCone(est.a_hat, est.b_hat)
        cone_source = "estimated"

    reports = []
    if args.which in ("strong", "all"):
        reports.append(strong_dependence_test(sample, cone, cfg))
    if args.which in ("full", "all"):
        reports.append(full_dependence_test(sample, cfg))
    if args.which in ("weak", "all"):
        reports.append(weak_dependence_test(sample, cone, cfg))

    payload = {
        "which": args.which,
        "cone": [cone.a, cone.b] if cone is not None else None,
        "cone_source": cone_source if cone is not None else None,
        "config": {**asdict(cfg), "lambda": args.lam},
        "reports": [r.to_dict() for r in reports],
    }
    _emit_report(args.output, payload, args.format)
    return 0


def cmd_diamond(args) -> int:
    x, y = _read_columns(args.input, args.cols.split(",") if args.cols else None, 2)
    norm = np.abs(x) + np.abs(y)
    # a point at the origin has no direction; it sorts after every other point
    nonzero = np.count_nonzero(norm)
    if not nonzero:
        raise ValueError("all points are at the origin")
    k = args.k if args.k is not None else _default_k(x.size)
    if k < 1:
        raise ValueError(f"--k must be at least 1, got {k}")
    top = np.argsort(-norm, kind="stable")[:min(k, nonzero)]
    mx = x[top] / norm[top]
    my = y[top] / norm[top]
    theta = np.abs(x[top]) / norm[top]
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


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None,
                   help="upper order statistics (default: min(ceil(n/10), 100), a heuristic)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=_default_seed())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taildep",
        description="Classify asymptotic dependence of bivariate heavy-tailed data.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="emit a synthetic sample as CSV")
    sim.add_argument("--example", type=int, choices=(1, 2), default=None,
                     help="built-in generator preset; omit for custom flags")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=_default_seed())
    sim.add_argument("--alpha-main", type=float, default=2.0)
    sim.add_argument("--alpha-hidden", type=float, default=4.0)
    sim.add_argument("--cone", type=_parse_cone, default=None)
    sim.add_argument("--beta-p", type=float, default=0.05)
    sim.add_argument("--beta-q", type=float, default=0.1)
    sim.add_argument("--mix-prob", type=float, default=0.5)
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
    _add_test_flags(supp)
    supp.add_argument("--output", required=True)
    supp.add_argument("--format", choices=("json", "csv"), default="json")
    supp.set_defaults(func=cmd_support)

    test = sub.add_parser("test", help="run the bootstrap dependence tests")
    _add_common_data_flags(test)
    _add_test_flags(test)
    test.add_argument("--which", choices=("strong", "full", "weak", "all"), default="all")
    test.add_argument("--cone", type=_parse_cone, default=None,
                      help="fixed cone 'a,b'; omitted: estimated from the data")
    test.add_argument("--mn", type=int, default=None)
    test.add_argument("--kmn", type=int, default=None)
    test.add_argument("--B", type=int, default=2000)
    test.add_argument("--alpha-sig", type=float, default=0.05)
    test.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility; the bootstrap runs on one thread")
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
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
