"""Command-line front end: data ingestion, pipeline orchestration and
plot-data emission.

Subcommands: simulate | prep | support | test | diamond. Every command
is deterministic given its full flag set including --seed; reports are
emitted as JSON (or flattened CSV) and plot data as plain CSV. Verdicts
never affect the exit code; only failures to complete do.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
    return AngularCone(float(parts[0]), float(parts[1]))


def _read_csv_columns(path: str, names: list[str] | None = None) -> dict[str, np.ndarray]:
    """Read a comma-separated file with a header row; returns named columns."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        cols = [c.strip() for c in header.split(",")]
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise ValueError(f"{path}:{line_no}: expected {len(cols)} fields")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    table = {name: data[:, i] for i, name in enumerate(cols)}
    if names is not None:
        for name in names:
            if name not in table:
                raise ValueError(f"{path}: missing column {name!r}")
    return table


def _load_pair(args) -> tuple[np.ndarray, np.ndarray]:
    names = args.cols.split(",") if args.cols else None
    if names is not None and len(names) != 2:
        raise ValueError("--cols needs exactly two comma-separated names")
    table = _read_csv_columns(args.input, names)
    if names is None:
        names = list(table.keys())[:2]
        if len(names) < 2:
            raise ValueError(f"{args.input}: need at least two columns")
    x = table[names[0]]
    y = table[names[1]]
    if args.abs:
        x = np.abs(x)
        y = np.abs(y)
    return x, y


def _write_text(path: str, text: str) -> None:
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")


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
    lines = ["x,y"]
    lines.extend(f"{float(x)!r},{float(y)!r}" for x, y in zip(sample.x, sample.y))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_prep(args) -> int:
    table = _read_csv_columns(args.input, [args.price_col] if args.price_col else None)
    col = args.price_col or list(table.keys())[0]
    prices = table[col]
    returns = log_returns(prices, args.stride)
    abs_returns = np.abs(returns)
    lines = ["log_return,abs_log_return"]
    lines.extend(f"{float(r)!r},{float(a)!r}" for r, a in zip(returns, abs_returns))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_text(str(outdir / "returns.csv"), "\n".join(lines) + "\n")

    acf_lines = ["lag,acf_return,acf_abs_return"]
    try:
        a_ret = acf(returns, args.max_lag)
        a_abs = acf(abs_returns, args.max_lag)
        for h in range(args.max_lag + 1):
            acf_lines.append(f"{h},{float(a_ret[h])!r},{float(a_abs[h])!r}")
    except ValueError as exc:
        print(f"warning: autocorrelation unavailable: {exc}", file=sys.stderr)
    _write_text(str(outdir / "acf.csv"), "\n".join(acf_lines) + "\n")
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
    cfg = TestConfig(
        k_n=k,
        seed=args.seed,
        m_n=args.mn,
        k_mn=args.kmn,
        B=args.B,
        alpha_sig=args.alpha_sig,
        threads=args.threads,
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
        "config": {
            "k_n": k,
            "seed": args.seed,
            "m_n": args.mn,
            "k_mn": args.kmn,
            "B": args.B,
            "lambda": args.lam,
            "alpha_sig": args.alpha_sig,
        },
        "reports": [r.to_dict() for r in reports],
    }
    _emit_report(args.output, payload, args.format)
    return 0


def cmd_diamond(args) -> int:
    names = args.cols.split(",") if args.cols else None
    table = _read_csv_columns(args.input, names)
    if names is None:
        names = list(table.keys())[:2]
    x = table[names[0]]
    y = table[names[1]]
    norm = np.abs(x) + np.abs(y)
    if not np.any(norm > 0):
        raise ValueError("all points are at the origin")
    k = args.k if args.k is not None else _default_k(x.size)
    if k < 1:
        raise ValueError(f"--k must be at least 1, got {k}")
    k = min(k, x.size)
    top = np.argsort(-norm, kind="stable")[:k]
    mx = x[top] / norm[top]
    my = y[top] / norm[top]
    theta = np.abs(x[top]) / norm[top]

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["x,y,theta"]
    lines.extend(
        f"{float(a)!r},{float(b)!r},{float(t)!r}" for a, b, t in zip(mx, my, theta)
    )
    _write_text(str(outdir / "diamond.csv"), "\n".join(lines) + "\n")

    counts, edges = np.histogram(theta, bins=args.bins, range=(0.0, 1.0))
    hist_lines = ["bin_left,bin_right,count"]
    hist_lines.extend(
        f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}"
        for i, c in enumerate(counts)
    )
    _write_text(str(outdir / "angles.csv"), "\n".join(hist_lines) + "\n")
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
