"""Child interpreter that runs the in-process workload, support_table.

The ops run here, away from the harness that generated the inputs, so the
peak resident set and the CPU time are those of the program alone.

    python perfbench/worker.py --inputs FILE.npz --seconds S --trace 0|1
        --out RESULT.json [--setup-only]

Needs taildep importable (PYTHONPATH=src). Writes one JSON result to --out,
with the host speed probe's times (speed.py), timed after the set-up and
after each op.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from time import perf_counter

K = 100
LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0)
STATISTICS = ("hill", "cone_adjusted_hill", "angle_weighted_hill", "masked_angle_weighted_hill")


class Program:
    """taildep's entry points as this worker calls them; tracing swaps in wrappers."""

    def __init__(self) -> None:
        from taildep import estimators, support_fit, tail_core

        self.estimators = estimators
        self.tail_core = tail_core
        self.SupportFitOptions = support_fit.SupportFitOptions
        self.radial_order = tail_core.radial_order
        self.estimate_support = support_fit.estimate_support
        self.tracer = None

    def trace(self, tracer) -> None:
        import tracer as tr

        self.tracer = tracer
        tr.instrument(tracer, self)

    def stats_span(self):
        return self.tracer.span("estimators.stats") if self.tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# support_table: radial order, the fit at five lambdas, the four statistics

def support_table_op(p: Program, sample) -> bytes:
    order = p.radial_order(sample)
    fits = [p.estimate_support(order, K, p.SupportFitOptions(lam=lam)) for lam in LAMBDAS]
    cone = p.tail_core.AngularCone(fits[0].a_hat, fits[0].b_hat)
    est = p.estimators
    with p.stats_span():
        values = [est.hill(order, K), est.cone_adjusted_hill(order, K, cone),
                  est.angle_weighted_hill(order, K), est.masked_angle_weighted_hill(order, K, cone)]
    return json.dumps({
        "fits": [[f.a_hat, f.b_hat, f.objective_value] for f in fits],
        "stats": {name: v.value for name, v in zip(STATISTICS, values)},
    }).encode()


def support_table_check(arrays):
    import checks

    oracles: dict = {}

    def check(key: str, output: bytes) -> list[str]:
        x, y = arrays[int(key)]
        if key not in oracles:
            oracles[key] = checks.SupportOracle(x, y, K)
        out = json.loads(output)
        errors = []
        for lam, (a, b, value) in zip(LAMBDAS, out["fits"]):
            errors += oracles[key].check(a, b, lam, value)
        a, b, _ = out["fits"][0]
        errors += checks.check_statistics(out["stats"], checks.reference_statistics(x, y, K, a, b))
        return errors

    return check


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up: imports, building samples, warm-up calls; loading the
    # benchmark's input file is excluded
    t0 = perf_counter()
    p = Program()
    t_load = perf_counter()
    import numpy as np

    with np.load(args.inputs) as data:
        arrays = [(data[f"x{i}"], data[f"y{i}"]) for i in range(len(data.files) // 2)]
    load_s = perf_counter() - t_load
    samples = [p.tail_core.BivariateSample(x, y) for x, y in arrays]
    keys = [str(i) for i in range(len(samples))]
    support_table_op(p, samples[0])
    run = lambda i, key: support_table_op(p, samples[int(key)])  # noqa: E731
    check = support_table_check(arrays)
    setup_s = perf_counter() - t0 - load_s
    import speed

    probe = speed.Probe()
    result: dict = {"setup_s": setup_s, "setup_probe": probe.after(setup_s), "probe_times": probe.times}
    if args.setup_only:
        return _write(args.out, result)

    import measure

    def run_op(i, key):
        rec = measure.timed_op(i, key, lambda: run(i, key))
        rec["probe"] = probe.after(rec["wall"])
        return rec

    verify = measure.OutputVerifier(check)
    if args.trace:
        # untraced first half for the overhead baseline, traced second half
        # with two rotations or more, so counts can be compared across repeats
        import tracer as tr

        half = args.seconds / 2.0
        untraced = measure.closed_loop(run_op, keys, half, verify)
        tracer = tr.Tracer()
        p.trace(tracer)

        def traced_op(i, key):
            tracer.op = i
            return run_op(i, key)

        offset = len(untraced)
        records = measure.closed_loop(lambda i, key: traced_op(i + offset, key), keys, half,
                                      verify, min_rotations=2)
        tracer.op = -1  # spans of the checks below belong to no op
        result.update(untraced=untraced, records=records,
                      spans=tracer.spans, counts=tracer.counts)
    else:
        result["records"] = measure.closed_loop(run_op, keys, args.seconds, verify)
    result["peak_rss_mb"] = measure.peak_rss_self_mb()

    # untimed: the first op again must give the same bytes
    errors = []
    if verify.first.get(keys[0]) != run(0, keys[0]):
        errors.append(f"repeat of the first op ({keys[0]}) is not byte-identical")
    result["errors"] = errors
    return _write(args.out, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
