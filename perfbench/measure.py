"""The closed loop, its end-to-end metrics and the traced-run summary.

One client sends the next op only after the previous one has returned.
Ops rotate over a workload's inputs, and a loop stops only at the end of a
rotation, so every run times the same mix of inputs.
"""

from __future__ import annotations

import resource
import statistics
import traceback
from time import perf_counter

import tracer as tr

MB = 1024.0  # ru_maxrss is in KiB on Linux


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def timed_op(i: int, key: str, fn) -> dict:
    """Run fn() in this process; fn returns the op's output as bytes."""
    u0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    error, output = None, None
    try:
        output = fn()
    except Exception:  # a failed op is counted, not fatal
        error = traceback.format_exc(limit=-3)
    t1 = perf_counter()
    cpu = cpu_seconds(resource.getrusage(resource.RUSAGE_SELF)) - cpu_seconds(u0)
    return {"i": i, "key": key, "t0": t0, "t1": t1, "wall": t1 - t0, "cpu": cpu,
            "output": output, "error": error}


class OutputVerifier:
    """Checks each op's output; an output byte-identical to an already
    checked output of the same input passes without re-checking."""

    def __init__(self, check) -> None:
        self.check = check  # (key, output bytes) -> list of errors
        self.first: dict[str, bytes] = {}

    def __call__(self, key: str, output: bytes) -> list[str]:
        if key in self.first:
            if output == self.first[key]:
                return []
            return [f"output for input {key} differs from its first output"]
        errors = self.check(key, output)
        if not errors:
            self.first[key] = output
        return errors


def closed_loop(run_op, keys: list[str], seconds: float, verify, min_rotations: int = 1) -> list[dict]:
    """Run ops until `seconds` have passed and at least min_rotations
    rotations over keys are done, ending on a whole rotation."""
    records: list[dict] = []
    start = perf_counter()
    i = 0
    while i % len(keys) or i < min_rotations * len(keys) or perf_counter() - start < seconds:
        rec = run_op(i, keys[i % len(keys)])
        if rec["error"] is None:
            errors = verify(rec["key"], rec["output"])
            rec["error"] = "; ".join(errors) if errors else None
        rec["output"] = None
        records.append(rec)
        i += 1
    return records


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """(value, samples above it) of the pct-th percentile, interpolated
    between order statistics (statistics.quantiles, inclusive method)."""
    if len(values) < 2:
        return values[0], 0
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return value, sum(v > value for v in values)


def end_to_end(records: list[dict], setups: list[tuple[float, float]], peak_rss_mb: float,
               tail_pct: int, ref_probe_s: float | None = None) -> dict:
    """The end-to-end metrics. setups are (wall s, probe s) pairs. With
    ref_probe_s, each op's and set-up's times are scaled by ref_probe_s over
    the speed probe timed right after it, into reference seconds."""
    def scaled(t: float, probe: float) -> float:
        return t * ref_probe_s / probe if ref_probe_s else t

    walls = [scaled(r["wall"], r["probe"]) for r in records]
    ok = [w for w, r in zip(walls, records) if r["error"] is None]
    failed = len(records) - len(ok)
    tail_s, beyond = tail(ok, tail_pct) if ok else (0.0, 0)
    return {
        "ops_per_s": len(ok) / sum(walls),
        "op_s.p50": statistics.median(ok) if ok else 0.0,
        "op_s.tail": tail_s,
        "cpu_s_per_op": sum(scaled(r["cpu"], r["probe"]) for r in records) / len(records),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(scaled(w, p) for w, p in setups),
        "fail_frac": failed / len(records),
        "_samples": len(ok),
        "_beyond": beyond,
    }


def repeat_errors(records: list[dict], per_op: dict, names: tuple[str, ...]) -> list[str]:
    """The named counts must repeat exactly across ops of the same input."""
    seen: dict = {}
    errors = []
    for r in records:
        counts = per_op.get(r["i"], {})
        got = tuple(counts.get(n, 0) for n in names)
        if seen.setdefault(r["key"], got) != got:
            errors.append(f"counts {dict(zip(names, got))} for input {r['key']} "
                          f"differ from {dict(zip(names, seen[r['key']]))}")
    return errors


EXACT_COUNTS = ("support_fit.evaluations", "boot_tests.draws", "boot_tests.resamples",
                "calls:datagen.stream", "cli.report_bytes", "cli.ingest_rows")


def per_layer(records: list[dict], spans, counts, untraced_ops_per_s: float,
              startup_s: float, ref_probe_s: float) -> dict:
    """The per-layer metrics of a traced run, each a mean per op, with the
    times of each op scaled into reference seconds by the probe after it."""
    intervals = {r["i"]: (r["t0"], r["t1"]) for r in records}
    scale = {r["i"]: ref_probe_s / r["probe"] for r in records}
    s = tr.summarize(intervals, spans, counts, scale)
    busy, calls, cnt = s["busy_s"], s["calls"], s["counts"]
    traced_ops_per_s = len(records) / sum(r["wall"] * scale[r["i"]] for r in records)
    boot_s = sum(busy.get(f"boot_tests.{h}", 0.0) for h in ("H1", "H2", "H3"))
    draws, resamples = cnt.get("boot_tests.draws", 0.0), cnt.get("boot_tests.resamples", 0.0)
    ingest_s, rows = busy.get("cli.ingest", 0.0), cnt.get("cli.ingest_rows", 0.0)
    m = {
        "cli.startup_s": startup_s,
        "cli.ingest_s": ingest_s,
        "cli.ingest_rows_per_s": rows / ingest_s if ingest_s else 0.0,
        "cli.emit_s": busy.get("cli.emit", 0.0),
        "cli.report_bytes": cnt.get("cli.report_bytes", 0.0),
        "tail_core.radial_order_s": busy.get("tail_core.radial_order", 0.0),
        "support_fit.estimate_s": busy.get("support_fit.estimate_support", 0.0),
        "support_fit.evaluations": cnt.get("support_fit.evaluations", 0.0),
        "estimators.stats_s": busy.get("estimators.stats", 0.0),
        "boot_tests.H1_s": busy.get("boot_tests.H1", 0.0),
        "boot_tests.H2_s": busy.get("boot_tests.H2", 0.0),
        "boot_tests.H3_s": busy.get("boot_tests.H3", 0.0),
        "boot_tests.resamples_per_s": resamples / boot_s if boot_s else 0.0,
        "boot_tests.draws": draws,
        "boot_tests.useful_ratio": resamples / draws if draws else 0.0,
        "datagen.stream_s": busy.get("datagen.stream", 0.0),
        "datagen.stream_calls": calls.get("datagen.stream", 0.0),
        "statdist.quantile_s": busy.get("statdist.quantile", 0.0),
    }
    for layer in tr.LAYERS:
        m[f"{layer}.self_s"] = s["self_s"][layer]
    m["trace.op_s"] = s["op_s"]
    m["trace.unattributed_s"] = s["unattributed_s"]
    m["trace.overhead_ops_per_s"] = untraced_ops_per_s - traced_ops_per_s
    return m


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB
