"""taildep benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a taildep source tree; the program is imported from
./src. Inputs are generated from --seed (see inputs.py) and recorded with
their sha256. Load comes from one client in a closed loop: each op is sent
after the previous one returned. Every output is checked (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half traced, and prints the per-layer metrics, the accounting
of op wall time by layer and the tracing overhead. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Run
records go to .perfbench/ in the tree, spans of traced runs to
.perfbench/spans-<workload>.jsonl.

Workloads (why each exists is in BENCHMARK.json):
  paper_cli      `taildep test --which all` subprocesses at paper scale
  ingest_1m      `taildep support --k 100` subprocesses on a 1,000,000-row CSV
  support_table  radial order, the fit at five lambdas and the four statistics

CLI ops and warm-ups run as taildep.cli.main in a child (cli_child.py).
Every time in the end-to-end metrics is in reference seconds: each op's
and set-up's raw time divided by its speed factor, the time of a fixed host
speed probe (speed.py) timed right after it in the process that ran it,
over the probe's time on a reference host. The raw figures are printed
beside them and kept in the run record. Per-layer times are in reference
seconds too, each op's spans scaled by the probe after the op, and
cli.startup_s, timed in bare interpreters, by the run's median probe.

setup_s is the median of several set-ups (SETUP_REPEATS warm-up CLI calls,
or WORKER_SETUP_REPEATS worker start-ups), half measured before the timed
loop and half after it, so one burst of host load moves few of them.
op_s.tail is a fixed percentile per workload (TAIL_PCT), so runs with more
or fewer ops compare the same percentile. It leaves ten or more ops beyond
it at the op counts of the recorded baseline: support_table's p80 does so
down to 50 ops a run (the baseline had 52-100). paper_cli (16-20 ops) and
ingest_1m (5-7) have no percentile above the median that does at their
fewest ops, so there op_s.tail equals op_s.p50.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import inputs
import measure
import speed
import tracer as tr

HERE = Path(__file__).resolve().parent
PY = sys.executable
OP_TIMEOUT_S = 150
SETUP_REPEATS = 11
WORKER_SETUP_REPEATS = 9
STARTUP_REPEATS = 5

E2E = (("ops_per_s", "op/s"), ("op_s.p50", "s"), ("op_s.tail", "s"), ("cpu_s_per_op", "s"),
       ("peak_rss_mb", "MB"), ("setup_s", "s"), ("fail_frac", "ratio"))
PER_LAYER_UNITS = {
    "cli.startup_s": "s", "cli.ingest_s": "s",
    "cli.ingest_rows_per_s": "rows/s", "cli.emit_s": "s", "cli.report_bytes": "bytes",
    "tail_core.radial_order_s": "s", "support_fit.estimate_s": "s",
    "support_fit.evaluations": "count", "estimators.stats_s": "s",
    "boot_tests.H1_s": "s", "boot_tests.H2_s": "s", "boot_tests.H3_s": "s",
    "boot_tests.resamples_per_s": "resamples/s", "boot_tests.draws": "count",
    "boot_tests.useful_ratio": "ratio", "datagen.stream_s": "s",
    "datagen.stream_calls": "count", "statdist.quantile_s": "s",
    **{f"{layer}.self_s": "s" for layer in tr.LAYERS},
    "trace.op_s": "s", "trace.unattributed_s": "s", "trace.overhead_ops_per_s": "op/s",
}
CODES = {"paper_cli": 1, "ingest_1m": 3, "support_table": 4}  # input stream ids
TAIL_PCT = {"paper_cli": 50, "ingest_1m": 50, "support_table": 80}


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = root / ".perfbench" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.inputs: list[dict] = []
        self.errors: list[str] = []
        self.probe_times: list[float] = []

    def sample(self, index: int, n: int, shape: str) -> tuple:
        return inputs.mixture(self.seed, (CODES[self.workload], index), n, shape)

    def csv(self, name: str, x, y) -> str:
        path = self.work / name
        self.inputs.append({"name": name, "rows": int(x.size), "sha256": inputs.write_csv(str(path), x, y)})
        return str(path)

    # -- subprocess ops ------------------------------------------------------

    def spawn(self, cmd: list[str]) -> tuple[int, float, float, object, str]:
        """(exit code, start, end, rusage, stderr tail) of one child."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = perf_counter()
        return (os.waitstatus_to_exitcode(status), t0, t1, usage,
                err_path.read_text(errors="replace")[-500:])

    def cli_call(self, argv: list[str], op: int, traced: bool) -> tuple:
        """One CLI call through cli_child.py: (exit code, start, end, cpu s,
        peak rss MB, median probe s after it, stderr tail). The op ends when
        main returned in the child, before the child times the speed probe;
        perf_counter is the same monotonic clock in both processes."""
        result_path = self.work / "child.json"
        result_path.unlink(missing_ok=True)
        code, t0, t1, usage, err = self.spawn(
            [PY, str(HERE / "cli_child.py"), str(result_path), str(op), str(int(traced)), "--", *argv])
        if not result_path.is_file():  # the child died before writing it
            return code, t0, t1, measure.cpu_seconds(usage), usage.ru_maxrss / measure.MB, None, err
        child = json.loads(result_path.read_text())
        self.probe_times += child["probe_times"]
        if traced:
            self.spans += [tuple(s) for s in child["spans"]]
            self.counts += [tuple(c) for c in child["counts"]]
        return code, t0, child["end"], child["cpu"], child["rss_mb"], child["probe"], err

    def cli_op(self, i: int, key: str, argv: list[str], out: Path, traced: bool) -> dict:
        out.unlink(missing_ok=True)
        code, t0, t1, cpu, rss, probe, err = self.cli_call(argv, i, traced)
        rec = {"i": i, "key": key, "t0": t0, "t1": t1, "wall": t1 - t0, "cpu": cpu, "rss": rss,
               "probe": probe, "output": None, "error": None}
        if code != 0:
            rec["error"] = f"exit {code}: {err.strip()}"
        elif not out.is_file():
            rec["error"] = "no report written"
        else:
            rec["output"] = out.read_bytes()
        if traced and code == 0:
            self.counts.append((i, "cli.report_bytes", len(rec["output"] or b"")))
            if rec["output"] and b'"reports"' in rec["output"]:
                reports = json.loads(rec["output"])["reports"]
                n = sum(len(r["per_resample"]) + len(r["auxiliary"].get("per_resample_masked", ()))
                        for r in reports)
                self.counts.append((i, "boot_tests.resamples", n))
        return rec

    def run_cli(self, keys: list[str], argv_of, check, warm_argv: list[str]) -> dict:
        out = self.work / "report.json"

        def setups(count: int) -> list[tuple[float, float]]:
            walls = []
            for _ in range(count):
                code, t0, t1, _, _, probe, err = self.cli_call(warm_argv, -1, False)
                if code != 0 or probe is None:
                    raise RuntimeError(f"warm-up call failed: exit {code}: {err.strip()}")
                walls.append((t1 - t0, probe))
            return walls

        before = setups(SETUP_REPEATS - SETUP_REPEATS // 2)
        verify = measure.OutputVerifier(check)

        def op(traced: bool, offset: int = 0):
            return lambda i, key: self.cli_op(i + offset, key, argv_of(key, str(out)), out, traced)

        result = {}
        if self.trace:
            self.spans, self.counts = [], []
            untraced = measure.closed_loop(op(False), keys, self.seconds / 2, verify)
            records = measure.closed_loop(op(True, len(untraced)), keys, self.seconds / 2, verify,
                                          min_rotations=2)
            result.update(untraced=untraced, records=records, spans=self.spans, counts=self.counts,
                          startup_s=self.cli_startup())
        else:
            records = measure.closed_loop(op(False), keys, self.seconds, verify)
            result["records"] = records
        result["peak_rss_mb"] = max(r["rss"] for r in records)
        result["setups"] = before + setups(SETUP_REPEATS // 2)
        result["probe_times"] = self.probe_times
        again = self.cli_op(-1, keys[0], argv_of(keys[0], str(out)), out, False)
        if again["error"] or again["output"] != verify.first.get(keys[0]):
            self.errors.append(f"repeat of the first op ({keys[0]}) is not byte-identical")
        return result

    def cli_startup(self) -> float:
        """Fresh-interpreter `import taildep.cli` minus a bare interpreter."""
        def wall(cmd: list[str]) -> float:
            _, t0, t1, _, _ = self.spawn(cmd)
            return t1 - t0

        bare, full = [], []
        for _ in range(STARTUP_REPEATS):
            bare.append(wall([PY, "-c", "pass"]))
            full.append(wall([PY, "-c", "import taildep.cli"]))
        return statistics.median(full) - statistics.median(bare)

    # -- workloads -----------------------------------------------------------

    def paper_cli(self) -> dict:
        shapes = ["example1", "example2", "example1", "example2"]
        data, paths = [], []
        for j, shape in enumerate(shapes):
            x, y = self.sample(j, 30000, shape)
            data.append((x, y))
            paths.append(self.csv(f"{shape}-{j}.csv", x, y))
        small = self.csv("warm.csv", *self.sample(99, 2000, "example1"))
        flags = ["--which", "all", "--k", "100", "--mn", "500", "--kmn", "25", "--B", "2000",
                 "--threads", "1", "--seed", str(self.seed)]
        warm = ["test", "--input", small, "--which", "all", "--k", "20", "--mn", "100", "--kmn", "10",
                "--B", "20", "--seed", str(self.seed), "--output", str(self.work / "warm.json")]
        oracles: dict = {}

        def check(key: str, output: bytes) -> list[str]:
            payload = json.loads(output)
            errors = checks.check_cli_test_report(payload, 2000)
            if key not in oracles:
                oracles[key] = checks.SupportOracle(*data[int(key)], 100)
            a, b = payload["cone"]
            return errors + oracles[key].check(a, b, 1.0)

        keys = [str(j) for j in range(len(paths))]
        return self.run_cli(keys, lambda key, out: ["test", "--input", paths[int(key)], *flags,
                                                     "--output", out], check, warm)

    def ingest_1m(self) -> dict:
        x, y = self.sample(0, 1_000_000, "example1")
        path = self.csv("rows-1m.csv", x, y)
        small = self.csv("warm.csv", *self.sample(99, 2000, "example1"))
        oracle = checks.SupportOracle(x, y, 100)

        def check(key: str, output: bytes) -> list[str]:
            rep = json.loads(output)
            if (rep["n"], rep["k"], rep["lambda"]) != (x.size, 100, 1.0):
                return [f"report has n={rep['n']} k={rep['k']} lambda={rep['lambda']}"]
            return oracle.check(rep["a_hat"], rep["b_hat"], 1.0, rep["objective_value"])

        warm = ["support", "--input", small, "--k", "100", "--output", str(self.work / "warm.json")]
        return self.run_cli(["0"], lambda key, out: ["support", "--input", path, "--k", "100",
                                                     "--output", out], check, warm)

    def in_process(self, samples: list[tuple]) -> dict:
        arrays = {}
        for j, (x, y) in enumerate(samples):
            arrays[f"x{j}"], arrays[f"y{j}"] = x, y
            self.inputs.append({"name": f"sample{j}", "rows": int(x.size),
                                "sha256": inputs.arrays_sha256(x, y)})
        import numpy as np

        npz = self.work / "inputs.npz"
        np.savez(npz, **arrays)
        out = self.work / "worker.json"
        cmd = [PY, str(HERE / "worker.py"), "--inputs", str(npz), "--seconds", str(self.seconds),
               "--trace", str(int(self.trace)), "--out", str(out)]

        def worker(setup_only: bool) -> dict:
            out.unlink(missing_ok=True)
            code, _, _, _, err = self.spawn(cmd + (["--setup-only"] if setup_only else []))
            if code != 0 or not out.is_file():
                raise RuntimeError(f"worker failed: exit {code}: {err.strip()}")
            return json.loads(out.read_text())

        # the measuring worker sets up once too; the other set-ups surround it
        before = [worker(True) for _ in range(WORKER_SETUP_REPEATS // 2)]
        result = worker(False)
        after = [worker(True) for _ in range((WORKER_SETUP_REPEATS - 1) // 2)]
        result["setups"] = [(w["setup_s"], w["setup_probe"]) for w in before + [result] + after]
        result["probe_times"] = [t for w in before + [result] + after for t in w["probe_times"]]
        self.errors += result.pop("errors")
        for key in ("spans", "counts"):
            if key in result:
                result[key] = [tuple(s) for s in result[key]]
        return result

    def support_table(self) -> dict:
        return self.in_process([self.sample(j, 30000, "example1") for j in range(4)])


def provenance(root: Path, run: Run, probe_times: list[float]) -> dict:
    import numpy as np

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((root / "src" / "taildep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace),
        "git_commit": commit, "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "inputs": run.inputs,
        "speed_factor": speed.factor(probe_times), "probe_s.p50": statistics.median(probe_times),
        "probes": len(probe_times), "ref_probe_s": speed.REF_PROBE_S,
    }


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(CODES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "taildep" / "cli.py").is_file():
        print(f"error: {root} has no src/taildep; run from the root of a taildep tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = getattr(run, args.workload)()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    prov = provenance(root, run, result["probe_times"])

    records = result.get("untraced", []) + result["records"]
    failed = sum(r["error"] is not None for r in records)
    for r in records:
        if r["error"]:
            print(f"op {r['i']} ({r['key']}) failed: {r['error']}", file=sys.stderr)
    timed = result.get("untraced") or result["records"]
    for r in records:  # an op whose child died before timing the probe
        if r["probe"] is None:
            r["probe"] = prov["probe_s.p50"]
    args_e2e = (timed, result["setups"], result["peak_rss_mb"], TAIL_PCT[args.workload])
    raw = measure.end_to_end(*args_e2e)
    e2e = measure.end_to_end(*args_e2e, ref_probe_s=speed.REF_PROBE_S)
    print(f"workload {args.workload}  seed {args.seed}  seconds {fmt(args.seconds)}  "
          f"trace {args.trace}  ops {len(records)}  failed {failed}")
    print(f"  speed factor {fmt(prov['speed_factor'])} (median of {prov['probes']} probes "
          f"{fmt(prov['probe_s.p50'])} s / reference {speed.REF_PROBE_S} s); times in "
          f"reference seconds, each op's by the probe after it; raw in brackets")
    for name, unit in E2E:
        note = f"  [{fmt(raw[name])}]" if raw[name] != e2e[name] else ""
        if name == "op_s.tail":
            note += (f"  (p{TAIL_PCT[args.workload]} of {e2e['_samples']} ops, "
                     f"{e2e['_beyond']} beyond it)")
        print(f"  {name:<14} {fmt(e2e[name]):>12} {unit}{note}")

    if args.trace:
        per_op = tr.counts_by_op(result["spans"], result["counts"])
        run.errors += measure.repeat_errors(result["records"], per_op, measure.EXACT_COUNTS)
        startup_s = result.get("startup_s", 0.0) * speed.REF_PROBE_S / prov["probe_s.p50"]
        layers = measure.per_layer(result["records"], result["spans"], result["counts"],
                                   e2e["ops_per_s"], startup_s, speed.REF_PROBE_S)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        print("  per layer, mean per traced op, in reference seconds:")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"    {name:<28} {fmt(layers[name]):>12} {unit}")
        selfs = sum(layers[f"{layer}.self_s"] for layer in tr.LAYERS)
        print(f"  accounting: op wall {fmt(layers['trace.op_s'])} s = layer self times "
              f"{fmt(selfs)} s + unattributed {fmt(layers['trace.unattributed_s'])} s")
        print(f"  tracing overhead: untraced {fmt(e2e['ops_per_s'])} op/s - traced "
              f"{fmt(e2e['ops_per_s'] - layers['trace.overhead_ops_per_s'])} op/s "
              f"= {fmt(layers['trace.overhead_ops_per_s'])} op/s")
        spans_path = root / ".perfbench" / f"spans-{args.workload}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, depth, op in result["spans"]:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    else:
        # fail_frac is printed but kept out of the JSON metrics: it is 0 on a
        # healthy program, and `failed`/`attempted` already carry it
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E
                   if name != "fail_frac"}

    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    correct = failed == 0 and not run.errors
    record = {"provenance": prov, "correct": correct, "errors": run.errors,
              "end_to_end": e2e, "end_to_end_raw": raw, "metrics": metrics,
              "ops": [[r["i"], r["key"], r["wall"], r["cpu"], r["probe"], r["error"]] for r in records]}
    record_path = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
