"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads paper_cli,support_table --seeds 1-10
        [--seconds S] [--trace 0|1] [--out FILE.json]

Runs one at a time, from the root of a taildep tree; --seconds defaults
to run_seconds in BENCHMARK.json. For every metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
interquartile spread as a share of the median, against the metric's
bound in BENCHMARK.json. A seed listed twice (--seeds 1,1) checks that the
counts of a traced run repeat exactly. With --out, writes the per-seed
values and the medians as a JSON record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec_path = Path("BENCHMARK.json")
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec.get("run_seconds", 20))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    record: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            prov = [json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("provenance ")]
            ok &= result["correct"] and result["failed"] == 0
            runs.append({"seed": seed, "elapsed_s": elapsed, **result,
                         "provenance": prov[0] if prov else None})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct {result['correct']} attempted "
                  f"{result['attempted']} failed {result['failed']} in {elapsed:.1f} s", flush=True)
        # counts are exact: runs of one seed must agree on every one of them
        counted = {name for name, m in result["metrics"].items() if m["unit"] in ("count", "bytes")}
        for name in sorted(counted):
            by_seed: dict = {}
            for r in runs:
                value = r["metrics"][name]["value"]
                if by_seed.setdefault(r["seed"], value) != value:
                    print(f"  {workload} {name} differs between runs of seed {r['seed']}")
                    ok = False
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {workload:<14} {name:<28} median {med:<12.6g} spread {spread:.4f}{mark}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
