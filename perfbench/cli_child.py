"""One `taildep` CLI call in a child interpreter, then the speed probe.

    python perfbench/cli_child.py RESULT.json OP_ID TRACE -- <taildep argv>

Runs taildep.cli.main(argv), as `python -m taildep.cli <argv>` does, and
notes when it returned and this process's CPU time and peak resident set at
that moment. Then it times the host speed probe (speed.py) in this same
process and writes all of it to RESULT.json. With TRACE 1 it first wraps
the entry points as taildep.cli binds them and also writes the spans and
counts. Exits with main's exit code. Needs taildep importable
(PYTHONPATH=src).
"""

from __future__ import annotations

import sys
from time import perf_counter

START = perf_counter()


def main() -> int:
    out_path, op, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: cli_child.py RESULT.json OP_ID TRACE -- <taildep argv>")
    t = None
    if trace == "1":
        import tracer as tr

        t = tr.Tracer()
        t.op = int(op)
        with t.span("cli.import"):
            import taildep.cli as cli

        cli._read_csv_columns = t.wrap(
            "cli.ingest", cli._read_csv_columns,
            lambda table: t.count("cli.ingest_rows", len(next(iter(table.values())))))
        cli._emit_report = t.wrap("cli.emit", cli._emit_report)
        tr.instrument(t, cli)
        with t.span("cli.main"):
            code = cli.main(argv)
    else:
        import taildep.cli as cli

        code = cli.main(argv)
    end = perf_counter()

    import json
    import resource

    import speed

    usage = resource.getrusage(resource.RUSAGE_SELF)
    probe = speed.Probe()
    result = {"end": end, "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
              "probe": probe.after(end - START), "probe_times": probe.times}
    if t is not None:
        result.update(spans=t.spans, counts=t.counts)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
