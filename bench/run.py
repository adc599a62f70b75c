"""Benchmark of graphconf: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up (interpreter start and import, timed in a child
interpreter, plus building the inputs from the seed) is repeated and its
median reported.  Then whole passes over the workload run until the next
pass would end after ``--seconds``; at least two untraced passes always
run.  Every answer is checked.  Operation times are reported at a
nominal host speed, measured by a reference workload timed before, during
and after every operation (``workloads.reference``).  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics, and the spans are written to ``.bench_out/``.  See
``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_REPEATS = 7
SETUP_REPEATS = 3

PER_LAYER_UNITS = {
    "model.enumerate_s": "s", "model.assemble_s": "s", "model.export_s": "s",
    "model.cells": "count", "model.nnz": "count", "model.export_bytes": "B",
    "homology.snf_s": "s", "homology.snf_calls": "count",
    "homology.rank_s": "s", "homology.rank_calls": "count",
    "homology.solve_s": "s",
    "homology.elim_nnz": "count", "homology.self_s": "s",
    "cycles.classes_s": "s", "cycles.candidates": "count",
    "cycles.useful_ratio": "ratio", "cli.self_s": "s",
    "trace.overhead": "ratio", "trace.absent": "count",
}


class NoTrace:
    """Stands in for the tracer in untraced passes."""

    def __init__(self):
        self.op = None
        self.counts = Counter()

    def span(self, name, metric=None):
        return nullcontext()


def import_seconds():
    """Wall time of a fresh interpreter that imports the program.  No
    timeout: with one, the wait polls in steps of up to 50 ms."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import graphconf.cli"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - start


def one_pass(run_pass, inputs, rng, log):
    """Wall seconds of one pass, and its operations' scaled seconds."""
    items = list(inputs)
    rng.shuffle(items)
    start = perf_counter()
    run_pass(items, log)
    wall = perf_counter() - start
    return wall, log.scaled()


def layer_metrics(tracer, scaled, untraced_scaled):
    times = tracer.self_times()
    useful, candidates = tracer.useful()
    values = {name: tracer.counts.get(name, times.get(name, 0))
              for name in PER_LAYER_UNITS}
    values["cycles.useful_ratio"] = useful / candidates if candidates else 0.0
    values["trace.overhead"] = sum(scaled) / sum(untraced_scaled)
    values["trace.absent"] = len(tracer.absent)
    return values, (useful, candidates)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphconf" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphconf
    if SRC not in Path(graphconf.__file__).resolve().parents:
        print(f"error: graphconf imported from {graphconf.__file__}",
              file=sys.stderr)
        return 2
    import graphconf.cli  # noqa: F401  (load every layer before tracing)
    from tracing import Tracer
    from workloads import WORKLOADS, OpLog, program_clock
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    setup, run_pass = WORKLOADS[args.workload]

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        import_seconds()  # compiles bytecode once, untimed
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
        builds = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            inputs = setup(random.Random(args.seed), workdir)
            builds.append(perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(builds)

        rng = random.Random(args.seed)
        untraced, measured, traced, layers, spans = [], [], [], [], []
        traced_records, scaled, traced_scaled, logs = [], [], [], []
        tracer = Tracer(program_clock) if args.trace else None
        # two untraced passes even when the second overruns --seconds:
        # stopping after one slow pass would keep exactly the runs that
        # fell into a slow phase of the host to a single sample
        min_passes = 1 if tracer else 2
        start = perf_counter()
        while True:
            log = OpLog(NoTrace())
            wall, times = one_pass(run_pass, inputs, rng, log)
            untraced.append(wall)
            scaled.append(times)
            measured.append(log.records)
            logs.append(log)
            if tracer:
                tracer.reset()
                tracer.install()
                try:
                    log = OpLog(tracer)
                    wall, times = one_pass(run_pass, inputs, rng, log)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                traced_records.append(log.records)
                traced_scaled.append(times)
                logs.append(log)
                layers.append(layer_metrics(tracer, times, scaled[-1]))
                spans.extend([*s, len(traced)] for s in tracer.spans)
            elapsed = perf_counter() - start
            if (len(untraced) >= min_passes and elapsed + max(untraced)
                    + max(traced, default=0) > args.seconds):
                break
        records = measured + traced_records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [r for recs in records for r in recs]
    failed = [r for r in ops if r[2] != "ok"]
    attempted = len(ops)
    wrong = any(r[2] == "wrong" for r in ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)}"
          f" untraced and {len(traced)} traced passes, {attempted} operations")
    speeds = [v for log in logs for v in log.speeds]
    timings = sum(len(t) for log in logs for t in log.before + log.during)
    print(f"host speed: {statistics.median(speeds):.4f} x nominal (median"
          f" over {len(speeds)} operations of {timings} reference timings)")
    print("each pass in order: operation, wall seconds, host speed during it"
          " (timings taken during it)")
    for log in logs:
        steps = (f"{op_id} {seconds:.4f} x{speed:.3f} ({len(during)})"
                 for (op_id, seconds, _, _), speed, during
                 in zip(log.records, log.speeds, log.during))
        print(f"  pass: {' | '.join(steps)}")
    print("operation seconds, wall | scaled: untraced passes, then traced")
    by_op = {}
    for recs, times in zip(records, scaled + traced_scaled):
        for (op_id, seconds, _, _), t in zip(recs, times):
            by_op.setdefault(op_id, []).append((seconds, t))
    for op_id in sorted(by_op):
        wall = " ".join(f"{t:.4f}" for t, _ in by_op[op_id])
        times = " ".join(f"{t:.4f}" for _, t in by_op[op_id])
        print(f"  op {op_id}: {wall} | {times} s")
    for op_id, seconds, status, detail in failed:
        print(f"  FAILED {op_id} ({status}): {detail}")
    print(f"fail_ratio {len(failed)} of {attempted} operations"
          f" = {len(failed) / attempted:.4f}")

    if tracer:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(
            [{"name": name, "start": start, "end": end, "parent": parent,
              "op": f"{args.workload}/{op}", "pass": n}
             for name, start, end, parent, op, n in spans]))
        print(f"pass wall: untraced {statistics.median(untraced):.4f} s,"
              f" traced {statistics.median(traced):.4f} s (medians of"
              f" {len(traced)})")
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            value = statistics.median(values[name] for values, _ in layers)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value:.6g} {unit} (median of {len(layers)}"
                  " traced passes)")
        useful, candidates = layers[-1][1]
        print(f"  cycles.useful_ratio base: span rank {useful} of"
              f" {candidates} candidates per pass")
        for name in tracer.absent:
            print(f"  absent: {name} (not wrapped)")
        print(f"  spans: {trace_file.relative_to(ROOT)}")
    else:
        passes = len(untraced)
        max_calls = [max(r[1] for r in recs) for recs in measured]
        print(f"wall_s {statistics.median(untraced):.6g} s (median of"
              f" {passes} passes, unscaled, with the reference timings)")
        print(f"max_call_s unscaled {statistics.median(max_calls):.6g} s"
              f" (median of {passes} passes)")
        scaled_base = f"median of {passes} passes, at the nominal host speed"
        metrics = {
            "pass_s": (statistics.median(sum(t) for t in scaled), "s",
                       scaled_base),
            "max_call_s": (statistics.median(max(t) for t in scaled), "s",
                           scaled_base),
            "peak_rss_mb": (peak_rss_mb, "MB", "peak of 1 process"),
            "setup_s": (setup_s, "s", f"median of {IMPORT_REPEATS} imports"
                        f" + median of {SETUP_REPEATS} input builds"),
            "ok_ratio": ((attempted - len(failed)) / attempted, "ratio",
                         f"{attempted - len(failed)} of {attempted}"
                         " operations"),
        }
        for name, (value, unit, base) in metrics.items():
            print(f"{name} {value:.6g} {unit} ({base})")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in metrics.items()}
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
