#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload point_mix|analytic|ingest \\
        --seed N --seconds S --trace 0|1

Every request goes over the wire through ``HQLClient`` to real
``repro serve`` processes started from this checkout's ``src`` tree, and
every answer is checked.  The output is a human-readable record (run
stamp, the workload's metrics under its own names, phase details) and,
as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics:
the run first measures the workload untraced for half the time, then
again with timing shims installed in this process and in every server
it launches, and reports the per-layer table, the tracing overhead
(traced minus untraced read median) and the unexplained remainder.

Exit status: 0 after a run (``correct`` says whether every answer
checked out), 1 when the workload could not run, 2 when this directory
holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("point_mix", "analytic", "ingest")

#: The gated end-to-end metrics (name, unit), reported by every
#: workload.  Latency and throughput metrics are printed in each
#: workload's record but not gated: on a shared 2-CPU host their
#: run-to-run spread exceeds any bound a gate may use (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("stored_bytes_per_row", "bytes"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _plain(value):
    """JSON-safe copy: non-finite floats become ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _print_named(title, outcome) -> None:
    print("== {} ==".format(title))
    for row in outcome.named:
        print(
            "  {:<22} {:>14.4f} {:<26} {}".format(
                row["name"], row["value"], row["unit"], row["note"]
            )
        )
    print("  checks: {}".format(json.dumps(outcome.checks, sort_keys=True)))
    print("  record: {}".format(json.dumps(_plain(outcome.record), sort_keys=True)))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no src/repro under {} to measure".format(ROOT), file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import harness, layers, shims
    from perfbench.spans import Recorder

    # A terminated run still stops the servers it started (the workloads
    # stop them in ``finally`` blocks, which SystemExit runs).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))

    workload = importlib.import_module("perfbench." + args.workload)
    stamp = harness.stamp(
        args.workload, args.seed, args.seconds, bool(args.trace), workload.SERVER_FLAGS
    )
    print("stamp: {}".format(json.dumps(stamp, sort_keys=True)))
    ticks = harness.host_cpu_ticks()
    try:
        if args.trace:
            half = args.seconds / 2
            base = workload.run(args.seed, half)
            _print_named("untraced pass", base)
            recorder = Recorder()
            shims.install_client(recorder)
            traced = workload.run(args.seed, half, traced=True, recorder=recorder)
            _print_named("traced pass", traced)
            values = dict(traced.layers)
            untraced_p50 = base.metrics["read_p50_ms"]
            values["obs.overhead_pct"] = (
                100.0 * (traced.metrics["read_p50_ms"] - untraced_p50) / untraced_p50
            )
            print("== per-layer (traced pass) ==")
            for name, unit, _better, moves in layers.PER_LAYER:
                print("  {:<30} {:>14.4f} {:<14} -> {}".format(name, values[name], unit, moves))
            result = {
                "correct": base.correct and traced.correct,
                "attempted": base.attempted + traced.attempted,
                "failed": base.failed + traced.failed,
                "metrics": {
                    name: {"value": values[name], "unit": layers.UNITS[name]}
                    for name in layers.PER_LAYER_NAMES
                },
            }
        else:
            outcome = workload.run(args.seed, args.seconds)
            _print_named(args.workload, outcome)
            result = {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in END_TO_END
                },
            }
    except harness.BenchError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1
    finally:
        harness.remove_work()
    steal = harness.steal_share(ticks, harness.host_cpu_ticks())
    print("host: cpu steal during the run = {}".format("n/a" if steal is None else "{:.1%}".format(steal)))
    print(json.dumps(_plain(result)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
