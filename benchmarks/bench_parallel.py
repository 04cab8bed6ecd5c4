#!/usr/bin/env python3
"""P11: shard-parallel execution — cone-partitioned bitset sweeps
across multiprocessing workers.

Run:  PYTHONPATH=src python benchmarks/bench_parallel.py
Writes BENCH_parallel.json at the repository root.

Three operator families over the cone-star generators, all far above
the cost gate:

* **union** — `cone_workload(16000, 12)`: 208 000 stored tuples across
  the two inputs, 16 000 independent hierarchy cones.  The headline
  row; `union_1worker` re-measures the same workload with the full
  shard pipeline inline (workers=1, no fork, no pickling) — the
  decomposition-overhead row the acceptance bound holds to within 10%
  of serial.  (Serial sweeps number their bits per hierarchy
  component, so they already get the decomposition win; what is left
  for the workers is CPU parallelism, which needs more than one core
  — see the recorded ``cpus``.)
* **join** — `cone_join_workload(4000, 12)`: the zero-copy join whose
  padded inputs exercise the root-skip closure logic.
* **conflict_scan** — `find_conflicts` over the union workload's left
  input (a quarter of its instance tuples are negated exceptions, so
  the opposite-sign probe set is dense).

Every measurement builds a *fresh* workload (the evaluator and meet
caches key on object identity — reusing a relation would time a cache
hit), and serial/parallel runs are interleaved rep by rep with the
minimum kept per configuration: the shared box this grows up on has
multi-minute CPU-throttling windows, and interleaved minima give both
sides the same chance of an unthrottled window.  Outputs are
cross-checked tuple-for-tuple (including insertion order) against the
serial answer once per operator.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro import parallel
from repro.core import find_conflicts, join, union
from repro.obs import default_registry
from repro.workloads.generators import cone_join_workload, cone_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
UNION_SCALE = (16000, 12)  # 16000 cones x (12 instances + 1 class), 2 relations
JOIN_SCALE = (4000, 12)
REPS = 3
WORKERS = 4


def union_setup():
    _, left, right = cone_workload(*UNION_SCALE)
    return (left, right), lambda a, b: union(a, b)


def join_setup():
    left, right = cone_join_workload(*JOIN_SCALE)
    return (left, right), lambda a, b: join(a, b)


def conflicts_setup():
    _, left, _ = cone_workload(*UNION_SCALE)
    return (left,), lambda r: find_conflicts(r)


def run_once(setup: Callable, workers: int) -> float:
    args, op = setup()
    if workers:
        parallel.configure(workers=workers, min_tuples=0)
    else:
        parallel.configure(workers=0)
    try:
        start = time.perf_counter()
        op(*args)
        return time.perf_counter() - start
    finally:
        parallel.reset()


def check_identity(setup: Callable, workers: int) -> None:
    # Fresh inputs per side: a clean conflict scan stamps its relation,
    # and a second scan of the same one would probe nothing.
    args, op = setup()
    parallel.configure(workers=0)
    expect = op(*args)
    args, op = setup()
    parallel.configure(workers=workers, min_tuples=0)
    got = op(*args)
    parallel.reset()

    def signature(result):
        if isinstance(result, list):  # find_conflicts
            return [(c.item, c.binders) for c in result]
        return list(result.asserted.items())

    assert signature(expect) == signature(got), "parallel output diverged"


def measure(op: str, setup: Callable, tuples: int, rows: List[Dict]) -> None:
    check_identity(setup, WORKERS)
    best: Dict[int, float] = {}
    for rep in range(REPS):
        for workers in (0, WORKERS, 1):
            elapsed = run_once(setup, workers)
            best[workers] = min(best.get(workers, float("inf")), elapsed)
            print(
                "  rep{} {:14s} workers={} {:8.2f}s".format(
                    rep, op, workers, elapsed
                )
            )
    for suffix, workers in (("", WORKERS), ("_1worker", 1)):
        if suffix and op != "union":
            continue  # the inline-overhead bound is the union row's job
        row = {
            "op": op + suffix,
            "tuples": tuples,
            "workers": workers,
            "before_ms": round(best[0] * 1e3, 3),
            "after_ms": round(best[workers] * 1e3, 3),
            "speedup": round(best[0] / best[workers], 1),
        }
        rows.append(row)
        print(
            "{op:22s} tuples={tuples:<7} before={before_ms:10.1f}ms "
            "after={after_ms:10.1f}ms speedup={speedup:6.1f}x".format(**row)
        )


def main() -> None:
    rows: List[Dict] = []
    cones, instances = UNION_SCALE
    union_tuples = cones * (instances + 1)
    jcones, jinstances = JOIN_SCALE
    join_tuples = jcones // 2 * (jinstances + 2)

    measure("union", union_setup, union_tuples, rows)
    measure("join", join_setup, join_tuples, rows)
    measure("conflict_scan", conflicts_setup, union_tuples // 2, rows)

    registry = default_registry()
    metrics = {
        name: registry.counter(name).value
        for name in ("parallel.ops", "parallel.shards", "parallel.fallbacks")
    }
    payload = {
        "bench": "parallel",
        "before": "serial component-local bitset sweeps (REPRO_PARALLEL=0)",
        "after": "cone-partitioned shards, {} workers x fanout {}".format(
            WORKERS, parallel.config().fanout
        ),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "reps": REPS,
        "rows": rows,
        "metrics": metrics,
    }
    out = REPO_ROOT / "BENCH_parallel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print("wrote {}".format(out))


if __name__ == "__main__":
    main()
