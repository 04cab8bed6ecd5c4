"""``point_mix``: open-loop point reads and autocommitted writes on two
tenants.

Two tenants (``ta``, ``tb``), one connection each, load from this one
process.  Arrivals are Poisson, fixed before the run; 90% are
Zipf(1.1) ``TRUTH reads (k<rank>)`` over 4096 keys per tenant, 10% are
autocommitted ``ASSERT writes (k<n>)`` with uniform keys.  The server
runs at its defaults on a data directory (journal on, fsync off).

The key space is 16x the 256-entry per-tenant query cache, but the
Zipf head fits in it, so cache behaviour shows here.  The engine does
tens of microseconds of work per request, so the wire, dispatch, lock,
cache and journal layers dominate.

Phases, after a short discarded warm-up:

* **fixed rate** — ``FIXED_RATE`` requests/s offered, for half the run:
  read and write latency from the scheduled send time, server CPU per
  request, generator lateness, and (traced) the per-layer window.  The
  rate sits well below the knee (≈600-900 req/s on a quiet 2-CPU host)
  so that the host's CPU steal does not push the server past it;
* **capacity** — both connections closed loop for ``CAPACITY_S``:
  completed requests per second (the gated throughput);
* **rate ladder** — fixed rungs 8% apart, searched by bisection from
  the fixed rate upward: ``max_rps_at_slo`` is the highest rung where
  p99 stays within ``SLO_MS``, the achieved rate is at least 95% of the
  offered rate, and the generator's backlog does not grow (a failing
  rung is probed twice before it counts);
* **crash recovery** — a graceful restart checkpoints both tenants,
  ``RECOVERY_WRITES`` writes per tenant are journalled, then ``RECOVERIES`` times
  ``kill -9`` and a restart on the same directory, timed to the first
  answered query on both tenants.
"""

from __future__ import annotations

import gc
import math
import os
import random
import time
from typing import Dict, List, Optional, Sequence

from perfbench import harness, layers, openloop, shims, spans
from perfbench.harness import Outcome, Timings, named
from repro.client import HQLClient
from repro.engine.database import HierarchicalDatabase
from repro.engine.storage import save_database_binary
from repro.workloads.loadgen import build_schedule, percentile, schema_for, zipf_cdf, zipf_sample

NAME = "point_mix"
TENANTS = ("ta", "tb")
KEYS = 4096
ZIPF_S = 1.1
READ_SHARE = 0.9
FIXED_RATE = 120.0
SLO_MS = 50.0
#: Offered rates (requests/s, both lanes together), 8% apart.
LADDER = tuple(round(100.0 * 1.08 ** k, 1) for k in range(31))
#: ``writes`` starts with this many keys asserted per tenant, so the
#: stored row count (and bytes per row) hardly depends on how many
#: writes a run's schedule happens to draw.
WRITES_PRELOAD = 1024
SETUP_REPEATS = 3
RECOVERIES = 3
WARMUP_S = 1.0
CAPACITY_S = 5.0
#: Autocommitted writes per tenant journalled for the crash tests to
#: replay, on top of a fresh checkpoint.
RECOVERY_WRITES = 100
#: What the record states about the server configuration.
SERVER_FLAGS = {"argv": ["--data-dir", "DIR"], "flush_policy": "journal on, fsync off"}


def plan_lane(rng: random.Random, rate: float, seconds: float, cdf: Sequence[float]) -> List[openloop.Op]:
    """One lane's schedule: Poisson arrivals at ``rate``; exactly
    1 - READ_SHARE of them (at seeded positions) are uniform-key writes,
    the rest Zipf reads.  A fixed share keeps the mix — and so the work
    per request — the same in every run."""
    offsets = build_schedule(rate, seconds, rng)
    writes = set(rng.sample(range(len(offsets)), round(len(offsets) * (1.0 - READ_SHARE))))
    ops = []
    for position, offset in enumerate(offsets):
        if position in writes:
            ops.append(openloop.Op(offset, "write", "ASSERT writes (k{});".format(rng.randrange(KEYS))))
        else:
            ops.append(openloop.Op(offset, "read", "TRUTH reads (k{});".format(zipf_sample(cdf, rng))))
    return ops


def check(op: openloop.Op, results: list) -> bool:
    """Every TRUTH is true (the schema asserts ``reads (hot)`` over every
    key); every ASSERT answers ``ok``."""
    if len(results) != 1:
        return False
    if op.kind == "read":
        return results[0].kind == "truth" and results[0].payload is True
    return results[0].kind == "ok"


class _Run:
    def __init__(self, seed: int, seconds: float, traced: bool, recorder: Optional[spans.Recorder]):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.recorder = recorder
        self.cluster = harness.Cluster()
        self.cdf = zipf_cdf(KEYS, ZIPF_S)
        self.clients: Dict[str, HQLClient] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.data_dir = ""
        self.server: Optional[harness.ServerProcess] = None

    def rng(self, *labels) -> random.Random:
        return random.Random("{}:{}".format(self.seed, ":".join(map(str, labels))))

    # -- set-up --------------------------------------------------------

    def setup(self) -> List[float]:
        preload = self.rng("preload").sample(range(KEYS), min(WRITES_PRELOAD, KEYS))
        databases = []
        for tenant in TENANTS:
            database = HierarchicalDatabase(tenant)
            database.execute(schema_for(KEYS))
            database.execute("".join("ASSERT writes (k{});".format(k) for k in preload))
            databases.append(database)
        times = []
        for rep in range(SETUP_REPEATS):
            if self.server is not None:
                self.close_clients()
                self.server.kill()
            started = time.perf_counter()
            self.data_dir = harness.fresh_dir("{}-{}".format(NAME, rep))
            for tenant, database in zip(TENANTS, databases):
                tenant_dir = os.path.join(self.data_dir, tenant)
                os.makedirs(tenant_dir)
                save_database_binary(
                    database, os.path.join(tenant_dir, "snapshot.bin"), extra={"checkpoint": 0}
                )
            self.server = self.cluster.start(["--data-dir", self.data_dir], self.traced, NAME)
            self.connect_and_probe()
            times.append(time.perf_counter() - started)
        return times

    def connect_and_probe(self) -> None:
        for tenant in TENANTS:
            client = HQLClient(port=self.server.port, db=tenant, reconnect=False, render=False)
            client.connect()
            self.clients[tenant] = client
            if client.execute("TRUTH reads (k0);")[0].payload is not True:
                raise harness.BenchError("tenant {} did not boot with its schema".format(tenant))

    def close_clients(self) -> None:
        for client in self.clients.values():
            client.close()
        self.clients.clear()

    # -- load ----------------------------------------------------------

    def lanes(self, phase: str, rate: float, seconds: float):
        per_lane = rate / len(TENANTS)
        return [
            (self.clients[tenant], plan_lane(self.rng(phase, rate, i), per_lane, seconds, self.cdf))
            for i, tenant in enumerate(TENANTS)
        ]

    def drive(self, phase: str, rate: float, seconds: float, stop_after: float):
        lanes = self.lanes(phase, rate, seconds)
        samples, unsent = openloop.drive(lanes, check, stop_after)
        self.attempted += len(samples)
        for sample in samples:
            if not sample.ok:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(sample.error or "wrong answer to " + sample.kind)
        scheduled = [op.offset for _client, ops in lanes for op in ops]
        return samples, unsent, scheduled

    def capacity(self) -> Dict[str, object]:
        """Closed loop: both connections send the same mix back to back
        for ``CAPACITY_S``; completed requests per second."""
        lanes = [
            (
                self.clients[tenant],
                [
                    openloop.Op(0.0, op.kind, op.hql)
                    for op in plan_lane(self.rng("capacity", i), 4000.0, CAPACITY_S, self.cdf)
                ],
            )
            for i, tenant in enumerate(TENANTS)
        ]
        samples, _unsent = openloop.drive(lanes, check, CAPACITY_S)
        self.attempted += len(samples)
        self.failed += sum(1 for s in samples if not s.ok)
        elapsed = max((s.done for s in samples), default=CAPACITY_S)
        return {"requests": len(samples), "elapsed_s": elapsed, "rps": len(samples) / elapsed}

    def probe(self, rate: float, attempt: int = 0) -> Dict[str, object]:
        """One ladder rung: does ``rate`` meet the SLO without a growing
        backlog?"""
        window = min(1.5, max(1.0, 600.0 / rate))
        samples, unsent, scheduled = self.drive(
            "ladder{}".format(attempt), rate, window, stop_after=window * 1.5
        )
        latencies = sorted([s.latency_ms for s in samples] + [math.inf] * unsent)
        p99 = percentile(latencies, 99) if unsent == 0 else math.inf
        last = max((s.done for s in samples), default=window)
        offered = len(scheduled) / window
        achieved = len(samples) / max(window, last)
        early, late = openloop.backlog_trend(samples, scheduled, window)
        passed = (
            p99 <= SLO_MS
            and achieved >= 0.95 * offered
            and late <= early + len(TENANTS)
            and all(s.ok for s in samples)
        )
        return {
            "rate": rate,
            "attempt": attempt,
            "window_s": window,
            "requests": len(scheduled),
            "p99_ms": p99,
            "offered_rps": offered,
            "achieved_rps": achieved,
            "backlog_early": early,
            "backlog_late": late,
            "passed": passed,
        }

    def rung_passes(self, index: int, probes: List[Dict[str, object]]) -> bool:
        """Probe a rung; a failure is confirmed by a second probe with a
        fresh schedule, so one stall does not end the search."""
        for attempt in range(2):
            result = self.probe(LADDER[index], attempt)
            probes.append(result)
            if result["passed"]:
                return True
        return False

    def ladder(self, budget_s: float) -> Dict[str, object]:
        """Bisection over the fixed rungs, starting from the rung at the
        fixed rate: ``max_rps_at_slo`` is the highest rung that passed."""
        lo = max(i for i, rate in enumerate(LADDER) if rate <= FIXED_RATE)
        hi = len(LADDER)
        probes: List[Dict[str, object]] = []
        if not self.rung_passes(lo, probes):
            lo, hi = -1, lo
        deadline = time.perf_counter() + budget_s
        while hi - lo > 1 and time.perf_counter() < deadline:
            mid = (lo + hi) // 2
            if self.rung_passes(mid, probes):
                lo = mid
            else:
                hi = mid
        # Below the first rung nothing passed: report half of it, so the
        # metric stays a rate (and stays far below any normal reading).
        best = LADDER[lo] if lo >= 0 else LADDER[0] / 2
        return {"max_rps_at_slo": best, "probes": probes, "resolved": hi - lo <= 1}

    # -- the run -------------------------------------------------------

    def run(self) -> Outcome:
        setup_times = self.setup()
        self.drive("warmup", FIXED_RATE, WARMUP_S, stop_after=WARMUP_S * 3)
        fixed_s = max(4.0, self.seconds * 0.5)
        gc.collect()
        gc.freeze()
        window = layers.open_window(self.recorder, [self.clients[TENANTS[0]]]) if self.traced else None
        cpu_before = self.server.cpu_s()
        samples, unsent, _scheduled = self.drive("fixed", FIXED_RATE, fixed_s, stop_after=fixed_s * 2)
        cpu_ms_per_op = (self.server.cpu_s() - cpu_before) * 1e3 / max(1, len(samples))
        closed = layers.close_window(window) if window else None
        # Stored bytes before the capacity and ladder phases, whose write
        # counts depend on how fast the server was.
        stats = self.clients[TENANTS[0]].stats()
        rows = sum(t.get("tuples", 0) for t in stats["tenants"])
        stored = harness.dir_bytes(self.data_dir)
        capacity = self.capacity()
        ladder = self.ladder(budget_s=max(3.0, self.seconds - fixed_s - WARMUP_S - CAPACITY_S))
        stats = self.clients[TENANTS[0]].stats()
        denials = sum(t["quotas"]["denials"] for t in stats["tenants"])
        self.prepare_recovery()
        recoveries = [self.crash_and_recover() for _ in range(RECOVERIES)]
        recover_s = harness.median([r[0] for r in recoveries])
        recovered_ok = all(r[1] for r in recoveries)
        boot = {key: harness.median([r[2][key] for r in recoveries]) for key in recoveries[0][2]}

        reads, writes = Timings("read"), Timings("write")
        for sample in samples:
            (reads if sample.kind == "read" else writes).add(sample.latency_ms)
        lateness = sorted(s.lateness * 1e3 for s in samples)
        late_p99 = percentile(lateness, 99)
        read_sum = reads.summary()
        write_sum = writes.summary()
        # The generator, not the server, fell behind when it left requests
        # unsent or its own delay is a sizeable share of what it measured.
        generator_behind = unsent > 0 or late_p99 > max(1.0, 0.5 * read_sum["p50_ms"])
        failed = self.failed
        rate_note = "at {:.0f} req/s offered".format(FIXED_RATE)
        named_metrics = [
            named("setup_s", harness.median(setup_times), "s", "median of {} set-ups".format(SETUP_REPEATS)),
            named("error_rate", failed / max(1, self.attempted), "failed+refused/attempted"),
            named("read_p50_ms", read_sum["p50_ms"], "ms", "{} reads {}".format(len(reads), rate_note)),
            named("read_p99_ms", read_sum["p99_ms"], "ms", reads.tail_note(99)),
            named("write_p50_ms", write_sum["p50_ms"], "ms", "{} writes {}".format(len(writes), rate_note)),
            named("write_p99_ms", write_sum["p99_ms"], "ms", writes.tail_note(99)),
            named("max_rps_at_slo", ladder["max_rps_at_slo"], "req/s", "p99 <= {:.0f} ms".format(SLO_MS)),
            named("capacity_rps", capacity["rps"], "req/s", "closed loop, both connections"),
            named("cpu_ms_per_op", cpu_ms_per_op, "ms", "server CPU per request at the fixed rate"),
            named(
                "recover_s",
                recover_s,
                "s",
                "median of {}: kill -9, restart, first answer on both tenants".format(RECOVERIES),
            ),
            named("stored_bytes_per_row", stored / max(1, rows), "bytes", "{} rows".format(rows)),
        ]
        outcome = Outcome(
            named=named_metrics,
            attempted=self.attempted,
            failed=failed,
            checks={"quota_denials_zero": denials == 0, "recovered_reads_true": recovered_ok},
            record={
                "tenants": list(TENANTS),
                "keys": KEYS,
                "zipf_s": ZIPF_S,
                "fixed_rate_rps": FIXED_RATE,
                "fixed_s": fixed_s,
                "unsent": unsent,
                "reads": read_sum,
                "writes": write_sum,
                "generator_lateness_p99_ms": late_p99,
                "generator_lateness_max_ms": lateness[-1] if lateness else 0.0,
                "generator_behind": generator_behind,
                "ladder": ladder,
                "capacity": capacity,
                "recover_times_s": [r[0] for r in recoveries],
                "setup_times_s": setup_times,
                "errors": self.errors,
            },
        )
        if self.traced:
            outcome.layers = layers.per_layer(
                closed,
                sum(s.service_ms for s in samples),
                {
                    "loadgen.lateness_p99_ms": late_p99,
                    "loadgen.lateness_max_ms": lateness[-1] if lateness else 0.0,
                    **boot,
                },
            )
        return outcome

    # -- recovery ------------------------------------------------------

    def prepare_recovery(self) -> None:
        """Give the crash tests a journal fixed by the seed: a graceful
        restart checkpoints every tenant, then exactly RECOVERY_WRITES
        autocommitted writes per tenant are journalled for replay."""
        self.close_clients()
        self.server.stop()
        self.server = self.cluster.start(["--data-dir", self.data_dir], self.traced, NAME)
        self.connect_and_probe()
        rng = self.rng("recovery")
        for tenant in TENANTS:
            self.clients[tenant].execute(
                "".join(
                    "ASSERT writes (k{});".format(rng.randrange(KEYS))
                    for _ in range(RECOVERY_WRITES)
                )
            )

    def crash_and_recover(self):
        self.close_clients()
        self.server.kill()
        started = time.perf_counter()
        self.server = self.cluster.start(["--data-dir", self.data_dir], self.traced, NAME)
        ok = True
        for tenant in TENANTS:
            client = HQLClient(port=self.server.port, db=tenant, reconnect=False, render=False)
            client.connect()
            self.clients[tenant] = client
            ok = ok and client.execute("TRUTH reads (k1);")[0].payload is True
        elapsed = time.perf_counter() - started
        boot = shims.boot_means(self.clients[TENANTS[0]]) if self.traced else {}
        return elapsed, ok, boot

    def close(self) -> None:
        self.close_clients()
        self.cluster.stop_all()


def run(seed: int, seconds: float, traced: bool = False, recorder=None) -> Outcome:
    job = _Run(seed, seconds, traced, recorder)
    try:
        return job.run()
    finally:
        job.close()

