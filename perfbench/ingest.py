"""``ingest``: batched, replicated, fsynced writes with follower reads
beside them, then a crash.

A leader (``--data-dir DIR --fsync``, default checkpoints) and one
follower (``--replicate-from``).  The leader boots from a snapshot the
benchmark writes: the ``cone_workload`` hierarchy and two empty
relations.

* One **loader** connection to the leader runs closed loop and commits
  the rows of ``cone_workload(cones, 12)`` in cone order; ``cones``
  scales with the run length, so the row count and checkpoint sequence
  are fixed by the seed and ``--seconds``.  Three requests in four are
  multi-row ``BEGIN ... COMMIT`` batches sent with ``wait_sync=1``; the
  fourth is a single-row autocommitted ``ASSERT`` or ``RETRACT``.
* One **reader** connection sends Zipf point ``TRUTH`` reads to the
  follower on an open-loop schedule until the loader finishes.
* Then the follower must reach the leader's position and hold the same
  extensions; the leader is killed with ``kill -9`` and restarted, and
  must hold exactly the acknowledged rows.

This covers the write path: transactions, the commit-time conflict
scan, journal fsync, checkpoints, codec snapshots, replication ship
and apply, with reads beside it.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from perfbench import harness, layers, openloop, shims, spans
from perfbench.harness import Outcome, Timings, named
from repro.client import HQLClient
from repro.core.relation import HRelation
from repro.engine.database import HierarchicalDatabase
from repro.engine.storage import save_database_binary
from repro.errors import ReproError
from repro.workloads.generators import cone_workload
from repro.workloads.loadgen import build_schedule, percentile, zipf_cdf, zipf_sample

NAME = "ingest"
PER_CONE = 12
#: Loader work per second of ``--seconds``: cones of 13 rows each.
CONES_PER_SECOND = 14
#: Every SINGLE_EVERY-th loader request is a single-row autocommit.
SINGLE_EVERY = 4
RETRACT_SHARE = 0.4
BATCH_ROWS = (6, 18)
READ_RATE = 60.0
ZIPF_S = 1.1
SETUP_REPEATS = 3
RECOVERIES = 3
SERVER_FLAGS = {
    "leader": ["--data-dir", "DIR", "--fsync"],
    "follower": ["--replicate-from", "LEADER"],
    "flush_policy": "journal fsync on every commit; checkpoint every 500 statements",
}

Row = Tuple[str, Tuple[str, ...], bool]


def rows_of(cones: int, seed: int) -> Tuple[HRelation, List[Row]]:
    """The loader's rows, cone by cone (a cone's class tuple first), and
    an empty relation carrying the schema."""
    _hierarchy, left, right = cone_workload(cones, PER_CONE, seed=seed)
    by_cone: Dict[int, List[Row]] = {c: [] for c in range(cones)}
    for relation in (left, right):
        for item, truth in relation.asserted.items():
            # Items are "c<cone>" (the class) or "c<cone>i<instance>".
            cone = int(item[0][1:].split("i")[0])
            by_cone[cone].append((relation.name, item, truth))
    rows: List[Row] = []
    for c in range(cones):
        rows.extend(sorted(by_cone[c], key=lambda row: (row[0], "i" in row[1][0], row[1])))
    return left, rows


def statement(verb: str, row: Row) -> str:
    name, item, truth = row
    if verb == "RETRACT":
        return "RETRACT {} ({});".format(name, ", ".join(item))
    return "ASSERT {}{} ({});".format("" if truth else "NOT ", name, ", ".join(item))


class _Run:
    def __init__(self, seed: int, seconds: float, traced: bool, recorder: Optional[spans.Recorder]):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.recorder = recorder
        self.cluster = harness.Cluster()
        self.cones = max(4, int(round(CONES_PER_SECOND * seconds)))
        self.rng = random.Random("{}:ingest".format(seed))
        self.leader: Optional[harness.ServerProcess] = None
        self.follower: Optional[harness.ServerProcess] = None
        self.loader: Optional[HQLClient] = None
        self.reader: Optional[HQLClient] = None
        self.admin: Optional[HQLClient] = None
        self.errors: List[str] = []

    # -- set-up --------------------------------------------------------

    def setup(self) -> List[float]:
        template, self.rows = rows_of(self.cones, self.seed)
        database = HierarchicalDatabase("ingest")
        database.register_hierarchy(template.schema.hierarchies[0])
        for name in ("left", "right"):
            database.register_relation(HRelation(template.schema, name=name))
        times = []
        for rep in range(SETUP_REPEATS):
            self.close_clients()
            if self.follower is not None:
                self.follower.kill()
                self.leader.kill()
            started = time.perf_counter()
            self.data_dir = harness.fresh_dir("{}-{}".format(NAME, rep))
            save_database_binary(
                database, os.path.join(self.data_dir, "snapshot.bin"), extra={"checkpoint": 0}
            )
            self.leader = self.cluster.start(
                ["--data-dir", self.data_dir, "--fsync"], self.traced, "ingest leader"
            )
            self.follower = self.cluster.start(
                ["--replicate-from", self.leader.addr], self.traced, "ingest follower"
            )
            self.connect()
            times.append(time.perf_counter() - started)
        return times

    def connect(self) -> None:
        self.loader = HQLClient(port=self.leader.port, reconnect=False, render=False)
        self.admin = HQLClient(port=self.leader.port, reconnect=False, render=False)
        self.reader = HQLClient(port=self.follower.port, reconnect=False, render=False)
        for client in (self.loader, self.admin, self.reader):
            client.connect()
        for client in (self.loader, self.reader):
            if client.execute("COUNT left;")[0].payload != 0:
                raise harness.BenchError("ingest servers did not boot empty")

    def close_clients(self) -> None:
        for client in (self.loader, self.reader, self.admin):
            if client is not None:
                client.close()

    # -- load ----------------------------------------------------------

    def requests(self) -> List[Tuple[str, List[Row], str]]:
        """The loader's whole request plan, fixed by the seed: (kind,
        rows, hql).  Every fourth request is a single-row autocommit —
        an ASSERT, or a RETRACT of a row already committed — and the
        rest are batches; a fixed share keeps the work per row the same
        in every run."""
        plan = []
        committed: List[Row] = []
        position = 0
        while position < len(self.rows):
            if len(plan) % SINGLE_EVERY == SINGLE_EVERY - 1:
                if committed and self.rng.random() < RETRACT_SHARE:
                    row = committed.pop(self.rng.randrange(len(committed)))
                    plan.append(("retract", [row], statement("RETRACT", row)))
                    continue
                row = self.rows[position]
                position += 1
                committed.append(row)
                plan.append(("single", [row], statement("ASSERT", row)))
                continue
            size = self.rng.randint(*BATCH_ROWS)
            batch = self.rows[position : position + size]
            position += len(batch)
            committed.extend(batch)
            body = " ".join(statement("ASSERT", row) for row in batch)
            plan.append(("batch", batch, "BEGIN; {} COMMIT;".format(body)))
        return plan

    def reader_ops(self, seconds: float) -> List[openloop.Op]:
        cdf = zipf_cdf(self.cones * PER_CONE, ZIPF_S)
        rng = random.Random("{}:ingest-reads".format(self.seed))
        ops = []
        for offset in build_schedule(READ_RATE, seconds, rng):
            rank = zipf_sample(cdf, rng)
            key = "c{}i{}".format(rank // PER_CONE, rank % PER_CONE)
            ops.append(openloop.Op(offset, "read", "TRUTH left ({});".format(key)))
        return ops

    def load(self):
        plan = self.requests()
        acked: Dict[Tuple[str, Tuple[str, ...]], bool] = {}
        writes = Timings("write")
        stop = threading.Event()
        reads: Dict[str, object] = {}

        def read_check(op, results) -> bool:
            return len(results) == 1 and results[0].kind == "truth"

        def reader() -> None:
            reads["samples"], _unsent = openloop.drive(
                [(self.reader, self.reader_ops(self.seconds * 4 + 60))],
                read_check,
                stop_after=self.seconds * 4 + 60,
                stop=stop,
            )

        lag = {"max": 0}

        def sample_lag() -> None:
            while not stop.wait(0.25):
                rows = self.admin.replication().get("followers", [])
                lag["max"] = max([lag["max"]] + [r.get("lag_entries", 0) for r in rows])

        threads = [threading.Thread(target=reader, daemon=True)]
        if self.traced:
            threads.append(threading.Thread(target=sample_lag, daemon=True))
        failed = 0
        committed_rows = 0
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        try:
            for kind, rows, hql in plan:
                t0 = time.perf_counter()
                try:
                    self.loader.execute(hql, wait_sync=1 if kind == "batch" else 0)
                except ReproError as exc:
                    failed += 1
                    if len(self.errors) < 5:
                        self.errors.append("{}: {}".format(type(exc).__name__, exc))
                    break
                writes.add((time.perf_counter() - t0) * 1e3)
                for name, item, truth in rows:
                    if kind == "retract":
                        acked.pop((name, item), None)
                    else:
                        acked[(name, item)] = truth
                committed_rows += len(rows)
        finally:
            elapsed = time.perf_counter() - started
            stop.set()
            for thread in threads:
                thread.join(60)
        return {
            "plan": plan,
            "acked": acked,
            "writes": writes,
            "failed": failed,
            "elapsed": elapsed,
            "committed_rows": committed_rows,
            "read_samples": reads.get("samples", []),
            "lag_max": lag["max"],
        }

    # -- checks ----------------------------------------------------------

    def extension(self, client: HQLClient, name: str) -> Set[Tuple[str, ...]]:
        return {tuple(row) for row in client.cursor("EXTENSION {};".format(name))}

    def stored(self, client: HQLClient) -> Dict[Tuple[str, Tuple[str, ...]], bool]:
        held = {}
        for name in ("left", "right"):
            payload = client.execute("SELECT FROM {};".format(name))[0].payload
            for item, truth in payload["tuples"]:
                held[(name, tuple(item))] = bool(truth)
        return held

    def follower_caught_up(self) -> bool:
        rows = self.admin.replication().get("followers", [])
        return bool(rows) and all(r.get("lag_entries", 1) == 0 for r in rows)

    # -- the run -------------------------------------------------------

    def run(self) -> Outcome:
        setup_times = self.setup()
        window = layers.open_window(self.recorder, [self.admin, self.reader]) if self.traced else None
        # Leader CPU only: the follower also serves the reader, whose
        # request count grows with the load's duration, not its rows.
        cpu_before = self.leader.cpu_s()
        load = self.load()
        cpu_s = self.leader.cpu_s() - cpu_before
        closed = layers.close_window(window) if window else None
        caught_up = harness.wait_until(self.follower_caught_up, 30.0, 0.05)
        replicas_match = caught_up and all(
            self.extension(self.loader, name) == self.extension(self.reader, name)
            for name in ("left", "right")
        )
        rows = len(load["acked"])
        stored_bytes = harness.dir_bytes(self.data_dir)
        recoveries = [self.crash_and_recover() for _ in range(RECOVERIES)]
        recover_s = harness.median([r[0] for r in recoveries])
        boot = {key: harness.median([r[1][key] for r in recoveries]) for key in recoveries[0][1]}
        durable = self.stored(self.loader) == load["acked"]

        samples = load["read_samples"]
        reads = Timings("read")
        read_failed = 0
        for sample in samples:
            reads.add(sample.latency_ms)
            if not sample.ok:
                read_failed += 1
                if len(self.errors) < 5:
                    self.errors.append(sample.error or "bad read answer")
        lateness = sorted(s.lateness * 1e3 for s in samples)
        writes = load["writes"]
        read_sum = reads.summary()
        write_sum = writes.summary()
        rows_per_s = load["committed_rows"] / load["elapsed"] if load["elapsed"] else 0.0
        cpu_ms_per_op = cpu_s * 1e3 / max(1, load["committed_rows"])
        attempted = len(writes) + load["failed"] + len(samples)
        failed = load["failed"] + read_failed
        kinds = {kind: sum(1 for k, _r, _h in load["plan"] if k == kind) for kind in ("batch", "single", "retract")}
        named_metrics = [
            named("setup_s", harness.median(setup_times), "s", "median of {} set-ups".format(SETUP_REPEATS)),
            named("error_rate", failed / max(1, attempted), "failed+refused/attempted"),
            named("read_p50_ms", read_sum["p50_ms"], "ms", "{} follower reads".format(len(reads))),
            named("read_p99_ms", read_sum["p99_ms"], "ms", reads.tail_note(99)),
            named("write_p50_ms", write_sum["p50_ms"], "ms", "{} commit acks".format(len(writes))),
            named("write_p99_ms", write_sum["p99_ms"], "ms", writes.tail_note(99)),
            named("rows_per_s", rows_per_s, "committed rows/s", "{} rows".format(load["committed_rows"])),
            named("cpu_ms_per_op", cpu_ms_per_op, "ms", "leader CPU per committed row"),
            named(
                "recover_s",
                recover_s,
                "s",
                "median of {}: kill -9 leader, restart, first answer".format(RECOVERIES),
            ),
            named("stored_bytes_per_row", stored_bytes / max(1, rows), "bytes", "{} live rows".format(rows)),
        ]
        outcome = Outcome(
            named=named_metrics,
            attempted=attempted,
            failed=failed,
            checks={
                "follower_caught_up": caught_up,
                "follower_extension_equals_leader": replicas_match,
                "leader_holds_exactly_acked_rows": durable,
            },
            record={
                "cones": self.cones,
                "requests": kinds,
                "committed_rows": load["committed_rows"],
                "live_rows": rows,
                "load_s": load["elapsed"],
                "reads": read_sum,
                "writes": write_sum,
                "read_rate_rps": READ_RATE,
                "generator_lateness_p99_ms": percentile(lateness, 99),
                "generator_lateness_max_ms": lateness[-1] if lateness else 0.0,
                "setup_times_s": setup_times,
                "recover_times_s": [r[0] for r in recoveries],
                "errors": self.errors,
            },
        )
        if self.traced:
            outcome.layers = layers.per_layer(
                closed,
                sum(s.service_ms for s in samples) + sum(writes.values),
                {
                    "loadgen.lateness_p99_ms": percentile(lateness, 99),
                    "loadgen.lateness_max_ms": lateness[-1] if lateness else 0.0,
                    "replication.lag_entries": load["lag_max"],
                    **boot,
                },
            )
        return outcome

    # -- recovery ------------------------------------------------------

    def crash_and_recover(self):
        self.loader.close()
        self.admin.close()
        self.leader.kill()
        started = time.perf_counter()
        self.leader = self.cluster.start(
            ["--data-dir", self.data_dir, "--fsync"], self.traced, "ingest leader"
        )
        self.loader = HQLClient(port=self.leader.port, reconnect=False, render=False)
        self.loader.connect()
        self.loader.execute("COUNT left;")
        elapsed = time.perf_counter() - started
        self.admin = HQLClient(port=self.leader.port, reconnect=False, render=False)
        return elapsed, shims.boot_means(self.loader) if self.traced else {}

    def close(self) -> None:
        self.close_clients()
        self.cluster.stop_all()


def run(seed: int, seconds: float, traced: bool = False, recorder=None) -> Outcome:
    job = _Run(seed, seconds, traced, recorder)
    try:
        return job.run()
    finally:
        job.close()
