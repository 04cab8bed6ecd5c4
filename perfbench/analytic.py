"""``analytic``: closed-loop operator queries over a 13k-tuple database.

One connection, no think time.  The inputs are ``cone_workload(1000,
12)`` (two unary relations, ``left`` and ``right``, ≈13k stored tuples
over a 13k-node hierarchy) and ``cone_join_workload(JOIN_CONES, 12)``
(``jleft``, ``jright``), written by the benchmark as a binary snapshot
the server boots from.

Each cycle sends one write, then one query:

* the write toggles an instance-level exception in one input of the
  query that follows (``ASSERT NOT r (x)`` / ``RETRACT r (x)``), so
  every query misses the query cache on purpose: a cache change should
  show no change here;
* the query comes from a fixed rotation: UNION, INTERSECT, DIFFERENCE,
  JOIN, SELECT ... WHERE, COUNT ... WHERE, and EXTENSION streamed
  through a cursor.

The operator sweep (hierarchy meet tables and masks, ``bulk``,
``algebra``) dominates.  Every answer is checked outside the timed
region: its extension must equal :mod:`repro.flat` applied to the
benchmark's own shadow copy of the inputs.  After the cycles the server
is killed with ``kill -9`` and restarted; the recovered relations must
equal the shadow copy too.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from perfbench import harness, layers, shims, spans
from perfbench.harness import Outcome, Timings, named
from repro.client import HQLClient
from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.engine.database import HierarchicalDatabase
from repro.engine.storage import save_database_binary
from repro.errors import ReproError
from repro.flat import FlatRelation, from_hrelation
from repro.flat import algebra as flat
from repro.workloads.generators import cone_join_workload, cone_workload

NAME = "analytic"
CONES = 1000
PER_CONE = 12
JOIN_CONES = 60
ROTATION = ("union", "intersect", "difference", "join", "select", "count", "extension")
#: Full rotations per second of ``--seconds`` (about one on a 2-CPU
#: host), and at least MIN_ROTATIONS: 15 rotations are 105 queries,
#: enough for ten beyond the p90.  The cycle count — and so the journal
#: replayed by recovery — is fixed by ``--seconds``.
ROTATIONS_PER_SECOND = 0.75
MIN_ROTATIONS = 15
SETUP_REPEATS = 3
RECOVERIES = 3
SERVER_FLAGS = {"argv": ["--data-dir", "DIR"], "flush_policy": "journal on, fsync off"}


class Shadow:
    """The benchmark's own copy of the four inputs, mutated in step with
    the server: the hierarchical relations and their flat extensions.

    A toggle flips one leaf under a positive class tuple, so its flat
    effect is exactly that leaf leaving or re-entering the extension;
    :meth:`consistent` re-derives every extension from the hierarchical
    copy to confirm the incremental ones."""

    def __init__(self, relations: Dict[str, HRelation]) -> None:
        self.relations = relations
        self.flats: Dict[str, FlatRelation] = {
            name: from_hrelation(relation) for name, relation in relations.items()
        }
        #: relation -> items currently carrying a toggled exception
        self.toggled: Dict[str, set] = {name: set() for name in relations}

    def toggle(self, name: str, item: Tuple[str, ...]) -> str:
        """Apply one toggle and return the HQL that does the same."""
        values = ", ".join(item)
        if item in self.toggled[name]:
            self.toggled[name].discard(item)
            self.relations[name].retract(item)
            self.flats[name].add(item)
            return "RETRACT {} ({});".format(name, values)
        self.toggled[name].add(item)
        self.relations[name].assert_item(item, truth=False)
        self.flats[name].discard(item)
        return "ASSERT NOT {} ({});".format(name, values)

    def consistent(self) -> bool:
        return all(
            from_hrelation(relation).rows() == self.flats[name].rows()
            for name, relation in self.relations.items()
        )


def toggle_target(rng: random.Random, name: str) -> Tuple[str, ...]:
    """An item whose negative exception is consistent in ``name``: a
    leaf under a positive class tuple of that relation, not otherwise
    asserted there (see ``cone_workload``/``cone_join_workload``)."""
    if name in ("left", "right"):
        # left owns the even cones, right the odd ones; odd instances
        # are absent from the owner.
        cone = 2 * rng.randrange(CONES // 2) + (0 if name == "left" else 1)
        return ("c{}i{}".format(cone, 2 * rng.randrange(PER_CONE // 2) + 1),)
    k = rng.randrange(JOIN_CONES // 2)
    a, b = 2 * k, 2 * k + 1
    j = rng.randrange(PER_CONE)
    if name == "jleft":
        # jleft holds (a_i, b_*) for even i only.
        return ("c{}i{}".format(a, 2 * rng.randrange(PER_CONE // 2) + 1), "c{}i{}".format(b, j))
    # jright holds (b_*, a_i) for odd i only.
    return ("c{}i{}".format(b, j), "c{}i{}".format(a, 2 * rng.randrange(PER_CONE // 2)))


def rows_of_relation(payload, schema) -> FlatRelation:
    """The extension of a relation the server returned (rebuilt over
    the shadow's hierarchies, then flattened)."""
    relation = HRelation(schema, name=payload["name"])
    for item, truth in payload["tuples"]:
        relation.assert_item(tuple(item), truth=bool(truth))
    return from_hrelation(relation)


class _Run:
    def __init__(self, seed: int, seconds: float, traced: bool, recorder: Optional[spans.Recorder]):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.recorder = recorder
        self.cluster = harness.Cluster()
        self.client: Optional[HQLClient] = None
        self.server: Optional[harness.ServerProcess] = None
        self.data_dir = ""
        self.rng = random.Random("{}:analytic".format(seed))
        self.mismatches: List[str] = []
        self.errors: List[str] = []

    # -- set-up --------------------------------------------------------

    def inputs(self) -> Dict[str, HRelation]:
        _hierarchy, left, right = cone_workload(CONES, PER_CONE, seed=self.seed)
        jleft, jright = cone_join_workload(JOIN_CONES, PER_CONE, seed=self.seed)
        return {"left": left, "right": right, "jleft": jleft, "jright": jright}

    def database(self, relations: Dict[str, HRelation]) -> HierarchicalDatabase:
        database = HierarchicalDatabase("analytic")
        for relation in relations.values():
            for hierarchy in relation.schema.hierarchies:
                if hierarchy.name not in database.hierarchies:
                    database.register_hierarchy(hierarchy)
            database.register_relation(relation.copy(relation.name))
        return database

    def setup(self) -> List[float]:
        relations = self.inputs()
        database = self.database(relations)
        self.shadow = Shadow(relations)
        times = []
        for rep in range(SETUP_REPEATS):
            if self.server is not None:
                self.client.close()
                self.server.kill()
            started = time.perf_counter()
            self.data_dir = harness.fresh_dir("{}-{}".format(NAME, rep))
            save_database_binary(
                database, self.data_dir + "/snapshot.bin", extra={"checkpoint": 0}
            )
            self.server = self.cluster.start(["--data-dir", self.data_dir], self.traced, NAME)
            self.connect()
            times.append(time.perf_counter() - started)
        return times

    def connect(self) -> None:
        self.client = HQLClient(port=self.server.port, reconnect=False, render=False)
        self.client.connect()
        if self.client.execute("TRUTH left (c0);")[0].payload is not True:
            raise harness.BenchError("analytic server did not boot with its inputs")

    # -- one cycle -----------------------------------------------------

    def query_for(self, kind: str) -> Tuple[str, Tuple[str, ...], dict]:
        """The HQL of one rotation entry, the inputs it reads, and what
        the checker needs to know about it."""
        cone = "c{}".format(self.rng.randrange(CONES))
        if kind == "union":
            return "UNION left WITH right;", ("left", "right"), {}
        if kind == "intersect":
            return "INTERSECT left WITH right;", ("left", "right"), {}
        if kind == "difference":
            return "DIFFERENCE left WITH right;", ("left", "right"), {}
        if kind == "join":
            return "JOIN jleft WITH jright;", ("jleft", "jright"), {}
        if kind == "select":
            return "SELECT FROM left WHERE value = {};".format(cone), ("left",), {"cone": cone}
        if kind == "count":
            return "COUNT right WHERE value = {};".format(cone), ("right",), {"cone": cone}
        return "EXTENSION left;", ("left",), {}

    def execute_query(self, kind: str, hql: str):
        if kind == "extension":
            return [tuple(row) for row in self.client.cursor(hql)]
        return self.client.execute(hql)[0]

    def expected(self, kind: str, info: dict) -> FlatRelation:
        f = self.shadow.flats
        if kind == "union":
            return flat.union(f["left"], f["right"])
        if kind == "intersect":
            return flat.intersection(f["left"], f["right"])
        if kind == "difference":
            return flat.difference(f["left"], f["right"])
        if kind == "join":
            return flat.join(f["jleft"], f["jright"])
        if kind in ("select", "count"):
            members = {"{}i{}".format(info["cone"], i) for i in range(PER_CONE)}
            source = f["left" if kind == "select" else "right"]
            return flat.select(source, lambda row: row["value"] in members)
        return f["left"]

    def check(self, kind: str, answer, info: dict) -> bool:
        expected = self.expected(kind, info)
        if kind == "count":
            ok = answer.kind == "count" and answer.payload == len(expected)
        elif kind == "extension":
            ok = set(answer) == expected.rows()
        else:
            ok = answer.kind == "relation" and self.relation_rows(answer.payload, expected)
        if not ok and len(self.mismatches) < 5:
            self.mismatches.append("{} answer differs from the flat oracle".format(kind))
        return ok

    def relation_rows(self, payload, expected: FlatRelation) -> bool:
        """Whether a returned relation's extension, with its columns in
        the oracle's order, equals the oracle's rows."""
        hierarchies = {
            h.name: h
            for relation in self.shadow.relations.values()
            for h in relation.schema.hierarchies
        }
        schema = RelationSchema(
            [(a, hierarchies[h]) for a, h in zip(payload["attributes"], payload["hierarchies"])]
        )
        got = rows_of_relation(payload, schema)
        order = [got.attributes.index(a) for a in expected.attributes]
        return {tuple(row[i] for i in order) for row in got.rows()} == expected.rows()

    # -- the run -------------------------------------------------------

    def run(self) -> Outcome:
        setup_times = self.setup()
        reads, writes = Timings("query"), Timings("write")
        per_kind: Dict[str, Timings] = {kind: Timings(kind) for kind in ROTATION}
        attempted = failed = 0
        timed_s = 0.0
        window = layers.open_window(self.recorder, [self.client]) if self.traced else None
        cpu_before = self.server.cpu_s()
        rotations = max(MIN_ROTATIONS, round(ROTATIONS_PER_SECOND * self.seconds))
        for cycle in range(rotations * len(ROTATION)):
            kind = ROTATION[cycle % len(ROTATION)]
            hql, inputs, info = self.query_for(kind)
            target = inputs[self.rng.randrange(len(inputs))]
            write = self.shadow.toggle(target, toggle_target(self.rng, target))
            attempted += 2
            try:
                t0 = time.perf_counter()
                result = self.client.execute(write)[0]
                t1 = time.perf_counter()
                answer = self.execute_query(kind, hql)
                t2 = time.perf_counter()
            except ReproError as exc:
                failed += 1
                if len(self.errors) < 5:
                    self.errors.append("{}: {}".format(type(exc).__name__, exc))
                # The server and the shadow may now disagree; stop here.
                break
            writes.add((t1 - t0) * 1e3)
            reads.add((t2 - t1) * 1e3)
            per_kind[kind].add((t2 - t1) * 1e3)
            timed_s += t2 - t0
            if result.kind != "ok":
                failed += 1
            if not self.check(kind, answer, info):
                failed += 1
        cpu_ms_per_op = (self.server.cpu_s() - cpu_before) * 1e3 / max(1, len(reads))
        closed = layers.close_window(window) if window else None
        stats = self.client.stats()
        rows = sum(t.get("tuples", 0) for t in stats["tenants"])
        stored = harness.dir_bytes(self.data_dir)
        recoveries = [self.crash_and_recover() for _ in range(RECOVERIES)]
        recover_s = harness.median([r[0] for r in recoveries])
        recovered_ok = self.recovered_state_matches()
        shadow_ok = self.shadow.consistent()
        boot = {key: harness.median([r[1][key] for r in recoveries]) for key in recoveries[0][1]}

        read_sum = reads.summary()
        write_sum = writes.summary()
        queries_per_s = len(reads) / timed_s if timed_s else 0.0
        cache = stats["tenants"][0]["cache"]
        named_metrics = [
            named("setup_s", harness.median(setup_times), "s", "median of {} set-ups".format(SETUP_REPEATS)),
            named("error_rate", failed / max(1, attempted), "failed+refused/attempted"),
            named("read_p50_ms", read_sum["p50_ms"], "ms", "{} queries".format(len(reads))),
            named("read_p90_ms", read_sum["p90_ms"], "ms", reads.tail_note(90)),
            named("write_p50_ms", write_sum["p50_ms"], "ms", "{} toggles".format(len(writes))),
            named("queries_per_s", queries_per_s, "query/s", "closed loop, write+query cycles"),
            named("cpu_ms_per_op", cpu_ms_per_op, "ms", "server CPU per query and its write"),
            named("recover_s", recover_s, "s", "median of {}: kill -9, restart, first answer".format(RECOVERIES)),
            named("stored_bytes_per_row", stored / max(1, rows), "bytes", "{} rows".format(rows)),
        ]
        outcome = Outcome(
            named=named_metrics,
            attempted=attempted,
            failed=failed,
            checks={"recovered_state_matches": recovered_ok, "shadow_consistent": shadow_ok},
            record={
                "cones": CONES,
                "per_cone": PER_CONE,
                "join_cones": JOIN_CONES,
                "cycles": len(writes),
                "recover_times_s": [r[0] for r in recoveries],
                "timed_s": timed_s,
                "queries": read_sum,
                "writes": write_sum,
                "per_query_p50_ms": {k: t.pct(50) for k, t in per_kind.items() if len(t)},
                "query_cache": cache,
                "setup_times_s": setup_times,
                "mismatches": self.mismatches,
                "errors": self.errors,
            },
        )
        if self.traced:
            outcome.layers = layers.per_layer(closed, timed_s * 1e3, boot)
        return outcome

    # -- recovery ------------------------------------------------------

    def crash_and_recover(self):
        self.client.close()
        self.server.kill()
        started = time.perf_counter()
        self.server = self.cluster.start(["--data-dir", self.data_dir], self.traced, NAME)
        self.connect()
        elapsed = time.perf_counter() - started
        return elapsed, shims.boot_means(self.client) if self.traced else {}

    def recovered_state_matches(self) -> bool:
        """The restarted server holds exactly the shadow's relations."""
        return all(
            {tuple(row) for row in self.client.cursor("EXTENSION {};".format(name))}
            == self.shadow.flats[name].rows()
            for name in ("left", "right", "jleft", "jright")
        )

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.cluster.stop_all()


def run(seed: int, seconds: float, traced: bool = False, recorder=None) -> Outcome:
    job = _Run(seed, seconds, traced, recorder)
    try:
        return job.run()
    finally:
        job.close()
