#!/usr/bin/env python3
"""P12: the binary columnar format must beat JSON where it claims to.

Run:  PYTHONPATH=src python -m benchmarks.bench_wire
Writes BENCH_wire.json at the repository root.

Three claims from docs/SERVER.md and docs/ARCHITECTURE.md:

* **snapshot** — a binary ``snapshot.bin`` restores a *query-ready*
  database (loaded, and the relation's bulk evaluator built — neither
  format stores evaluator state) >= 3x faster than the JSON snapshot
  at 50k stored tuples;
* **transfer** — shipping a large SELECT result over the wire in
  columnar blocks (``render=False``) is >= 2x faster than the JSON
  frames at 50k tuples;
* **streaming** — a cursor delivers its first page long before the
  full transfer finishes, and the client's peak memory stays around
  the page size instead of the result size.

Rows follow the repo convention: ``before_ms`` is the JSON path,
``after_ms`` the binary (or paged) path, ``speedup`` the ratio.  Each
measurement is the best of ``REPS`` runs, and every snapshot rep
asserts bit-identity — items, signs, the truth of every stored item and
hierarchy node, and the extension — so a fast-but-wrong codec can never
post a number.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

SNAPSHOT_SIZES = (10_000, 50_000, 100_000)
WIRE_SIZES = (10_000, 50_000)
CURSOR_PAGE = 500
REPS = 5


def build_database(tuples: int):
    """A two-attribute relation with ``tuples`` stored rows over two
    340-instance hierarchies (~1/7 of the rows negative)."""
    from repro.engine import HierarchicalDatabase
    from repro.hierarchy.graph import Hierarchy

    side = 340
    database = HierarchicalDatabase("bench")
    for hname in ("ha", "hb"):
        nodes = [
            ("c%d" % (i // 50), ("root",), False) for i in range(0, side, 50)
        ] + [
            ("%s_i%04d" % (hname, i), ("c%d" % (i // 50),), True)
            for i in range(side)
        ]
        database.register_hierarchy(Hierarchy.from_node_table(hname, "root", nodes))
    relation = database.create_relation("r", [("a", "ha"), ("b", "hb")])
    pairs = []
    i = 0
    for x in range(side):
        for y in range(side):
            if i >= tuples:
                break
            pairs.append((("ha_i%04d" % x, "hb_i%04d" % y), i % 7 != 0))
            i += 1
        if i >= tuples:
            break
    if len(pairs) < tuples:
        raise RuntimeError("grid too small for {} tuples".format(tuples))
    relation.load_tuples(pairs)
    return database


def answers(relation):
    """The truth of every stored item and of every hierarchy node (on
    each attribute, the other at its root), and the extension."""
    from repro.core.bulk import evaluator_for

    evaluator = evaluator_for(relation)
    top = relation.schema.product.top
    probes = list(relation.asserted)
    for position, hierarchy in enumerate(relation.schema.hierarchies):
        for node in hierarchy.nodes():
            probes.append(top[:position] + (node,) + top[position + 1:])
    return [evaluator.truth(item) for item in probes], list(relation.extension())


def assert_bit_identical(original, recovered) -> None:
    left = original.relation("r")
    right = recovered.relation("r")
    assert right.asserted == left.asserted, "items or signs differ"
    assert right.version == left.version, "version differs"
    assert answers(right) == answers(left), "answers differ"


def bench_snapshots(rows: List[Dict]) -> None:
    from repro.core.bulk import evaluator_for
    from repro.engine import storage

    for tuples in SNAPSHOT_SIZES:
        database = build_database(tuples)
        with tempfile.TemporaryDirectory() as tmp:
            json_path = os.path.join(tmp, "snapshot.json")
            bin_path = os.path.join(tmp, "snapshot.bin")

            save_json = save_bin = load_json = load_bin = float("inf")
            for _ in range(REPS):
                start = time.perf_counter()
                storage.save_database(database, json_path)
                save_json = min(save_json, time.perf_counter() - start)

                start = time.perf_counter()
                storage.save_database_binary(database, bin_path)
                save_bin = min(save_bin, time.perf_counter() - start)

                # "Load" means load-to-query-ready: both paths sweep the
                # relation into posting masks before answering anything.
                start = time.perf_counter()
                from_json = storage.load_database(json_path)
                evaluator_for(from_json.relation("r"))
                load_json = min(load_json, time.perf_counter() - start)

                start = time.perf_counter()
                from_bin, _ = storage.read_binary_snapshot(bin_path)
                evaluator_for(from_bin.relation("r"))
                load_bin = min(load_bin, time.perf_counter() - start)

                assert_bit_identical(database, from_json)
                assert_bit_identical(database, from_bin)

            for op, before, after in (
                ("snapshot_save_{}k", save_json, save_bin),
                ("snapshot_load_{}k", load_json, load_bin),
            ):
                rows.append(
                    {
                        "op": op.format(tuples // 1000),
                        "tuples": tuples,
                        "before_ms": round(before * 1e3, 2),
                        "after_ms": round(after * 1e3, 2),
                        "speedup": round(before / after, 2),
                        "json_bytes": os.path.getsize(json_path),
                        "binary_bytes": os.path.getsize(bin_path),
                    }
                )
                print(
                    "{:22s} {:8.1f} -> {:8.1f} ms  ({:.2f}x)".format(
                        rows[-1]["op"],
                        rows[-1]["before_ms"],
                        rows[-1]["after_ms"],
                        rows[-1]["speedup"],
                    ),
                    flush=True,
                )


def bench_wire(rows: List[Dict], metrics: Dict) -> None:
    from repro.client import HQLClient
    from repro.server import HQLServer, ServerThread

    for tuples in WIRE_SIZES:
        database = build_database(tuples)
        runner = ServerThread(HQLServer(database, port=0))
        _, port = runner.start()
        try:
            with HQLClient(port=port, wire_format="json") as as_json:
                with HQLClient(port=port, wire_format="binary") as as_bin:
                    query = "SELECT * FROM r;"
                    as_json.execute(query, render=False)  # warm the query cache

                    # One equality check up front; the timed phases below
                    # run each mode alone so neither pays the other's
                    # garbage.
                    full_json = as_json.execute(query, render=False)[-1]
                    full_bin = as_bin.execute(query, render=False)[-1]
                    assert full_json.payload == full_bin.payload, (
                        "binary transfer decoded differently"
                    )
                    del full_json, full_bin

                    t_json = t_bin = t_first = t_full_page = float("inf")
                    for _ in range(REPS):
                        gc.collect()
                        start = time.perf_counter()
                        as_json.execute(query, render=False)
                        t_json = min(t_json, time.perf_counter() - start)
                    for _ in range(REPS):
                        gc.collect()
                        start = time.perf_counter()
                        as_bin.execute(query, render=False)
                        t_bin = min(t_bin, time.perf_counter() - start)
                    for _ in range(REPS):
                        gc.collect()
                        # Time-to-first-row, then the full paged drain.
                        start = time.perf_counter()
                        first = as_bin.execute(query, page_size=CURSOR_PAGE)[-1]
                        t_first = min(t_first, time.perf_counter() - start)
                        streamed = len(first.payload["tuples"])
                        cursor_id = first.cursor["id"]
                        while True:
                            reply = as_bin.fetch(cursor_id)
                            streamed += len(reply["rows"])
                            if reply["done"]:
                                break
                        t_full_page = min(
                            t_full_page, time.perf_counter() - start
                        )
                        assert streamed == tuples, (streamed, tuples)

                    rows.append(
                        {
                            "op": "wire_transfer_{}k".format(tuples // 1000),
                            "tuples": tuples,
                            "before_ms": round(t_json * 1e3, 2),
                            "after_ms": round(t_bin * 1e3, 2),
                            "speedup": round(t_json / t_bin, 2),
                        }
                    )
                    print(
                        "{:22s} {:8.1f} -> {:8.1f} ms  ({:.2f}x)".format(
                            rows[-1]["op"],
                            rows[-1]["before_ms"],
                            rows[-1]["after_ms"],
                            rows[-1]["speedup"],
                        ),
                        flush=True,
                    )
                    if tuples == max(WIRE_SIZES):
                        rows.append(
                            {
                                "op": "cursor_first_page_{}k".format(tuples // 1000),
                                "tuples": tuples,
                                "page": CURSOR_PAGE,
                                "before_ms": round(t_bin * 1e3, 2),
                                "after_ms": round(t_first * 1e3, 2),
                                "speedup": round(t_bin / t_first, 2),
                            }
                        )
                        metrics["cursor_drain_ms"] = round(t_full_page * 1e3, 2)
                        print(
                            "{:22s} {:8.1f} -> {:8.1f} ms  ({:.2f}x)".format(
                                rows[-1]["op"],
                                rows[-1]["before_ms"],
                                rows[-1]["after_ms"],
                                rows[-1]["speedup"],
                            ),
                            flush=True,
                        )
        finally:
            runner.shutdown()


def _memory_probe(port: int, tuples: int, mode: str, queue) -> None:
    """Subprocess body: consume the result one way, report the peak.
    Runs in its own process so the in-process server's materialised
    cursor rows never pollute the client-side measurement."""
    from repro.client import HQLClient

    with HQLClient(port=port) as client:
        query = "SELECT * FROM r;"
        client.execute("SELECT * FROM r LIMIT 1;", render=False)  # warm connect
        tracemalloc.start()
        if mode == "buffered":
            result = client.execute(query, render=False)[-1]
            count = len(result.payload["tuples"])
        else:
            count = 0
            for _ in client.cursor(query, page_size=CURSOR_PAGE):
                count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    queue.put((mode, count, peak))


def bench_client_memory(metrics: Dict) -> None:
    """Peak client-side bytes while consuming the same result fully
    buffered vs through the lazy cursor, at both wire sizes.  Clients
    are separate processes; the peaks measure only their allocations."""
    import multiprocessing as mp

    from repro.server import HQLServer, ServerThread

    ctx = mp.get_context("spawn")
    for tuples in WIRE_SIZES:
        database = build_database(tuples)
        runner = ServerThread(HQLServer(database, port=0))
        _, port = runner.start()
        try:
            peaks = {}
            for mode in ("buffered", "cursor"):
                queue = ctx.Queue()
                proc = ctx.Process(
                    target=_memory_probe, args=(port, tuples, mode, queue)
                )
                proc.start()
                got_mode, count, peak = queue.get(timeout=120)
                proc.join()
                assert got_mode == mode and count == tuples, (mode, count)
                peaks[mode] = peak

            key = "{}k".format(tuples // 1000)
            metrics["client_peak_full_" + key] = peaks["buffered"]
            metrics["client_peak_cursor_" + key] = peaks["cursor"]
            print(
                "client peak @{:>5s}: buffered {:10,d} B, cursor {:10,d} B".format(
                    key, peaks["buffered"], peaks["cursor"]
                ),
                flush=True,
            )
        finally:
            runner.shutdown()


def main() -> None:
    rows: List[Dict] = []
    metrics: Dict = {}
    bench_snapshots(rows)
    bench_wire(rows, metrics)
    bench_client_memory(metrics)

    payload = {
        "bench": "wire",
        "page_size": CURSOR_PAGE,
        "reps": REPS,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
        "metrics": metrics,
    }
    out = REPO_ROOT / "BENCH_wire.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print("wrote {}".format(out))


if __name__ == "__main__":
    main()
