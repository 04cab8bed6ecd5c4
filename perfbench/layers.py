"""Per-layer metrics of the traced run, and the end-to-end metric each
one should move.

Span-based metrics come from :mod:`perfbench.shims` (client and server
recorders, differenced over the measured window).  Counters come from
the server's own public ``metrics`` admin verb, differenced the same
way.  A ``*_ms`` metric is the mean time per call; counts are totals
over the measured window.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench import shims, spans

#: (name, unit, better, moves) — ``moves`` names the end-to-end
#: metric(s) and workload(s) the layer metric should move.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    # client
    ("client.send_ms", "ms", "lower", "read_p50_ms on point_mix"),
    ("client.recv_ms", "ms", "lower", "read_p50_ms on point_mix; cursor pages on analytic"),
    ("client.decode_ms", "ms", "lower", "read_p50_ms on point_mix; cursor pages on analytic"),
    ("client.bytes_out", "bytes/request", "lower", "read_p50_ms on point_mix"),
    ("client.bytes_in", "bytes/request", "lower", "read_p50_ms on point_mix; analytic"),
    ("client.requests", "count", "higher", "(window size)"),
    # server.protocol
    ("protocol.read_frame_ms", "ms", "lower", "read_p50_ms on point_mix"),
    ("protocol.decode_ms", "ms", "lower", "read_p50_ms on point_mix"),
    ("protocol.serialize_ms", "ms", "lower", "read_p50_ms on point_mix"),
    ("protocol.encode_ms", "ms", "lower", "read_p50_ms on point_mix"),
    # server dispatch
    ("server.request_ms", "ms", "lower", "read_p50/p99, max_rps_at_slo on point_mix"),
    ("server.dispatch_self_ms", "ms", "lower", "read_p50/p99, max_rps_at_slo on point_mix"),
    ("server.requests", "count", "higher", "(window size)"),
    # server.locking
    ("lock.read_wait_ms", "ms", "lower", "read_p99_ms on point_mix"),
    ("lock.write_wait_ms", "ms", "lower", "write_p99_ms on point_mix"),
    ("lock.read_acquisitions", "count", "higher", "(window size)"),
    ("lock.write_acquisitions", "count", "higher", "(window size)"),
    # tenants
    ("tenants.quota_check_ms", "ms", "lower", "point_mix"),
    ("tenant.quota.denials", "count", "lower", "must stay 0 on point_mix"),
    # engine.hql
    ("hql.parse_ms", "ms", "lower", "read_p50_ms on point_mix"),
    ("hql.execute_self_ms", "ms", "lower", "read_p50_ms on point_mix"),
    ("hql.statements", "count", "higher", "(window size)"),
    # engine.querycache
    ("querycache.hit_rate", "ratio", "higher", "read_p50_ms on point_mix; ~0 on analytic"),
    ("querycache.evictions", "count", "lower", "read_p50_ms on point_mix"),
    ("querycache.invalidations", "count", "lower", "read_p50_ms on point_mix"),
    # planner
    ("planner.ms", "ms", "lower", "queries_per_s on analytic"),
    ("planner.calls", "count", "lower", "queries_per_s on analytic"),
    ("planner.parallel.grants", "count", "higher", "queries_per_s on analytic"),
    ("planner.parallel.declines", "count", "lower", "queries_per_s on analytic"),
    # core
    ("algebra.combine_ms", "ms", "lower", "queries_per_s, read_p50_ms on analytic"),
    ("algebra.join_ms", "ms", "lower", "queries_per_s, read_p50_ms on analytic"),
    ("algebra.select_ms", "ms", "lower", "queries_per_s, read_p50_ms on analytic"),
    ("bulk.evaluator_ms", "ms", "lower", "queries_per_s on analytic"),
    ("bulk.evaluator.reuse_ratio", "ratio", "higher", "queries_per_s on analytic"),
    ("conflicts.scan_ms", "ms", "lower", "write_p50_ms, rows_per_s on ingest"),
    ("conflicts.scans", "count", "lower", "write_p50_ms, rows_per_s on ingest"),
    # hierarchy
    ("hierarchy.downward_union_ms", "ms", "lower", "queries_per_s on analytic; write_p50_ms on ingest"),
    ("hierarchy.meet_ms", "ms", "lower", "queries_per_s on analytic"),
    ("hierarchy.overlap_union_ms", "ms", "lower", "queries_per_s on analytic"),
    ("hierarchy.calls", "count", "lower", "queries_per_s on analytic; write_p50_ms on ingest"),
    # parallel
    ("parallel.ops", "count", "higher", "0 at default settings; shows a default change"),
    ("parallel.fallbacks", "count", "lower", "0 at default settings; shows a default change"),
    # engine.transactions
    ("txn.commit_ms", "ms", "lower", "write_p50_ms on ingest"),
    ("txn.commits", "count", "higher", "write_p50_ms on ingest"),
    ("txn.rebases", "count", "lower", "write_p50_ms on ingest"),
    # engine.oplog
    ("oplog.append_ms", "ms", "lower", "write_p50_ms on ingest and point_mix"),
    ("oplog.appends", "count", "higher", "write_p50_ms on ingest and point_mix"),
    ("oplog.bytes", "bytes", "lower", "stored_bytes_per_row on ingest"),
    # server.recovery
    ("recovery.checkpoint_ms", "ms", "lower", "write_p99_ms (stalls) on ingest"),
    ("recovery.checkpoints", "count", "lower", "write_p99_ms (stalls) on ingest"),
    ("recovery.recover_ms", "ms", "lower", "recover_s on ingest"),
    # engine.codec
    ("codec.encode_snapshot_ms", "ms", "lower", "stored_bytes_per_row, recover_s on ingest"),
    ("codec.decode_snapshot_ms", "ms", "lower", "recover_s on ingest; setup_s on analytic"),
    ("codec.snapshot_bytes", "bytes", "lower", "stored_bytes_per_row on ingest"),
    # replication
    ("replication.wait_sync_ms", "ms", "lower", "write_p50_ms, write_p99_ms on ingest"),
    ("replication.ship.entries", "count", "higher", "write_p50_ms on ingest"),
    ("replication.apply_ms", "ms", "lower", "read_p99_ms on ingest"),
    ("replication.lag_entries", "count", "lower", "read_p99_ms on ingest"),
    # load generator and tracing
    ("loadgen.lateness_p99_ms", "ms", "lower", "(validity: the generator kept up)"),
    ("loadgen.lateness_max_ms", "ms", "lower", "(validity: the generator kept up)"),
    ("obs.overhead_pct", "%", "lower", "(traced read_p50_ms vs untraced)"),
    ("obs.unexplained_ms", "ms", "lower", "(client-observed minus client and server spans)"),
    ("obs.unexplained_share", "ratio", "lower", "(share of client-observed latency)"),
]

PER_LAYER_NAMES = [name for name, _unit, _better, _moves in PER_LAYER]
UNITS = {name: unit for name, unit, _better, _moves in PER_LAYER}

#: metric -> (span name(s), statistic); statistic is "mean" (total time
#: per call), "self" (self time per call) or "calls".
_SPAN_METRICS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "client.send_ms": (("client.send",), "mean"),
    "client.recv_ms": (("client.recv",), "mean"),
    "client.decode_ms": (("client.decode",), "mean"),
    "client.requests": (("client.send",), "calls"),
    "protocol.read_frame_ms": (("protocol.read_frame",), "mean"),
    "protocol.decode_ms": (("protocol.decode",), "mean"),
    "protocol.serialize_ms": (("protocol.serialize",), "mean"),
    "protocol.encode_ms": (("protocol.encode",), "mean"),
    "server.request_ms": (("server.request",), "mean"),
    "server.dispatch_self_ms": (("server.request",), "self"),
    "server.requests": (("server.request",), "calls"),
    "lock.read_wait_ms": (("lock.read_wait",), "mean"),
    "lock.write_wait_ms": (("lock.write_wait",), "mean"),
    "lock.read_acquisitions": (("lock.read_wait",), "calls"),
    "lock.write_acquisitions": (("lock.write_wait",), "calls"),
    "tenants.quota_check_ms": (("tenants.quota_check",), "mean"),
    "hql.parse_ms": (("hql.parse",), "mean"),
    "hql.execute_self_ms": (("hql.execute",), "self"),
    "hql.statements": (("hql.execute",), "calls"),
    "planner.ms": (("planner",), "mean"),
    "planner.calls": (("planner",), "calls"),
    "algebra.combine_ms": (("algebra.combine",), "mean"),
    "algebra.join_ms": (("algebra.join",), "mean"),
    "algebra.select_ms": (("algebra.select", "algebra.select_where"), "mean"),
    "bulk.evaluator_ms": (("bulk.evaluator",), "mean"),
    "conflicts.scan_ms": (("conflicts.scan",), "mean"),
    "conflicts.scans": (("conflicts.scan",), "calls"),
    "hierarchy.downward_union_ms": (("hierarchy.downward_union",), "mean"),
    "hierarchy.meet_ms": (("hierarchy.meet",), "mean"),
    "hierarchy.overlap_union_ms": (("hierarchy.overlap_union",), "mean"),
    "hierarchy.calls": (
        ("hierarchy.downward_union", "hierarchy.meet", "hierarchy.overlap_union"),
        "calls",
    ),
    "txn.commit_ms": (("txn.commit",), "mean"),
    "oplog.append_ms": (("oplog.append",), "mean"),
    "oplog.appends": (("oplog.append",), "calls"),
    "recovery.checkpoint_ms": (("recovery.checkpoint",), "mean"),
    "recovery.checkpoints": (("recovery.checkpoint",), "calls"),
    "codec.encode_snapshot_ms": (("codec.encode_snapshot",), "mean"),
    "codec.decode_snapshot_ms": (("codec.decode_snapshot",), "mean"),
    "replication.wait_sync_ms": (("replication.wait_sync",), "mean"),
    "replication.apply_ms": (("replication.apply",), "mean"),
}

#: Counters read from the ``metrics`` admin verb, summed over every
#: registry (default tenant, named tenants, process core) by suffix.
COUNTER_SUFFIXES = {
    "querycache.hits": "_querycache_hits",
    "querycache.misses": "_querycache_misses",
    "querycache.evictions": "_querycache_evictions",
    "querycache.invalidations": "_querycache_invalidations",
    "txn.commits": "_txn_commits",
    "txn.rebases": "_txn_rebases",
    "tenant.quota.denials": "_tenant_quota_denials",
    "planner.parallel.grants": "_planner_parallel_grants",
    "planner.parallel.declines": "_planner_parallel_declines",
    "bulk.evaluator.builds": "_bulk_evaluator_builds",
    "bulk.evaluator.reuses": "_bulk_evaluator_reuses",
    "parallel.ops": "_parallel_ops",
    "parallel.fallbacks": "_parallel_fallbacks",
    "replication.ship.entries": "_replication_ship_entries",
}


def parse_counters(text: str) -> Dict[str, float]:
    """Sum the :data:`COUNTER_SUFFIXES` series of a Prometheus text
    exposition (histogram buckets and comments are skipped)."""
    values: Dict[str, float] = {key: 0.0 for key in COUNTER_SUFFIXES}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        series, _, raw = line.partition(" ")
        for key, suffix in COUNTER_SUFFIXES.items():
            if series.endswith(suffix):
                values[key] += float(raw)
    return values


def counters_of(clients: Iterable[Any]) -> Dict[str, float]:
    """Counters summed over the servers behind ``clients``."""
    total: Dict[str, float] = {key: 0.0 for key in COUNTER_SUFFIXES}
    for client in clients:
        for key, value in parse_counters(client.metrics_text()).items():
            total[key] += value
    return total


def merge(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum span diffs from several processes into one."""
    merged: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for name, s in snap.get("spans", {}).items():
            into = merged.setdefault(
                name,
                {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "max_ms": 0.0, "failures": 0},
            )
            into["calls"] += s["calls"]
            into["total_ms"] += s["total_ms"]
            into["self_ms"] += s["self_ms"]
            into["max_ms"] = max(into["max_ms"], s["max_ms"])
            into["failures"] += s["failures"]
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": merged, "counters": counters}


def _span_stat(by_name: Dict[str, Dict[str, float]], names: Tuple[str, ...], stat: str) -> float:
    calls = sum(by_name.get(n, {}).get("calls", 0) for n in names)
    if stat == "calls":
        return float(calls)
    if calls == 0:
        return 0.0
    key = "self_ms" if stat == "self" else "total_ms"
    return sum(by_name.get(n, {}).get(key, 0.0) for n in names) / calls


def compute(
    client: Dict[str, Any],
    servers: Dict[str, Any],
    counters: Dict[str, float],
    extras: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric from one measured window.

    ``client`` and ``servers`` are span diffs (``servers`` merged over
    every server process); ``counters`` is the difference of two
    :func:`counters_of` readings; ``extras`` supplies the metrics no
    span or counter gives (lateness, lag, overhead, remainder,
    recovery time).  Metrics that do not apply are 0.
    """
    by_name = dict(client.get("spans", {}))
    by_name.update(servers.get("spans", {}))
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER_NAMES}
    for metric, (names, stat) in _SPAN_METRICS.items():
        out[metric] = _span_stat(by_name, names, stat)
    requests = out["client.requests"]
    if requests:
        out["client.bytes_out"] = client.get("counters", {}).get("client.bytes_out", 0) / requests
        out["client.bytes_in"] = client.get("counters", {}).get("client.bytes_in", 0) / requests
    server_counters = servers.get("counters", {})
    out["oplog.bytes"] = float(server_counters.get("oplog.bytes", 0))
    encodes = by_name.get("codec.encode_snapshot", {}).get("calls", 0)
    if encodes:
        out["codec.snapshot_bytes"] = server_counters.get("codec.snapshot_bytes", 0) / encodes
    lookups = counters["querycache.hits"] + counters["querycache.misses"]
    out["querycache.hit_rate"] = counters["querycache.hits"] / lookups if lookups else 0.0
    for key in (
        "querycache.evictions",
        "querycache.invalidations",
        "tenant.quota.denials",
        "planner.parallel.grants",
        "planner.parallel.declines",
        "parallel.ops",
        "parallel.fallbacks",
        "txn.commits",
        "txn.rebases",
        "replication.ship.entries",
    ):
        out[key] = float(counters[key])
    evaluations = counters["bulk.evaluator.builds"] + counters["bulk.evaluator.reuses"]
    if evaluations:
        out["bulk.evaluator.reuse_ratio"] = counters["bulk.evaluator.reuses"] / evaluations
    for key, value in (extras or {}).items():
        if key not in out:
            raise KeyError("unknown per-layer metric {!r}".format(key))
        out[key] = float(value)
    return out


def open_window(recorder: spans.Recorder, clients: Sequence[Any]) -> Dict[str, Any]:
    """Readings at the start of a measured window: the client recorder,
    the spans of each server behind ``clients`` (one client per server
    process), and their counters."""
    return {
        "recorder": recorder,
        "clients": list(clients),
        "client": recorder.snapshot(),
        "servers": [shims.server_snapshot(c) for c in clients],
        "counters": counters_of(clients),
    }


def close_window(window: Dict[str, Any]) -> Dict[str, Any]:
    """Span and counter differences since :func:`open_window`."""
    after = counters_of(window["clients"])
    return {
        "client": spans.diff(window["recorder"].snapshot(), window["client"]),
        "servers": merge(
            spans.diff(shims.server_snapshot(c), before)
            for c, before in zip(window["clients"], window["servers"])
        ),
        "counters": {key: after[key] - window["counters"][key] for key in after},
    }


def per_layer(
    closed: Dict[str, Any], client_latency_ms: float, extras: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric of a closed window, the unexplained
    remainder included; ``client_latency_ms`` is the summed wall time of
    the measured requests the benchmark made in the window."""
    requests = int(closed["client"]["spans"].get("client.send", {}).get("calls", 0))
    remainder_ms, share = unexplained(
        client_latency_ms, requests, closed["client"], closed["servers"]
    )
    extras = dict(extras, **{"obs.unexplained_ms": remainder_ms, "obs.unexplained_share": share})
    return compute(closed["client"], closed["servers"], closed["counters"], extras)


def unexplained(
    client_latency_ms: float,
    requests: int,
    client: Dict[str, Any],
    servers: Dict[str, Any],
) -> Tuple[float, float]:
    """The remainder of client-observed time no span covers, per
    request, and its share of the client-observed time.

    ``client_latency_ms`` is the summed wall time of the ``requests``
    measured operations the benchmark made in the window (admin round
    trips excluded on both sides).  Covered time is the
    client's encode+send and decode, and each server's frame read (from
    header arrival) plus request root span.  What is left is the kernel
    and loopback transit, the server's response write, and both event
    loops' scheduling.
    """
    if requests <= 0 or client_latency_ms <= 0:
        return 0.0, 0.0
    cs = client.get("spans", {})
    ss = servers.get("spans", {})
    covered = sum(cs.get(n, {}).get("total_ms", 0.0) for n in ("client.send", "client.decode"))
    covered += sum(
        ss.get(n, {}).get("total_ms", 0.0)
        for n in ("protocol.read_frame", "server.request")
    )
    remainder = client_latency_ms - covered
    return remainder / requests, remainder / client_latency_ms
