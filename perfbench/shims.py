"""Timing shims for the traced run: where each layer's spans come from.

:func:`install_server` runs inside a ``repro serve`` process launched by
:mod:`perfbench.serve_traced`; :func:`install_client` runs in the
benchmark process itself.  Both wrap public entry points of the
program's modules with :func:`perfbench.spans.timed`; nothing in the
program changes.  The server side also answers one extra admin command,
``perfbench.spans``, with the recorder's snapshot, so the benchmark can
read server spans over the same wire protocol it measures.

Span names (see :mod:`perfbench.layers` for the metrics built on them):

``server.request`` / ``server.admin`` / ``server.replicate``
    Root spans, from the return of ``protocol.read_frame`` to the return
    of ``protocol.encode_frame``, named by the request's ``op``.  Their
    self time is the dispatch glue: the thread hop, event-loop
    scheduling and bookkeeping between the timed children.
``protocol.read_frame[.op]``
    From the arrival of a frame's header to the decoded message (the
    idle wait for the next request is excluded).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional

from perfbench.spans import CURRENT, Recorder, now_ns, patch_function, timed

ADMIN_COMMAND = "perfbench.spans"

#: Request ops whose root span is named ``server.<op>`` rather than
#: ``server.request``: replication long-polls park for up to the poll
#: interval and admin calls are the benchmark's own bookkeeping.
_OWN_ROOT_OPS = ("admin", "replicate")
_ROOT_NAMES = ("server.request", "server.admin", "server.replicate")


class _ArrivalReader:
    """Stand-in for the ``asyncio.StreamReader`` given to
    ``protocol.read_frame`` (which only calls ``readexactly``) that notes
    when the first read of a frame — its header — completed."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.arrived: Optional[int] = None

    async def readexactly(self, count: int) -> bytes:
        data = await self._reader.readexactly(count)
        if self.arrived is None:
            self.arrived = now_ns()
        return data


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------


def install_server(recorder: Recorder) -> None:
    """Wrap the server-side layers.  Call before the server starts."""
    # Import everything first: patch_function rebinds names other
    # modules imported, so they must already be loaded.
    from repro.core import algebra, bulk, conflicts, where
    from repro.engine import codec, oplog, transactions
    from repro.engine.hql import executor, parser
    from repro.hierarchy import graph
    from repro.planner import cost
    from repro.server import admin, locking, protocol, recovery, replication, server, session
    from repro.tenants import registry

    original_read = protocol.read_frame
    original_encode = protocol.encode_frame
    original_decode = protocol.decode_body

    async def read_frame(reader, max_frame=protocol.DEFAULT_MAX_FRAME):
        proxy = _ArrivalReader(reader)
        frame = recorder.begin("protocol.read_frame")
        try:
            message = await original_read(proxy, max_frame)
        except BaseException:
            CURRENT.set(frame.parent)
            raise
        op = message.get("op") if message is not None else None
        if op is None or proxy.arrived is None:
            # EOF, or a *reply* read by a client inside the server
            # process (a follower's link to its leader): not a request.
            CURRENT.set(frame.parent)
            return message
        if op in _OWN_ROOT_OPS:
            frame.name = "protocol.read_frame." + op
        frame.start = proxy.arrived
        recorder.end(frame)
        # Left open in the connection task's context; encode_frame
        # closes it once the response frame is built.
        recorder.begin("server." + op if op in _OWN_ROOT_OPS else "server.request")
        return message

    def encode_frame(message, wire_format=protocol.codec.FORMAT_JSON):
        root = CURRENT.get()
        if root is None or root.name not in _ROOT_NAMES:
            return original_encode(message, wire_format)
        frame = recorder.begin("protocol.encode")
        failed = True
        try:
            data = original_encode(message, wire_format)
            failed = False
        finally:
            recorder.end(frame, failed)
            recorder.end(root, failed)
        return data

    def decode_body(body):
        if CURRENT.get() is None:
            return original_decode(body)
        frame = recorder.begin("protocol.decode")
        failed = True
        try:
            message = original_decode(body)
            failed = False
            return message
        finally:
            recorder.end(frame, failed)

    original_admin = admin.admin_payload

    def admin_payload(server_obj, cmd, args=None):
        if cmd == ADMIN_COMMAND:
            return {"cmd": cmd, "snapshot": recorder.snapshot(), "pid": os.getpid()}
        return original_admin(server_obj, cmd, args)

    patch_function(protocol, "read_frame", read_frame)
    patch_function(protocol, "encode_frame", encode_frame)
    patch_function(protocol, "decode_body", decode_body)
    patch_function(admin, "admin_payload", admin_payload)

    def fn(module, attr: str, name: str) -> None:
        patch_function(module, attr, timed(recorder, name, getattr(module, attr)))

    def method(cls, attr: str, name: str) -> None:
        setattr(cls, attr, timed(recorder, name, getattr(cls, attr)))

    # server dispatch, protocol, locking, tenants
    fn(parser, "parse", "hql.parse")
    method(server.HQLServer, "_serialize_result", "protocol.serialize")
    method(server.HQLServer, "_wait_sync", "replication.wait_sync")
    method(locking.ReadWriteLock, "acquire_read", "lock.read_wait")
    method(locking.ReadWriteLock, "acquire_write", "lock.write_wait")
    for check in ("check_statement_rate", "check_tuple_quota", "check_cursor_quota"):
        method(registry.Tenant, check, "tenants.quota_check")
    method(session.Session, "execute", "server.execute")
    # engine
    method(executor.HQLExecutor, "execute_statement", "hql.execute")
    method(transactions.Transaction, "commit", "txn.commit")
    method(recovery.RecoveryManager, "checkpoint", "recovery.checkpoint")
    method(recovery.RecoveryManager, "recover", "recovery.recover")
    method(replication.FollowerTask, "apply_batch", "replication.apply")
    _install_oplog(recorder, oplog)
    _install_codec(recorder, codec)
    # planner and core operators
    for attr in (
        "plan_combine",
        "estimate_candidates",
        "parallel_gate",
        "choose_join_mode",
        "consolidation_mode",
    ):
        fn(cost, attr, "planner")
    fn(algebra, "combine", "algebra.combine")
    fn(algebra, "join", "algebra.join")
    fn(algebra, "select", "algebra.select")
    fn(where, "select_where", "algebra.select_where")
    fn(bulk, "evaluator_for", "bulk.evaluator")
    fn(conflicts, "find_conflicts", "conflicts.scan")
    method(graph.Hierarchy, "downward_union", "hierarchy.downward_union")
    method(graph.Hierarchy, "overlap_union", "hierarchy.overlap_union")
    method(graph.Hierarchy, "meet_closed_values", "hierarchy.meet")
    method(graph.Hierarchy, "maximal_common_descendants", "hierarchy.meet")


def _install_oplog(recorder: Recorder, oplog) -> None:
    original = oplog.OperationLog.append

    def append(self, statement, fsync=None):
        try:
            before = os.path.getsize(self.path)
        except OSError:
            before = 0
        frame = recorder.begin("oplog.append")
        failed = True
        try:
            original(self, statement, fsync)
            failed = False
        finally:
            recorder.end(frame, failed)
        recorder.add("oplog.bytes", os.path.getsize(self.path) - before)

    oplog.OperationLog.append = append


def _install_codec(recorder: Recorder, codec) -> None:
    original_encode = codec.encode_snapshot

    def encode_snapshot(database, extra=None):
        frame = recorder.begin("codec.encode_snapshot")
        failed = True
        try:
            data = original_encode(database, extra)
            failed = False
        finally:
            recorder.end(frame, failed)
        recorder.add("codec.snapshot_bytes", len(data))
        return data

    patch_function(codec, "encode_snapshot", encode_snapshot)
    patch_function(
        codec,
        "decode_snapshot",
        timed(recorder, "codec.decode_snapshot", codec.decode_snapshot),
    )


# ----------------------------------------------------------------------
# client (benchmark) process
# ----------------------------------------------------------------------


def install_client(recorder: Recorder) -> None:
    """Wrap the client's framing: time to encode and send a request,
    time from sending to a decoded response, decode time, and bytes
    each way.  Admin round trips (the benchmark's own bookkeeping) are
    recorded under ``client.*.admin`` names so they stay out of the
    request metrics."""
    from repro.server import protocol

    original_recv = protocol.recv_frame
    original_decode = protocol.decode_body
    encode_frame = protocol.encode_frame
    last_op = threading.local()

    def suffix() -> str:
        return ".admin" if getattr(last_op, "op", None) == "admin" else ""

    def send_frame(sock, message, wire_format=protocol.codec.FORMAT_JSON):
        last_op.op = message.get("op")
        frame = recorder.begin("client.send" + suffix())
        failed = True
        try:
            data = encode_frame(message, wire_format)
            sock.sendall(data)
            failed = False
        finally:
            recorder.end(frame, failed)
        recorder.add("client.bytes_out" + suffix(), len(data))

    def recv_frame(sock, max_frame=protocol.DEFAULT_MAX_FRAME):
        frame = recorder.begin("client.recv" + suffix())
        failed = True
        try:
            message = original_recv(sock, max_frame)
            failed = False
            return message
        finally:
            recorder.end(frame, failed)

    def decode_body(body):
        frame = recorder.begin("client.decode" + suffix())
        failed = True
        try:
            message = original_decode(body)
            failed = False
            return message
        finally:
            recorder.end(frame, failed)
            recorder.add("client.bytes_in" + suffix(), len(body) + 4)

    patch_function(protocol, "send_frame", send_frame)
    patch_function(protocol, "recv_frame", recv_frame)
    patch_function(protocol, "decode_body", decode_body)


def server_snapshot(client) -> Dict[str, Any]:
    """The span snapshot of the server ``client`` is connected to."""
    return client.admin(ADMIN_COMMAND)["snapshot"]


#: Spans a server records while it boots, before any request.
BOOT_SPANS = {
    "recovery.recover_ms": "recovery.recover",
    "codec.decode_snapshot_ms": "codec.decode_snapshot",
}


def boot_means(client) -> Dict[str, float]:
    """Mean time per call (ms) of the :data:`BOOT_SPANS` of a server
    that has just started (all its spans date from its boot)."""
    spans = server_snapshot(client)["spans"]
    out = {}
    for metric, name in BOOT_SPANS.items():
        span = spans.get(name)
        out[metric] = span["total_ms"] / span["calls"] if span else 0.0
    return out
