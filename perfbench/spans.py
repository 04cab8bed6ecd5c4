"""In-memory span recorder and the function patching that feeds it.

A span is one timed call: its name, its start and end, and the span
that was open when it began (its parent).  Spans are aggregated as they
close, per name: call count, total time, *self* time (total minus the
time covered by child spans), the longest call, and failures (calls that
raised).  Nothing is written until the benchmark asks for a snapshot.

The open span travels in a :class:`contextvars.ContextVar`, so nesting
follows the program's own control flow: an ``await`` chain in one
asyncio task keeps its parent, and ``asyncio.to_thread`` copies the
context into the worker thread, so a statement executed on a thread is
still a child of the request that dispatched it.

Wrappers are installed from outside the program: :func:`patch_function`
rebinds a module-level function everywhere the ``repro`` package
imported it; methods are replaced on their class.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: The span clock (nanoseconds, monotonic).
now_ns = time.perf_counter_ns

#: The innermost open span of the current context (``None`` at top level).
CURRENT: contextvars.ContextVar[Optional["Frame"]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Frame:
    """One open span.  ``child_ns`` accumulates the durations of the
    spans that closed while this one was their parent."""

    __slots__ = ("name", "start", "child_ns", "parent")

    def __init__(self, name: str, start: int, parent: Optional["Frame"]) -> None:
        self.name = name
        self.start = start
        self.child_ns = 0
        self.parent = parent


class Recorder:
    """Per-name aggregates of closed spans, plus free-standing counters.

    Thread-safe: spans close on the event loop and on executor threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> [calls, total_ns, self_ns, max_ns, failures]
        self._spans: Dict[str, List[int]] = {}
        self._counters: Dict[str, float] = {}

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, start: Optional[int] = None) -> Frame:
        parent = CURRENT.get()
        frame = Frame(name, now_ns() if start is None else start, parent)
        CURRENT.set(frame)
        return frame

    def end(self, frame: Frame, failed: bool = False, end: Optional[int] = None) -> int:
        """Close ``frame``: aggregate it, credit its parent, and make the
        parent current again.  Returns the span's duration (ns)."""
        duration = max(0, (now_ns() if end is None else end) - frame.start)
        self_ns = max(0, duration - frame.child_ns)
        parent = frame.parent
        with self._lock:
            entry = self._spans.get(frame.name)
            if entry is None:
                entry = self._spans[frame.name] = [0, 0, 0, 0, 0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ns
            if duration > entry[3]:
                entry[3] = duration
            if failed:
                entry[4] += 1
            if parent is not None:
                parent.child_ns += duration
        CURRENT.set(parent)
        return duration

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy: ``spans`` name -> {calls, total_ms,
        self_ms, max_ms, failures}; ``counters`` name -> value."""
        with self._lock:
            spans = {
                name: {
                    "calls": e[0],
                    "total_ms": e[1] / 1e6,
                    "self_ms": e[2] / 1e6,
                    "max_ms": e[3] / 1e6,
                    "failures": e[4],
                }
                for name, e in self._spans.items()
            }
            counters = dict(self._counters)
        return {"spans": spans, "counters": counters}


def diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` for two :meth:`Recorder.snapshot` results
    (``max_ms`` keeps the later value: maxima do not subtract)."""
    spans = {}
    for name, a in after.get("spans", {}).items():
        b = before.get("spans", {}).get(name)
        if b is None:
            spans[name] = dict(a)
            continue
        calls = a["calls"] - b["calls"]
        if calls <= 0:
            continue
        spans[name] = {
            "calls": calls,
            "total_ms": a["total_ms"] - b["total_ms"],
            "self_ms": a["self_ms"] - b["self_ms"],
            "max_ms": a["max_ms"],
            "failures": a["failures"] - b["failures"],
        }
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    return {"spans": spans, "counters": counters}


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span called ``name`` (sync or async)."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            frame = recorder.begin(name)
            failed = True
            try:
                result = await fn(*args, **kwargs)
                failed = False
                return result
            finally:
                recorder.end(frame, failed)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.begin(name)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            recorder.end(frame, failed)

    return wrapper


def patch_function(module, attr: str, wrapper: Callable) -> None:
    """Replace ``module.attr`` with ``wrapper`` in ``module`` and in every
    loaded ``repro`` module that bound the same function object (a
    ``from module import attr``, possibly under another name)."""
    original = getattr(module, attr)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
