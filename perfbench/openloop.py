"""A one-process open-loop driver: one thread per connection.

Each *lane* is one :class:`~repro.client.HQLClient` connection with its
own arrival schedule, fixed before the run (Poisson arrivals from
:func:`repro.workloads.loadgen.build_schedule`).  A lane sends each
request at its scheduled time, or as soon as its previous request
returns when it is behind — it never skips ahead — and each latency is
timed from the *scheduled* time, so a stall is charged to every request
queued behind it.

Generator lateness is the part of a request's delay the generator
caused: the time from when the request could first have been sent (its
scheduled time, or the previous response on its lane if later) to when
it was sent.  It is reported so a run where the generator, not the
server, fell behind can be flagged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

_clock = time.perf_counter


@dataclass
class Op:
    """One scheduled request: offset (s from the phase start), its class
    (``read``/``write``), and the HQL it sends."""

    offset: float
    kind: str
    hql: str


@dataclass
class Sample:
    kind: str
    offset: float
    sent: float
    done: float
    ok: bool
    lateness: float
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.offset) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1e3


Check = Callable[[Op, list], bool]


def drive(
    lanes: Sequence[Tuple[object, List[Op]]],
    check: Check,
    stop_after: float,
    stop: Optional[threading.Event] = None,
) -> Tuple[List[Sample], int]:
    """Replay every lane's schedule concurrently.

    Lanes stop sending once ``stop_after`` seconds have passed or
    ``stop`` is set (the requests left unsent are returned as a count;
    an overloaded step leaves some).  Returns ``(samples, unsent)``.
    """
    results: List[List[Sample]] = [[] for _ in lanes]
    unsent = [0] * len(lanes)
    start = threading.Barrier(len(lanes) + 1)
    epoch = [0.0]

    def lane(index: int, client, ops: List[Op]) -> None:
        samples = results[index]
        start.wait()
        base = epoch[0]
        ready = 0.0
        for position, op in enumerate(ops):
            now = _clock() - base
            if now > stop_after or (stop is not None and stop.is_set()):
                unsent[index] = len(ops) - position
                return
            if op.offset > now:
                time.sleep(op.offset - now)
            sent = _clock() - base
            ok, error = True, None
            try:
                ok = check(op, client.execute(op.hql, render=False))
            except (ReproError, OSError) as exc:
                ok, error = False, "{}: {}".format(type(exc).__name__, exc)
            done = _clock() - base
            samples.append(
                Sample(op.kind, op.offset, sent, done, ok, sent - max(op.offset, ready), error)
            )
            ready = done

    threads = [
        threading.Thread(target=lane, args=(i, client, ops), daemon=True)
        for i, (client, ops) in enumerate(lanes)
    ]
    for thread in threads:
        thread.start()
    epoch[0] = _clock() + 0.01
    start.wait()
    for thread in threads:
        thread.join()
    merged = [sample for lane_samples in results for sample in lane_samples]
    merged.sort(key=lambda s: s.offset)
    return merged, sum(unsent)


def backlog_at(samples: Sequence[Sample], scheduled: Sequence[float], t: float) -> int:
    """Requests scheduled by ``t`` but not yet answered at ``t``."""
    due = sum(1 for offset in scheduled if offset <= t)
    answered = sum(1 for s in samples if s.done <= t)
    return due - answered


def backlog_trend(
    samples: Sequence[Sample], scheduled: Sequence[float], window: float, points: int = 20
) -> Tuple[float, float]:
    """Mean backlog over the first half of ``window`` and over its last
    fifth, each sampled at evenly spaced instants.  A backlog that grows
    shows as the second well above the first; Poisson bunching alone
    moves single instants, not these means."""
    times = [window * (i + 0.5) / points for i in range(points)]
    values = [backlog_at(samples, scheduled, t) for t in times]
    early = values[: points // 2]
    late = values[points - points // 5 :]
    return sum(early) / len(early), sum(late) / len(late)
