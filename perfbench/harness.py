"""Shared machinery: server processes, sample statistics, run stamps.

Every server is a real ``repro serve`` subprocess on an ephemeral port,
launched from the checkout's ``src`` tree (or, for the traced run,
through :mod:`perfbench.serve_traced`).  :class:`ServerProcess` owns the
process: it waits for the listening line, keeps draining its output,
and stops it — gracefully, or with ``SIGKILL`` for the crash tests.
"""

from __future__ import annotations

import collections
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.workloads.loadgen import percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for data directories, inside the checkout (one
#: subdirectory per benchmark process, removed when it ends).
WORK_ROOT = os.path.join(ROOT, ".perfbench")
WORK = os.path.join(WORK_ROOT, str(os.getpid()))


class BenchError(RuntimeError):
    """The benchmark could not run (not a measured failure)."""


@dataclass
class Outcome:
    """What one workload pass measured.

    ``named`` lists the workload's end-to-end metrics under its own
    names, with units and notes (sample counts, percentile support); the
    gated ones of ``BENCHMARK.json`` are among them.  ``failed`` counts
    errors, refusals and wrong answers among ``attempted`` operations;
    ``checks`` the whole-run correctness checks.  ``layers`` is filled by
    a traced pass.
    """

    named: List[Dict[str, Any]]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    record: Dict[str, Any] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    @property
    def metrics(self) -> Dict[str, float]:
        return {row["name"]: row["value"] for row in self.named}


def named(name: str, value: float, unit: str, note: str = "") -> Dict[str, Any]:
    return {"name": name, "value": value, "unit": unit, "note": note}


# ----------------------------------------------------------------------
# server processes
# ----------------------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` subprocess.

    ``args`` are the serve flags beyond ``--host``/``--port`` (the port
    is always ephemeral).  ``traced`` launches it with the timing shims.
    """

    def __init__(self, args: Sequence[str], traced: bool = False, label: str = "server") -> None:
        self.args = list(args)
        self.traced = traced
        self.label = label
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.output: collections.deque = collections.deque(maxlen=200)
        self._listening = threading.Event()
        self._drain: Optional[threading.Thread] = None

    @property
    def addr(self) -> str:
        return "127.0.0.1:{}".format(self.port)

    def cpu_s(self) -> float:
        """CPU seconds (user + system, all threads) the server has used."""
        return process_cpu_s(self.proc.pid)

    def start(self, timeout: float = 90.0) -> int:
        module = "perfbench.serve_traced" if self.traced else "repro"
        cmd = [sys.executable, "-m", module, "serve", "--host", "127.0.0.1", "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self._listening.clear()
        self.port = None
        self.proc = subprocess.Popen(
            cmd + self.args,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,
        )
        self._drain = threading.Thread(target=self._read_output, daemon=True)
        self._drain.start()
        if not self._listening.wait(timeout) or self.port is None:
            self.kill()
            raise BenchError(
                "{} did not start: {}".format(self.label, " | ".join(self.output))
            )
        return self.port

    def _read_output(self) -> None:
        proc = self.proc
        for line in proc.stdout:
            line = line.rstrip("\n")
            self.output.append(line)
            if "listening on" in line and self.port is None:
                self.port = int(line.rsplit(":", 1)[1])
                self._listening.set()
        proc.stdout.close()
        self._listening.set()  # the process exited: unblock start()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown (SIGTERM: drain, checkpoint, exit)."""
        if self.proc is None or self.proc.poll() is not None:
            self._reap()
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reap()

    def kill(self) -> None:
        """Crash: ``SIGKILL``, no chance to flush or checkpoint."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reap()

    def _reap(self) -> None:
        if self._drain is not None:
            self._drain.join(10.0)
            self._drain = None


class Cluster:
    """Every server a workload started, stopped together at the end."""

    def __init__(self) -> None:
        self.servers: List[ServerProcess] = []

    def start(self, args: Sequence[str], traced: bool, label: str) -> ServerProcess:
        server = ServerProcess(args, traced=traced, label=label)
        self.servers.append(server)
        server.start()
        return server

    def stop_all(self) -> None:
        for server in reversed(self.servers):
            server.stop()


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open("/proc/{}/stat".format(pid), encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state); utime
    # and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_cpu_ticks() -> Optional[List[int]]:
    """The host-wide ``cpu`` line of ``/proc/stat`` (None elsewhere)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor took from this machine between
    two :func:`host_cpu_ticks` readings: interference the run could not
    control, stated beside its figures."""
    if not before or not after or len(before) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas)
    return deltas[7] / total if total > 0 else None


def fresh_dir(name: str) -> str:
    """An empty directory under the checkout's scratch space."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run's directory is still there


def dir_bytes(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def wait_until(predicate, timeout: float, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the q-th
    percentile (the rule for reporting a tail)."""
    return count * (1.0 - q / 100.0) >= 10.0 - 1e-9


class Timings:
    """Latency samples (ms) of one operation class."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def add(self, ms: float) -> None:
        self.values.append(ms)

    def __len__(self) -> int:
        return len(self.values)

    def pct(self, q: float) -> float:
        return percentile(sorted(self.values), q)

    def summary(self) -> Dict[str, float]:
        """Sample count, median, tails and maximum."""
        ordered = sorted(self.values)
        out: Dict[str, float] = {"count": len(ordered)}
        for q in (50, 90, 95, 99):
            out["p{}_ms".format(q)] = percentile(ordered, q)
        out["max_ms"] = ordered[-1] if ordered else 0.0
        return out

    def tail_note(self, q: float) -> str:
        """The sample count, and a warning when it leaves fewer than ten
        samples beyond the q-th percentile."""
        note = "{} samples".format(len(self))
        if not supports(len(self), q):
            note += "; too few for p{:g} (fewer than 10 beyond it)".format(q)
        return note


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 50)


# ----------------------------------------------------------------------
# stamps
# ----------------------------------------------------------------------


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """SHA-1 over the paths and bytes of every ``.py`` file under
    ``src`` — identifies the measured code when the checkout is not a
    git repository."""
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def stamp(workload: str, seed: int, seconds: int, trace: bool, flags: Dict[str, object]) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha1": src_digest(),
        "server_flags": flags,
    }
