"""Shard-parallel execution: cone-partitioned bitset evaluation.

The hierarchy that makes condensed relations expressive also makes them
decomposable: tuples whose value cones are disjoint on every attribute
can never share an applicable set, meet to a common candidate, or
conflict.  This package partitions a workload's stored tuples by those
*hierarchy cones* (connected components of the overlap structure),
ships each shard a picklable snapshot — items, sign bitsets, the
induced sub-hierarchies with their meet-table slices — to a process
pool, runs the stock serial sweeps per shard, and merges the owned
results back into the exact serial emission order.

Entry points are wired behind the existing API: ``algebra.combine`` /
``join`` / ``select``, ``HRelation.extension``, ``explicate``,
``find_conflicts``.  Everything is gated — ``REPRO_PARALLEL=0`` (the
default), small workloads, non-decomposable cone structures and
preference edges all fall back to the serial path, which remains the
semantic ground truth; so does a set operator or selection that can
patch its previous evaluation, or that repeats a sharded one over the
same inputs (see :mod:`repro.core.algebra`).  See docs/ARCHITECTURE.md.
"""

from repro.parallel.config import ParallelConfig, config, configure, reset
from repro.parallel.engine import (
    CONFLICT,
    Plan,
    maybe_combine,
    maybe_conflicts,
    maybe_extension,
    maybe_join,
    maybe_pointwise,
    maybe_select,
    plan,
)
from repro.parallel.partition import partition_items, value_components
from repro.parallel.pool import run_tasks, shutdown
from repro.parallel.snapshot import ShardSnapshot, build_snapshots

__all__ = [
    "CONFLICT",
    "ParallelConfig",
    "Plan",
    "ShardSnapshot",
    "build_snapshots",
    "config",
    "configure",
    "maybe_combine",
    "maybe_conflicts",
    "maybe_extension",
    "maybe_join",
    "maybe_pointwise",
    "maybe_select",
    "partition_items",
    "plan",
    "reset",
    "run_tasks",
    "shutdown",
    "value_components",
]
