#!/usr/bin/env python3
"""P8: batch truth evaluation — one sweep vs per-item binding.

Run:  PYTHONPATH=src python benchmarks/bench_bulk.py
Writes BENCH_bulk.json at the repository root.

Workload: C disjoint classes of 8 instances each; one positive tuple
per class plus 3 negative instance exceptions per class, i.e. 4 stored
tuples per class.  C ∈ {25, 100, 400} gives T ∈ {100, 400, 1600}
stored tuples.  Three bulk consumers are timed cold (every iteration
rebuilds whatever it caches) in both guises:

* **extension** — before: the historical per-atom loop through
  ``binding.truth_and_binders``; after: ``HRelation.extension()``
  (one ``BulkEvaluator`` sweep, then a bitset lookup per atom).
* **conflict scan** — before: meet candidates probed one binding
  derivation at a time; after: ``find_conflicts`` (posting masks name
  the probe set, each probe is a bitset lookup).
* **combine (union)** — before: the pointwise combinator evaluating
  every meet-closure candidate per input via per-item binding; after:
  ``algebra.union`` (one evaluator per input).  Both sides share the
  meet-closure and consolidation cost, so the speedup here bounds what
  evaluation alone can buy.

One more row, **write_then_union**, times a write followed by a read on
``cone_workload(1000, 12)`` (≈13k tuples): one autocommitted toggle of
an instance-level exception in ``left`` (``ASSERT NOT`` / ``RETRACT``),
then ``UNION left WITH right``.  Before: the transaction's staged copy
carries neither its base's evaluator, nor its clean-scan stamp, nor
the operators' memo, so the commit builds a fresh evaluator and scans
every node for conflicts, and the union recomputes every candidate.
After: the copy patches the base evaluator over its one change, probes
only the changed cone, and the union patches its last evaluation over
the cones changed since.  Each side runs on its own database and
both take the same writes in lockstep, so every round compares the
same state; the figures are means over all toggles, so the scoped
side's occasional full rebuild (dead bits outnumbering live ones in a
group) is counted, and the commit's share is reported on its own.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.core import HRelation, binding, find_conflicts
from repro.core import algebra
from repro.core.conflicts import conflict_candidates
from repro.core.consolidate import consolidate
from repro.obs import default_registry
from repro.engine.database import HierarchicalDatabase
from repro.workloads.generators import cone_workload, membership_workload

CLASS_COUNTS = (25, 100, 400)
MEMBERS_PER_CLASS = 8
NEGATIVES_PER_CLASS = 3
REPO_ROOT = Path(__file__).resolve().parent.parent


def build_workload(classes: int, seed: int = 0):
    """The benchmark relation plus a second input for the union row."""
    hierarchy, relation, _ = membership_workload(
        classes, MEMBERS_PER_CLASS, seed=seed
    )
    rng = random.Random(seed)
    for c in range(classes):
        pool = ["item{}_{}".format(c, m) for m in range(MEMBERS_PER_CLASS)]
        for instance in rng.sample(pool, NEGATIVES_PER_CLASS):
            relation.assert_item((instance,), truth=False)
    other = HRelation(relation.schema, name="other")
    for c in range(classes):
        other.assert_item(("group{}".format(c),), truth=(c % 2 == 0))
    return relation, other


def timed(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cold(relation: HRelation) -> None:
    """Forget everything derived, so each iteration pays full cost."""
    relation._binder_cache.clear()
    relation._binder_index = None
    relation._bulk_eval = None
    relation._clean_stamp = None
    relation._pointwise_memo = None


# ----------------------------------------------------------------------
# the per-item "before" paths (the code shape this PR replaced)
# ----------------------------------------------------------------------


def extension_before(relation: HRelation) -> List:
    cold(relation)
    product = relation.schema.product
    seen = set()
    out = []
    for item, truth in relation.asserted.items():
        if not truth:
            continue
        for atom in product.leaves_under(item):
            if atom in seen:
                continue
            seen.add(atom)
            if binding.truth_and_binders(relation, atom)[0]:
                out.append(atom)
    return out


def conflicts_before(relation: HRelation) -> List:
    cold(relation)
    out = []
    for item in conflict_candidates(relation):
        truth, binders = binding.truth_and_binders(relation, item)
        if truth is None:
            out.append((item, tuple(binders)))
    return out


def combine_before(relations: List[HRelation], fn) -> HRelation:
    for relation in relations:
        cold(relation)
    schema = relations[0].schema
    product = schema.product
    seeds = set()
    for relation in relations:
        seeds.update(relation.asserted)
    candidates = sorted(
        algebra.meet_closure(product, seeds), key=product.topological_key
    )
    out = HRelation(schema, name="combined")
    for item in candidates:
        truths = [
            binding.truth_and_binders(relation, item)[0] for relation in relations
        ]
        out.assert_item(item, truth=fn(*truths))
    return consolidate(out, name="combined")


# ----------------------------------------------------------------------


def bench_size(classes: int) -> List[Dict]:
    relation, other = build_workload(classes)
    tuples = len(relation)
    big = tuples >= 1000
    repeat = 2 if big else 3

    rows: List[Dict] = []

    def row(op: str, before_fn, after_fn, repeat_before=repeat, repeat_after=repeat):
        before = timed(before_fn, repeat_before)
        after = timed(after_fn, repeat_after)
        rows.append(
            {
                "tuples": tuples,
                "classes": classes,
                "op": op,
                "before_ms": round(before * 1e3, 3),
                "after_ms": round(after * 1e3, 3),
                "speedup": round(before / after, 1),
            }
        )

    def extension_after():
        cold(relation)
        return list(relation.extension())

    assert extension_before(relation) == extension_after()
    row("extension", lambda: extension_before(relation), extension_after)

    def conflicts_after():
        cold(relation)
        return find_conflicts(relation)

    assert [i for i, _ in conflicts_before(relation)] == [
        c.item for c in conflicts_after()
    ]
    row("find_conflicts", lambda: conflicts_before(relation), conflicts_after)

    def union_before():
        return combine_before([relation, other], lambda a, b: a or b)

    def union_after():
        cold(relation)
        cold(other)
        return algebra.union(relation, other)

    assert union_before().same_tuples_as(union_after())
    # The meet-closure over every asserted pair dominates at the top
    # size; one repetition is representative there.
    row("combine_union", union_before, union_after,
        repeat_before=1 if big else repeat, repeat_after=1 if big else repeat)

    return rows


def bench_write_then_union(cones: int = 1000, per_cone: int = 12, toggles: int = 20) -> Dict:
    """Two databases on the same data, one per path, toggled in lockstep:
    every round applies the same write to both from the same state,
    the side that goes first alternates, and each side times as many
    asserts as retracts.  The scoped side is never reset, so its dead
    bits pile up and the amortised rebuild they trigger lands in its
    mean; the builds it ran are reported as ``rebuilds``."""
    def side(stampless: bool):
        hierarchy, left, right = cone_workload(cones, per_cone, seed=0)
        db = HierarchicalDatabase("bench")
        db.register_hierarchy(hierarchy)
        db.register_relation(left)
        db.register_relation(right)
        find_conflicts(left)  # the clean stamp a first commit would leave
        algebra.union(left, right)  # both evaluators warm

        def cycle():
            start = time.perf_counter()
            txn = db.transaction()
            if target in db.relation("left").asserted:
                txn.retract("left", target)
            else:
                txn.assert_item("left", target, truth=False)
            if stampless:
                cold(txn.relation("left"))
            txn.commit()
            committed = time.perf_counter()
            answer = algebra.union(db.relation("left"), db.relation("right"))
            return answer, committed - start, time.perf_counter() - start

        return cycle, len(left) + len(right)

    target = ("c0i1",)  # odd instances are absent from left's cone c0
    before, tuples = side(True)
    after, _ = side(False)
    builds = default_registry().counter("bulk.evaluator.builds")
    totals = {before: [0.0, 0.0], after: [0.0, 0.0]}
    rebuilds = 0
    for round_ in range(toggles):
        answers = []
        for cycle in (before, after) if round_ % 2 else (after, before):
            built = builds.value
            answer, commit_s, total_s = cycle()
            if cycle is after:
                rebuilds += builds.value - built
            totals[cycle][0] += commit_s
            totals[cycle][1] += total_s
            answers.append(answer)
        assert answers[0].same_tuples_as(answers[1])  # same state, same answer
    def ms(seconds: float) -> float:
        return round(seconds / toggles * 1e3, 3)

    return {
        "tuples": tuples,
        "op": "write_then_union",
        "before_ms": ms(totals[before][1]),
        "after_ms": ms(totals[after][1]),
        "speedup": round(totals[before][1] / totals[after][1], 1),
        "commit_before_ms": ms(totals[before][0]),
        "commit_after_ms": ms(totals[after][0]),
        "toggles": toggles,
        "rebuilds": rebuilds,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def main() -> None:
    rows: List[Dict] = []
    for classes in CLASS_COUNTS:
        for entry in bench_size(classes):
            rows.append(entry)
            print(
                "T={tuples:5d} {op:15s} before={before_ms:10.2f}ms "
                "after={after_ms:9.2f}ms speedup={speedup:6.1f}x".format(**entry)
            )
    entry = bench_write_then_union()
    rows.append(entry)
    print(
        "T={tuples:5d} {op:15s} before={before_ms:10.2f}ms "
        "after={after_ms:9.2f}ms speedup={speedup:6.1f}x "
        "(commit {commit_before_ms:.2f} -> {commit_after_ms:.2f}ms, "
        "{rebuilds} rebuilds in {toggles} toggles)".format(**entry)
    )
    payload = {
        "workload": {
            "members_per_class": MEMBERS_PER_CLASS,
            "negatives_per_class": NEGATIVES_PER_CLASS,
            "tuples_per_class": 1 + NEGATIVES_PER_CLASS,
            "class_counts": list(CLASS_COUNTS),
        },
        "before": "per-item binding.truth_and_binders at every query",
        "after": "repro.core.bulk: one sweep, bitset lookups per query",
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
    }
    out_path = REPO_ROOT / "BENCH_bulk.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print("wrote {}".format(out_path))


if __name__ == "__main__":
    main()
