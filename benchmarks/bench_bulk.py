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
from repro.workloads.generators import membership_workload

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


def main() -> None:
    rows: List[Dict] = []
    for classes in CLASS_COUNTS:
        for entry in bench_size(classes):
            rows.append(entry)
            print(
                "T={tuples:5d} {op:15s} before={before_ms:10.2f}ms "
                "after={after_ms:9.2f}ms speedup={speedup:6.1f}x".format(**entry)
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
