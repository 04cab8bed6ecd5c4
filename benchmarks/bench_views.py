#!/usr/bin/env python3
"""P10: the engine query cache and delta-incremental view refresh.

Run:  PYTHONPATH=src python benchmarks/bench_views.py
Writes BENCH_views.json at the repository root.

Two workload families, both over the membership generator at 200
classes x 8 instances with 3 negative exceptions per class — 800 stored
tuples in the primary relation:

* **steady-state HQL** — the same pre-parsed statement executed
  repeatedly against an unchanged database.  *Before* clears the query
  cache and the operators' memo every iteration (every run recomputes,
  exactly the pre-cache engine); *after* lets the cache serve the
  repeat.  This is the
  paper's reasoning-system loop: the front end re-issuing a query it
  has asked before.
* **single-tuple churn over a materialized view** — one tuple is
  toggled between accesses, then the view is read.  *Before* is a
  legacy ``compute=`` view dropping the operators' memo (every access
  is a full operator recompute); *after* is the plan-backed view, whose
  operator patches its last evaluation over the changed cones.
  Extensions are cross-checked at the end.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List

from benchmarks.bench_algebra import timed, unary_workload
from repro.core import MaterializedView, ViewPlan, algebra
from repro.engine.database import HierarchicalDatabase
from repro.engine.hql.executor import HQLExecutor
from repro.engine.hql.parser import parse

CLASSES = 200  # 200 positive class tuples + 600 negative exceptions = 800
CHURNS = 40
REPO_ROOT = Path(__file__).resolve().parent.parent


def build_database():
    relation, other = unary_workload(CLASSES)
    db = HierarchicalDatabase("bench_views")
    db.register_hierarchy(relation.schema.hierarchies[0])
    db.register_relation(relation)
    db.register_relation(other)
    return db, relation, other


# ----------------------------------------------------------------------
# steady-state HQL: cache hit vs recompute
# ----------------------------------------------------------------------


def bench_steady(db, query: str, op: str, repeat: int = 5) -> Dict:
    session = HQLExecutor(db)
    statement = parse(query)[0]  # pre-parsed: a prepared repeated query

    def cold() -> object:
        db.query_cache.clear()
        for relation in db.relations.values():
            relation._pointwise_memo = None  # nor may the operator patch
        return session.execute_statement(statement)

    def warm() -> object:
        return session.execute_statement(statement)

    cold()  # materialise hierarchy-level caches for both paths
    before = timed(cold, repeat)
    warm()  # prime the cache entry
    after = timed(warm, repeat)
    row = {
        "op": op,
        "tuples": sum(len(r) for r in db.relations.values()),
        "query": query,
        "before_ms": round(before * 1e3, 3),
        "after_ms": round(after * 1e3, 3),
        "speedup": round(before / after, 1),
    }
    print(
        "steady {op:18s} before={before_ms:9.3f}ms after={after_ms:8.3f}ms "
        "speedup={speedup:7.1f}x".format(**row)
    )
    return row


# ----------------------------------------------------------------------
# single-tuple churn: delta view refresh vs full recompute
# ----------------------------------------------------------------------


def churn_loop(view: MaterializedView, relation, iterations: int) -> float:
    """Toggle one exception tuple per iteration, reading the view after
    each write; returns the best-of-1 wall time for the whole loop."""

    def toggle(i: int) -> None:
        item = ("item{}_{}".format(i % CLASSES, 4 + (i % 3)),)
        if item in relation:
            relation.retract(item)
        else:
            relation.assert_item(item, truth=False)

    start = time.perf_counter()
    for i in range(iterations):
        toggle(i)
        view.relation()
    return time.perf_counter() - start


def bench_churn(op: str, make_after: Callable, make_before: Callable) -> Dict:
    relation_b, other_b = unary_workload(CLASSES)
    before_view = make_before(relation_b, other_b)
    before = churn_loop(before_view, relation_b, CHURNS)

    relation_a, other_a = unary_workload(CLASSES)
    after_view = make_after(relation_a, other_a)
    after_view.relation()  # initial full refresh outside the timed loop
    after = churn_loop(after_view, relation_a, CHURNS)

    # the delta-patched cache must equal a from-scratch recompute
    reference = make_before(relation_a, other_a)
    assert sorted(after_view.relation().extension()) == sorted(
        reference.relation().extension()
    ), op
    assert after_view.delta_refresh_count > 0, "delta path never engaged"

    row = {
        "op": op,
        "tuples": len(relation_a),
        "churns": CHURNS,
        "before_ms": round(before * 1e3 / CHURNS, 3),
        "after_ms": round(after * 1e3 / CHURNS, 3),
        "speedup": round(before / after, 1),
        "delta_refreshes": after_view.delta_refresh_count,
        "full_refreshes": after_view.refresh_count,
    }
    print(
        "churn  {op:18s} before={before_ms:9.3f}ms after={after_ms:8.3f}ms "
        "speedup={speedup:7.1f}x  (per refresh, {delta_refreshes} delta / "
        "{full_refreshes} full)".format(**row)
    )
    return row


def recompute(op: Callable, *relations):
    """``op`` over ``relations`` with the operators' memo dropped: a
    full operator recompute, as every access was before views could
    patch (the evaluators still patch forward over the delta log)."""
    for relation in relations:
        relation._pointwise_memo = None
    return op(*relations)


def select_views(kind: str):
    conditions = {"thing": "group0"}
    if kind == "after":
        return lambda r, o: MaterializedView(
            "sel_view", plan=ViewPlan("select", [r], conditions)
        )
    return lambda r, o: MaterializedView(
        "sel_view",
        compute=lambda: recompute(lambda x: algebra.select(x, conditions), r),
        sources=[r],
    )


def union_views(kind: str):
    if kind == "after":
        return lambda r, o: MaterializedView(
            "uni_view", plan=ViewPlan("union", [r, o])
        )
    return lambda r, o: MaterializedView(
        "uni_view", compute=lambda: recompute(algebra.union, r, o), sources=[r, o]
    )


# ----------------------------------------------------------------------


def main() -> None:
    rows: List[Dict] = []

    db, _, _ = build_database()
    rows.append(
        bench_steady(
            db, "SELECT FROM has_property WHERE thing = group0;", "hql_select_steady"
        )
    )
    rows.append(
        bench_steady(
            db, "UNION has_property WITH other AS either;", "hql_union_steady"
        )
    )
    rows.append(bench_steady(db, "COUNT has_property;", "hql_count_steady"))

    rows.append(bench_churn("view_churn_select", select_views("after"), select_views("before")))
    rows.append(bench_churn("view_churn_union", union_views("after"), union_views("before")))

    payload = {
        "workload": {
            "classes": CLASSES,
            "members_per_class": 8,
            "stored_tuples": 800,
            "churns": CHURNS,
        },
        "before": (
            "query cache cleared per statement (every run recomputes) / "
            "legacy compute-callable views (full operator recompute per access)"
        ),
        "after": (
            "version-stamped LRU query cache serving repeats / plan-backed "
            "views whose operators patch the changed cones"
        ),
        "rows": rows,
    }
    out_path = REPO_ROOT / "BENCH_views.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print("wrote {}".format(out_path))


if __name__ == "__main__":
    main()
