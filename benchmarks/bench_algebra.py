#!/usr/bin/env python3
"""P9: the bitset-native algebra engine vs the PR-8 operator stack.

Run:  PYTHONPATH=src python benchmarks/bench_algebra.py
Writes BENCH_algebra.json at the repository root.

Workloads ride the membership generator: C disjoint classes of 8
instances, 4 stored tuples per class (one positive class tuple, three
negative instance exceptions), C ∈ {25, 100, 400} giving 100–1600
stored tuples per input.  Binary operators get two-attribute variants
(a small colour/size hierarchy joined on the shared ``thing``
attribute).

The **before** column reimplements the code shape this PR replaced —
it cannot call the library, because the library now memoises meet
tables inside the hierarchies themselves:

* ``meet_closure`` probing every item pair with a full-node-scan
  ``maximal_common_descendants`` (no meet tables, no closed-value
  sweep);
* ``consolidate`` building the subsumption graph by a pairwise
  ``subsumes`` scan and eliminating redundant nodes one at a time;
* ``join`` materialising both cylindric extensions as stored relations
  before combining.

Truth evaluation itself uses ``BulkEvaluator`` on *both* sides (that
was the previous PR's win); the deltas measured here are the vectorised
meet-closure, the fused combine+consolidate emission sweep, and the
zero-copy join adaptor.  Relation-level caches are cleared every
iteration; the hierarchy-level meet tables deliberately stay warm
across repeats — cross-call persistence is the feature being measured.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.core import HRelation, algebra, bulk
from repro.core.htuple import UNIVERSAL
from repro.hierarchy import algorithms
from repro.hierarchy.graph import Hierarchy
from repro.workloads.generators import membership_workload

CLASS_COUNTS = (25, 100, 400)
MEMBERS_PER_CLASS = 8
NEGATIVES_PER_CLASS = 3
REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def unary_workload(classes: int, seed: int = 0):
    """One attribute: the membership relation plus a second input."""
    import random

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


def binary_workload(classes: int, seed: int = 0):
    """Two-attribute relations sharing the ``thing`` hierarchy: the
    join/project/divide inputs."""
    import random

    things, _, _ = membership_workload(classes, MEMBERS_PER_CLASS, seed=seed)
    colors = Hierarchy("colors")
    for i in range(4):
        colors.add_instance("color{}".format(i))
    sizes = Hierarchy("sizes")
    for i in range(3):
        sizes.add_instance("size{}".format(i))

    rng = random.Random(seed)
    left = HRelation([("thing", things), ("color", colors)], name="colored")
    right = HRelation([("thing", things), ("size", sizes)], name="sized")
    for c in range(classes):
        color = "color{}".format(c % 4)
        size = "size{}".format(c % 3)
        left.assert_item(("group{}".format(c), color), truth=True)
        right.assert_item(("group{}".format(c), size), truth=True)
        pool = ["item{}_{}".format(c, m) for m in range(MEMBERS_PER_CLASS)]
        for instance in rng.sample(pool, NEGATIVES_PER_CLASS):
            left.assert_item((instance, color), truth=False)
        for instance in rng.sample(pool, NEGATIVES_PER_CLASS):
            right.assert_item((instance, size), truth=False)

    divisor = HRelation([("color", colors)], name="two_colors")
    divisor.assert_item(("color0",), truth=True)
    divisor.assert_item(("color1",), truth=True)
    return left, right, divisor


def timed(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cold(*relations: HRelation) -> None:
    """Forget relation-level derived state (hierarchy caches stay),
    including the operators' memo, so a repeated operator recomputes
    in full instead of patching its last evaluation."""
    for relation in relations:
        relation._binder_cache.clear()
        relation._binder_index = None
        relation._bulk_eval = None
        relation._pointwise_memo = None


# ----------------------------------------------------------------------
# the pre-refactor "before" paths (the code shape this PR replaced)
# ----------------------------------------------------------------------


_FULL_MASKS: Dict[tuple, Dict[str, Dict[str, int]]] = {}


def full_masks(hierarchy: Hierarchy) -> Dict[str, Dict[str, int]]:
    """Full-width descendant/ancestor bitsets indexed by topological
    rank, built once per hierarchy version (the cache shape the
    "before" paths read)."""
    key = (id(hierarchy), hierarchy.version)
    hit = _FULL_MASKS.get(key)
    if hit is not None:
        return hit
    order = hierarchy.topological_order()
    rank = {node: i for i, node in enumerate(order)}
    desc: Dict[str, int] = {}
    for node in reversed(order):
        mask = 1 << rank[node]
        for child in hierarchy.children(node):
            mask |= desc[child]
        desc[node] = mask
    anc: Dict[str, int] = {}
    for node in order:
        mask = 1 << rank[node]
        for parent in hierarchy.parents(node):
            mask |= anc[parent]
        anc[node] = mask
    hit = _FULL_MASKS[key] = {"rank": rank, "desc": desc, "anc": anc}
    return hit


def mcd_before(hierarchy: Hierarchy, a: str, b: str) -> List[str]:
    """Full-node-scan maximal common descendants (no meet table)."""
    masks = full_masks(hierarchy)
    common = masks["desc"][a] & masks["desc"][b]
    if not common:
        return []
    out = []
    for node in hierarchy._insertion:
        bit = 1 << masks["rank"][node]
        if common & bit and not (masks["anc"][node] & ~bit & common):
            out.append(node)
    return out


def meet_before(product, a, b) -> List:
    per_attribute: List[List[str]] = []
    for h, va, vb in zip(product.factors, a, b):
        meets = mcd_before(h, va, vb)
        if not meets:
            return []
        per_attribute.append(meets)
    return [tuple(combo) for combo in itertools.product(*per_attribute)]


def meet_closure_before(product, items) -> set:
    pool = set(items)
    order = list(pool)
    cursor = 0
    while cursor < len(order):
        new = order[cursor]
        for earlier in range(cursor):
            for met in meet_before(product, new, order[earlier]):
                if met not in pool:
                    pool.add(met)
                    order.append(met)
        cursor += 1
    return pool


def hasse_before(product, items) -> Dict:
    """Pairwise-subsumes covering graph (pre-posting-sweep shape)."""
    strict_subsumers: Dict[object, List] = {}
    for j in items:
        strict_subsumers[j] = [i for i in items if i != j and product.subsumes(i, j)]
    graph: Dict[object, set] = {item: set() for item in items}
    for j, subs in strict_subsumers.items():
        pool = set(subs)
        for i in subs:
            if not any(k != i and product.subsumes(i, k) for k in pool):
                graph[i].add(j)
    return graph


def consolidate_before(relation: HRelation) -> HRelation:
    """Graph construction + one-at-a-time node elimination."""
    product = relation.schema.product
    items = sorted(relation.asserted, key=product.topological_key)
    graph = hasse_before(product, items)
    with_predecessor: set = set()
    for succs in graph.values():
        with_predecessor.update(succs)
    graph[UNIVERSAL] = {node for node in graph if node not in with_predecessor}
    order = algorithms.topological_order(graph)
    out = relation.copy()
    for node in order:
        if node is UNIVERSAL:
            continue
        truth = relation.asserted[node]
        preds = algorithms.immediate_predecessors(graph, node)
        pred_truths = {
            UNIVERSAL.truth if p is UNIVERSAL else relation.asserted[p]
            for p in preds
        }
        if pred_truths == {truth}:
            algorithms.eliminate_node(graph, node, keep_redundant=False)
            out.discard(node)
    return out


def combine_before(relations: List[HRelation], fn, name="combined") -> HRelation:
    cold(*relations)
    schema = relations[0].schema
    product = schema.product
    seeds = set()
    for relation in relations:
        seeds.update(relation.asserted)
    candidates = sorted(
        meet_closure_before(product, seeds), key=product.topological_key
    )
    evaluators = [bulk.BulkEvaluator(relation) for relation in relations]
    out = HRelation(schema, name=name)
    for item in candidates:
        out.assert_item(item, truth=fn(*[e.truth(item) for e in evaluators]))
    return consolidate_before(out)


def select_before(relation: HRelation, conditions) -> HRelation:
    cone_item = relation.schema.item_from_mapping(dict(conditions), default_top=True)
    cone = HRelation(relation.schema, name="cone", strategy=relation.strategy)
    cone.assert_item(cone_item, truth=True)
    return combine_before([relation, cone], lambda a, b: a and b)


def join_before(left: HRelation, right: HRelation) -> HRelation:
    merged_schema = left.schema.join_schema(right.schema)[0]
    cyls = []
    for source in (left, right):
        cyl = HRelation(merged_schema, name="cyl", strategy=source.strategy)
        for item, truth in source.asserted.items():
            padded = list(merged_schema.product.top)
            for value, attribute in zip(item, source.schema.attributes):
                padded[merged_schema.index_of(attribute)] = value
            cyl.assert_item(tuple(padded), truth=truth)
        cyls.append(cyl)
    return combine_before(cyls, lambda a, b: a and b)


def project_before(relation: HRelation, attributes) -> HRelation:
    from repro.core.explicate import explicate

    schema = relation.schema
    kept_indices = [schema.index_of(a) for a in attributes]
    dropped = [a for a in schema.attributes if a not in set(attributes)]
    out_schema = schema.restrict(list(attributes))
    partial = explicate(relation, attributes=dropped, drop_negated=False)
    dropped_indices = [schema.index_of(a) for a in dropped]
    slices: Dict = {}
    for item, truth in partial.asserted.items():
        atom_key = tuple(item[i] for i in dropped_indices)
        piece = slices.setdefault(
            atom_key, HRelation(out_schema, name="slice", strategy=relation.strategy)
        )
        piece.assert_item(tuple(item[i] for i in kept_indices), truth=truth)
    pieces = [slices[key] for key in sorted(slices)]
    return combine_before(pieces, lambda *truths: any(truths))


def divide_before(dividend: HRelation, divisor: HRelation) -> HRelation:
    from repro.core.explicate import explicate

    shared = list(divisor.schema.attributes)
    kept = [a for a in dividend.schema.attributes if a not in set(shared)]
    out_schema = dividend.schema.restrict(kept)
    kept_indices = [dividend.schema.index_of(a) for a in kept]
    shared_indices = [dividend.schema.index_of(a) for a in shared]
    divisor_atoms = sorted(divisor.extension())
    partial = explicate(dividend, attributes=shared, drop_negated=False)
    slices: Dict = {}
    for item, truth in partial.asserted.items():
        atom_key = tuple(item[i] for i in shared_indices)
        piece = slices.setdefault(
            atom_key, HRelation(out_schema, name="slice", strategy=dividend.strategy)
        )
        piece.assert_item(tuple(item[i] for i in kept_indices), truth=truth)
    empty = HRelation(out_schema, name="empty", strategy=dividend.strategy)
    pieces = [slices.get(atom, empty) for atom in divisor_atoms]
    return combine_before(pieces, lambda *truths: all(truths))


# ----------------------------------------------------------------------


def bench_size(classes: int) -> List[Dict]:
    relation, other = unary_workload(classes)
    left, right, divisor = binary_workload(classes)
    rows: List[Dict] = []

    def row(op, tuples, before_fn, after_fn, repeat):
        before_result = before_fn()
        after_result = after_fn()
        assert before_result.same_tuples_as(after_result), op
        before = timed(before_fn, 1 if tuples >= 1000 else repeat)
        after = timed(after_fn, repeat)
        entry = {
            "tuples": tuples,
            "classes": classes,
            "op": op,
            "before_ms": round(before * 1e3, 3),
            "after_ms": round(after * 1e3, 3),
            "speedup": round(before / after, 1),
        }
        rows.append(entry)
        print(
            "T={tuples:5d} {op:13s} before={before_ms:10.2f}ms "
            "after={after_ms:9.2f}ms speedup={speedup:7.1f}x".format(**entry)
        )

    repeat = 3 if classes < 400 else 2
    unary_tuples = len(relation)
    binary_tuples = len(left) + len(right)

    row(
        "union", unary_tuples,
        lambda: combine_before([relation, other], lambda a, b: a or b),
        lambda: (cold(relation, other), algebra.union(relation, other))[1],
        repeat,
    )
    row(
        "intersection", unary_tuples,
        lambda: combine_before([relation, other], lambda a, b: a and b),
        lambda: (cold(relation, other), algebra.intersection(relation, other))[1],
        repeat,
    )
    row(
        "select", unary_tuples,
        lambda: select_before(relation, {"thing": "group0"}),
        lambda: (cold(relation), algebra.select(relation, {"thing": "group0"}))[1],
        repeat,
    )
    row(
        "join", binary_tuples,
        lambda: join_before(left, right),
        lambda: (cold(left, right), algebra.join(left, right))[1],
        repeat,
    )
    row(
        "project", len(left),
        lambda: project_before(left, ["thing"]),
        lambda: (cold(left), algebra.project(left, ["thing"]))[1],
        repeat,
    )
    row(
        "divide", len(left) + len(divisor),
        lambda: divide_before(left, divisor),
        lambda: (cold(left, divisor), algebra.divide(left, divisor))[1],
        repeat,
    )
    return rows


def main() -> None:
    rows: List[Dict] = []
    for classes in CLASS_COUNTS:
        rows.extend(bench_size(classes))
    payload = {
        "workload": {
            "members_per_class": MEMBERS_PER_CLASS,
            "negatives_per_class": NEGATIVES_PER_CLASS,
            "tuples_per_class": 1 + NEGATIVES_PER_CLASS,
            "class_counts": list(CLASS_COUNTS),
        },
        "before": (
            "full-scan meet_closure + pairwise subsumption graph consolidate "
            "+ materialised cylindric extensions"
        ),
        "after": (
            "memoised meet tables / closed-value sweep, fused "
            "combine+consolidate emission, zero-copy join adaptor"
        ),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
    }
    out_path = REPO_ROOT / "BENCH_algebra.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print("wrote {}".format(out_path))


if __name__ == "__main__":
    main()
