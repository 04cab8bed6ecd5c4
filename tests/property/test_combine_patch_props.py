"""Differential test: patched set operators equal fresh evaluations.

A set operator (and a selection) remembers its last evaluation over the
same inputs and, when each input provably continues the state it was
computed from, re-derives only the cones of the items changed since
(``algebra._evaluate``).  Every property here compares that answer with
a fresh evaluation over relations rebuilt from scratch — no memo, no
evaluator, no delta history — bit for bit: the same tuples with the
same truths in the same insertion order, or the same
``InconsistentRelationError`` naming the same item.

Inputs come from the delta-scope suite's schema kinds (unary over
several components, root-held, single-component, binary) under every
preemption strategy, with the planner on and off, and go through random
assert / retract / flip sequences.  The lineage hazards — a rolled-back
copy that reaches the same version by different writes, a rebase on
commit, DROP + CREATE under one name, a hierarchy edit, a strategy
change, ``load_tuples`` and ``clear`` — each get a property or a
deterministic test, and a companion test pins the patch path open so
the suite cannot pass by always recomputing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import planner
from repro.core import HRelation, RelationSchema, algebra
from repro.core.preemption import STRATEGIES
from repro.engine.database import HierarchicalDatabase
from repro.errors import InconsistentRelationError
from repro.hierarchy import Hierarchy
from repro.obs import default_registry
from tests.property.test_component_sweeps_props import draw_relation, layout_hierarchies
from tests.property.test_delta_scope_props import (
    SCHEMA_KINDS,
    STRATEGY_NAMES,
    draw_item,
    single_component_hierarchies,
)

OPS = ("union", "intersection", "difference", "select", "all3", "plain_union")


@pytest.fixture(params=[True, False], ids=["planner-on", "planner-off"], autouse=True)
def planner_mode(request):
    planner.reset()
    planner.configure(enabled=request.param)
    yield request.param
    planner.reset()


@pytest.fixture
def serial():
    """Pin the parallel layer off, for tests counting patches: a
    sharded first evaluation leaves nothing to patch."""
    from repro import parallel

    parallel.configure(workers=0)
    yield
    parallel.reset()


@st.composite
def inputs(draw):
    """Three relations over one drawn schema kind, one strategy."""
    kind = draw(st.sampled_from(SCHEMA_KINDS))
    h = draw(single_component_hierarchies() if kind == "single" else layout_hierarchies())
    arity = 2 if kind == "binary" else 1
    schema = RelationSchema([("a{}".format(i), h) for i in range(arity)])
    strategy = STRATEGIES[draw(st.sampled_from(STRATEGY_NAMES))]
    out = []
    for name in ("r", "s", "t"):
        relation = draw_relation(draw, schema, name, root_tuple=False)
        if kind == "root" and draw(st.booleans()):
            relation.assert_item(schema.product.top, truth=draw(st.booleans()), replace=True)
        relation.strategy = strategy
        out.append(relation)
    return out


def fresh(relation: HRelation) -> HRelation:
    """The same tuples, in the same order, with no memo or history."""
    out = HRelation(relation.schema, name=relation.name, strategy=relation.strategy)
    for item, truth in relation.asserted.items():
        out.assert_item(item, truth=truth)
    return out


def apply(op, relations, cone):
    r, s, t = relations
    if op == "union":
        return algebra.union(r, s, name="out")
    if op == "intersection":
        return algebra.intersection(r, s, name="out")
    if op == "difference":
        return algebra.difference(r, s, name="out")
    if op == "select":
        return algebra.select(r, dict(zip(r.schema.attributes, cone)), name="out")
    if op == "all3":
        return algebra.combine([r, s, t], lambda *x: all(x), name="out", fn_token="all")
    return algebra.combine(
        [r, s], lambda a, b: a or b, name="out", consolidate=False, fn_token="or"
    )


def outcome(op, relations, cone):
    """Tuples in insertion order, or the conflicted items raised."""
    try:
        out = apply(op, relations, cone)
    except InconsistentRelationError as exc:
        return ("inconsistent", [c.item for c in exc.conflicts])
    return (out.name, list(out.asserted.items()), out.version, out.changes_since(0))


def check(op, relations, cone):
    want = outcome(op, [fresh(r) for r in relations], cone)
    assert outcome(op, relations, cone) == want
    return want


def toggle(draw, relation):
    """One drawn write: add a tuple, flip a stored one or retract one."""
    stored = list(relation.asserted)
    action = draw(st.sampled_from(["assert", "flip", "retract"]))
    if action == "retract" and stored:
        relation.retract(draw(st.sampled_from(stored)))
    elif action == "flip" and stored:
        item = draw(st.sampled_from(stored))
        relation.assert_item(item, truth=not relation.asserted[item], replace=True)
    else:
        item = draw_item(draw, relation)
        relation.assert_item(item, truth=draw(st.booleans()), replace=True)


def patched_count() -> int:
    return default_registry().counter("algebra.combine.patched").value


# ----------------------------------------------------------------------
# random write sequences
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), relations=inputs(), op=st.sampled_from(OPS))
def test_patched_equals_fresh_over_write_sequences(data, relations, op):
    """Inconsistent inputs included: the patch must raise where, and
    as, the fresh run does."""
    cone = draw_item(data.draw, relations[0])
    check(op, relations, cone)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            toggle(data.draw, relations[data.draw(st.integers(0, 2))])
        check(op, relations, cone)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), relations=inputs(), op=st.sampled_from(OPS))
def test_copies_and_rolled_back_copies(data, relations, op):
    """A staged copy shares its base's memo; after the copy is thrown
    away, the base reaches the same version by different writes."""
    cone = draw_item(data.draw, relations[0])
    check(op, relations, cone)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        position = data.draw(st.integers(0, 2))
        base = relations[position]
        staged = base.copy()
        writes = data.draw(st.integers(min_value=1, max_value=3))
        for _ in range(writes):
            toggle(data.draw, staged)
        check(op, relations[:position] + [staged] + relations[position + 1:], cone)
        if data.draw(st.booleans()):
            relations[position] = staged  # committed
        else:
            while base.version < staged.version:  # rolled back, diverging
                toggle(data.draw, base)
        check(op, relations, cone)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), relations=inputs(), op=st.sampled_from(OPS))
def test_wipes_edits_and_strategy_changes(data, relations, op):
    cone = draw_item(data.draw, relations[0])
    check(op, relations, cone)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        relation = relations[data.draw(st.integers(0, 2))]
        hazard = data.draw(st.sampled_from(["load", "clear", "edit", "strategy", "write"]))
        if hazard == "load":
            version = data.draw(st.sampled_from([0, relation.version, relation.version + 1]))
            relation.load_tuples(list(relation.asserted.items()), version=version)
        elif hazard == "clear":
            relation.clear()
        elif hazard == "edit":
            h = relation.schema.hierarchies[0]
            parent = data.draw(st.sampled_from([n for n in h.nodes() if not h.is_instance(n)]))
            h.add_class("x{}".format(len(h)), parents=[parent])
        elif hazard == "strategy":
            name = data.draw(st.sampled_from(STRATEGY_NAMES))
            for other in relations:
                other.strategy = STRATEGIES[name]
        toggle(data.draw, relation)
        check(op, relations, cone)


def cones_meet(hierarchy, a, b) -> bool:
    return bool(hierarchy.downward_closure([a]) & hierarchy.downward_closure([b]))


def region_by_definition(product, candidates, changed):
    """The candidates whose value on every attribute has a cone meeting
    some changed item's value there."""
    return [
        i for i, item in enumerate(candidates)
        if changed and all(
            any(cones_meet(h, value, c[p]) for c in changed)
            for p, (h, value) in enumerate(zip(product.factors, item))
        )
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), relations=inputs())
def test_region_matches_its_definition(data, relations):
    r = relations[0]
    product = r.schema.product
    candidates = sorted(algebra.meet_closure(product, r.asserted), key=product.sort_key())
    changed = [draw_item(data.draw, r) for _ in range(data.draw(st.integers(0, 3)))]
    got = algebra._region(product, candidates, changed)
    assert got == region_by_definition(product, candidates, changed)


# ----------------------------------------------------------------------
# deterministic companions
# ----------------------------------------------------------------------


def cones_hierarchy(cones=4, instances=3):
    h = Hierarchy("h", root="root")
    for c in range(cones):
        h.add_class("c{}".format(c))
        for i in range(instances):
            h.add_instance("c{}i{}".format(c, i), parents=["c{}".format(c)])
    return h


def cone_pair(h, cones=4):
    schema = RelationSchema([("v", h)])
    left = HRelation(schema, name="left")
    right = HRelation(schema, name="right")
    for c in range(cones):
        (left if c % 2 == 0 else right).assert_item(("c{}".format(c),))
        right.assert_item(("c{}i0".format(c),))
    return left, right


@pytest.mark.parametrize("changed", [[("c17i1",)], [("c3",), ("c9i0",)], [("root",)]])
def test_region_looks_up_few_nodes_and_filters_many(changed):
    """A leaf or a class overlaps a handful of nodes, which ``_region``
    looks up by sort key among the candidates; the root overlaps every
    node, and the whole list is filtered instead.  Both give the
    definition's answer."""
    h = cones_hierarchy(cones=40)
    product = RelationSchema([("v", h)]).product
    candidates = sorted(((node,) for node in h.nodes()), key=product.sort_key())
    got = algebra._region(product, candidates, changed)
    assert got == region_by_definition(product, candidates, changed)


@pytest.mark.parametrize("op", ["union", "intersection", "difference", "select"])
def test_one_tuple_write_is_patched(op, serial):
    left, right = cone_pair(cones_hierarchy())
    relations = [left, right, right]
    check(op, relations, ("c0",))
    for item in [("c0i1",), ("c1i2",), ("c0i1",)]:
        before = patched_count()
        if item in left.asserted:
            left.retract(item)
        else:
            left.assert_item(item, truth=False)
        check(op, relations, ("c0",))
        # ``check`` ran the fresh reference first: its inputs have no
        # memo, so only the patched call counts.
        assert patched_count() == before + 1


def test_a_rolled_back_copy_reaching_the_same_version_is_not_trusted(serial):
    left, right = cone_pair(cones_hierarchy())
    algebra.union(left, right)
    staged = left.copy()
    staged.assert_item(("c0i1",), truth=False)
    algebra.union(staged, right)  # recorded in the memo left shares
    left.assert_item(("c2i1",), truth=False)
    assert left.version == staged.version
    before = patched_count()
    check("union", [left, right, right], None)
    assert patched_count() == before


def test_drop_and_create_under_one_name_recomputes(serial):
    h = cones_hierarchy()
    db = HierarchicalDatabase("d")
    db.register_hierarchy(h)
    left, right = cone_pair(h)
    db.register_relation(left)
    db.register_relation(right)
    algebra.union(db.relation("left"), db.relation("right"))
    db.drop_relation("right")
    db.create_relation("right", [("v", "h")])
    db.insert("right", ("c1i1",))
    before = patched_count()
    check("union", [db.relation("left"), db.relation("right"), left], None)
    assert patched_count() == before


def test_rebased_commit_is_patched_and_matches(serial):
    h = cones_hierarchy()
    db = HierarchicalDatabase("d")
    db.register_hierarchy(h)
    left, right = cone_pair(h)
    db.register_relation(left)
    db.register_relation(right)
    algebra.union(db.relation("left"), db.relation("right"))
    txn = db.transaction()
    txn.assert_item("left", ("c0i1",), truth=False)
    with db.transaction() as first:
        first.assert_item("left", ("c2i2",), truth=False)
    txn.commit()  # rebases onto the first commit
    assert db.metrics.counter("txn.rebases").value == 1
    before = patched_count()
    check("union", [db.relation("left"), db.relation("right"), left], None)
    assert patched_count() == before + 1


def test_an_inconsistent_input_raises_like_a_fresh_run():
    h = Hierarchy("h", root="root")
    h.add_class("a")
    h.add_class("b")
    h.add_instance("ab", parents=["a", "b"])
    schema = RelationSchema([("v", h)])
    left = HRelation(schema, name="left")
    right = HRelation(schema, name="right")
    left.assert_item(("a",))
    right.assert_item(("b",))
    relations = [left, right, right]
    check("union", relations, None)
    left.assert_item(("b",), truth=False)  # a and -b now conflict at ab
    want = check("union", relations, None)
    assert want == ("inconsistent", [("ab",)])


def test_threads_sharing_one_memo_get_fresh_answers():
    """Copies share their base's memo; threads evaluating diverging
    copies at once must each get their own copy's answer (the memo
    takes no lock: a state is never mutated once recorded, so a lost
    update costs a later full evaluation, never a wrong answer)."""
    import sys
    import threading

    left, right = cone_pair(cones_hierarchy(cones=8), cones=8)
    algebra.union(left, right)
    copies = []
    for c in range(8):
        staged = left.copy()
        staged.assert_item(("c{}i{}".format(c, c % 3),), truth=False)
        copies.append(staged)
    want = [outcome("union", [fresh(c), fresh(right), right], None) for c in copies]
    errors = []

    def work(k):
        try:
            for _ in range(20):
                got = outcome("union", [copies[k], right, right], None)
                if got != want[k]:
                    errors.append(k)
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(copies))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
