"""Differential test: delta-scoped writes and cone-scoped selections.

Three shortcuts let a statement pay for the cone it touches rather than
the whole relation, and each must be invisible in the answers:

* a stale bulk evaluator — the relation's own, or one handed over by
  ``HRelation.copy`` — is patched forward over the relation's delta log
  instead of rebuilt (``BulkEvaluator.derived``);
* a conflict scan after a clean one probes only the cones of the items
  changed since (``find_conflicts`` with a clean stamp);
* a selection whose condition is false when every membership test is
  seeds only from the stored items that may meet a cone
  (``algebra.select_cones``).

Each property compares the shortcut with the path it replaces: a fresh
``BulkEvaluator``, a full scan of a stampless rebuild, and the pointwise
combinator over materialised one-tuple cone relations.  Hierarchies and
relations come from the component-sweep suite's generators (several
components, a bridge merging two, root tuples, redundant and preference
edges, binary schemas), plus single-component hierarchies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HRelation, RelationSchema, bulk, select
from repro.core.algebra import combine
from repro.core.conflicts import find_conflicts
from repro.core.preemption import STRATEGIES
from repro.core.where import And, Not, Or, member, select_where
from repro.engine.database import HierarchicalDatabase
from repro.errors import InconsistentRelationError
from repro.hierarchy import Hierarchy
from repro.obs import default_registry
from tests.property.test_component_sweeps_props import draw_relation, layout_hierarchies

STRATEGY_NAMES = sorted(STRATEGIES)
SCHEMA_KINDS = ("unary", "root", "single", "binary")


@st.composite
def single_component_hierarchies(draw, name: str = "h") -> Hierarchy:
    """One cone under the root: a small tree, sometimes with a diamond."""
    h = Hierarchy(name, root="root")
    h.add_class("top")
    members = ["top"]
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        node = "n{}".format(k)
        h.add_class(node, parents=[draw(st.sampled_from(members))])
        members.append(node)
    if draw(st.booleans()):
        parents = draw(st.lists(st.sampled_from(members), min_size=2, max_size=2, unique=True))
        if not h.subsumes(*parents) and not h.subsumes(*reversed(parents)):
            h.add_instance("meet", parents=parents)
    return h


@st.composite
def relations(draw):
    """A drawn relation of one of :data:`SCHEMA_KINDS`, under a drawn
    strategy: unary over several components, unary holding a root tuple
    (one group for the whole pool), unary over a single component, and
    binary."""
    kind = draw(st.sampled_from(SCHEMA_KINDS))
    if kind == "single":
        h = draw(single_component_hierarchies())
    else:
        h = draw(layout_hierarchies())
    arity = 2 if kind == "binary" else 1
    schema = RelationSchema([("a{}".format(i), h) for i in range(arity)])
    relation = draw_relation(draw, schema, "r", root_tuple=False)
    if kind == "root":
        relation.assert_item(schema.product.top, truth=draw(st.booleans()), replace=True)
    if kind == "binary" and draw(st.booleans()):
        # A padded item: the root on one attribute only.
        value = draw(st.sampled_from(h.nodes()))
        item = draw(st.sampled_from([(h.root, value), (value, h.root)]))
        relation.assert_item(item, truth=draw(st.booleans()), replace=True)
    relation.strategy = STRATEGIES[draw(st.sampled_from(STRATEGY_NAMES))]
    return relation


def draw_item(draw, relation):
    return tuple(draw(st.sampled_from(h.nodes())) for h in relation.schema.hierarchies)


def mutate(draw, relation, kinds=("assert", "assert", "retract", "copy")):
    """Apply one drawn mutation; returns the (possibly new) relation.

    ``assert`` adds a tuple or flips a stored one, ``retract`` drops a
    stored one, ``copy`` hands the relation's evaluator and stamp to a
    copy, ``clear`` and ``load`` wipe the delta log, ``edit`` adds a
    node to a hierarchy (moving the product version)."""
    op = draw(st.sampled_from(kinds))
    stored = list(relation.asserted)
    if op == "assert":
        item = draw_item(draw, relation)
        if item in relation.asserted:
            relation.assert_item(item, truth=not relation.asserted[item], replace=True)
        else:
            relation.assert_item(item, truth=draw(st.booleans()))
    elif op == "retract" and stored:
        relation.retract(draw(st.sampled_from(stored)))
    elif op == "copy":
        relation = relation.copy()
    elif op == "clear":
        relation.clear()
    elif op == "load":
        relation.load_tuples(list(relation.asserted.items()), version=relation.version + 1)
    elif op == "edit":
        h = draw(st.sampled_from(relation.schema.hierarchies))
        parent = draw(st.sampled_from([n for n in h.nodes() if not h.is_instance(n)]))
        h.add_class("x{}".format(len(h)), parents=[parent])
    return relation


def answers(evaluator, relation):
    """Every answer the evaluator gives over the whole (tiny) domain."""
    out = []
    for item in relation.schema.product.all_items():
        truth, binders = evaluator.truth_and_binders(item)
        out.append((item, evaluator.truth(item), truth, [(b.item, b.truth) for b in binders]))
    try:
        mixed = evaluator.mixed_sign_items()
    except ValueError:
        mixed = "unavailable"
    return out, mixed


def conflict_rows(conflicts):
    return [(c.item, [(b.item, b.truth) for b in c.binders]) for c in conflicts]


def full_scan(relation):
    """The conflicts a stampless, evaluator-less rebuild reports."""
    fresh = HRelation(relation.schema, name=relation.name, strategy=relation.strategy)
    for item, truth in relation.asserted.items():
        fresh.assert_item(item, truth=truth)
    return conflict_rows(find_conflicts(fresh))


# ----------------------------------------------------------------------
# patched evaluators
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_patched_evaluator_matches_fresh_build(data):
    relation = data.draw(relations())
    bulk.evaluator_for(relation)
    kinds = ("assert", "assert", "assert", "retract", "retract", "copy", "clear", "load", "edit")
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        relation = mutate(data.draw, relation, kinds)
        patched = bulk.evaluator_for(relation)
        assert patched.key == (relation.strategy.name, relation.version, relation.schema.product.version)
        assert patched.relation is relation
        fresh = bulk.BulkEvaluator(relation, relation.strategy)
        assert answers(patched, relation) == answers(fresh, relation)


def test_patches_replace_builds_on_copies():
    h = Hierarchy("h", root="root")
    for c in range(3):
        h.add_class("c{}".format(c))
        for i in range(3):
            h.add_instance("c{}i{}".format(c, i), parents=["c{}".format(c)])
    relation = HRelation(RelationSchema([("v", h)]), name="r")
    for c in range(3):
        relation.assert_item(("c{}".format(c),))
    relation.assert_item(("c2i0",))
    base = bulk.evaluator_for(relation)
    registry = default_registry()
    builds = registry.counter("bulk.evaluator.builds").value
    patches = registry.counter("bulk.evaluator.patches").value
    staged = relation.copy()
    staged.assert_item(("c1i1",), truth=False)
    staged.retract(("c2",))
    staged.assert_item(("c0",), truth=False, replace=True)
    patched = bulk.evaluator_for(staged)
    assert registry.counter("bulk.evaluator.builds").value == builds
    assert registry.counter("bulk.evaluator.patches").value == patches + 1
    assert [patched.truth(("c{}i1".format(c),)) for c in range(3)] == [False, False, False]
    # The parent snapshot still answers for the unchanged relation.
    assert [base.truth(("c{}i1".format(c),)) for c in range(3)] == [True, True, True]
    assert bulk.evaluator_for(relation) is base


def test_a_root_tuple_or_many_dead_bits_force_a_full_build():
    h = Hierarchy("h", root="root")
    for c in range(2):
        h.add_class("c{}".format(c))
        h.add_instance("c{}i".format(c), parents=["c{}".format(c)])
    relation = HRelation(RelationSchema([("v", h)]), name="r")
    relation.assert_item(("c0",))
    relation.assert_item(("c1",))
    bulk.evaluator_for(relation)
    builds = default_registry().counter("bulk.evaluator.builds")
    before = builds.value
    relation.assert_item(("root",), truth=False)
    bulk.evaluator_for(relation)
    assert builds.value == before + 1  # the root would merge the groups
    relation.retract(("root",))
    bulk.evaluator_for(relation)
    assert builds.value == before + 1
    relation.retract(("c0",))
    assert bulk.evaluator_for(relation).truth(("c0i",)) is False
    assert builds.value == before + 2  # c0's group: one dead bit, no live one


# ----------------------------------------------------------------------
# scoped conflict scans
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scoped_scan_matches_full_scan(data):
    """Each round stages one to three writes on a copy and keeps them
    only when the scan finds nothing — as a commit would — so the
    relation carries a clean stamp most of the time and most scans are
    scoped."""
    relation = data.draw(relations())
    find_conflicts(relation)
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        staged = relation.copy()
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            staged = mutate(data.draw, staged)
        got = conflict_rows(find_conflicts(staged))
        assert got == full_scan(staged)
        if not got:
            relation = staged


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commits_are_rejected_exactly_when_a_full_scan_finds_conflicts(data):
    relation = data.draw(relations())
    db = HierarchicalDatabase("d")
    for h in relation.schema.hierarchies:
        if h.name not in db.hierarchies:
            db.register_hierarchy(h)
    clean = HRelation(relation.schema, name="r", strategy=relation.strategy)
    db.register_relation(clean)
    reference = clean.copy()
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        ops = [
            (draw_item(data.draw, reference), data.draw(st.booleans()))
            for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
        ]
        concurrent = data.draw(st.booleans())
        resolve = data.draw(st.sampled_from([None, True, False]))
        txn = db.transaction()
        expected = reference.copy()
        for item, truth in ops:
            txn.assert_item("r", item, truth=truth, replace=True)
            expected.assert_item(item, truth=truth, replace=True)
        if concurrent:
            # Another writer commits first, so this commit rebases.
            other_item = draw_item(data.draw, reference)
            other = reference.copy()
            other.assert_item(other_item, truth=True, replace=True)
            if not full_scan(other):
                with db.transaction() as first:
                    first.assert_item("r", other_item, truth=True, replace=True)
                reference = other
                expected = reference.copy()
                for item, truth in ops:
                    expected.assert_item(item, truth=truth, replace=True)
        if resolve is not None:
            try:
                txn.resolve_conflicts("r", resolve)
            except InconsistentRelationError:
                txn.rollback()
                continue
            expected = txn.relation("r").copy()
            if concurrent:
                expected = None  # the rebase replays the resolution
        try:
            txn.commit()
        except InconsistentRelationError:
            assert expected is None or full_scan(expected)
            assert db.relation("r").same_tuples_as(reference)
        else:
            live = db.relation("r")
            assert not full_scan(live)
            if expected is not None:
                assert live.same_tuples_as(expected)
            reference = live.copy()


def test_second_commit_scans_only_the_changed_cone():
    h = Hierarchy("h", root="root")
    for c in range(4):
        h.add_class("c{}".format(c))
        for i in range(3):
            h.add_instance("c{}i{}".format(c, i), parents=["c{}".format(c)])
    db = HierarchicalDatabase("d")
    db.register_hierarchy(h)
    db.create_relation("r", [("v", "h")])
    for c in range(4):
        db.insert("r", ("c{}".format(c),))
    scoped = default_registry().counter("conflicts.scans.scoped")
    before = scoped.value
    db.insert("r", ("c2i0",), truth=False)
    assert scoped.value == before + 1
    h.add_class("c2x", parents=["c2"])
    db.insert("r", ("c2x",), truth=False)  # the hierarchy moved: full scan
    assert scoped.value == before + 1
    db.insert("r", ("c1i0",), truth=False)
    assert scoped.value == before + 2


# ----------------------------------------------------------------------
# cone-scoped selections
# ----------------------------------------------------------------------


@st.composite
def conditions(draw, schema, depth=2):
    attribute = draw(st.sampled_from(list(schema.attributes)))
    h = schema.hierarchies[schema.index_of(attribute)]
    leaf = member(attribute, draw(st.sampled_from(h.nodes())))
    if depth == 0 or draw(st.booleans()):
        return leaf
    shape = draw(st.sampled_from(["and", "or", "not"]))
    if shape == "not":
        return Not(draw(conditions(schema, depth - 1)))
    parts = [draw(conditions(schema, depth - 1)) for _ in range(2)]
    return And(*parts) if shape == "and" else Or(*parts)


def via_cone_relations(relation, condition):
    """``select_where`` as the pointwise combinator over materialised
    one-tuple cone relations, seeded with every stored item."""
    leaves = list(dict.fromkeys(condition.members()))
    cones = []
    for leaf in leaves:
        cone = HRelation(relation.schema, name="cone", strategy=relation.strategy)
        cone.assert_item(
            relation.schema.item_from_mapping({leaf.attribute: leaf.node}, default_top=True)
        )
        cones.append(cone)

    def fn(relation_truth, *cone_truths):
        return relation_truth and condition.evaluate(dict(zip(leaves, cone_truths)))

    return combine([relation, *cones], fn)


def outcome(compute):
    try:
        return list(compute().asserted.items())
    except InconsistentRelationError:
        return "inconsistent"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scoped_selection_matches_unscoped(data):
    relation = data.draw(relations())
    schema = relation.schema
    condition = data.draw(conditions(schema))
    scoped = default_registry().counter("algebra.select.scoped")
    before = scoped.value
    want = outcome(lambda: via_cone_relations(relation, condition))
    got = outcome(lambda: select_where(relation, condition))
    if want != "inconsistent":
        assert got == want
    if condition.evaluate(dict.fromkeys(condition.members(), False)):
        assert scoped.value == before  # a top-level negation never scopes

    attribute = data.draw(st.sampled_from(list(schema.attributes)))
    h = schema.hierarchies[schema.index_of(attribute)]
    conditions_map = {attribute: data.draw(st.sampled_from(h.nodes()))}
    if len(schema.attributes) > 1 and data.draw(st.booleans()):
        other = [a for a in schema.attributes if a != attribute][0]
        conditions_map[other] = data.draw(st.sampled_from(h.nodes()))
    cone_item = schema.item_from_mapping(conditions_map, default_top=True)
    cone = HRelation(schema, name="cone", strategy=relation.strategy)
    cone.assert_item(cone_item)
    want = outcome(lambda: combine([relation, cone], lambda a, b: a and b))
    got = outcome(lambda: select(relation, conditions_map))
    if want != "inconsistent":
        assert got == want


def test_negated_selection_is_not_scoped():
    h = Hierarchy("h", root="root")
    for c in range(2):
        h.add_class("c{}".format(c))
        h.add_instance("c{}i".format(c), parents=["c{}".format(c)])
    relation = HRelation(RelationSchema([("v", h)]), name="r")
    relation.assert_item(("c0",))
    relation.assert_item(("c1",))
    scoped = default_registry().counter("algebra.select.scoped")
    before = scoped.value
    assert sorted(select_where(relation, Not(member("v", "c0"))).extension()) == [("c1i",)]
    assert scoped.value == before
    assert sorted(select_where(relation, member("v", "c0")).extension()) == [("c0i",)]
    assert scoped.value == before + 1


@pytest.mark.parametrize("node", ["root", "c0"])
def test_selection_on_the_root_seeds_everything(node):
    h = Hierarchy("h", root="root")
    h.add_class("c0")
    h.add_instance("c0i", parents=["c0"])
    relation = HRelation(RelationSchema([("v", h)]), name="r")
    relation.assert_item(("c0",))
    assert sorted(select(relation, {"v": node}).extension()) == [("c0i",)]


def test_a_root_value_on_the_conditioned_attribute_keeps_its_seed():
    """``(root, c1)`` meets the cone ``(c0, root)`` in ``(c0, c1)``, a
    candidate no other seed yields."""
    h = Hierarchy("h", root="root")
    for c in range(2):
        h.add_class("c{}".format(c))
        h.add_instance("c{}i".format(c), parents=["c{}".format(c)])
    relation = HRelation(RelationSchema([("a0", h), ("a1", h)]), name="r")
    relation.assert_item(("root", "c1"))
    want = [(("c0", "c1"), True)]
    assert list(select(relation, {"a0": "c0"}).asserted.items()) == want
    assert list(select_where(relation, member("a0", "c0")).asserted.items()) == want
    # A cone constraining two attributes takes the general seed filter.
    relation.retract(("root", "c1"))
    relation.assert_item(("root", "c1i"))
    want = [(("c0", "c1i"), True)]
    assert list(select(relation, {"a0": "c0", "a1": "c1"}).asserted.items()) == want
