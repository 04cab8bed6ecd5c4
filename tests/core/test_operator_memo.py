"""The pointwise operators' memo (``algebra._Lineage``): bounded, keeping
no other input alive, and serving every view over one source.

The differential suite (``tests/property/test_combine_patch_props.py``)
checks that patched answers equal fresh ones; these tests check what
the memo holds and when it patches.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import parallel
from repro.core import HRelation, MaterializedView, ViewPlan, algebra
from repro.obs import default_registry
from tests.property.test_combine_patch_props import cone_pair, cones_hierarchy, fresh


@pytest.fixture(autouse=True)
def serial():
    parallel.configure(workers=0)
    yield
    parallel.reset()


def limit(relation: HRelation) -> int:
    return max(4, len(relation).bit_length())


def toggle(relation: HRelation, item) -> None:
    if item in relation.asserted:
        relation.retract(item)
    else:
        relation.assert_item(item, truth=False)


def same(one: HRelation, other: HRelation) -> bool:
    return list(one.asserted.items()) == list(other.asserted.items())


def test_a_fresh_second_input_is_not_kept_alive():
    """An operator output's history starts with no logged write, so its
    mark is its history start; the memo must hold that only weakly."""
    left, right = cone_pair(cones_hierarchy())
    other = HRelation.from_ordered(right.schema, dict(right.asserted), name="other")
    start = weakref.ref(other._epoch)
    algebra.intersection(left, other)
    del other
    gc.collect()
    assert start() is None
    algebra.union(left, right)  # the next record prunes the dead entry
    for key in left._pointwise_memo:
        assert all(ref() is not None for ref in key[2:])


def test_semijoin_and_antijoin_after_writes_keep_the_memo_bounded():
    """Each call intersects the left input with a new projection; the
    long-lived left input's memo must not collect one state per call."""
    left, right = cone_pair(cones_hierarchy(cones=6), cones=6)
    for k in range(40):
        left = left.copy()  # an autocommit installs a copy sharing the memo
        toggle(left, ("c{}i{}".format(k % 6, 1 + k % 2),))
        got = (algebra.semijoin if k % 2 else algebra.antijoin)(left, right)
        want = (algebra.semijoin if k % 2 else algebra.antijoin)(fresh(left), fresh(right))
        assert same(got, want)
        assert len(left._pointwise_memo) <= limit(left)
    gc.collect()
    algebra.union(left, right)
    assert len(left._pointwise_memo) <= 2  # the union and one live semijoin input at most


def test_distinct_selections_are_bounded_and_do_not_evict_a_repeated_operator():
    left, right = cone_pair(cones_hierarchy(cones=12, instances=2), cones=12)
    algebra.union(left, right)
    patched = default_registry().counter("algebra.combine.patched")
    for c in range(12):
        algebra.select(left, {"v": "c{}".format(c)})
        assert len(left._pointwise_memo) <= limit(left)
        toggle(left, ("c{}i1".format(c),))
        before = patched.value
        assert same(algebra.union(left, right), algebra.union(fresh(left), fresh(right)))
        assert patched.value == before + 1


def test_two_selection_views_over_one_source_both_patch():
    """Each condition keeps its own state: alternating refreshes of two
    views (and an ad-hoc selection under a third condition in between)
    never evict each other."""
    left, _ = cone_pair(cones_hierarchy())
    views = [
        MaterializedView(
            "v{}".format(c), plan=ViewPlan("select", [left], {"v": "c{}".format(c)})
        )
        for c in (0, 2)
    ]
    for view in views:
        view.relation()
    for k in range(6):
        toggle(left, ("c{}i{}".format(2 * (k % 2), 1 + k % 2),))
        algebra.select(left, {"v": "c1"})
        for view, c in zip(views, (0, 2)):
            want = algebra.select(fresh(left), {"v": "c{}".format(c)}, name=view.name)
            assert same(view.relation(), want)
    assert [view.delta_refresh_count for view in views] == [6, 6]
    assert [view.refresh_count for view in views] == [1, 1]


@pytest.mark.parametrize("op", ["select", "union"])
def test_views_patch_under_the_parallel_layer(op):
    """A sharded first evaluation leaves no state, only the proof that
    the operator ran over these inputs: the next refresh evaluates
    serially from scratch and every later one patches."""
    parallel.configure(workers=1, min_tuples=0)
    left, right = cone_pair(cones_hierarchy(cones=8), cones=8)
    if op == "select":
        plan = ViewPlan("select", [left], {"v": "c0"})
        direct = lambda: algebra.select(fresh(left), {"v": "c0"}, name="v")  # noqa: E731
    else:
        plan = ViewPlan("union", [left, right])
        direct = lambda: algebra.union(fresh(left), fresh(right), name="v")  # noqa: E731
    view = MaterializedView("v", plan=plan)
    shards = default_registry().counter("parallel.ops")
    before = shards.value
    view.relation()
    assert shards.value == before + 1  # the gate passed: the first run sharded
    for k in range(4):
        toggle(left, ("c0i{}".format(1 + k % 2),))
        parallel.configure(workers=0)
        want = direct()
        parallel.configure(workers=1, min_tuples=0)
        assert same(view.relation(), want)
    assert shards.value == before + 1
    assert (view.refresh_count, view.delta_refresh_count) == (2, 3)
