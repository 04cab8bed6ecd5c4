"""Property tests: with the cost gate disabled, every operator answers
bit-identically under parallel and serial execution, across random
hierarchies, random consistent relations, every preemption strategy,
and worker counts covering inline (1) and true multiprocessing (2, 4).

Random DAGs rarely decompose into many cones, so each example also
exercises the gate's decline path; the suite grafts every drawn
workload onto a two-cone star so a real multi-shard run happens on each
example as well.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import parallel
from repro.core import (
    HRelation,
    RelationSchema,
    difference,
    find_conflicts,
    intersection,
    union,
)
from repro.core.bulk import extension_atoms
from repro.core.explicate import explicate
from repro.errors import AmbiguityError
from repro.hierarchy import Hierarchy

from tests.property.strategies import pair_of_relations
from tests.property.test_algebra_props import under_strategy
from tests.parallel.helpers import same_relation, without_memos

STRATEGY_NAMES = ["off-path", "on-path", "none"]
WORKER_COUNTS = [1, 2, 4]

PROP_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def two_cone_graft(left, right):
    """Rebuild both relations over a hierarchy holding *two* disjoint
    copies of their (shared, unary) hierarchy, mirroring every tuple
    into the second cone — a workload guaranteed to decompose."""
    source = left.schema.hierarchies[0]
    grafted = Hierarchy("grafted", root="root*")

    def copy_into(prefix):
        for node in source.topological_order():
            parents = [
                prefix + p if p != source.root else "root*"
                for p in sorted(source.parents(node))
            ]
            if node == source.root:
                grafted.add_class(prefix + node, parents=["root*"])
            elif source.is_instance(node):
                grafted.add_instance(prefix + node, parents=parents)
            else:
                grafted.add_class(prefix + node, parents=parents)

    copy_into("L.")
    copy_into("R.")
    schema = RelationSchema([("a", grafted)])

    def rebuild(relation, name):
        out = HRelation(schema, name=name, strategy=relation.strategy)
        for (value,), truth in relation.asserted.items():
            out.assert_item(("L." + value,), truth=truth)
            out.assert_item(("R." + value,), truth=truth)
        return out

    return rebuild(left, "left2"), rebuild(right, "right2")


def serial_and_parallel(workers, fn, *args):
    parallel.configure(workers=0)
    try:
        expect, expect_error = fn(*args), None
    except (AmbiguityError,) as error:
        expect, expect_error = None, error
    parallel.configure(workers=workers, min_tuples=0)
    try:
        try:
            got, got_error = fn(*without_memos(*args)), None
        except (AmbiguityError,) as error:
            got, got_error = None, error
    finally:
        parallel.reset()
    assert type(expect_error) is type(got_error)
    return expect, got


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@PROP_SETTINGS
@given(pair=pair_of_relations(arity=1, max_tuples=5))
def test_operators_match_serial(pair, strategy, workers):
    left, right = pair
    under_strategy(strategy, left, right)
    for left_, right_ in ((left, right), two_cone_graft(left, right)):
        for op in (union, intersection, difference):
            expect, got = serial_and_parallel(workers, op, left_, right_)
            if expect is not None:
                assert same_relation(expect, got), op.__name__

        expect, got = serial_and_parallel(
            workers, lambda r: list(extension_atoms(r)), left_
        )
        if expect is not None:
            assert sorted(expect) == sorted(got)

        expect, got = serial_and_parallel(workers, explicate, left_)
        if expect is not None:
            assert same_relation(expect, got)

        expect, got = serial_and_parallel(workers, find_conflicts, left_)
        if expect is not None:
            assert [(c.item, c.binders) for c in expect] == [
                (c.item, c.binders) for c in got
            ]
