"""P7: conflict-scan scaling — candidate probe vs exhaustive sweep.

The integrity machinery (section 3.1) must run at every commit, so the
meet-candidate optimisation matters: it probes only maximal common
descendants of opposite-sign pairs instead of every item of D*.  Both
are timed on the biology knowledge base and on a relation engineered to
carry many interacting signs.
"""

import pytest

from repro.core import find_conflicts
from repro.core.schema import RelationSchema
from repro.workloads import biology_dataset
from repro.workloads.generators import (
    balanced_tree_hierarchy,
    random_consistent_relation,
)


@pytest.fixture(scope="module")
def bio():
    return biology_dataset()


def full_scan(relation, exhaustive=False):
    """A scan of the whole relation: a clean scan leaves a stamp that
    lets the next scan probe only what changed since, here nothing."""
    relation._clean_stamp = None
    return find_conflicts(relation, exhaustive)


def test_p7_candidate_scan_biology(bio, benchmark):
    conflicts = benchmark(full_scan, bio.lays_eggs)
    assert conflicts == []


def test_p7_exhaustive_scan_biology(bio, benchmark):
    conflicts = benchmark(full_scan, bio.lays_eggs, True)
    assert conflicts == []


def test_p7_candidate_scan_mixed_relation(benchmark):
    hierarchy = balanced_tree_hierarchy("t", depth=3, fanout=4)
    schema = RelationSchema([("x", hierarchy)])
    relation = random_consistent_relation(
        schema, tuple_count=80, negative_ratio=0.4, seed=23
    )
    conflicts = benchmark(full_scan, relation)
    assert conflicts == []


def test_p7_commit_guard_cost(bio, benchmark):
    """The end-to-end cost a transaction pays per commit."""
    from repro.engine import HierarchicalDatabase

    db = HierarchicalDatabase("bio")
    db.register_hierarchy(bio.biology)
    db.register_relation(bio.can_fly.copy(name="guarded"))

    def insert_and_remove():
        db.insert("guarded", ("songbird",))  # redundant but legal
        db.delete("guarded", ("songbird",))
        return len(db.relation("guarded"))

    assert benchmark(insert_and_remove) == len(bio.can_fly)
