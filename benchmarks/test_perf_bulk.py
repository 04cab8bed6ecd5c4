"""P8: batch truth evaluation via one sweep (see bench_bulk.py for the
before/after comparison against per-item binding; these rows time the
shipped paths so regressions show up in the benchmark run)."""

import pytest

from benchmarks.bench_bulk import build_workload
from repro.core import find_conflicts
from repro.core.bulk import BulkEvaluator, evaluator_for


@pytest.fixture(scope="module")
def workload():
    return build_workload(100)  # 400 stored tuples


def test_p8_evaluator_build(workload, benchmark):
    relation, _ = workload

    def build():
        return BulkEvaluator(relation)

    evaluator = benchmark(build)
    assert evaluator.key[1] == relation.version


def test_p8_extension_sweep(workload, benchmark):
    relation, _ = workload

    def extension():
        relation._bulk_eval = None
        return sum(1 for _ in relation.extension())

    atoms = benchmark(extension)
    assert atoms == 100 * 8 - 100 * 3


def test_p8_conflict_scan(workload, benchmark):
    relation, _ = workload

    def scan():
        relation._bulk_eval = None
        relation._clean_stamp = None  # a full scan, not the no-change one
        return find_conflicts(relation)

    assert benchmark(scan) == []


def test_p8_repeated_truths_share_one_sweep(workload, benchmark):
    relation, _ = workload
    relation._bulk_eval = None
    probes = [("item{}_{}".format(c, m),) for c in range(100) for m in range(8)]

    def ask_all():
        evaluator = evaluator_for(relation)
        return sum(1 for item in probes if evaluator.truth(item))

    assert benchmark(ask_all) == 500
