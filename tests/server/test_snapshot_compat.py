"""Backward compatibility: snapshots that persisted evaluator postings.

``tests/fixtures/postings_snapshot.bin`` was written by the encoder that
stored each relation's bulk-evaluator posting masks next to its rows
(one block per attribute, named by an envelope ``"postings"`` list).
Evaluators now number their bits per hierarchy component and rebuild
lazily, so recovery must skip those blocks and answer exactly as the
database built from ``postings_snapshot.hql`` does.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.engine import HierarchicalDatabase, codec
from repro.server.recovery import SNAPSHOT_FILE_BIN, RecoveryManager
from tests.answers import answers

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SNAPSHOT = FIXTURES / "postings_snapshot.bin"
SCRIPT = FIXTURES / "postings_snapshot.hql"


def source_database():
    database = HierarchicalDatabase("legacy")
    database.execute(SCRIPT.read_text())
    return database


def test_fixture_carries_posting_blocks():
    envelope = codec.snapshot_envelope(SNAPSHOT.read_bytes())
    assert all(spec.get("postings") for spec in envelope["relations"])


def test_recovery_skips_postings_and_answers_like_the_source(tmp_path):
    shutil.copy(SNAPSHOT, tmp_path / SNAPSHOT_FILE_BIN)
    manager = RecoveryManager(str(tmp_path))
    recovered = manager.recover()
    assert manager.last_recovery["format"] == "binary"
    source = source_database()
    assert sorted(recovered.relations) == sorted(source.relations)
    for name, relation in source.relations.items():
        copy = recovered.relation(name)
        assert list(copy.asserted.items()) == list(relation.asserted.items())
        assert answers(copy) == answers(relation), name
    assert recovered.execute("TRUTH flies (patricia);")[0].payload is True


def test_rewritten_snapshot_drops_the_posting_blocks():
    recovered, _ = codec.decode_snapshot(SNAPSHOT.read_bytes())
    data = codec.encode_snapshot(recovered)
    envelope = codec.snapshot_envelope(data)
    assert not any("postings" in spec for spec in envelope["relations"])
    assert len(data) < SNAPSHOT.stat().st_size
