"""The binary snapshot codec is lossless — property-checked.

A database rebuilt from its binary snapshot must be *bit-identical* to
the original wherever the engine can observe: the asserted item → sign
map, the stored version counters, and every answer — the truth of each
stored item and hierarchy node, and the extension in emission order.

The wire flavour gets the same treatment: any result rows routed
through the columnar message blocks must decode to the exact JSON
shapes the v1 protocol would have shipped.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bulk
from repro.engine import HierarchicalDatabase, codec
from tests.answers import answers
from tests.property.strategies import relations


@settings(max_examples=40, deadline=None)
@given(relations(max_tuples=6, consistent=False))
def test_snapshot_roundtrip_is_bit_identical(relation):
    database = HierarchicalDatabase("prop")
    for hierarchy in relation.schema.hierarchies:
        if hierarchy.name not in database.hierarchies:
            database.register_hierarchy(hierarchy)
    database.register_relation(relation)

    recovered, _ = codec.decode_snapshot(codec.encode_snapshot(database))
    copy = recovered.relation(relation.name)

    assert copy.asserted == relation.asserted
    assert copy.version == relation.version
    for name, hierarchy in database.hierarchies.items():
        assert recovered.hierarchy(name).version == hierarchy.version
        assert set(recovered.hierarchy(name).nodes()) == set(hierarchy.nodes())

    assert answers(copy) == answers(relation)
    original_eval = bulk.evaluator_for(relation)
    copy_eval = bulk.evaluator_for(copy)
    for item in relation.schema.product.all_items():
        assert copy_eval.truth(item) == original_eval.truth(item)


@settings(max_examples=40, deadline=None)
@given(relations(max_tuples=6, arity=2, consistent=False))
def test_snapshot_roundtrip_binary_arity_two(relation):
    database = HierarchicalDatabase("prop2")
    for hierarchy in relation.schema.hierarchies:
        if hierarchy.name not in database.hierarchies:
            database.register_hierarchy(hierarchy)
    database.register_relation(relation)
    recovered, _ = codec.decode_snapshot(codec.encode_snapshot(database))
    copy = recovered.relation(relation.name)
    assert copy.asserted == relation.asserted
    assert answers(copy) == answers(relation)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.text(min_size=0, max_size=8), min_size=2, max_size=2),
            st.booleans(),
        ),
        max_size=30,
    )
)
def test_wire_pairs_decode_to_exact_json_shape(pairs):
    wire_pairs = [[list(values), truth] for values, truth in pairs]
    message = {
        "id": 1,
        "payload": {"tuples": codec.columnar_pairs(wire_pairs, 2)},
    }
    decoded = codec.decode_message(codec.encode_message(message))
    assert decoded == {"id": 1, "payload": {"tuples": wire_pairs}}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.text(min_size=0, max_size=8), min_size=3, max_size=3), max_size=30
    )
)
def test_wire_rows_decode_to_exact_json_shape(rows):
    wire_rows = [list(row) for row in rows]
    message = {"rows": codec.columnar_rows(wire_rows, 3)}
    assert codec.decode_message(codec.encode_message(message)) == {"rows": wire_rows}
