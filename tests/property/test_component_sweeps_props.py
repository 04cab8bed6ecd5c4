"""Differential test: the component-local sweeps against a reference.

Every bitset sweep numbers its bits within one hierarchy component
(:class:`repro.core.bulk.Layout`).  These properties check the operators
built on those sweeps against a reference that uses none of them:
meets from descendant sets found by walking the class graph (which
also check ``descendants``/``ancestors``), truth values from the per-item
binding path, consolidation from the literal elimination procedure over
a pairwise subsumption graph, and the flat extension from
:mod:`repro.flat`.  Results are compared as ordered ``(item, truth)``
lists, so the emission order must match too.

The hierarchies are drawn to stress the layout: several top-level
cones, a node whose parents sit in two cones (merging them into one
component), tuples at the root (one group for the whole pool),
redundant edges (on-path and elimination binding), preference edges,
and binary schemas.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HRelation,
    RelationSchema,
    binding,
    consolidate,
    difference,
    intersection,
    join,
    select,
    union,
)
from repro.core.conflicts import find_conflicts
from repro.core.consolidate import _redundant_by_elimination
from repro.core.htuple import UNIVERSAL
from repro.core.preemption import STRATEGIES
from repro.errors import AmbiguityError, CycleError, InconsistentRelationError
from repro.flat import FlatRelation
from repro.flat import algebra as flat_alg
from repro.hierarchy import Hierarchy, algorithms
from tests.property.test_algebra_props import under_strategy

STRATEGY_NAMES = sorted(STRATEGIES)


@st.composite
def layout_hierarchies(draw, name: str = "h") -> Hierarchy:
    """Two to four cones under the root, each a small tree, optionally
    joined by a node below two cones, a diamond inside a cone, a
    redundant edge and a preference edge."""
    h = Hierarchy(name, root="root")
    cones = []
    for c in range(draw(st.integers(min_value=2, max_value=4))):
        top = "c{}".format(c)
        h.add_class(top)
        members = [top]
        for k in range(draw(st.integers(min_value=0, max_value=3))):
            node = "{}n{}".format(top, k)
            h.add_class(node, parents=[draw(st.sampled_from(members))])
            members.append(node)
        cones.append(members)
    if draw(st.booleans()):
        a, b = draw(st.sampled_from([(x, y) for x, y in itertools.combinations(cones, 2)]))
        h.add_class("bridge", parents=[draw(st.sampled_from(a)), draw(st.sampled_from(b))])
        if draw(st.booleans()):
            h.add_instance("bridge_i", parents=["bridge"])
    if draw(st.booleans()):
        cone = draw(st.sampled_from(cones))
        if len(cone) >= 2:
            x, y = draw(st.sampled_from(list(itertools.combinations(cone, 2))))
            if not h.subsumes(x, y) and not h.subsumes(y, x):
                h.add_class("diamond", parents=[x, y])
    if draw(st.booleans()):
        # An edge parallel to a longer path, possibly from the root.
        pairs = [
            (above, node)
            for node in h.nodes()
            for parent in h.parents(node)
            for above in h.ancestors(parent, include_self=False)
            if above not in h.parents(node)
        ]
        if pairs:
            h.add_edge(*draw(st.sampled_from(sorted(pairs))))
    if draw(st.booleans()):
        nodes = [n for n in h.nodes() if n != "root"]
        weaker, stronger = draw(st.sampled_from(list(itertools.permutations(nodes, 2))))
        try:
            h.add_preference_edge(weaker, stronger)
        except CycleError:
            pass
    return h


def draw_relation(draw, schema, name, root_tuple=True):
    relation = HRelation(schema, name=name)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        item = tuple(draw(st.sampled_from(h.nodes())) for h in schema.hierarchies)
        if item not in relation.asserted:
            relation.assert_item(item, truth=draw(st.booleans()))
    if root_tuple and draw(st.booleans()):
        relation.assert_item(schema.product.top, truth=draw(st.booleans()), replace=True)
    return relation


# ----------------------------------------------------------------------
# the reference: no bitset sweeps
# ----------------------------------------------------------------------


def ref_descendants(h, node, graph=None):
    """``node`` and everything below it, by walking the adjacency
    (``h.class_graph()`` unless ``graph`` is given)."""
    graph = h.class_graph() if graph is None else graph
    seen = {node}
    stack = [node]
    while stack:
        for child in graph[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def ref_subsumes(product, general, specific) -> bool:
    return all(
        s in ref_descendants(h, g) for h, g, s in zip(product.factors, general, specific)
    )


def ref_meet(product, a, b):
    per_attribute = []
    for h, x, y in zip(product.factors, a, b):
        common = ref_descendants(h, x) & ref_descendants(h, y)
        top = [
            n for n in common
            if not any(m != n and n in ref_descendants(h, m) for m in common)
        ]
        if not top:
            return []
        per_attribute.append(sorted(top))
    return [tuple(combo) for combo in itertools.product(*per_attribute)]


def ref_closure(product, seeds):
    pool = set(seeds)
    pending = list(pool)
    while pending:
        new = pending.pop()
        for other in list(pool):
            for met in ref_meet(product, new, other):
                if met not in pool:
                    pool.add(met)
                    pending.append(met)
    return pool


def ref_sorted(product, items):
    ranks = [h.topological_ranks() for h in product.factors]
    return sorted(items, key=lambda item: tuple(r[v] for r, v in zip(ranks, item)))


def ref_truth(relation, item):
    return binding.truth_and_binders(relation, item, relation.strategy)[0]


def ref_redundant(schema, strategy, rows):
    """The items the literal consolidation procedure removes."""
    relation = HRelation(schema, name="ref", strategy=strategy)
    for item, truth in rows:
        relation.assert_item(item, truth=truth)
    product = schema.product
    if product.needs_elimination_binding():
        return set(_redundant_by_elimination(relation))
    items = [item for item, _ in rows]
    graph = {UNIVERSAL: set()}
    graph.update({item: set() for item in items})
    for j in items:
        above = [i for i in items if i != j and ref_subsumes(product, i, j)]
        covers = [
            i for i in above
            if not any(k != i and ref_subsumes(product, i, k) for k in above)
        ]
        for i in covers:
            graph[i].add(j)
        if not covers:
            graph[UNIVERSAL].add(j)
    removed = set()
    for node in algorithms.topological_order(graph):
        if node is UNIVERSAL:
            continue
        preds = algorithms.immediate_predecessors(graph, node)
        truths = {UNIVERSAL.truth if p is UNIVERSAL else relation.asserted[p] for p in preds}
        if truths == {relation.asserted[node]}:
            algorithms.eliminate_node(graph, node, keep_redundant=False)
            removed.add(node)
    return removed


def ref_pointwise(schema, strategy, truth_fns, fn, seeds):
    """``(unconsolidated rows, consolidated rows)`` in emission order,
    or :data:`REFUSED` twice when an input is ambiguous at a candidate
    (the operators refuse there)."""
    candidates = ref_sorted(schema.product, ref_closure(schema.product, seeds))
    rows = []
    for item in candidates:
        truths = [t(item) for t in truth_fns]
        if None in truths:
            return REFUSED, REFUSED
        rows.append((item, fn(*truths)))
    redundant = ref_redundant(schema, strategy, rows)
    return rows, [(item, truth) for item, truth in rows if item not in redundant]


REFUSED = "refused: an input is ambiguous at a candidate"


def outcome(operator, *args, **kwargs):
    """The operator's result rows in emission order, or :data:`REFUSED`."""
    try:
        return rows(operator(*args, **kwargs))
    except InconsistentRelationError:
        return REFUSED


def check_flat(got_rows, schema, strategy, expected):
    """The result's extension equals the flat oracle's, unless the
    result itself is ambiguous somewhere (possible without off-path
    preemption) and so has no flat equivalent.

    Hierarchies with preference edges are left out: consolidation
    eliminates nodes over the binding graph there, which can drop a
    tuple the extension needs — a known defect of consolidation, pinned
    by :func:`test_consolidation_under_preference_edges_keeps_the_extension`.
    The emission itself is still compared with the reference."""
    if got_rows == REFUSED or schema.product.has_preference_edges():
        return
    result = HRelation(schema, name="result", strategy=strategy)
    for item, truth in got_rows:
        result.assert_item(item, truth=truth)
    extension = ref_extension(result)
    if extension and extension[-1][0] == "conflict":
        return
    assert set(extension) == expected.rows()


def ref_extension(relation):
    """Atoms in emission order, ending in ``("conflict", atom)`` when an
    ambiguous atom stops the enumeration."""
    out, seen = [], set()
    for item, truth in relation.asserted.items():
        if not truth:
            continue
        for atom in relation.schema.product.leaves_under(item):
            if atom in seen:
                continue
            seen.add(atom)
            answer = ref_truth(relation, atom)
            if answer is None:
                return out + [("conflict", atom)]
            if answer:
                out.append(atom)
    return out


def extension_of(relation):
    out = []
    try:
        for atom in relation.extension():
            out.append(atom)
    except AmbiguityError as exc:
        out.append(("conflict", exc.item))
    return out


def rows(relation):
    return list(relation.asserted.items())


def flat(relation):
    return FlatRelation(relation.schema.attributes, ref_extension(relation))


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hierarchy_queries_match_descendant_sets(data):
    h = data.draw(layout_hierarchies())
    nodes = h.nodes()
    product = RelationSchema([("a", h)]).product
    assert h.topological_order() == algorithms.topological_order(
        h.class_graph(), tie_break=nodes
    )
    component = h.component_map()
    below = {a: ref_descendants(h, a) for a in nodes}
    binding_graph = h.binding_graph()
    for a in nodes:
        assert h.descendants(a) == below[a]
        assert h.descendants(a, include_self=False) == below[a] - {a}
        above = {x for x in nodes if a in below[x]}
        assert h.ancestors(a) == above
        assert h.ancestors(a, include_self=False) == above - {a}
        bind_below = ref_descendants(h, a, binding_graph)
        for b in nodes:
            if a != h.root and b != h.root and below[a] & below[b]:
                assert component[a] == component[b]
            assert h.subsumes(a, b) == (b in below[a])
            assert h.binding_subsumes(a, b) == (b in bind_below)
            assert sorted(h.maximal_common_descendants(a, b)) == sorted(
                m for (m,) in ref_meet(product, (a,), (b,))
            )
    pool = data.draw(st.lists(st.sampled_from(nodes), max_size=6))
    assert h.meet_closed_values(pool) == {v for (v,) in ref_closure(product, [(v,) for v in pool])}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_set_operators_match_reference(data):
    h = data.draw(layout_hierarchies())
    arity = data.draw(st.sampled_from([1, 1, 2]))
    schema = RelationSchema([("a{}".format(i), h) for i in range(arity)])
    left = draw_relation(data.draw, schema, "left")
    right = draw_relation(data.draw, schema, "right")
    under_strategy(data.draw(st.sampled_from(STRATEGY_NAMES)), left, right)
    right.strategy = left.strategy
    seeds = set(left.asserted) | set(right.asserted)
    truths = [lambda x: ref_truth(left, x), lambda x: ref_truth(right, x)]
    for op, fn, flat_op in (
        (union, lambda a, b: a or b, flat_alg.union),
        (intersection, lambda a, b: a and b, flat_alg.intersection),
        (difference, lambda a, b: a and not b, flat_alg.difference),
    ):
        plain, consolidated = ref_pointwise(schema, left.strategy, truths, fn, seeds)
        assert outcome(op, left, right, consolidate=False) == plain, op.__name__
        got = outcome(op, left, right)
        assert got == consolidated, op.__name__
        check_flat(got, schema, left.strategy, flat_op(flat(left), flat(right)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_select_consolidate_extension_match_reference(data):
    h = data.draw(layout_hierarchies())
    arity = data.draw(st.sampled_from([1, 1, 2]))
    schema = RelationSchema([("a{}".format(i), h) for i in range(arity)])
    relation = draw_relation(data.draw, schema, "r")
    under_strategy(data.draw(st.sampled_from(STRATEGY_NAMES)), relation)
    product = schema.product

    assert extension_of(relation) == ref_extension(relation)

    redundant = ref_redundant(schema, relation.strategy, rows(relation))
    assert rows(consolidate(relation)) == [
        (item, truth) for item, truth in rows(relation) if item not in redundant
    ]

    cone = data.draw(st.sampled_from(h.nodes()))
    cone_item = (cone,) + product.top[1:]
    seeds = set(relation.asserted) | {cone_item}
    plain, consolidated = ref_pointwise(
        schema,
        relation.strategy,
        [lambda x: ref_truth(relation, x), lambda x: ref_subsumes(product, cone_item, x)],
        lambda a, b: a and b,
        seeds,
    )
    assert outcome(select, relation, {"a0": cone}, consolidate=False) == plain
    got = outcome(select, relation, {"a0": cone})
    assert got == consolidated
    expected = flat_alg.select(flat(relation), lambda row: row["a0"] in ref_descendants(h, cone))
    check_flat(got, schema, relation.strategy, expected)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_join_matches_reference(data):
    h = data.draw(layout_hierarchies())
    left = draw_relation(data.draw, RelationSchema([("a", h), ("b", h)]), "left")
    right = draw_relation(data.draw, RelationSchema([("b", h)]), "right")
    under_strategy(data.draw(st.sampled_from(STRATEGY_NAMES)), left, right)
    right.strategy = left.strategy
    merged = left.schema.join_schema(right.schema)[0]
    padded = []
    for relation in (left, right):
        cylinder = HRelation(merged, name="cyl", strategy=relation.strategy)
        for item, truth in relation.asserted.items():
            full = list(merged.product.top)
            for value, attribute in zip(item, relation.schema.attributes):
                full[merged.index_of(attribute)] = value
            cylinder.assert_item(tuple(full), truth=truth)
        padded.append(cylinder)
    plain, consolidated = ref_pointwise(
        merged,
        left.strategy,
        [lambda x: ref_truth(padded[0], x), lambda x: ref_truth(padded[1], x)],
        lambda a, b: a and b,
        set(padded[0].asserted) | set(padded[1].asserted),
    )
    assert outcome(join, left, right, consolidate=False) == plain
    got = outcome(join, left, right)
    assert got == consolidated
    check_flat(got, merged, left.strategy, flat_alg.join(flat(left), flat(right)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_find_conflicts_matches_reference(data):
    h = data.draw(layout_hierarchies())
    arity = data.draw(st.sampled_from([1, 1, 2]))
    schema = RelationSchema([("a{}".format(i), h) for i in range(arity)])
    relation = draw_relation(data.draw, schema, "r")
    relation.strategy = STRATEGIES[data.draw(st.sampled_from(STRATEGY_NAMES))]
    product = schema.product
    if arity == 1 and not product.needs_elimination_binding():
        candidates = []
        for (node,) in product.all_items():
            signs = {
                truth
                for item, truth in relation.asserted.items()
                if ref_subsumes(product, item, (node,))
            }
            if signs == {True, False}:
                candidates.append((node,))
    else:
        positives = [i for i, t in relation.asserted.items() if t]
        negatives = [i for i, t in relation.asserted.items() if not t]
        candidates = {m for p in positives for n in negatives for m in ref_meet(product, p, n)}
    expected = []
    for item in ref_sorted(product, candidates):
        truth, binders = binding.truth_and_binders(relation, item, relation.strategy)
        if truth is None:
            expected.append((item, [(b.item, b.truth) for b in binders]))
    got = [
        (c.item, [(b.item, b.truth) for b in c.binders]) for c in find_conflicts(relation)
    ]
    assert got == expected
    assert extension_of(relation) == ref_extension(relation)


@pytest.mark.xfail(
    strict=True,
    reason="consolidation eliminates over the binding graph, so a preference "
    "edge between two incomparable classes drops the stronger class's tuple",
)
def test_consolidation_under_preference_edges_keeps_the_extension():
    h = Hierarchy("h", root="root")
    for node in ("a", "b"):
        h.add_class(node)
    h.add_preference_edge("a", "b")
    relation = HRelation(RelationSchema([("v", h)]), name="r")
    relation.assert_item(("a",), truth=True)
    relation.assert_item(("b",), truth=True)
    assert sorted(consolidate(relation).extension()) == [("a",), ("b",)]
