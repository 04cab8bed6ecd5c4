"""Standard relational operators over hierarchical relations (section 3.4).

The paper fixes the semantics rather than the algorithms: "any
manipulations on hierarchical relations should have the same effect
whether performed on the hierarchical relations or on the equivalent
flat relations".  The algorithms here operate directly on the condensed
form — flattening only when the semantics itself is existential — via
one engine, the **pointwise combinator**:

    Given consistent relations R₁…Rₖ over one schema and a boolean
    function *fn* with fn(false,…,false) = false, emit the tuple
    ``(m, fn(truth₁(m), …, truthₖ(m)))`` for every item *m* in the
    *meet-closure* of the inputs' asserted items (plus any extra seed
    items).  The result's flat extension is the pointwise combination
    of the inputs' flat extensions.

    Why it works: let *m* be a minimal emitted item containing an item
    *y*, and let *t* be any minimal binder of *y* in Rᵢ.  Some maximal
    common descendant *q* of (m, t) lies above *y*; *q* is in the
    closure, and minimality of *m* forces q = m, hence m ⊆ t.  Then *t*
    is a minimal binder of *m* too (an interposer at *m* would interpose
    at *y*), so by Rᵢ's consistency truthᵢ(m) = truthᵢ(y).  Thus every
    strongest binder of *y* in the result carries
    fn(truth₁(y), …, truthₖ(y)); items below no candidate default to
    false, which fn's zero-preservation matches.  ∎

The operators then fall out:

* **union** = OR, **intersection** = AND, **difference** = AND-NOT;
* **selection** = AND with a one-tuple *cone* relation (the selection
  class, padded with hierarchy roots on the other attributes);
* **join** = AND of cylindric extensions over the merged schema;
* **projection** is existential, so it partially explicates the dropped
  attributes and ORs the per-dropped-atom slices.

Results may contain redundant tuples (the paper notes the same of its
own examples); every operator takes ``consolidate=`` (default ``True``)
since consolidation never changes the flat relation.
"""

from __future__ import annotations

import itertools
import math
import weakref
from bisect import bisect_left
from itertools import compress
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core import bulk as _bulk
from repro.core.conflicts import Conflict
from repro.core.consolidate import consolidate as _consolidate
from repro.core.consolidate import redundancy_sweep as _redundancy_sweep
from repro.core.explicate import explicate as _explicate
from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.errors import InconsistentRelationError, SchemaError
from repro.hierarchy.product import Item, ProductHierarchy
from repro.obs import default_registry
from repro.obs import span as _span
from repro.obs import trace as _trace


def _count(op: str) -> None:
    """Bump the operator's call counter in the process-global registry
    (core code has no database handle; see docs/OBSERVABILITY.md)."""
    default_registry().counter("algebra." + op + ".calls").inc()


def meet_closure(product: ProductHierarchy, items: Iterable[Item]) -> Set[Item]:
    """The smallest superset of ``items`` closed under pairwise meets
    (maximal common descendants).

    Delegates to :meth:`ProductHierarchy.meet_closure`: unary schemas
    run one bulk closed-value-set sweep (no item pairs at all); higher
    arities probe each unordered pair once against the factors'
    memoised meet tables, so no component meet is ever recomputed.
    """
    return product.meet_closure(items)


class _State:
    """What one pointwise evaluation leaves for the next over the same
    inputs: the candidates in topological order, their truths and
    whether each was emitted (``keep``: the fused consolidation's
    verdict), and the inputs' marks and the parameters it was computed
    under.  A sharded evaluation leaves no candidates.  Never mutated
    once recorded: a patch shares the lists it leaves untouched."""

    __slots__ = ("marks", "params", "fused", "candidates", "truths", "keep")

    def __init__(self) -> None:
        self.marks = self.params = self.fused = None
        self.candidates = self.truths = self.keep = None


class _Lineage:
    """Where an operator's last evaluation over ``relations`` is
    remembered, and the proof that the inputs continue it.

    The memo is a dict on the first input, shared with its copies like
    its evaluator, holding one :class:`_State` per operator ``token``,
    its parameters ``own`` and the other inputs' lineage.  It holds
    those inputs only weakly (their history starts in the key, weak
    marks in the state), prunes entries of dead ones on each record
    and keeps at most ``max(4, n.bit_length())`` entries for a first
    input of ``n`` tuples, least recently evaluated out first.
    :meth:`lookup` accepts a state only if every input provably
    continues its mark (:meth:`HRelation.changes_since_mark`) under the
    same strategies, hierarchy versions and evaluation ``plan``.
    ``seeds_among`` filters items down to the operator's seeds.  No
    lock: a recorded state is never mutated, so a lost update between
    threads costs a later full evaluation, never a wrong answer.
    """

    def __init__(
        self,
        relations: Sequence[HRelation],
        token: str,
        own: Tuple,
        plan: object,
        seeds_among: Callable[[Iterable[Item]], Set[Item]],
    ) -> None:
        self.relations = relations
        self.key = (token, own) + tuple(weakref.ref(r._epoch) for r in relations[1:])
        strategies = tuple(r.strategy.name for r in relations)
        self.params = (plan, relations[0].schema.product.version, strategies)
        self.seeds_among = seeds_among
        self.marks = [relation.mark() for relation in relations]
        self.previous: Optional[_State] = None
        self.changed: List[Item] = []

    def lookup(self) -> bool:
        """Whether this evaluation continues a recorded one, and so runs
        serially: patching :attr:`previous`, or — after a sharded run —
        from scratch, to leave a state to patch."""
        memo = self.relations[0]._pointwise_memo
        state = memo.get(self.key) if memo else None
        if state is None or state.params != self.params:
            return False
        changed: Dict[Item, None] = {}
        for relation, mark in zip(self.relations, state.marks):
            delta = relation.changes_since_mark(mark)
            if delta is None:
                return False
            changed.update(dict.fromkeys(delta))
        if state.candidates is not None:
            self.previous = state
            self.changed = list(changed)
        return True

    def record(self, state: _State) -> None:
        relations = self.relations
        state.marks = self.marks
        state.params = self.params
        memo = relations[0]._pointwise_memo
        if memo is None:
            memo = relations[0]._pointwise_memo = {}
        for key in list(memo):
            if any(ref() is None for ref in key[2:]):
                memo.pop(key, None)
        memo.pop(self.key, None)
        memo[self.key] = state
        limit = max(4, len(relations[0]).bit_length())
        while len(memo) > limit:
            memo.pop(next(iter(memo)), None)


def _truths(
    candidates: Sequence[Item],
    evaluators: Sequence[object],
    fn: Callable[..., bool],
    shortcircuit: Optional[str],
) -> List[bool]:
    """``fn`` of the evaluators' truths at each candidate, raising
    :class:`InconsistentRelationError` at the first conflict probed.
    With a ``shortcircuit``, a candidate's probes stop at the first
    truth settling ``fn`` (true for ``"or"``, false for ``"and"``)."""
    stop = {"or": True, "and": False}.get(shortcircuit)
    truths: List[bool] = []
    for item in candidates:
        row: List[bool] = []
        for evaluator in evaluators:
            truth = evaluator.truth(item)
            if truth is None:
                raise InconsistentRelationError([Conflict(item=item, binders=())])
            row.append(truth)
            if truth is stop:
                break
        truths.append(stop if row[-1] is stop else fn(*row))
    return truths


def _region(
    product: ProductHierarchy, candidates: Sequence[Item], changed: Sequence[Item]
) -> List[int]:
    """Indices, ascending, of the candidates whose value on every
    attribute overlaps (:meth:`Hierarchy.overlapping`) some changed
    item's value there: on unary schemas exactly the candidates whose
    cone meets a changed item's, on wider ones an upward-closed
    superset of them.  The nodes' combinations are looked up by sort
    key when that is cheaper than filtering the whole list (about
    ``size · log n`` against ``n`` steps): a leaf or a class overlaps a
    handful of nodes, the root every one."""
    if not changed:
        return []
    near: List[Set[str]] = [set() for _ in product.factors]
    for item in changed:
        for nodes, hierarchy, value in zip(near, product.factors, item):
            nodes.update(hierarchy.overlapping(value))
    n = len(candidates)
    if math.prod(map(len, near)) * n.bit_length() >= n:
        return [
            i for i, item in enumerate(candidates)
            if all(value in nodes for value, nodes in zip(item, near))
        ]
    key = product.sort_key()
    hits: Set[int] = set()
    for combo in itertools.product(*near):
        i = bisect_left(candidates, key(combo), key=key)
        if i < n and candidates[i] == combo:
            hits.add(i)
    return sorted(hits)


def _evaluate(
    schema: RelationSchema,
    previous: Optional[_State],
    changed: Sequence[Item],
    seeds: Callable[[], Iterable[Item]],
    seeds_among: Optional[Callable[[Iterable[Item]], Set[Item]]],
    evaluators: Sequence[object],
    fn: Callable[..., bool],
    shortcircuit: Optional[str],
    consolidate: bool,
) -> Optional[Tuple[_State, int]]:
    """The state of a pointwise evaluation, and how many candidates it
    evaluated: from scratch without a ``previous`` state, else patched
    from it over the ``changed`` items (``None`` when the patch cannot
    reuse it: the consolidation mode moved).

    A tuple at *x* decides truths only below *x*, so a candidate outside
    every changed cone keeps its truth, its closure membership (its
    generators lie above it) and its fused-consolidation verdict (its
    kept subsumers lie above it).  Inside, membership is re-derived
    from the closure of the seeds and candidates meeting a changed
    cone, truths are re-evaluated in topological order (a conflict
    raises as in a fresh run) and the redundancy sweep re-runs over
    the candidates meeting a changed cone, an upward-closed set, so
    each verdict sees the kept subsumers the full sweep would.  New
    candidates are spliced in by sort key.  From scratch, every cone
    is dirty.
    """
    from repro import planner as _planner

    product = schema.product
    key = product.sort_key()
    old = previous.candidates if previous is not None else []
    dirty: List[int] = []
    around: List[int] = []
    if previous is None:
        fresh = sorted(meet_closure(product, seeds()), key=key)
    else:

        def below(item: Item) -> bool:
            return any(product.subsumes(c, item) for c in changed)

        for i in _region(product, old, changed):
            (dirty if below(old[i]) else around).append(i)
        generators = [old[i] for i in around]
        generators.extend(seeds_among([old[i] for i in dirty] + list(changed)))
        fresh = sorted(
            (item for item in meet_closure(product, generators) if below(item)), key=key
        )
    count = len(old) - len(dirty) + len(fresh)
    fused = (
        consolidate
        and _planner.consolidation_mode(product.needs_elimination_binding(), count)
        == "fused"
    )
    if previous is not None and fused != previous.fused:
        return None
    truths = _truths(fresh, evaluators, fn, shortcircuit)
    keep = [True] * len(fresh)
    if fused and fresh:
        items, values = fresh, truths
        if around:
            pool = sorted(
                [(old[i], previous.truths[i]) for i in around] + list(zip(fresh, truths)),
                key=lambda pair: key(pair[0]),
            )
            items, values = [p[0] for p in pool], [p[1] for p in pool]
        flags = _redundancy_sweep(schema, items, values)
        if around:
            redundant = dict(zip(items, flags))
            flags = [redundant[item] for item in fresh]
        keep = [not flag for flag in flags]
    state = _State()
    state.fused = fused
    lists = (fresh, truths, keep)
    if previous is not None:
        lists = _splice((old, previous.truths, previous.keep), dirty, lists, key)
    state.candidates, state.truths, state.keep = lists
    return state, len(fresh)


def _splice(lists, dirty: List[int], fresh, key) -> Tuple[List, ...]:
    """Parallel ``lists`` (candidates first) without the positions in
    ``dirty`` and with the sorted parallel ``fresh`` entries inserted by
    ``key``; lists left unchanged are shared, not copied."""
    if dirty:
        survive = [True] * len(lists[0])
        for i in dirty:
            survive[i] = False
        lists = tuple(list(compress(seq, survive)) for seq in lists)
    if not fresh[0]:
        return lists
    base = lists[0]
    out: Tuple[List, ...] = tuple([] for _ in lists)
    at = 0
    for entry in zip(*fresh):
        to = bisect_left(base, key(entry[0]), lo=at, key=key)
        for seq, part, value in zip(out, lists, entry):
            seq += part[at:to]
            seq.append(value)
        at = to
    for seq, part in zip(out, lists):
        seq += part[at:]
    return out


def _pointwise(
    schema: RelationSchema,
    strategy,
    evaluators: Sequence[object],
    fn: Callable[..., bool],
    name: str,
    seeds: Callable[[], Iterable[Item]],
    consolidate: bool,
    shortcircuit: Optional[str] = None,
    est_candidates: Optional[int] = None,
    lineage: Optional[_Lineage] = None,
) -> HRelation:
    """The bitset-native pointwise engine every operator rides.

    Evaluates the meet-closure of ``seeds()`` through the given truth
    evaluators (bulk evaluators, projection adaptors, or cone
    evaluators) in topological order.  With ``consolidate=True`` on a
    normal-form product, consolidation is *fused* into the emission
    sweep: a candidate whose truth matches all of its minimal
    already-emitted subsumers (the immediate predecessors of the
    would-be subsumption graph) is simply never asserted, replacing the
    build-relation-then-consolidate round trip with one pass over the
    same posting masks.  Non-normal-form products emit everything and
    run the literal consolidation procedure (the fused/two-step choice
    rides the planner's shared cost model when the planner is on).

    With a ``lineage`` whose :meth:`_Lineage.lookup` found the state of
    an earlier evaluation, only the cones of the items changed since
    are re-derived (:func:`_evaluate`); the result is bit-identical to
    a fresh evaluation — tuples, truths and insertion order.  Either
    way the new state is recorded for the next call.

    ``shortcircuit`` (``"or"`` / ``"and"``, set by the planner for
    symmetric combining functions) stops probing a candidate's
    evaluators at the first truth that settles the function value —
    first *true* for OR, first *false* for AND.  The candidate set,
    every emitted truth and the emission order are exactly those of the
    exhaustive loop, so results stay bit-identical; only conflict
    *detection* narrows, to the probes actually made (the documented
    precondition — consistent inputs — is unaffected).

    ``est_candidates`` is the planner's pre-evaluation candidate
    estimate: recorded on the span next to the actual count (EXPLAIN
    ANALYZE renders the pair) and fed back into the estimate
    corrections.
    """
    from repro import planner as _planner

    with _span("algebra.pointwise", inputs=len(evaluators)) as sp:
        previous = lineage.previous if lineage is not None else None
        evaluated = previous and _evaluate(
            schema, previous, lineage.changed, seeds, lineage.seeds_among,
            evaluators, fn, shortcircuit, consolidate,
        )
        patched = evaluated is not None
        if evaluated is None:
            evaluated = _evaluate(
                schema, None, (), seeds, None, evaluators, fn, shortcircuit, consolidate
            )
        state, reevaluated = evaluated
        if lineage is not None:
            lineage.record(state)
        count = len(state.candidates)
        sp.annotate(candidates=count, fused=state.fused, patched=patched)
        if patched:
            default_registry().counter("algebra.combine.patched").inc()
            sp.annotate(changed=len(lineage.changed))
        sp.annotate(reevaluated=reevaluated)
        if est_candidates is not None:
            sp.annotate(est_candidates=est_candidates)
            _planner.observe_estimate("pointwise", est_candidates, count)
        out = HRelation.from_ordered(
            schema,
            dict(compress(zip(state.candidates, state.truths), state.keep)),
            name=name,
            strategy=strategy,
        )
        if state.fused:
            default_registry().counter("algebra.fused_sweeps").inc()
        elif consolidate:
            out = _consolidate(out, name=name)
        out._patched = patched
        sp.annotate(tuples_out=len(out))
        return out


def was_patched(relation: HRelation) -> bool:
    """Whether an operator produced ``relation`` by patching its
    previous evaluation over the changed cones (:func:`_pointwise`)."""
    return getattr(relation, "_patched", False)


def combine(
    relations: Sequence[HRelation],
    fn: Callable[..., bool],
    name: str = "combined",
    extra_items: Iterable[Item] = (),
    consolidate: bool = True,
    fn_token: Optional[str] = None,
) -> HRelation:
    """The pointwise combinator (see module docstring).

    All ``relations`` must share one schema and be consistent;
    ``fn`` must map all-false to false (checked).  Raises
    :class:`InconsistentRelationError` if evaluating a candidate hits a
    conflict in any input.

    ``fn_token`` optionally names ``fn`` in the picklable vocabulary of
    :data:`repro.parallel.worker.FN_TOKENS` (``"or"``, ``"and"``, ...).
    A named combination remembers its evaluation (:class:`_Lineage`):
    called again over the same inputs, it recomputes only the cones of
    the items changed since.  Otherwise, when the parallel layer is
    enabled, the evaluation may be cone-partitioned across worker
    processes — the result is identical either way; a sharded run
    leaves no state, so the next call evaluates serially to leave one.
    Arbitrary ``fn`` callables always run serially, from scratch.

    With the planner on, a symmetric ``fn_token`` (``or``/``and``/
    ``any``/``all``) additionally lets n-ary evaluation be *reordered*
    by estimated cone coverage and short-circuited per candidate (see
    :func:`repro.planner.plan_combine`); ``andnot`` and anonymous
    callables always evaluate left-to-right.  The result is identical
    either way — only the probe count per candidate changes.
    """
    if not relations:
        raise SchemaError("combine needs at least one relation")
    schema = relations[0].schema
    for other in relations[1:]:
        schema.require_same_as(other.schema, "combine")
    if fn(*([False] * len(relations))):
        raise SchemaError(
            "combine requires fn(false, ..., false) == false; items below "
            "no candidate default to false and fn must agree"
        )
    extra = frozenset(extra_items)

    def seeds() -> Set[Item]:
        out = set(extra)
        for relation in relations:
            out.update(relation.asserted)
        return out

    def seeds_among(items: Iterable[Item]) -> Set[Item]:
        return {
            item for item in items
            if item in extra or any(item in r.asserted for r in relations)
        }

    _count("combine")
    with _span(
        "algebra.combine",
        inputs=len(relations),
        tuples_in=sum(len(r) for r in relations),
    ) as sp:
        from repro import planner as _planner

        combine_plan = _planner.plan_combine(relations, fn_token)
        shortcircuit = combine_plan.shortcircuit if combine_plan is not None else None
        lineage = None
        if fn_token is not None:
            plan_key = None if combine_plan is None else (tuple(combine_plan.order), shortcircuit)
            lineage = _Lineage(relations, fn_token, (consolidate, extra), plan_key, seeds_among)
            if not lineage.lookup():
                from repro import parallel as _parallel

                sharded = _parallel.maybe_combine(
                    relations, fn_token, name=name, extra_items=tuple(extra),
                    consolidate=consolidate,
                )
                if sharded is not None:
                    lineage.record(_State())
                    return sharded
        # One bulk evaluator per input: the candidate set is evaluated
        # set-at-a-time instead of re-deriving a binding per (item, input).
        evaluators = [_bulk.evaluator_for(relation) for relation in relations]
        if combine_plan is not None:
            evaluators = [evaluators[i] for i in combine_plan.order]
            sp.annotate(planner_order="reordered" if combine_plan.reordered else "kept")
        est_candidates = None
        if _trace.enabled() and _planner.enabled():
            # Estimates are only priced out when someone is watching
            # (EXPLAIN ANALYZE, slow-query tracing): the untraced hot
            # path pays nothing for auditability it cannot render.
            est_candidates = _planner.estimate_candidates(relations)
        return _pointwise(
            schema, relations[0].strategy, evaluators, fn, name, seeds, consolidate,
            shortcircuit=shortcircuit, est_candidates=est_candidates, lineage=lineage,
        )


# ----------------------------------------------------------------------
# set operations (Fig. 10)
# ----------------------------------------------------------------------


def union(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """Flat semantics: an atom satisfies the union iff it satisfies
    either argument ("Jack and Jill between them love")."""
    _count("union")
    with _span("algebra.union", left=left.name, right=right.name):
        return combine(
            [left, right],
            lambda a, b: a or b,
            name=name or "{}_union_{}".format(left.name, right.name),
            consolidate=consolidate,
            fn_token="or",
        )


def intersection(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """Flat semantics: both arguments ("Jack and Jill both love")."""
    _count("intersection")
    with _span("algebra.intersection", left=left.name, right=right.name):
        return combine(
            [left, right],
            lambda a, b: a and b,
            name=name or "{}_intersect_{}".format(left.name, right.name),
            consolidate=consolidate,
            fn_token="and",
        )


def difference(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """Flat semantics: the left but not the right ("Jack loves but Jill
    does not")."""
    _count("difference")
    with _span("algebra.difference", left=left.name, right=right.name):
        return combine(
            [left, right],
            lambda a, b: a and not b,
            name=name or "{}_minus_{}".format(left.name, right.name),
            consolidate=consolidate,
            fn_token="andnot",
        )


# ----------------------------------------------------------------------
# selection (Figs. 7–9)
# ----------------------------------------------------------------------


def select(
    relation: HRelation,
    conditions: Mapping[str, str],
    name: str | None = None,
    consolidate: bool = True,
) -> HRelation:
    """Selection by class membership: keep the atoms whose value on each
    conditioned attribute lies inside the given class (or equals the
    given atom).

    ``select(respects, {"student": "obsequious_student"})`` is Fig. 7;
    conditioning on an instance, as in Fig. 8, is the same call because
    an instance is a singleton class.  Like a named :func:`combine`, a
    selection remembers its last evaluation and, repeated under the same
    condition, recomputes only the cones changed since.
    """
    if not conditions:
        return relation.copy(name=name or relation.name)
    schema = relation.schema
    cone_item = schema.item_from_mapping(dict(conditions), default_top=True)
    out_name = name or "{}_where".format(relation.name)
    _count("select")
    with _span(
        "algebra.select", source=relation.name, tuples_in=len(relation)
    ):
        fn = lambda a, b: a and b  # noqa: E731
        seeds, seeds_among = _selection_seeds(relation, [cone_item], fn, consolidate)
        lineage = _Lineage([relation], "select", (consolidate, cone_item), None, seeds_among)
        if not lineage.lookup():
            from repro import parallel as _parallel

            sharded = _parallel.maybe_select(
                relation, cone_item, out_name, consolidate=consolidate
            )
            if sharded is not None:
                lineage.record(_State())
                return sharded
        return _select_cones(relation, [cone_item], fn, out_name, consolidate, seeds, lineage)


def select_cones(
    relation: HRelation,
    cones: Sequence[Item],
    fn: Callable[..., bool],
    name: str,
    consolidate: bool = True,
) -> HRelation:
    """The pointwise combination of ``relation`` with the one-tuple
    relations ``{(cone, true)}`` of each of ``cones``, by ``fn``.

    A selection cone's truth function is plain subsumption — valid
    under every strategy — so each is evaluated directly
    (:class:`~repro.core.bulk.ConeEvaluator`) instead of being
    materialised and re-bound.

    When ``fn`` is false whenever every cone is (the relation's truth
    given true, each cone's false), consolidation is on and the product
    is in normal form, the seeds are cut to the stored items that may
    meet a cone (:func:`_meeting`).  The result is identical:
    every item outside that set lies below no cone, so it is false,
    and so is every kept subsumer of it (a true one would lie in a
    cone whose component the item shares), so the fused consolidation
    sweep drops it anyway; and the items inside are upward closed, so
    neither their meets nor their kept subsumers ever came from
    outside.
    """
    seeds, _ = _selection_seeds(relation, cones, fn, consolidate)
    return _select_cones(relation, cones, fn, name, consolidate, seeds, None)


def _select_cones(relation, cones, fn, name, consolidate, seeds, lineage) -> HRelation:
    evaluators = [_bulk.evaluator_for(relation)]
    evaluators.extend(_bulk.ConeEvaluator(relation.schema.product, cone) for cone in cones)
    return _pointwise(
        relation.schema, relation.strategy, evaluators, fn, name, seeds, consolidate,
        lineage=lineage,
    )


def _selection_seeds(relation: HRelation, cones: Sequence[Item], fn, consolidate: bool):
    """The seeds of :func:`select_cones`, and the filter picking them
    out of given items (see :class:`_Lineage`)."""
    schema = relation.schema
    asserted = relation.asserted
    scoped = (
        consolidate
        and not schema.product.needs_elimination_binding()
        and not fn(True, *[False] * len(cones))
        and _meeting((), schema, cones) is not None
    )

    def seeds() -> Set[Item]:
        if not scoped:
            return set(asserted).union(cones)
        default_registry().counter("algebra.select.scoped").inc()
        return _meeting(asserted, schema, cones).union(cones)

    def seeds_among(items: Sequence[Item]) -> Set[Item]:
        stored = [item for item in items if item in asserted]
        if scoped:
            stored = _meeting(stored, schema, cones)
        return set(stored).union(item for item in items if item in cones)

    return seeds, seeds_among


def _meeting(
    items: Iterable[Item], schema: RelationSchema, cones: Sequence[Item]
) -> Optional[Set[Item]]:
    """The ``items`` whose cone may meet one of ``cones``: those whose
    value on every attribute a cone constrains (holds a non-root node
    on) is the root or shares that node's component — nodes of
    different components share no descendant.  ``None`` when a cone
    constrains nothing (it is the top item: everything meets it)."""
    hierarchies = schema.hierarchies
    components = [h.component_map() for h in hierarchies]
    tests = []
    for cone in cones:
        test = [
            (p, components[p][value])
            for p, value in enumerate(cone)
            if value != hierarchies[p].root
        ]
        if not test:
            return None
        tests.append(test)
    seeds: Set[Item] = set()
    for test in tests:
        kept = items
        for p, c in test:
            component = components[p]
            kept = [item for item in kept if component[item[p]] in (c, -1)]
        seeds.update(kept)
    return seeds


# ----------------------------------------------------------------------
# projection and join (Fig. 11)
# ----------------------------------------------------------------------


def project(
    relation: HRelation,
    attributes: Sequence[str],
    name: str | None = None,
    consolidate: bool = True,
) -> HRelation:
    """Projection onto ``attributes`` with flat (existential) semantics:
    a projected atom is in the result iff *some* extension of it over the
    dropped attributes is in the relation.

    Existential quantification is not pointwise, so the dropped
    attributes are partially explicated and the per-atom slices are
    ORed together; the kept attributes stay condensed throughout.
    """
    kept = list(attributes)
    if not kept:
        raise SchemaError("projection needs at least one attribute")
    schema = relation.schema
    kept_indices = [schema.index_of(a) for a in kept]
    dropped = [a for a in schema.attributes if a not in set(kept)]
    out_schema = schema.restrict(kept)
    out_name = name or "{}_project".format(relation.name)
    _count("project")
    with _span(
        "algebra.project", source=relation.name, tuples_in=len(relation)
    ) as sp:
        if not dropped:
            out = HRelation(out_schema, name=out_name, strategy=relation.strategy)
            for item, truth in relation.asserted.items():
                out.assert_item(tuple(item[i] for i in kept_indices), truth=truth)
            out = _consolidate(out, name=out_name) if consolidate else out
            sp.annotate(slices=0, tuples_out=len(out))
            return out

        partial = _explicate(relation, attributes=dropped, drop_negated=False)
        dropped_indices = [schema.index_of(a) for a in dropped]
        slices: Dict[Tuple[str, ...], HRelation] = {}
        for item, truth in partial.asserted.items():
            atom_key = tuple(item[i] for i in dropped_indices)
            kept_item = tuple(item[i] for i in kept_indices)
            piece = slices.get(atom_key)
            if piece is None:
                piece = HRelation(out_schema, name="slice", strategy=relation.strategy)
                slices[atom_key] = piece
            piece.assert_item(kept_item, truth=truth)
        pieces = [slices[key] for key in sorted(slices)]
        sp.annotate(slices=len(pieces))
        if not pieces:  # empty input: the projection is empty too
            return HRelation(out_schema, name=out_name, strategy=relation.strategy)
        return combine(
            pieces,
            lambda *truths: any(truths),
            name=out_name,
            consolidate=consolidate,
            fn_token="any",
        )


def join(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """Natural join on the shared attribute names (which must be bound
    to the same hierarchy objects).

    Implemented as the pointwise AND of the two *cylindric extensions*
    over the merged schema.  When both evaluators are sweep-exact under
    the paper's default strategy, the extensions are never materialised:
    a projection adaptor maps each merged-schema candidate onto the
    input's own attribute positions (padding with a hierarchy root
    preserves the binding structure exactly, so projecting instead of
    padding answers the same query zero-copy).  Otherwise each input is
    padded with the hierarchy root (the whole domain) on the attributes
    it lacks, as before.
    """
    if left.strategy.name != right.strategy.name:
        raise SchemaError(
            "cannot join relations with different preemption strategies: "
            "{!r} uses {!r}, {!r} uses {!r}".format(
                left.name, left.strategy.name, right.name, right.strategy.name
            )
        )
    merged_schema = left.schema.join_schema(right.schema)[0]
    out_name = name or "{}_join_{}".format(left.name, right.name)
    _count("join")
    with _span(
        "algebra.join",
        left=left.name,
        right=right.name,
        tuples_in=len(left) + len(right),
    ) as sp:
        from repro import planner as _planner

        if left.strategy.name == "off-path":
            left_eval = _bulk.evaluator_for(left)
            right_eval = _bulk.evaluator_for(right)
            # Zero-copy is *sound* only when both evaluators are
            # sweep-exact; among the sound modes the planner's priced
            # comparison picks (with the planner off, the legacy fixed
            # gate always took zero-copy when available — the cost
            # model reproduces that choice, auditably).
            join_mode = _planner.choose_join_mode(
                len(left),
                len(right),
                left_eval.sweep_exact and right_eval.sweep_exact,
            )
            if join_mode == "zero_copy":
                default_registry().counter("algebra.join.zero_copy").inc()
                sp.annotate(zero_copy=True)
                from repro import parallel as _parallel

                sharded = _parallel.maybe_join(
                    left, right, merged_schema, out_name, consolidate=consolidate
                )
                if sharded is not None:
                    return sharded
                left_pos, left_seeds = _padded_seeds(merged_schema, left)
                right_pos, right_seeds = _padded_seeds(merged_schema, right)
                return _pointwise(
                    merged_schema,
                    left.strategy,
                    [
                        _bulk.ProjectedEvaluator(left_eval, left_pos),
                        _bulk.ProjectedEvaluator(right_eval, right_pos),
                    ],
                    lambda a, b: a and b,
                    out_name,
                    lambda: left_seeds | right_seeds,
                    consolidate,
                )

        sp.annotate(zero_copy=False)
        left_cyl = HRelation(merged_schema, name="cyl_left", strategy=left.strategy)
        for item, truth in left.asserted.items():
            padded = list(merged_schema.product.top)
            for value, attribute in zip(item, left.schema.attributes):
                padded[merged_schema.index_of(attribute)] = value
            left_cyl.assert_item(tuple(padded), truth=truth)

        right_cyl = HRelation(merged_schema, name="cyl_right", strategy=right.strategy)
        for item, truth in right.asserted.items():
            padded = list(merged_schema.product.top)
            for value, attribute in zip(item, right.schema.attributes):
                padded[merged_schema.index_of(attribute)] = value
            right_cyl.assert_item(tuple(padded), truth=truth)

        return combine(
            [left_cyl, right_cyl],
            lambda a, b: a and b,
            name=out_name,
            consolidate=consolidate,
            fn_token="and",
        )


def _padded_seeds(
    merged_schema: RelationSchema, relation: HRelation
) -> Tuple[List[int], Set[Item]]:
    """``relation``'s attribute positions within the merged schema, and
    its asserted items padded with roots up to that schema (the seeds its
    cylindric extension would contribute to the candidate set)."""
    top = merged_schema.product.top
    positions = [merged_schema.index_of(a) for a in relation.schema.attributes]
    seeds: Set[Item] = set()
    for item in relation.asserted:
        padded = list(top)
        for position, value in zip(positions, item):
            padded[position] = value
        seeds.add(tuple(padded))
    return positions, seeds


def divide(
    dividend: HRelation, divisor: HRelation, name: str | None = None,
    consolidate: bool = True,
) -> HRelation:
    """Relational division with flat semantics: the kept sub-items of
    ``dividend`` related to *every* atom of ``divisor``'s extension.

    Division is a universal quantifier, i.e. a conjunction over the
    divisor's atoms — which *is* pointwise: partially explicate the
    shared attributes, slice per divisor atom, and AND the slices with
    the combinator.  An empty divisor divides out to the plain
    projection, matching the textbook convention.
    """
    shared = list(divisor.schema.attributes)
    for attribute in shared:
        if dividend.schema.hierarchy_for(attribute) is not divisor.schema.hierarchy_for(
            attribute
        ):
            raise SchemaError(
                "division attribute {!r} is bound to different hierarchies".format(
                    attribute
                )
            )
    kept = [a for a in dividend.schema.attributes if a not in set(shared)]
    if not kept:
        raise SchemaError("division needs at least one surviving attribute")
    out_name = name or "{}_divide_{}".format(dividend.name, divisor.name)
    _count("divide")
    # The divisor's extension is streamed straight off its bulk
    # evaluator — the atoms are never sorted or collected into a list.
    # AND is symmetric and the candidate set is a union of the slices'
    # seeds, so enumeration order cannot affect the result.
    atoms = divisor.extension()
    first = next(atoms, None)
    if first is None:
        return project(dividend, kept, name=out_name, consolidate=consolidate)

    with _span(
        "algebra.divide",
        dividend=dividend.name,
        divisor=divisor.name,
        tuples_in=len(dividend),
    ) as sp:
        out_schema = dividend.schema.restrict(kept)
        kept_indices = [dividend.schema.index_of(a) for a in kept]
        shared_indices = [dividend.schema.index_of(a) for a in shared]
        partial = _explicate(dividend, attributes=shared, drop_negated=False)
        slices: Dict[Tuple[str, ...], HRelation] = {}
        for item, truth in partial.asserted.items():
            atom_key = tuple(item[i] for i in shared_indices)
            piece = slices.get(atom_key)
            if piece is None:
                piece = HRelation(out_schema, name="slice", strategy=dividend.strategy)
                slices[atom_key] = piece
            piece.assert_item(tuple(item[i] for i in kept_indices), truth=truth)
        empty = HRelation(out_schema, name="empty", strategy=dividend.strategy)
        pieces: List[HRelation] = []
        atom = first
        while atom is not None:
            pieces.append(slices.get(atom, empty))
            atom = next(atoms, None)
        sp.annotate(divisor_atoms=len(pieces))
        return combine(
            pieces,
            lambda *truths: all(truths),
            name=out_name,
            consolidate=consolidate,
            fn_token="all",
        )


def semijoin(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """``left ⋉ right``: the left atoms with at least one join partner.

    Flat semantics: project the natural join back onto the left schema
    and intersect with the left relation — built from the primitives so
    it inherits their flat-equivalence guarantee.
    """
    out_name = name or "{}_semijoin_{}".format(left.name, right.name)
    _count("semijoin")
    with _span("algebra.semijoin", left=left.name, right=right.name):
        joined = join(left, right, consolidate=False)
        back = project(joined, list(left.schema.attributes), consolidate=False)
        return intersection(left, back, name=out_name, consolidate=consolidate)


def antijoin(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """``left ▷ right``: the left atoms with *no* join partner."""
    out_name = name or "{}_antijoin_{}".format(left.name, right.name)
    _count("antijoin")
    with _span("algebra.antijoin", left=left.name, right=right.name):
        matched = semijoin(left, right, consolidate=False)
        return difference(left, matched, name=out_name, consolidate=consolidate)


def rename(
    relation: HRelation, mapping: Mapping[str, str], name: str | None = None
) -> HRelation:
    """A copy of ``relation`` with attributes renamed (values untouched)."""
    out_schema = relation.schema.renamed(dict(mapping))
    out = HRelation(out_schema, name=name or relation.name, strategy=relation.strategy)
    for item, truth in relation.asserted.items():
        out.assert_item(item, truth=truth)
    return out
