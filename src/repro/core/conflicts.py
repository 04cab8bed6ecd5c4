"""Conflict detection and resolution sets (sections 2.1, 2.2, 3.1).

A *conflict* is an item whose strongest-binding tuples carry differing
truth values — the state the paper refuses to permit ("we treat such a
conflict as an inconsistent state of the database").  The *ambiguity
constraint* of section 3.1 demands that every item of D* either carries
its own tuple or has unanimous strongest binders.

Detection is *optimistic*, exactly as the paper prescribes: two classes
are assumed disjoint unless the hierarchy offers evidence of an
intersection — a common node (an instance, or a declared intersection
class).  The candidate items that need checking are the **maximal common
descendants** (meet sets) of opposite-sign asserted pairs:

    If any item conflicts under off-path preemption, then some maximal
    common descendant of two opposite-sign asserted items conflicts.

    Proof sketch: let Z be a conflicted item with minimal binders t⁺ and
    t⁻.  Pick a maximal common descendant Z' of (t⁺, t⁻) with Z ⊆ Z'.
    Any asserted k with t ⊃ k ⊇ Z' would satisfy t ⊃ k ⊇ Z and
    contradict t's minimality at Z, so both t⁺ and t⁻ are still minimal
    binders at Z'; a tuple asserted at Z' itself would equally
    contradict minimality (or make Z' = Z conflict-free).  Hence Z'
    conflicts.  ∎

For the appendix strategies the same candidates are checked (complete
for no-preemption by the identical argument on *applicable* sets;
for on-path the candidate set is a heuristic and ``exhaustive=True``
is available — the hypothesis suite cross-validates both against the
brute-force oracle on small universes).

On *unary normal-form* schemas :func:`find_conflicts` does not compute
meets at all: the bulk evaluator's posting masks directly enumerate
every node with tuples of both signs applicable (see
:meth:`~repro.core.bulk.BulkEvaluator.mixed_sign_items`), which is a
complete probe set under every strategy — a conflicted item's
strongest binders are always a sign-mixed subset of its applicable
set.  That probe may surface conflicted items *below* a meet candidate
as well; they are genuine conflicts, so callers relying on "candidates
⊆ exhaustive" are unaffected.  Redundant-edge hierarchies keep the
historical meet probe (whose coverage there is heuristic anyway).

**Scoped scans.**  Section 3.1 checks every update for *new*
unresolved conflicts, and a commit is one update: a scan that finds
nothing stamps the relation with its ``(version, product version,
strategy)``, and the next scan of a relation holding a matching stamp
probes only the candidates inside the cone of an item changed since
(:meth:`HRelation.changes_since`) — on unary normal-form schemas the
mixed-sign nodes under the changed values, otherwise the meet
candidates under a changed item.  The answer equals the full scan's:

    Truth and binders at an item *y* depend only on the stored tuples
    subsuming *y* (their items and signs) and on the hierarchy.  If no
    changed item subsumes *y*, that set is what it was at the stamp.
    A full-scan candidate *y* outside every changed cone was a
    candidate of the stamped scan too: a mixed-sign node's applicable
    tuples are unchanged, and a meet candidate is a meet of two stored
    items neither of which changed (a changed one would subsume *y*).
    The stamped scan found no conflict at *y*, and nothing it depends
    on moved.  So every conflict the full scan reports lies in a
    changed cone, where the scoped scan probes exactly the full scan's
    candidates, in the same order.  ∎

``load_tuples`` and ``clear`` drop the stamp; a hierarchy edit, a
strategy swap or a delta log that no longer reaches back to the stamp
voids it.  The scoped path is tried before the parallel gate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from repro import obs as _obs
from repro.core import bulk as _bulk
from repro.core.htuple import HTuple
from repro.hierarchy.product import Item


@dataclass(frozen=True)
class Conflict:
    """An item whose strongest binders disagree.

    Attributes
    ----------
    item:
        The conflicted item.
    binders:
        The strongest-binding tuples, mixed in truth value.
    """

    item: Item
    binders: Tuple[HTuple, ...]

    @property
    def positive(self) -> Tuple[HTuple, ...]:
        return tuple(b for b in self.binders if b.truth)

    @property
    def negative(self) -> Tuple[HTuple, ...]:
        return tuple(b for b in self.binders if not b.truth)

    def __str__(self) -> str:
        return "conflict at ({}) between {}".format(
            ", ".join(self.item), " and ".join(str(b) for b in self.binders)
        )


def conflict_candidates(relation) -> List[Item]:
    """The items worth probing: every maximal common descendant of an
    opposite-sign pair of asserted items (deduplicated, in a linear
    extension of the subsumption order)."""
    product = relation.schema.product
    positives = [item for item, truth in relation.asserted.items() if truth]
    negatives = [item for item, truth in relation.asserted.items() if not truth]
    seen: Set[Item] = set()
    if positives and negatives:
        # Optimistic-disjointness pruning: one overlap sweep per
        # attribute marks, for each positive, exactly the negatives
        # whose descendant cones can intersect it; only those pairs get
        # a meet probe.  A clear bit proves the meet set is empty, so
        # the candidate set is identical to the all-pairs scan.
        items = positives + negatives
        layout, masks = _bulk.overlap_masks(relation.schema, items)
        _, negative = layout.group_masks([True] * len(positives) + [False] * len(negatives))
        for i, pos in enumerate(positives):
            group = layout.groups[i]
            mask = masks[i] & negative.get(group, 0)
            if not mask:
                continue
            members = layout.members(group)
            while mask:
                low = mask & -mask
                mask ^= low
                seen.update(product.meet(pos, items[members[low.bit_length() - 1]]))
    return product.topological_sort(seen)


def _changes_since_clean(relation):
    """The items changed since the relation's last conflict-free scan,
    or ``None`` when there is no usable stamp: none recorded, the
    hierarchies or the strategy moved since, or the delta log no longer
    reaches back to it."""
    stamp = getattr(relation, "_clean_stamp", None)
    if stamp is None:
        return None
    version, product_version, strategy = stamp
    if (
        product_version != relation.schema.product.version
        or strategy != relation.strategy.name
    ):
        return None
    return relation.changes_since(version)


def find_conflicts(relation, exhaustive: bool = False) -> List[Conflict]:
    """All conflicts in ``relation``.

    ``exhaustive=True`` scans every item of D* — exponential in arity,
    intended for tests and tiny universes; the default probes only the
    meet candidates (complete for off-path preemption, see module doc).
    A scan that finds nothing stamps the relation, and a later scan
    probes only the cones of the items changed since (module doc).
    """
    # Taken before the scan: a stamp must never claim a later state
    # than the one scanned.
    stamp = (relation.version, relation.schema.product.version, relation.strategy.name)
    changed = None if exhaustive else _changes_since_clean(relation)
    with _obs.span(
        "conflicts.scan", relation=relation.name, scoped=changed is not None
    ) as sp:
        if changed is not None:
            _obs.default_registry().counter("conflicts.scans.scoped").inc()
            out = _probe(relation, sp, changed=changed) if changed else []
        else:
            out = None
            if not exhaustive:
                from repro import parallel as _parallel

                out = _parallel.maybe_conflicts(relation)
            if out is None:
                out = _probe(relation, sp, exhaustive=exhaustive)
        if not out:
            try:
                relation._clean_stamp = stamp
            except AttributeError:
                pass
        return out


def _probe(relation, sp, exhaustive: bool = False, changed=None) -> List[Conflict]:
    """Evaluate the probe set — every item of D*, or the candidates,
    cut to the cones of the ``changed`` items when given — and return
    the conflicted items, in probe order."""
    product = relation.schema.product
    evaluator = _bulk.evaluator_for(relation)
    if exhaustive:
        candidates: Iterable[Item] = product.all_items()
    elif relation.schema.arity == 1 and not product.needs_elimination_binding():
        # Unary normal-form schemas skip the pairwise meets entirely:
        # the sweep's posting masks name every node with both signs
        # applicable — a complete probe set under every strategy (it
        # contains each meet candidate, and more; everything reported
        # is still a real conflict, so soundness is untouched).  With
        # redundant or preference edges the probe stays the meet set,
        # keeping the historical (heuristic) coverage there.
        candidates = evaluator.mixed_sign_items(under=changed)
    else:
        candidates = conflict_candidates(relation)
        if changed is not None:
            covers = _bulk.cover_masks(
                relation.schema, list(dict.fromkeys(changed)), candidates
            )
            candidates = [item for item, mask in zip(candidates, covers) if mask]
    out: List[Conflict] = []
    seen: Set[Item] = set()
    for item in candidates:
        if item in seen:
            continue
        seen.add(item)
        if evaluator.truth(item) is None:
            _, binders = evaluator.truth_and_binders(item)
            out.append(Conflict(item=item, binders=tuple(binders)))
    sp.annotate(probes=len(seen))
    return out


def is_consistent(relation, exhaustive: bool = False) -> bool:
    """True iff the ambiguity constraint holds for every item."""
    return not find_conflicts(relation, exhaustive=exhaustive)


# ----------------------------------------------------------------------
# resolution sets (section 3.1)
# ----------------------------------------------------------------------


def complete_resolution_set(relation, a: Sequence[str], b: Sequence[str]) -> List[Item]:
    """The *complete conflict resolution set* for asserted items ``a``
    and ``b``: every item X with X ⊆ a and X ⊆ b.

    Unique for a given conflict on a given item hierarchy.  Note the
    size is the product of the per-attribute common-descendant counts.
    """
    a = relation.schema.check_item(a)
    b = relation.schema.check_item(b)
    per_attribute: List[List[str]] = []
    for h, va, vb in zip(relation.schema.hierarchies, a, b):
        common = sorted(
            h.descendants(va) & h.descendants(vb), key=h.topological_rank
        )
        if not common:
            return []
        per_attribute.append(common)
    return [tuple(combo) for combo in itertools.product(*per_attribute)]


def minimal_resolution_set(relation, a: Sequence[str], b: Sequence[str]) -> List[Item]:
    """The *minimal conflict resolution set*: the maximal elements of the
    complete set — derived componentwise as the product of per-attribute
    maximal common descendants ("by virtue of the transitivity of
    subsumption", section 3.1)."""
    product = relation.schema.product
    a = relation.schema.check_item(a)
    b = relation.schema.check_item(b)
    return sorted(product.meet(a, b), key=product.topological_key)


def resolution_tuples(relation, conflict: Conflict, truth: bool) -> List[HTuple]:
    """A set of tuples that, once asserted, resolves ``conflict`` in
    favour of ``truth``: one tuple per member of the minimal conflict
    resolution set of every opposite-sign binder pair.

    The paper notes fewer tuples may suffice (an item binding closer to
    several members at once); this planner returns the straightforward
    sound set, which the integrity checker verifies creates no *new*
    unresolved conflict.
    """
    items: Set[Item] = set()
    for pos in conflict.positive:
        for neg in conflict.negative:
            items.update(minimal_resolution_set(relation, pos.item, neg.item))
    product = relation.schema.product
    return [
        HTuple(item, truth)
        for item in product.topological_sort(items)
    ]
