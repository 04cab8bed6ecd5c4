"""Bulk truth evaluation: one subsumption sweep answering many queries.

Section 4 of the paper leaves efficiency open ("the model shows promise
of efficient implementation, though some further work is needed in this
direction").  The per-item machinery in :mod:`repro.core.binding`
re-derives an item's applicability set and minimality frontier on every
call, so bulk consumers — :meth:`HRelation.extension`,
:func:`algebra.combine`, :func:`conflicts.find_conflicts`, full
:func:`explicate` — paid O(n · binding) for n queries.  A
:class:`BulkEvaluator` builds the relation's binding structure **once**
and answers each query from bitset lookups:

* Every stored tuple gets one bit position *within its hierarchy
  component* (:class:`Layout`).  Per attribute, the tuples' bits are
  seeded onto their value nodes and swept *down* the class graph in one
  pass (:meth:`Hierarchy.downward_union`), yielding at each node the
  bitset of stored tuples whose value there subsumes it.
* The applicability set of a query item is then the AND across
  attributes of those per-node bitsets — one dict lookup and one
  integer AND per attribute, instead of a subsumption test per stored
  tuple (or a posting intersection per query).
* Binding strength falls out of the same structure: the strict
  subsumers of stored tuple *t* among the stored tuples are just the
  applicability mask of *t*'s own item (memoised per tuple), so the
  minimal — strongest-binding — applicable tuples of any query are an
  OR/AND-NOT away.

Numbering bits per component rather than across the relation keeps
every mask as wide as one component's tuples, not the whole relation:
two values that share a descendant always share a component, so no
sweep ever mixes two components' bits, and a relation spread over many
independent cones costs O(V + E) small-integer operations instead of
O(V · tuples / 64) word operations.

Strategy coverage mirrors :mod:`repro.core.preemption`:

* **off-path** on normal-form hierarchies (the paper's default) and
  **no preemption** on any hierarchy are answered exactly from the
  sweep.
* Items whose applicable tuples are unanimous, or whose *minimal*
  applicable tuples already disagree, are strategy-independent
  (strongest binders always sit between the two sets), so the sweep
  also decides them for **on-path** and for off-path over
  redundant-edge hierarchies; only the remaining stratum falls back to
  per-item node elimination.
* Hierarchies with preference edges delegate every query to the
  per-item path (the binding order diverges from the applicability
  order there).

Evaluators are immutable snapshots keyed on ``(strategy, relation
version, hierarchy versions)``; :func:`evaluator_for` memoises the
current one on the relation, so interleaved reads share a single sweep.
A write does not throw the sweep away: the next read patches the stale
snapshot forward over the relation's delta log
(:meth:`BulkEvaluator.derived`) — a new tuple takes a fresh bit in its
component, ORed into the postings over its values' cones; a retracted
one has its bit cleared there, left allocated but dead; a sign flip
moves one bit between the sign masks — into a new snapshot, leaving the
old one intact for readers still holding it.  ``HRelation.copy`` hands
its evaluator to the copy, so a transaction's staged copy pays for its
own changes only.  Unscoped wipes, hierarchy edits, a root-valued tuple
under per-component numbering, and groups whose dead bits outnumber
their live ones get a full build instead.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.core import binding as _binding
from repro.core.htuple import HTuple
from repro.errors import AmbiguityError
from repro.hierarchy.product import Item


def _iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Maps flag bytes 0/1 to the ASCII digits ``int(..., 2)`` parses.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class Layout:
    """The component-local bit numbering of a sequence of items.

    Item *i* owns bit ``local[i]`` of its group ``groups[i]``; every
    bitset built over the items (postings, signs, subsumer and overlap
    masks) is read in the numbering of the group it belongs to.  A unary
    schema over a hierarchy with several components groups its items by
    their value's component (:meth:`Hierarchy.component_map`), so group
    ids are component ids and a query value's group is its component.
    A pool holding the root — whose bits reach every component — and,
    for now, any n-ary schema form a single group ``0`` numbered by
    position, so ``local[i] == i``.
    """

    __slots__ = (
        "schema", "items", "components", "groups", "local", "sizes", "_members"
    )

    def __init__(self, schema, items: Sequence[Item]) -> None:
        self.schema = schema
        self.items = items
        n = len(items)
        hierarchies = schema.hierarchies
        self.components: Optional[Dict[str, int]] = None
        if n and len(hierarchies) == 1 and hierarchies[0].component_count() > 1:
            component = hierarchies[0].component_map()
            groups = [component[item[0]] for item in items]
            if -1 not in groups:
                self.components = component
        if self.components is None:
            self._single(n)
            return
        sizes: Dict[int, int] = {}
        local: List[int] = []
        for group in groups:
            j = sizes.get(group, 0)
            sizes[group] = j + 1
            local.append(j)
        self.groups = groups
        self.local = local
        self.sizes = sizes
        self._members = None

    def _single(self, n: int) -> None:
        """Number ``n`` items as the single group ``0``, by position."""
        self.groups: Sequence[int] = [0] * n
        self.local: Sequence[int] = range(n)
        #: group -> number of bits allocated in it
        self.sizes: Dict[int, int] = {0: n} if n else {}
        self._members: Optional[Dict[int, Sequence[int]]] = {0: range(n)}

    def extended(self, items: Sequence[Item]) -> Optional["Layout"]:
        """This numbering carried over to ``items``: this layout's items
        followed by new ones.  Old items keep their bits (a retracted
        item's bit stays allocated, dead); each new item takes the next
        free bit of its group.  ``None`` when a new item's value is the
        root under a per-component numbering, whose bits would reach
        every group."""
        out = Layout.__new__(Layout)
        out.schema = self.schema
        out.items = items
        out.components = components = self.components
        if components is None:
            out._single(len(items))
            return out
        groups = list(self.groups)
        local = list(self.local)
        sizes = dict(self.sizes)
        members = None if self._members is None else dict(self._members)
        for i in range(len(self.items), len(items)):
            group = components[items[i][0]]
            if group < 0:
                return None
            j = sizes.get(group, 0)
            sizes[group] = j + 1
            groups.append(group)
            local.append(j)
            if members is not None:
                members[group] = [*members.get(group, ()), i]
        out.groups = groups
        out.local = local
        out.sizes = sizes
        out._members = members
        return out

    def members(self, group: int) -> Sequence[int]:
        """The item indices of ``group``, by local bit."""
        members = self._members
        if members is None:
            members = {}
            for i, group_id in enumerate(self.groups):
                bucket = members.get(group_id)
                if bucket is None:
                    members[group_id] = bucket = []
                bucket.append(i)  # type: ignore[union-attr]
            self._members = members
        return members.get(group, ())

    def group_masks(self, flags: Sequence[bool]) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Per group, the local bitsets of the items whose flag is set
        and of those whose flag is clear (groups with no such item are
        absent)."""
        set_masks: Dict[int, int] = {}
        if self.components is None:
            # Bit i is flag i: read the flags as one binary numeral.
            mask = int(bytes(flags[::-1]).translate(_BINARY_DIGITS) or b"0", 2)
            if mask:
                set_masks[0] = mask
        else:
            for flag, group, j in zip(flags, self.groups, self.local):
                if flag:
                    set_masks[group] = set_masks.get(group, 0) | (1 << j)
        clear_masks: Dict[int, int] = {}
        for group, size in self.sizes.items():
            mask = ((1 << size) - 1) & ~set_masks.get(group, 0)
            if mask:
                clear_masks[group] = mask
        return set_masks, clear_masks

    def seed(self, position: int) -> Dict[str, int]:
        """Node -> local bitset of the items whose value at attribute
        ``position`` is that node."""
        seed: Dict[str, int] = {}
        for item, j in zip(self.items, self.local):
            value = item[position]
            seed[value] = seed.get(value, 0) | (1 << j)
        return seed

    def postings(self) -> List[Dict[str, int]]:
        """Per attribute, node -> local bitset of the items whose value
        there subsumes the node: each item's bit seeded on its value and
        swept down (:meth:`Hierarchy.downward_union`)."""
        return [
            hierarchy.downward_union(self.seed(position))
            for position, hierarchy in enumerate(self.schema.hierarchies)
        ]


def _applicable(postings: List[Dict[str, int]], item: Item) -> int:
    mask = postings[0].get(item[0], 0)
    for position in range(1, len(postings)):
        if not mask:
            return 0
        mask &= postings[position].get(item[position], 0)
    return mask


class BulkEvaluator:
    """A read-only snapshot of one relation's binding structure.

    Build once (O(hierarchy + stored tuples) bitset work), then call
    :meth:`truth` / :meth:`truth_and_binders` any number of times.  The
    snapshot is only valid for the ``(relation, hierarchy)`` versions it
    was built against; use :func:`evaluator_for` to get a cached,
    auto-refreshed instance.
    """

    # Slots keep attribute reads on the query path equally fast for a
    # patched copy (:meth:`derived`) and a fresh build.
    __slots__ = (
        "relation", "strategy", "_product", "_asserted", "_items", "key",
        "_layout", "_pos", "_neg", "_delegate_all", "_minimal_exact",
        "_postings", "_above", "_dead",
    )

    def __init__(self, relation, strategy=None) -> None:
        chosen = strategy if strategy is not None else relation.strategy
        self.relation = relation
        self.strategy = chosen
        schema = relation.schema
        product = schema.product
        self._product = product
        self._asserted: Dict[Item, bool] = dict(relation.asserted)
        self._items: List[Item] = list(self._asserted)
        self.key = (chosen.name, relation.version, product.version)
        layout = Layout(schema, self._items)
        self._layout = layout
        self._pos, self._neg = layout.group_masks(list(self._asserted.values()))
        self._delegate_all = product.has_preference_edges()
        self._minimal_exact = (
            chosen.name == "off-path" and not product.needs_elimination_binding()
        )
        self._postings: List[Dict[str, int]] = []
        if not self._delegate_all:
            self._postings = layout.postings()
        # Strict asserted subsumers per stored tuple, filled lazily:
        # only queries that reach the minimality check pay for them.
        self._above: List[Optional[int]] = [None] * len(self._items)
        #: group -> how many of its bits belong to retracted items (only
        #: a patched evaluator has any)
        self._dead: Dict[int, int] = {}

    def derived(self, relation, changes: Sequence[Item]) -> Optional["BulkEvaluator"]:
        """The evaluator of ``relation``, whose state is this snapshot's
        relation with ``changes`` (:meth:`HRelation.changes_since` this
        snapshot's version) applied, patched from this one; ``None``
        when only a full build will do.

        Each changed item is compared between this snapshot and the
        relation.  A new item takes a fresh bit of its group
        (:meth:`Layout.extended`), ORed into the postings over the cone
        of each of its values; a retracted one has its bit cleared from
        those postings and the sign masks and leaves it allocated, dead;
        a sign flip moves the bit between the sign masks.  The strict
        subsumer memos of every group an item entered or left are
        dropped.  Structures a change touches are copied first, so this
        snapshot — which readers may still hold — is never altered.

        A full build is cheaper or needed when nothing was swept (no
        items, or preference edges delegate every query), when a new
        root-valued item would merge per-component groups, or when a
        group's dead bits would outnumber its live ones.
        """
        asserted = relation.asserted
        out = copy.copy(self)
        out.relation = relation
        out.key = (self.key[0], relation.version, self.key[2])
        before = self._asserted
        added: List[Item] = []
        removed: List[Item] = []
        flipped: List[Item] = []
        for item in dict.fromkeys(changes):
            old, new = before.get(item), asserted.get(item)
            if old is None:
                if new is not None:
                    added.append(item)
            elif new is None:
                removed.append(item)
            elif new != old:
                flipped.append(item)
        if not (added or removed or flipped):
            return out
        if self._delegate_all or not self._items:
            return None
        out._asserted = dict(asserted)
        pos, neg = dict(self._pos), dict(self._neg)
        out._pos, out._neg = pos, neg
        for item in flipped:
            group, bit = self._locate(item)
            if asserted[item]:
                pos[group] = pos.get(group, 0) | bit
                neg[group] &= ~bit
            else:
                neg[group] = neg.get(group, 0) | bit
                pos[group] &= ~bit
        if not (added or removed):
            return out
        layout = self._layout
        if added:
            out._items = self._items + added
            layout = layout.extended(out._items)
            if layout is None:
                return None
            out._layout = layout
        dead = dict(self._dead)
        out._dead = dead
        hierarchies = relation.schema.hierarchies
        postings = [dict(p) for p in self._postings]
        out._postings = postings
        touched = set()
        for item in removed:
            group, bit = self._locate(item)
            touched.add(group)
            dead[group] = dead.get(group, 0) + 1
            if 2 * dead[group] > layout.sizes[group]:
                return None
            pos[group] = pos.get(group, 0) & ~bit
            neg[group] = neg.get(group, 0) & ~bit
            for posting, hierarchy, value in zip(postings, hierarchies, item):
                for node in hierarchy.descendants(value):
                    mask = posting.get(node)
                    if mask is not None:
                        posting[node] = mask & ~bit
        first = len(self._items)
        for index in range(first, first + len(added)):
            item = out._items[index]
            group = layout.groups[index]
            bit = 1 << layout.local[index]
            touched.add(group)
            if asserted[item]:
                pos[group] = pos.get(group, 0) | bit
            else:
                neg[group] = neg.get(group, 0) | bit
            for posting, hierarchy, value in zip(postings, hierarchies, item):
                for node in hierarchy.descendants(value):
                    posting[node] = posting.get(node, 0) | bit
        above = self._above + [None] * len(added)
        for group in touched:
            for index in layout.members(group):
                above[index] = None
        out._above = above
        return out

    def _locate(self, item: Item) -> Tuple[int, int]:
        """``(group, bit mask)`` of a live stored ``item``: the one bit
        of its own applicability mask that belongs to it."""
        group = self._group(item)
        members = self._layout.members(group)
        for j in _iter_bits(_applicable(self._postings, item)):
            if self._items[members[j]] == item:
                return group, 1 << j
        raise KeyError(item)

    # ------------------------------------------------------------------
    # masks
    # ------------------------------------------------------------------

    @property
    def sweep_exact(self) -> bool:
        """True when *every* query is answered by the sweep itself —
        no per-item delegation stratum exists.  Holds for off-path over
        normal-form hierarchies (the paper's default) and for
        no-preemption over any preference-free hierarchy; these are the
        strategies the zero-copy algebra adaptors may wrap."""
        if self._delegate_all:
            return False
        if self.strategy.name == "none":
            return True
        return self._minimal_exact

    def _group(self, item: Item) -> int:
        components = self._layout.components
        return 0 if components is None else components[item[0]]

    def _above_mask(self, group: int, bit: int) -> int:
        index = self._layout.members(group)[bit]
        mask = self._above[index]
        if mask is None:
            mask = _applicable(self._postings, self._items[index]) & ~(1 << bit)
            self._above[index] = mask
        return mask

    def _minimal_mask(self, group: int, applicable: int) -> int:
        """The minimal (most specific) tuples of an applicability mask."""
        dominated = 0
        rest = applicable
        while rest:
            low = rest & -rest
            dominated |= self._above_mask(group, low.bit_length() - 1)
            rest ^= low
        return applicable & ~dominated

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def truth(self, item: Item) -> Optional[bool]:
        """The truth value of ``item`` (already schema-checked), or
        ``None`` when its strongest binders conflict.

        Decides as much as possible from the sweep: an exact stored hit,
        an empty or sign-unanimous applicable set, and a sign-mixed
        minimal frontier are strategy-independent; only the genuinely
        strategy-sensitive leftovers delegate to the per-item path.
        """
        sign = self._asserted.get(item)
        if sign is not None:
            return sign
        if self._delegate_all:
            return _binding.truth_and_binders(self.relation, item, self.strategy)[0]
        applicable = _applicable(self._postings, item)
        if not applicable:
            return False
        group = self._group(item)
        neg = self._neg.get(group, 0)
        if not applicable & neg:
            return True
        pos = self._pos.get(group, 0)
        if not applicable & pos:
            return False
        if self.strategy.name == "none":
            return None
        minimal = self._minimal_mask(group, applicable)
        minimal_pos = minimal & pos
        if minimal_pos and minimal & neg:
            return None
        if self._minimal_exact:
            return bool(minimal_pos)
        return _binding.truth_and_binders(self.relation, item, self.strategy)[0]

    def truth_and_binders(self, item: Item) -> Tuple[Optional[bool], List[HTuple]]:
        """Like :func:`binding.truth_and_binders`, bit-identical binders
        included.  Strategies whose binder *sets* need node elimination
        delegate wholesale; consumers that only need truth values should
        call :meth:`truth` and fetch binders for the rare conflict."""
        sign = self._asserted.get(item)
        if sign is not None:
            return sign, [HTuple(item, sign)]
        if self._delegate_all:
            return _binding.truth_and_binders(self.relation, item, self.strategy)
        applicable = _applicable(self._postings, item)
        if not applicable:
            return False, []
        group = self._group(item)
        if self.strategy.name == "none":
            binders = self._htuples(group, applicable, reverse=True)
        elif self._minimal_exact:
            binders = self._htuples(group, self._minimal_mask(group, applicable))
        else:
            return _binding.truth_and_binders(self.relation, item, self.strategy)
        truths = {b.truth for b in binders}
        return (binders[0].truth if len(truths) == 1 else None), binders

    def truths(self, items: Sequence[Item]) -> List[Optional[bool]]:
        """Truth values for many (schema-checked) items at once."""
        return [self.truth(item) for item in items]

    def mixed_sign_items(self, under: Optional[Sequence[Item]] = None) -> List[Item]:
        """Every domain item with tuples of *both* signs applicable, in
        a linear extension of the subsumption order; with ``under``,
        only those inside the cone of one of those items.

        Any conflicted item's strongest binders are a sign-mixed subset
        of its applicable set — under every strategy — so this is a
        complete conflict-probe set, read straight off the posting
        masks with no meet computations.  Only available for unary
        schemas (higher arities would need the product enumerated) that
        were actually swept (no preference edges).
        """
        if self._delegate_all or len(self._postings) != 1:
            raise ValueError(
                "mixed-sign enumeration needs a unary, swept schema"
            )
        pos, neg = self._pos, self._neg
        if not neg or not pos:
            return []
        components = self._layout.components
        posting = self._postings[0]
        if under is None:
            nodes: Iterable[str] = posting
        else:
            hierarchy = self._product.factors[0]
            nodes = set()
            for (value,) in under:
                nodes.update(hierarchy.descendants(value))
        out = []
        for node in nodes:
            mask = posting.get(node)
            if mask:
                group = 0 if components is None else components[node]
                if mask & pos.get(group, 0) and mask & neg.get(group, 0):
                    out.append((node,))
        return self._product.topological_sort(out)

    def _htuples(self, group: int, mask: int, reverse: bool = False) -> List[HTuple]:
        members = self._layout.members(group)
        items = self._product.topological_sort(
            (self._items[members[j]] for j in _iter_bits(mask)), reverse=reverse
        )
        return [HTuple(item, self._asserted[item]) for item in items]

    def __repr__(self) -> str:
        return "BulkEvaluator({!r}, {} tuples, {})".format(
            getattr(self.relation, "name", "?"), len(self._items), self.strategy
        )


class ProjectedEvaluator:
    """Schema-projection adaptor: answers truth queries posed over a
    *wider* schema by projecting each item onto the base relation's
    attribute positions before consulting its evaluator.

    This is the zero-copy cylindric extension: a relation padded with
    hierarchy roots on the attributes it lacks has exactly the base
    relation's binding structure (root components subsume everything
    and compare equal among stored tuples), so the padded relation
    never needs to be materialised.  Only valid when the base
    evaluator's answers are decided entirely by the sweep
    (:attr:`BulkEvaluator.sweep_exact`); delegation strata would
    otherwise re-derive bindings against the wrong (unpadded) schema.
    """

    def __init__(self, base: BulkEvaluator, positions: Sequence[int]) -> None:
        if not base.sweep_exact:
            raise ValueError(
                "projection adaptor requires a sweep-exact base evaluator"
            )
        self._base = base
        self._positions = tuple(positions)

    def truth(self, item: Item) -> Optional[bool]:
        positions = self._positions
        return self._base.truth(tuple(item[p] for p in positions))


class ConeEvaluator:
    """The truth function of a one-tuple relation ``{(cone, true)}``:
    an item is true iff the cone item subsumes it.  Strategy-free (a
    single positive tuple either applies or nothing does), so ``select``
    can evaluate its selection cone without building a relation."""

    def __init__(self, product, cone_item: Item) -> None:
        self._product = product
        self._cone = cone_item

    def truth(self, item: Item) -> bool:
        return self._product.subsumes(self._cone, item)


def subsumer_masks(schema, items: Sequence[Item]) -> Tuple[Layout, List[int]]:
    """Per item, the bitset of *other* ``items`` strictly subsuming it,
    numbered within the item's group of the returned :class:`Layout`.

    One posting sweep per attribute (seed each item's bit on its value,
    :meth:`Hierarchy.downward_union` pushes it over the value's cone)
    replaces the pairwise ``subsumes`` scan: the strict subsumers of
    item *i* are the AND across attributes of the masks at its values,
    minus its own bit.  This is the substrate the bulk consolidation
    sweep and the vectorised subsumption graph read from.
    """
    layout = Layout(schema, items)
    postings = layout.postings()
    out = [
        _applicable(postings, item) & ~(1 << j)
        for item, j in zip(items, layout.local)
    ]
    return layout, out


def cover_masks(schema, covers: Sequence[Item], items: Sequence[Item]) -> List[int]:
    """Per item, the bitset of ``covers`` whose item subsumes it, in the
    numbering of the item's group of ``Layout(schema, covers)`` — so
    non-zero exactly when some cover subsumes the item.

    One posting sweep per attribute (seed each cover's bit on its value,
    :meth:`Hierarchy.downward_union` pushes it over the value's cone)
    answers every (cover, item) subsumption test at once.  The scoped
    conflict scan uses this as its changed-cone test: an item lies
    inside the union of the mutated items' descendant cones iff its
    mask is non-zero.
    """
    postings = Layout(schema, covers).postings()
    return [_applicable(postings, item) for item in items]


def overlap_masks(schema, items: Sequence[Item]) -> Tuple[Layout, List[int]]:
    """Per item, the bitset of ``items`` (itself included) whose
    descendant cone can intersect its own, numbered within the item's
    group of the returned :class:`Layout` — the AND across attributes of
    one :meth:`Hierarchy.overlap_union` sweep each.  Pairs with a zero
    bit are disjoint and need no meet probe (optimistic disjointness);
    this is the conflict scan's pruning mask.
    """
    layout = Layout(schema, items)
    masks: List[int] = []
    for position, hierarchy in enumerate(schema.hierarchies):
        overlap = hierarchy.overlap_union(layout.seed(position))
        if position == 0:
            masks = [overlap[item[0]] for item in items]
        else:
            for i, item in enumerate(items):
                masks[i] &= overlap[item[position]]
    return layout, masks


def minimal_of_mask(mask: int, subsumers: Sequence[int], members: Sequence[int]) -> int:
    """The minimal (most specific) members of ``mask`` given each
    item's strict-subsumer mask (:func:`subsumer_masks`): drop
    everything some member sits strictly above.  ``members`` maps the
    mask's local bits to item indices (:meth:`Layout.members`)."""
    dominated = 0
    rest = mask
    while rest:
        low = rest & -rest
        dominated |= subsumers[members[low.bit_length() - 1]]
        rest ^= low
    return mask & ~dominated


# ----------------------------------------------------------------------
# shard snapshots (the parallel execution layer)
# ----------------------------------------------------------------------


def sign_masks(pairs: Sequence[Tuple[Item, bool]]) -> Tuple[int, int]:
    """The positive / negative sign bitsets of an ordered sequence of
    ``(item, truth)`` pairs — bit *i* belongs to the *i*-th pair.  The
    parallel layer serialises it into each :class:`~repro.parallel.
    snapshot.ShardSnapshot` so workers rebuild identical relations."""
    pos = neg = 0
    for i, (_, truth) in enumerate(pairs):
        if truth:
            pos |= 1 << i
        else:
            neg |= 1 << i
    return pos, neg


def mask_to_bytes(mask: int) -> bytes:
    """Serialise a posting / sign bitset for shipping across a process
    boundary (little-endian ``int.to_bytes``; zero-width masks become
    one zero byte so the round-trip stays total)."""
    return mask.to_bytes(max(1, (mask.bit_length() + 7) // 8), "little")


def mask_from_bytes(data: bytes) -> int:
    """Inverse of :func:`mask_to_bytes`."""
    return int.from_bytes(data, "little")


def merge_emitted(product, parts: Sequence[Sequence[Tuple[Item, bool]]]) -> List[Tuple[Item, bool]]:
    """Merge per-shard ``(item, truth)`` emissions back into the global
    emission order.  Ownership makes the parts disjoint, so the merge is
    a concatenation re-sorted by the full product's topological key —
    exactly the insertion order the serial pointwise sweep produces."""
    merged: List[Tuple[Item, bool]] = []
    for part in parts:
        merged.extend((tuple(item), truth) for item, truth in part)
    ranks = [h.topological_ranks() for h in product.factors]
    merged.sort(
        key=lambda pair: tuple(rank[v] for rank, v in zip(ranks, pair[0]))
    )
    return merged


# ----------------------------------------------------------------------
# module API
# ----------------------------------------------------------------------


def evaluator_for(relation, strategy=None) -> BulkEvaluator:
    """The relation's current evaluator.

    A cached evaluator whose key still matches is reused.  A stale one —
    left by an earlier version of the relation, or handed to it by
    :meth:`HRelation.copy` — is patched forward over
    :meth:`HRelation.changes_since` its version
    (:meth:`BulkEvaluator.derived`) when the strategy and the
    hierarchies are unchanged and the delta log still covers the gap;
    anything else is a full build."""
    chosen = strategy if strategy is not None else relation.strategy
    product_version = relation.schema.product.version
    key = (chosen.name, relation.version, product_version)
    cached = getattr(relation, "_bulk_eval", None)
    registry = _obs.default_registry()
    evaluator = None
    if cached is not None:
        if cached.key == key and cached.relation is relation:
            registry.counter("bulk.evaluator.reuses").inc()
            return cached
        if cached.key[0] == chosen.name and cached.key[2] == product_version:
            changes = relation.changes_since(cached.key[1])
            if changes is not None:
                with _obs.span(
                    "bulk.patch_evaluator", relation=relation.name, changes=len(changes)
                ):
                    evaluator = cached.derived(relation, changes)
                if evaluator is not None:
                    registry.counter("bulk.evaluator.patches").inc()
    if evaluator is None:
        registry.counter("bulk.evaluator.builds").inc()
        with _obs.span(
            "bulk.build_evaluator",
            relation=relation.name,
            tuples=len(relation.asserted),
            strategy=chosen.name,
        ):
            evaluator = BulkEvaluator(relation, chosen)
    try:
        relation._bulk_eval = evaluator
    except AttributeError:
        pass
    return evaluator


def truth_of(relation, item: Sequence[str], strategy=None) -> bool:
    """Drop-in equivalent of :func:`binding.truth_of` that amortises the
    binding structure across calls; raises :class:`AmbiguityError` when
    the ambiguity constraint fails at ``item``."""
    key = relation.schema.check_item(item)
    evaluator = evaluator_for(relation, strategy)
    truth = evaluator.truth(key)
    if truth is None:
        _, binders = evaluator.truth_and_binders(key)
        raise AmbiguityError(key, [(b.item, b.truth) for b in binders])
    return truth


def truths(relation, items: Sequence[Sequence[str]], strategy=None) -> List[Optional[bool]]:
    """Truth values for many items in one sweep (``None`` marks a
    conflict instead of raising, so callers can batch-triage)."""
    evaluator = evaluator_for(relation, strategy)
    check = relation.schema.check_item
    return [evaluator.truth(check(item)) for item in items]


def extension_atoms(relation) -> Iterator[Item]:
    """The relation's flat extension, enumerated through one evaluator.

    Same contract as the historical per-item loop — atoms below the
    positive tuples, deduplicated, filtered by binding, conflicted atoms
    raising :class:`AmbiguityError` — at one bitset lookup per atom.

    With the parallel layer enabled and a decomposable workload, the
    per-atom truth evaluation is cone-partitioned across workers; the
    coordinator then replays the serial enumeration order over the
    returned atom set (membership only, no evaluation), so the stream is
    bit-identical to the serial one.  A conflicted atom reruns the
    serial enumeration, so the atoms before the error and the atom it
    names match the serial path too.
    """
    from repro import parallel as _parallel

    atoms = _parallel.maybe_extension(relation)
    if atoms is None or atoms is _parallel.CONFLICT:
        return _extension_atoms_serial(relation)
    return _writer_order_atoms(relation, set(atoms))


def _writer_order_atoms(relation, keep) -> Iterator[Item]:
    """Replay the serial enumeration order over a precomputed atom set."""
    product = relation.schema.product
    seen = set()
    for item, truth in relation.asserted.items():
        if not truth:
            continue
        for atom in product.leaves_under(item):
            if atom in seen:
                continue
            seen.add(atom)
            if atom in keep:
                yield atom


def _extension_atoms_serial(relation) -> Iterator[Item]:
    evaluator = evaluator_for(relation)
    product = relation.schema.product
    seen = set()
    for item, truth in relation.asserted.items():
        if not truth:
            continue
        for atom in product.leaves_under(item):
            if atom in seen:
                continue
            seen.add(atom)
            answer = evaluator.truth(atom)
            if answer is None:
                _, binders = evaluator.truth_and_binders(atom)
                raise AmbiguityError(atom, [(b.item, b.truth) for b in binders])
            if answer:
                yield atom
