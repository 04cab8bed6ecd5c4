"""The hierarchy graph of section 2.1.

A :class:`Hierarchy` is a rooted directed acyclic graph over string-named
nodes.  The root is the attribute *domain* itself; an edge runs from each
more general class to each more specific class derived from it; declared
*instances* sit at the leaves.  Following the paper (footnote 3) an
instance is just a singleton class: membership (``∈``) and subset (``⊆``)
are deliberately conflated, and both are answered by graph reachability.

Two structural rules from section 3.1 are enforced:

* **type irredundancy** — the graph must stay acyclic; any mutation that
  would close a cycle raises :class:`~repro.errors.CycleError`;
* every node other than the root has at least one parent (nodes are
  created under the root by default), so the graph stays rooted.

The appendix's *preference edges* — special edges that induce binding
strength without asserting set inclusion — are stored separately: they
participate in the *binding* order (used by preemption) but never in
membership, descendants, or explication.

Performance notes.  Reachability queries dominate every downstream
algorithm, so the hierarchy keeps lazily-built caches, all invalidated by
a version counter bumped on every mutation:

* a topological order and, next to it, the *components*: the connected
  components of the class graph below the root.  Two nodes other than
  the root can only share a descendant, or subsume one another, inside
  one component, so every bitset sweep numbers its bits per component
  (:meth:`downward_union`, :meth:`overlap_union`) and each mask is only
  as wide as the component it lives in;
* per component, descendant/ancestor bitsets indexed by the node's
  position in that component (subsumption, descendant and ancestor
  sets, and the memoised meet table);
* only when preference edges exist, full-width per-node descendant
  bitsets of the binding graph (membership plus preference edges),
  indexed by node rank — a preference edge may join two components.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.errors import (
    CycleError,
    DuplicateNodeError,
    HierarchyError,
    UnknownNodeError,
)
from repro.hierarchy import algorithms

#: ``(order, rank, insertion_rank, component, component_orders,
#: branching)`` — see :meth:`Hierarchy._order`.
_OrderCache = Tuple[
    List[str], Dict[str, int], Dict[str, int], Dict[str, int], List[List[str]], Set[int]
]


class Hierarchy:
    """A rooted DAG of classes with instances at the leaves.

    Parameters
    ----------
    name:
        A label for the domain, e.g. ``"animal"``.  Used in rendering and
        schema error messages.
    root:
        The name of the root node (the whole domain).  Defaults to the
        hierarchy name.

    Examples
    --------
    >>> h = Hierarchy("animal")
    >>> h.add_class("bird")
    >>> h.add_class("penguin", parents=["bird"])
    >>> h.add_instance("tweety", parents=["bird"])
    >>> h.subsumes("bird", "tweety")
    True
    """

    def __init__(self, name: str, root: str | None = None) -> None:
        if not name:
            raise HierarchyError("hierarchy name must be non-empty")
        self.name = name
        self.root = root if root is not None else name
        self._children: Dict[str, Set[str]] = {self.root: set()}
        self._parents: Dict[str, Set[str]] = {self.root: set()}
        self._instances: Set[str] = set()
        self._pref_children: Dict[str, Set[str]] = {}
        self._pref_parents: Dict[str, Set[str]] = {}
        self._insertion: List[str] = [self.root]
        self._version = 0
        self._binding_version = -1
        self._binding_cache: Dict[str, int] = {}
        # Linear caches the planner-side helpers can use without forcing
        # any bitset build (order/rank plus the insertion rank) and the
        # redundancy flag's own cache.
        self._order_version = -1
        self._order_cache: _OrderCache = ([], {}, {}, {}, [], set())
        # Per-version companions of the order cache: per-component local
        # bitsets (filled per component on first use) and the meet table.
        self._local_masks: Dict[int, Tuple[Dict[str, int], List[str], List[int], List[int]]] = {}
        self._meets: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._redundant_version = -1
        self._redundant_cache: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_class(self, name: str, parents: Sequence[str] | None = None) -> None:
        """Add a class under ``parents`` (default: directly under the root)."""
        self._add_node(name, parents)

    def add_instance(self, name: str, parents: Sequence[str] | None = None) -> None:
        """Add an instance (a leaf).  Instances may not later gain children."""
        self._add_node(name, parents)
        self._instances.add(name)

    def _add_node(self, name: str, parents: Sequence[str] | None) -> None:
        if not name:
            raise HierarchyError("node name must be non-empty")
        if name in self._children:
            raise DuplicateNodeError(
                "node {!r} already exists in hierarchy {!r}".format(name, self.name)
            )
        parent_list = list(parents) if parents is not None else [self.root]
        if not parent_list:
            raise HierarchyError(
                "node {!r} needs at least one parent (the hierarchy is rooted)".format(name)
            )
        for parent in parent_list:
            self._require(parent)
            if parent in self._instances:
                raise HierarchyError(
                    "cannot derive {!r} from instance {!r}: instances are leaves".format(
                        name, parent
                    )
                )
        self._children[name] = set()
        self._parents[name] = set()
        self._insertion.append(name)
        for parent in parent_list:
            self._children[parent].add(name)
            self._parents[name].add(parent)
        self._version += 1

    def add_edge(self, parent: str, child: str) -> None:
        """Declare ``child`` ⊆ ``parent`` between two existing nodes.

        Raises :class:`CycleError` if the edge would violate type
        irredundancy.  Adding an edge parallel to an existing path is
        legal (the appendix uses one deliberately) but flips the
        hierarchy out of transitively-reduced normal form, which switches
        binding computations onto the slower node-elimination path.
        """
        self._require(parent)
        self._require(child)
        if parent in self._instances:
            raise HierarchyError(
                "cannot derive {!r} from instance {!r}: instances are leaves".format(
                    child, parent
                )
            )
        if child == parent or self.subsumes(child, parent):
            raise CycleError(
                "edge {!r} -> {!r} would create a cycle (type irredundancy)".format(
                    parent, child
                )
            )
        self._children[parent].add(child)
        self._parents[child].add(parent)
        self._version += 1

    def add_preference_edge(self, weaker: str, stronger: str) -> None:
        """Add an appendix-style preference edge: tuples at ``stronger``
        preempt tuples at ``weaker`` wherever both apply.

        The edge shapes the tuple-binding graph exactly like a class edge
        from ``weaker`` to ``stronger`` would, but asserts no set
        inclusion: membership, descendants, and explication ignore it.
        """
        self._require(weaker)
        self._require(stronger)
        if weaker == stronger or self.binding_subsumes(stronger, weaker):
            raise CycleError(
                "preference edge {!r} -> {!r} would create a binding cycle".format(
                    weaker, stronger
                )
            )
        self._pref_children.setdefault(weaker, set()).add(stronger)
        self._pref_parents.setdefault(stronger, set()).add(weaker)
        self._version += 1

    def remove_node(self, name: str, keep_redundant: bool = False) -> None:
        """Remove ``name`` via the paper's node-elimination procedure,
        reconnecting its predecessors to its successors so that all other
        reachability is preserved."""
        self._require(name)
        if name == self.root:
            raise HierarchyError("cannot remove the root of a hierarchy")
        graph = {node: set(children) for node, children in self._children.items()}
        algorithms.eliminate_node(graph, name, keep_redundant=keep_redundant)
        self._children = graph
        self._parents = algorithms.invert(graph)
        self._instances.discard(name)
        self._insertion.remove(name)
        for table in (self._pref_children, self._pref_parents):
            table.pop(name, None)
            for targets in table.values():
                targets.discard(name)
        self._version += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._children

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator[str]:
        return iter(self._insertion)

    def nodes(self) -> List[str]:
        """All node names in insertion order (root first)."""
        return list(self._insertion)

    def edges(self) -> List[Tuple[str, str]]:
        """All class edges as ``(parent, child)`` pairs."""
        return [
            (parent, child)
            for parent in self._insertion
            for child in sorted(self._children[parent])
        ]

    def preference_edges(self) -> List[Tuple[str, str]]:
        """All preference edges as ``(weaker, stronger)`` pairs."""
        return [
            (weaker, stronger)
            for weaker in sorted(self._pref_children)
            for stronger in sorted(self._pref_children[weaker])
        ]

    def parents(self, name: str) -> FrozenSet[str]:
        self._require(name)
        return frozenset(self._parents[name])

    def children(self, name: str) -> FrozenSet[str]:
        self._require(name)
        return frozenset(self._children[name])

    def is_instance(self, name: str) -> bool:
        self._require(name)
        return name in self._instances

    def is_leaf(self, name: str) -> bool:
        """True iff ``name`` has no children.

        Leaves are the *atoms* of the domain: explication enumerates
        them, and an atomic item is a cartesian product of them.  A
        childless class counts (the paper allows leaves to "represent
        classes as well rather than instances").
        """
        self._require(name)
        return not self._children[name]

    def leaves(self) -> List[str]:
        """All leaf nodes, in insertion order."""
        return [name for name in self._insertion if not self._children[name]]

    def leaves_under(self, name: str) -> List[str]:
        """The atoms of class ``name``: its leaf descendants (or itself),
        in insertion order.  Walks the cone directly — O(cone) instead of
        a full-width bitset scan, and never forces the mask build; a leaf
        is its own only atom and skips the walk."""
        self._require(name)
        if not self._children[name]:
            return [name]
        ins_rank = self._order()[2]
        leaves = [
            node
            for node in self.downward_closure((name,))
            if not self._children[node]
        ]
        leaves.sort(key=ins_rank.__getitem__)
        return leaves

    def topological_order(self) -> List[str]:
        """A deterministic topological order of the class graph."""
        return list(self._order()[0])

    def topological_rank(self, name: str) -> int:
        """The position of ``name`` in :meth:`topological_order`.

        Ancestors always rank strictly below their descendants, so the
        rank is a ready-made linear-extension sort key.
        """
        self._require(name)
        return self._order()[1][name]

    def topological_ranks(self) -> Dict[str, int]:
        """The full name → :meth:`topological_rank` mapping.

        Callers sorting many items should bind this dict once instead of
        calling :meth:`topological_rank` per value: the per-call version
        check and attribute hops dominate tight sort loops.  Treat the
        returned dict as read-only — it *is* the cache."""
        return self._order()[1]

    # ------------------------------------------------------------------
    # subsumption / reachability
    # ------------------------------------------------------------------

    def subsumes(self, general: str, specific: str) -> bool:
        """True iff ``specific`` ⊆ ``general`` (reflexive)."""
        self._require(general)
        self._require(specific)
        if general == specific or general == self.root:
            return True
        component = self._order()[3]
        c = component[general]
        if c != component[specific]:
            return False
        rank, _, desc, _ = self._component_masks(c)
        return bool(desc[rank[general]] >> rank[specific] & 1)

    def strictly_subsumes(self, general: str, specific: str) -> bool:
        """True iff ``specific`` ⊂ ``general`` (irreflexive)."""
        return general != specific and self.subsumes(general, specific)

    def binding_subsumes(self, general: str, specific: str) -> bool:
        """Subsumption in the binding order (class edges plus preference
        edges).  Identical to :meth:`subsumes` when no preference edges
        exist."""
        if not self.has_preference_edges():
            return self.subsumes(general, specific)
        self._require(general)
        self._require(specific)
        return bool(self._binding_masks()[general] >> self._order()[1][specific] & 1)

    def descendants(self, name: str, include_self: bool = True) -> Set[str]:
        """The nodes ``name`` subsumes: for the root every node, else
        members of ``name``'s own component."""
        self._require(name)
        if name == self.root:
            out = set(self._order()[0])
            if not include_self:
                out.discard(name)
            return out
        local, members, desc, _ = self._component_masks(self._order()[3][name])
        return self._unpack(members, desc[local[name]], local[name], include_self)

    def ancestors(self, name: str, include_self: bool = True) -> Set[str]:
        """The nodes subsuming ``name``: the root plus members of
        ``name``'s own component."""
        self._require(name)
        if name == self.root:
            return {name} if include_self else set()
        local, members, _, anc = self._component_masks(self._order()[3][name])
        out = self._unpack(members, anc[local[name]], local[name], include_self)
        out.add(self.root)
        return out

    def overlapping(self, name: str) -> Set[str]:
        """The nodes whose descendant cone meets ``name``'s: every node
        for the root, else the root plus the members of ``name``'s own
        component lying above one of its descendants (for a leaf, just
        its ancestors)."""
        self._require(name)
        if name == self.root:
            return set(self._order()[0])
        local, members, desc, anc = self._component_masks(self._order()[3][name])
        mask = 0
        rest = desc[local[name]]
        while rest:
            low = rest & -rest
            mask |= anc[low.bit_length() - 1]
            rest ^= low
        out = self._unpack(members, mask, 0, True)
        out.add(self.root)
        return out

    def maximal_common_descendants(self, a: str, b: str) -> List[str]:
        """The *meet set* of ``a`` and ``b``: common descendants with no
        strictly more general common descendant.

        This is the set the conflict machinery (section 3.1) probes for
        intersection evidence, and the building block of the
        multi-attribute *maximal conflict-resolution set*.  If ``a``
        subsumes ``b`` the result is ``[b]``; if the two classes share no
        node the result is empty (the paper's "optimistic" disjointness).

        Answers are memoised per hierarchy version (the *meet table*),
        so algebra sweeps that probe the same value pair across many
        item pairs pay for each component meet exactly once.  Values in
        different components never meet, and the root meets everything
        in the other value, so only same-component pairs reach the
        component's local bitsets.
        """
        self._require(a)
        self._require(b)
        if a == b or b == self.root:
            return [a]
        if a == self.root:
            return [b]
        component = self._order()[3]
        c = component[a]
        if c != component[b]:
            return []
        return list(self._meet(a, b, c))

    def _meet(self, a: str, b: str, c: int) -> Tuple[str, ...]:
        """The memoised meet set of two distinct non-root nodes of
        component ``c`` (see :meth:`maximal_common_descendants`)."""
        meets = self._meets
        key = (a, b) if a <= b else (b, a)
        hit = meets.get(key)
        if hit is not None:
            return hit
        rank, members, desc, anc = self._component_masks(c)
        da, db = desc[rank[a]], desc[rank[b]]
        common = da & db
        if not common:
            out: List[str] = []
        elif common == db:  # a subsumes b
            out = [b]
        elif common == da:  # b subsumes a
            out = [a]
        else:
            out = []
            rest = common
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                if anc[i] & common == low:
                    out.append(members[i])
                rest ^= low
        hit = meets[key] = tuple(out)
        return hit

    def meet_closed_values(self, values: Iterable[str]) -> Set[str]:
        """The smallest superset of ``values`` closed under pairwise
        meets (:meth:`maximal_common_descendants`), computed as a bulk
        bitset sweep rather than a quadratic scan of node pairs.

        The root meets every value in the value itself, and a
        forest-shaped component (see :meth:`_order`) is meet-closed as
        it stands, so only values in branching components enter the
        sweep.  Each round numbers those values within their
        components, seeds them onto their nodes and sweeps the masks
        down and back up the class graph (:meth:`overlap_union`), so
        every pooled value knows — in one pass — exactly which others
        share a descendant with it.  Comparable pairs (whose meet is the
        lower value, already pooled) are dropped on the component's
        descendant bitsets; only the incomparable overlapping pairs are
        probed for meets.
        Disjoint-heavy pools (the common case for stored relations)
        therefore cost O(V + E) per round over the seeded branching
        components, and nothing beyond the pool scan on tree-shaped
        hierarchies.
        """
        _, _, _, component, _, branching = self._order()
        order: List[str] = []
        pool: Set[str] = set()
        for value in values:
            c = component.get(value)
            if c is None:
                self._require(value)
            if value not in pool:
                pool.add(value)
                if c in branching:
                    order.append(value)
        start = 0
        while start < len(order):
            frontier = len(order)
            seed: Dict[str, int] = {}
            local: List[int] = []
            members: Dict[int, List[str]] = {}
            for value in order[:frontier]:
                group = members.setdefault(component[value], [])
                local.append(len(group))
                seed[value] = 1 << len(group)
                group.append(value)
            overlap = self.overlap_union(seed)
            for j in range(start, frontier):
                vj = order[j]
                # Earlier pool values of vj's component overlapping it.
                partners = overlap[vj] & ((1 << local[j]) - 1)
                if not partners:
                    continue
                c = component[vj]
                group = members[c]
                rank, _, desc, _ = self._component_masks(c)
                rj = rank[vj]
                dj = desc[rj]
                while partners:
                    low = partners & -partners
                    partners ^= low
                    vi = group[low.bit_length() - 1]
                    ri = rank[vi]
                    if dj >> ri & 1 or desc[ri] >> rj & 1:
                        continue  # comparable: the meet is already pooled
                    for node in self._meet(vj, vi, c):
                        if node not in pool:
                            pool.add(node)
                            order.append(node)
            start = frontier
        return pool

    def overlap_union(self, seed: Dict[str, int]) -> Dict[str, int]:
        """The *overlap* analogue of :meth:`downward_union`: the result
        at each seeded value is the union of the seed masks of every
        seeded node whose descendant cone intersects its own.  One
        downward sweep pushes each seed to the nodes it subsumes, one
        upward sweep unions the result back over each node's descendant
        cone — O(V + E) over the seeded components for what would
        otherwise be a cone-intersection test per (seed, node) pair.
        This is how the meet closures decide which pairs can possibly
        meet without probing them.

        Seeds are numbered per component, as for :meth:`downward_union`,
        so the result holds only at the seeded values: nodes outside the
        seeded components are absent, and the root's cone meets every
        component, so its entry (present when it is seeded or the
        hierarchy has one component) means nothing unless the root is
        seeded itself — which puts every seed in one numbering.
        """
        down = self.downward_union(seed)
        children = self._children
        up: Dict[str, int] = {}
        for nodes in self._seeded_orders(seed):
            for node in reversed(nodes):
                mask = down[node]
                for child in children[node]:
                    mask |= up[child]
                up[node] = mask
        return up

    def component_map(self) -> Dict[str, int]:
        """Node → component id: the connected components of the class
        graph below the root, numbered in topological order of their
        first node; the root maps to ``-1``.  Values in different
        components share no descendant, so bitsets over a pool of
        values can be numbered per component (see
        :meth:`downward_union`).  Treat the returned dict as read-only —
        it *is* the cache."""
        return self._order()[3]

    def component_count(self) -> int:
        """The number of components below the root."""
        return len(self._order()[4])

    def downward_union(self, seed: Dict[str, int]) -> Dict[str, int]:
        """Sweep integer bitmasks down the class graph in one pass.

        The result at each node is the union of its own ``seed`` mask
        with the seed masks of *all* its ancestors — i.e. the seeds that
        subsume the node.  One O(V + E) traversal answers what would
        otherwise be a reachability query per (seed, node) pair; the
        bulk truth evaluator uses it to push every stored tuple's bit
        down to each hierarchy node its value subsumes.

        Seed bits may be numbered per component (:meth:`component_map`):
        two values sharing a descendant share a component, so no node
        below a seeded value ever ORs bits from two components, and a
        node's result is read in its own component's numbering.  Only
        the seeded components are visited; the root maps to ``0``
        unless it is seeded, in which case every node lies below a seed
        and the seeds must share one numbering.  Nodes of unseeded
        components are absent.  Redundant class edges are harmless
        (union is idempotent); preference edges are ignored, matching
        the applicability order.
        """
        parents = self._parents
        out: Dict[str, int] = {self.root: 0}
        for nodes in self._seeded_orders(seed):
            for node in nodes:
                mask = seed.get(node, 0)
                for parent in parents[node]:
                    mask |= out[parent]
                out[node] = mask
        return out

    def _seeded_orders(self, seed: Dict[str, int]) -> List[List[str]]:
        """The topological node lists a sweep over ``seed`` must visit:
        none for an empty seed, the whole order when the root is seeded
        or there is only one component, else the seeded components' own
        orders."""
        if not seed:
            return []
        order, _, _, component, orders, _ = self._order()
        if self.root in seed or len(orders) <= 1:
            return [order]
        return [orders[c] for c in sorted(set(map(component.__getitem__, seed)))]

    def redundant_edges(self) -> Set[Tuple[str, str]]:
        """Class edges parallel to a longer path (see the appendix).

        An edge ``p -> v`` is redundant iff some longer ``p`` to ``v``
        path exists; in a DAG that path's last hop enters ``v`` from
        another parent ``q``, so the exact characterisation is: ``p`` is
        a strict ancestor of a sibling parent ``q`` of ``v``.  Only
        multi-parent nodes can carry one, so the scan is free on tree
        hierarchies and never touches the full-width bitsets."""
        if self._redundant_version == self._version:
            return self._redundant_cache
        redundant: Set[Tuple[str, str]] = set()
        for node, parents in self._parents.items():
            if len(parents) < 2:
                continue
            parent_set = set(parents)
            for q in parents:
                seen: Set[str] = set()
                stack = list(self._parents[q])
                while stack:
                    above = stack.pop()
                    if above in seen:
                        continue
                    seen.add(above)
                    if above in parent_set:
                        redundant.add((above, node))
                    stack.extend(self._parents[above])
        self._redundant_cache = redundant
        self._redundant_version = self._version
        return redundant

    def is_transitively_reduced(self) -> bool:
        """True iff the class graph carries no redundant edges — the
        normal form off-path preemption assumes."""
        return not self.redundant_edges()

    def class_graph(self) -> Dict[str, Set[str]]:
        """A copy of the class adjacency (parent -> children)."""
        return {node: set(children) for node, children in self._children.items()}

    def binding_graph(self) -> Dict[str, Set[str]]:
        """A copy of the class adjacency with preference edges merged in."""
        graph = self.class_graph()
        for weaker, stronger in self.preference_edges():
            graph[weaker].add(stronger)
        return graph

    def has_preference_edges(self) -> bool:
        return any(self._pref_children.values())

    @property
    def version(self) -> int:
        """Mutation counter; anything caching against a hierarchy should
        key on ``(id(h), h.version)``."""
        return self._version

    # ------------------------------------------------------------------
    # picklable sub-hierarchy extraction (the parallel execution layer)
    # ------------------------------------------------------------------

    def downward_closure(self, values: Iterable[str]) -> Set[str]:
        """Every (reflexive) descendant of any of ``values`` — the node
        set of the induced sub-hierarchy a parallel shard needs.  Being
        downward closed, the induced subgraph preserves reachability,
        every parent-to-child path, and leaf status for all its nodes.

        A plain graph walk, O(closure): the coordinator calls this per
        shard, and pulling full-width descendant bitsets here would cost
        more than the workers' entire sweeps."""
        closure: Set[str] = set()
        stack: List[str] = []
        for value in values:
            self._require(value)
            if value not in closure:
                closure.add(value)
                stack.append(value)
        while stack:
            node = stack.pop()
            for child in self._children[node]:
                if child not in closure:
                    closure.add(child)
                    stack.append(child)
        return closure

    def subgraph_payload(self, values: Iterable[str]) -> Dict[str, object]:
        """A picklable description of the sub-hierarchy induced by the
        downward closure of ``values``, plus the slice of the memoised
        meet table that lives inside it.

        The payload is plain dicts/lists/strings, so it crosses a
        process boundary cheaply; :meth:`from_subgraph_payload` rebuilds
        an equivalent :class:`Hierarchy`.  Nodes are listed in
        topological order with their *in-set* parents only; nodes whose
        parents all fall outside the closure hang directly under the
        root.  The rebuilt graph therefore answers subsumption, meets,
        leaves and topological ranks identically to this hierarchy for
        every item over the closed node set.
        """
        node_set = self.downward_closure(values)
        rank = self._order()[1]
        order: List[str] = sorted(node_set, key=rank.__getitem__)
        nodes: List[Tuple[str, List[str], bool]] = []
        for node in order:
            if node == self.root:
                continue
            parents = [p for p in self._parents[node] if p in node_set]
            nodes.append((node, parents, node in self._instances))
        prefs = [
            (weaker, stronger)
            for weaker, stronger in self.preference_edges()
            if weaker in node_set and stronger in node_set
        ]
        # Meet-table slice: entries whose endpoints lie in the closure.
        # Their members are common descendants, hence in the closure
        # too, and maximality is preserved (the closure is downward
        # closed), so each entry is valid verbatim in the subgraph.
        # The slice is a warm-start hint, not a correctness requirement
        # (the rebuilt graph recomputes meets lazily), so it is capped,
        # and a *cold* meet table is never forced just to look for one:
        # a cache left hot by a prior full-hierarchy sweep can hold
        # millions of entries, and scanning or shipping them would cost
        # more than the workers' own meet computation saves.
        meets: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        if self._order_version == self._version:
            meets_table = self._meets
            cap = 4 * len(node_set)
            if len(meets_table) <= 16 * max(1, len(node_set)):
                for key, value in meets_table.items():
                    if key[0] in node_set and key[1] in node_set:
                        meets[key] = value
                        if len(meets) >= cap:
                            break
        return {
            "name": self.name,
            "root": self.root,
            "has_root": self.root in node_set,
            "nodes": nodes,
            "prefs": prefs,
            "meets": list(meets.items()),
        }

    @classmethod
    def from_node_table(
        cls,
        name: str,
        root: str,
        nodes: Iterable[Tuple[str, Sequence[str], bool]],
        prefs: Iterable[Tuple[str, str]] = (),
    ) -> "Hierarchy":
        """Bulk-load an already-validated node table.

        ``nodes`` is ``(name, parents, is_instance)`` triples in an
        order where parents precede children (insertion or topological
        order both qualify); a node with no listed parents hangs under
        the root.  The per-node API checks in :meth:`_add_node` are
        skipped — callers (subgraph shipping, binary snapshot recovery)
        serialised a graph that already holds the invariants — and no
        cache is touched, so loading stays linear in the table size.
        """
        hierarchy = cls(name, root=root)
        children = hierarchy._children
        parents_of = hierarchy._parents
        insertion = hierarchy._insertion
        instances = hierarchy._instances
        for node, parents, is_instance in nodes:
            parent_list = tuple(parents) or (root,)
            children[node] = set()
            parents_of[node] = set(parent_list)
            insertion.append(node)
            for parent in parent_list:
                children[parent].add(node)
            if is_instance:
                instances.add(node)
        hierarchy._version += 1
        for weaker, stronger in prefs:
            hierarchy.add_preference_edge(weaker, stronger)
        return hierarchy

    @classmethod
    def from_subgraph_payload(cls, payload: Dict[str, object]) -> "Hierarchy":
        """Rebuild the sub-hierarchy described by
        :meth:`subgraph_payload`.  When the original root was outside
        the closure, a node with the root's *name* still caps the
        graph (it subsumes exactly what the original root subsumes,
        restricted to the closure), so items and selection cones that
        mention the root keep validating."""
        hierarchy = cls.from_node_table(
            str(payload["name"]),
            str(payload["root"]),
            payload["nodes"],  # type: ignore[arg-type]
            prefs=payload["prefs"],  # type: ignore[arg-type]
        )
        hierarchy.preload_meets(payload.get("meets", ()))  # type: ignore[arg-type]
        return hierarchy

    def preload_meets(
        self, entries: Iterable[Tuple[Tuple[str, str], Tuple[str, ...]]]
    ) -> None:
        """Seed the lazy meet table with precomputed entries (a shipped
        meet-table slice).  Entries must be valid for the *current*
        graph; they are discarded with the rest of the cache on the next
        mutation, like any other memoised meet."""
        self._order()
        table = self._meets
        for key, value in entries:
            table[tuple(key)] = tuple(value)

    def __repr__(self) -> str:
        return "Hierarchy({!r}, {} nodes, {} edges)".format(
            self.name, len(self), sum(len(c) for c in self._children.values())
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require(self, name: str) -> None:
        if name not in self._children:
            raise UnknownNodeError(
                "unknown node {!r} in hierarchy {!r}".format(name, self.name)
            )

    @staticmethod
    def _unpack(members: List[str], mask: int, own: int, include_self: bool) -> Set[str]:
        """The members selected by a component-local ``mask``, leaving
        out position ``own`` unless ``include_self``."""
        if not include_self:
            mask &= ~(1 << own)
        out: Set[str] = set()
        while mask:
            low = mask & -mask
            out.add(members[low.bit_length() - 1])
            mask ^= low
        return out

    def _order(self) -> _OrderCache:
        """``(order, rank, insertion_rank, component, component_orders,
        branching)`` — the linear slice of the cache.  Order-only
        consumers (sort keys, the sweeps, the parallel planner, payload
        extraction) pay for no bitset build.  ``component`` is
        :meth:`component_map`; ``component_orders[c]`` lists component
        ``c``'s nodes in topological order; ``branching`` holds the
        components with a node below two non-root parents.  Every other
        component is a forest: a node's non-root ancestors form a chain,
        so two of its nodes share a descendant only if one subsumes the
        other."""
        if self._order_version == self._version:
            return self._order_cache
        children, parents, root = self._children, self._parents, self.root
        ins_rank = {node: i for i, node in enumerate(self._insertion)}
        by_insertion = ins_rank.__getitem__
        # Kahn's algorithm with ties broken by insertion rank: the order
        # algorithms.topological_order(children, tie_break=insertion)
        # gives, without copying the graph.  Only the root starts ready.
        remaining = {node: len(above) for node, above in parents.items()}
        queue = deque([root])
        order: List[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            ready = []
            for child in children[node]:
                left = remaining[child] - 1
                remaining[child] = left
                if not left:
                    ready.append(child)
            if len(ready) > 1:
                ready.sort(key=by_insertion)
            queue.extend(ready)
        rank = {node: i for i, node in enumerate(order)}
        # Components by union-find over the non-root parent edges, in
        # topological order; then numbered by their first node.
        link: List[int] = []
        provisional: Dict[str, int] = {}
        branching_roots: Set[int] = set()
        for node in order:
            if node == root:
                continue
            c = -1
            above = parents[node]
            for parent in above:
                if parent == root:
                    continue
                pc = provisional[parent]
                while link[pc] != pc:
                    pc = link[pc]
                if c < 0:
                    c = pc
                elif pc != c:
                    link[pc] = c
            if c < 0:
                c = len(link)
                link.append(c)
            elif len(above) > 2 or (len(above) == 2 and root not in above):
                branching_roots.add(c)
            provisional[node] = c
        component: Dict[str, int] = {root: -1}
        label: Dict[int, int] = {}
        orders: List[List[str]] = []
        branching: Set[int] = set()
        for node in order:
            if node == root:
                continue
            pc = provisional[node]
            while link[pc] != pc:
                pc = link[pc]
            c = label.get(pc)
            if c is None:
                c = label[pc] = len(orders)
                orders.append([])
            component[node] = c
            orders[c].append(node)
        for pc in branching_roots:
            while link[pc] != pc:
                pc = link[pc]
            branching.add(label[pc])
        self._order_cache = (order, rank, ins_rank, component, orders, branching)
        self._local_masks = {}
        self._meets = {}
        self._order_version = self._version
        return self._order_cache

    def _component_masks(
        self, c: int
    ) -> Tuple[Dict[str, int], List[str], List[int], List[int]]:
        """``(local_rank, members, desc, anc)`` for component ``c``:
        its nodes in topological order and, per local position, the
        descendant and ancestor bitsets over those positions.  Built per
        component on first use, so a query touching one component pays
        only for that component's width."""
        hit = self._local_masks.get(c)
        if hit is not None:
            return hit
        members = self._order()[4][c]
        local = {node: i for i, node in enumerate(members)}
        desc = [0] * len(members)
        for i in range(len(members) - 1, -1, -1):
            mask = 1 << i
            for child in self._children[members[i]]:
                mask |= desc[local[child]]
            desc[i] = mask
        anc = [0] * len(members)
        for i, node in enumerate(members):
            mask = 1 << i
            for parent in self._parents[node]:
                j = local.get(parent)
                if j is not None:
                    mask |= anc[j]
            anc[i] = mask
        hit = (local, members, desc, anc)
        self._local_masks[c] = hit
        return hit

    def _binding_masks(self) -> Dict[str, int]:
        """Per-node descendant bitsets of the binding graph, indexed by
        :meth:`topological_rank`; only built when preference edges exist
        (they may join components, so these masks are full width)."""
        if self._binding_version == self._version:
            return self._binding_cache
        rank = self._order()[1]
        children = self.binding_graph()
        masks: Dict[str, int] = {}
        for node in reversed(algorithms.topological_order(children, tie_break=self._insertion)):
            mask = 1 << rank[node]
            for child in children[node]:
                mask |= masks[child]
            masks[node] = mask
        self._binding_cache = masks
        self._binding_version = self._version
        return masks
