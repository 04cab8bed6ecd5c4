"""Materialized views over hierarchical relations, with delta refresh.

A view is a named operator result that callers can query like a stored
relation; because every layer of this library is versioned (relations
bump a counter per mutation, hierarchies too), the view can tell
precisely when its cache is stale and recompute lazily.

This rounds out the paper's positioning of the model as a back-end for
reasoning systems: the front end "issues less queries to the database"
precisely when the database can keep derived relations fresh itself.

Refresh
-------
A stale view simply runs its operator again.  The pointwise operators
(select, union, intersection, difference) remember their last
evaluation over the same inputs and, when every input provably
continues the state it was computed from, re-derive only the cones of
the items changed since (:mod:`repro.core.algebra`): a tuple at item
*x* influences exactly the queries at items below *x*.  The patched
result is bit-identical to a fresh one.  Everything else — plans over
join or divide, legacy ``compute=`` callables, hierarchy or strategy
changes, exhausted delta logs, replaced source objects — recomputes in
full.  With the parallel layer on, an evaluation that shards leaves no
state to patch; the operator then evaluates the next refresh serially
to leave one.  :attr:`MaterializedView.delta_refresh_count` counts the
refreshes of a plan-backed view its operator served by a patch.

Read-only handles
-----------------
:meth:`MaterializedView.relation` returns a :class:`ViewRelation` — the
cached object itself, guarded so that callers cannot corrupt the cache
by mutating what they were handed.  Use ``view.relation().copy()`` for
a private mutable copy.

Examples
--------
>>> # flyers = MaterializedView(
>>> #     "penguin_flyers",
>>> #     plan=ViewPlan("select", [flies], {"creature": "penguin"}))
>>> # flyers.relation()                  # computed once ...
>>> # flies.assert_item(("sparrow",))
>>> # flyers.relation()                  # ... patched over one cone
>>> # flyers.delta_refresh_count
>>> # 1
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs as _obs
from repro.core import algebra as _algebra
from repro.core.relation import HRelation
from repro.errors import ViewError

#: A view source: a relation, or a zero-argument callable resolving to
#: one (e.g. a catalog lookup, so DROP + CREATE re-binds by name).
Source = Union[HRelation, Callable[[], HRelation]]


def _stamp(sources: Sequence[HRelation]) -> Tuple:
    return tuple(
        (r.version, r.schema.product.version, r.strategy.name) for r in sources
    )


class ViewRelation(HRelation):
    """The read-only handle a view hands out.

    It *is* the cached relation (no per-access copy), but every mutator
    raises :class:`ViewError`: historically ``view.relation()`` returned
    the live cache, so one stray ``assert_item`` corrupted every later
    read.  ``copy()`` still returns a plain mutable :class:`HRelation`.
    """

    _frozen = False

    def _refuse(self, operation: str) -> None:
        raise ViewError(
            "{!r} is a materialized-view result; {} would corrupt the view "
            "cache.  Mutate the view's sources, or take a private copy "
            "with .copy() first.".format(self.name, operation)
        )

    def assert_item(self, item, truth: bool = True, replace: bool = False) -> None:
        if self._frozen:
            self._refuse("assert_item")
        HRelation.assert_item(self, item, truth=truth, replace=replace)

    def retract(self, item) -> None:
        if self._frozen:
            self._refuse("retract")
        HRelation.retract(self, item)

    def discard(self, item) -> bool:
        if self._frozen:
            self._refuse("discard")
        return HRelation.discard(self, item)

    def clear(self) -> None:
        if self._frozen:
            self._refuse("clear")
        HRelation.clear(self)

    @classmethod
    def adopt(cls, relation: HRelation, name: str) -> "ViewRelation":
        """Wrap a freshly computed relation (storage is taken over, not
        copied — the input must be private to the caller)."""
        out = cls(relation.schema, name=name, strategy=relation.strategy)
        out._tuples = relation._tuples
        out._version = relation._version
        out._delta_log = relation._delta_log
        out._delta_floor = relation._delta_floor
        out._epoch = relation._epoch
        out._frozen = True
        return out


class ViewPlan:
    """A declarative view definition the engine can refresh incrementally.

    Parameters
    ----------
    op:
        One of ``select``, ``union``, ``intersection``, ``difference``
        (delta-capable) or ``join``, ``divide`` (always fully
        recomputed).
    sources:
        One relation for ``select``, two for the binary operators.  Each
        may be a zero-argument callable, resolved on every access — pass
        catalog lookups so the view follows DROP + CREATE by name.
    conditions:
        The attribute -> class mapping for ``select`` (required there,
        forbidden elsewhere).
    """

    #: Operators that patch their previous evaluation over changed cones.
    DELTA_OPS = frozenset({"select", "union", "intersection", "difference"})

    _BINARY = {
        "union": _algebra.union,
        "intersection": _algebra.intersection,
        "difference": _algebra.difference,
        "join": _algebra.join,
        "divide": _algebra.divide,
    }

    def __init__(
        self,
        op: str,
        sources: Sequence[Source],
        conditions: Optional[Mapping[str, str]] = None,
    ) -> None:
        op = op.lower()
        if op == "select":
            if len(sources) != 1:
                raise ValueError("a select plan takes exactly one source")
            if not conditions:
                raise ValueError(
                    "a select plan needs a non-empty conditions mapping "
                    "(an unconditioned select is just the source)"
                )
        elif op in self._BINARY:
            if len(sources) != 2:
                raise ValueError("a {} plan takes exactly two sources".format(op))
            if conditions:
                raise ValueError("conditions only apply to select plans")
        else:
            raise ValueError(
                "unknown view operator {!r}; expected one of {}".format(
                    op, sorted(self._BINARY) + ["select"]
                )
            )
        self.op = op
        self.sources: List[Source] = list(sources)
        self.conditions = dict(conditions) if conditions else None

    @property
    def delta_capable(self) -> bool:
        return self.op in self.DELTA_OPS

    def compute(self, sources: Sequence[HRelation], name: str) -> HRelation:
        """Run the operator over ``sources``."""
        if self.op == "select":
            return _algebra.select(sources[0], self.conditions, name=name)
        return self._BINARY[self.op](sources[0], sources[1], name=name)

    def __repr__(self) -> str:
        return "ViewPlan({!r}, {} sources{})".format(
            self.op,
            len(self.sources),
            ", conditions={}".format(self.conditions) if self.conditions else "",
        )


class MaterializedView:
    """A lazily-refreshed cached computation over source relations.

    Parameters
    ----------
    name:
        The view's name (stamped onto the cached relation).
    compute:
        Legacy definition: a zero-argument callable producing an
        :class:`HRelation`.  Always fully recomputed when stale.
    sources:
        With ``compute``: every relation the callable reads.  The cache
        is invalidated when any source (or any of its hierarchies)
        mutates; listing too few sources silently serves stale data, so
        list them all.
    plan:
        Declarative definition: a :class:`ViewPlan`.  Mutually exclusive
        with ``compute`` and required for delta refresh.
    """

    def __init__(
        self,
        name: str,
        compute: Optional[Callable[[], HRelation]] = None,
        sources: Sequence[Source] = (),
        plan: Optional[ViewPlan] = None,
    ) -> None:
        if (compute is None) == (plan is None):
            raise ValueError("provide exactly one of compute= or plan=")
        self.name = name
        self._compute = compute
        self._plan = plan
        self._source_spec: List[Source] = (
            list(plan.sources) if plan is not None else list(sources)
        )
        self._cached: Optional[ViewRelation] = None
        self._stamp: Optional[Tuple] = None
        self.refresh_count = 0
        self.delta_refresh_count = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def _resolve_sources(self) -> List[HRelation]:
        return [s() if callable(s) else s for s in self._source_spec]

    def is_stale(self) -> bool:
        """Would :meth:`relation` refresh (delta or full) right now?"""
        return self._cached is None or self._stamp != _stamp(self._resolve_sources())

    def relation(self) -> HRelation:
        """The view's current contents as a read-only handle, refreshed
        only when stale — incrementally when the plan allows it."""
        sources = self._resolve_sources()
        stamp = _stamp(sources)
        if self._cached is not None and stamp == self._stamp:
            _obs.default_registry().counter("views.serve.fresh").inc()
            return self._cached
        with _obs.span("view.refresh", view=self.name) as sp:
            if self._plan is not None:
                computed = self._plan.compute(sources, self.name)
                patched = _algebra.was_patched(computed)
            else:
                computed = self._compute()
                patched = False
            self._cached = ViewRelation.adopt(computed, self.name)
            self._stamp = stamp
            mode = "delta" if patched else "full"
            if patched:
                self.delta_refresh_count += 1
            else:
                self.refresh_count += 1
            _obs.default_registry().counter("views.refresh." + mode).inc()
            sp.annotate(mode=mode, tuples=len(self._cached))
        return self._cached

    def invalidate(self) -> None:
        """Drop the cached contents: the next access runs the operator
        again (which still patches what its own lineage proves)."""
        self._cached = None
        self._stamp = None

    def truth_of(self, item) -> bool:
        return self.relation().truth_of(item)

    def extension(self):
        return self.relation().extension()

    def __len__(self) -> int:
        return len(self.relation())

    def __repr__(self) -> str:
        state = "stale" if self.is_stale() else "fresh"
        return "MaterializedView({!r}, {}, {} refreshes, {} delta)".format(
            self.name, state, self.refresh_count, self.delta_refresh_count
        )


class ViewRegistry:
    """A named collection of views, e.g. one per database."""

    def __init__(self) -> None:
        self._views: dict[str, MaterializedView] = {}

    def define(
        self,
        name: str,
        compute: Optional[Callable[[], HRelation]] = None,
        sources: Sequence[Source] = (),
        plan: Optional[ViewPlan] = None,
    ) -> MaterializedView:
        if name in self._views:
            raise ValueError("view {!r} already defined".format(name))
        view = MaterializedView(name, compute=compute, sources=sources, plan=plan)
        self._views[name] = view
        return view

    def view(self, name: str) -> MaterializedView:
        return self._views[name]

    def drop(self, name: str) -> None:
        del self._views[name]

    def names(self) -> List[str]:
        return sorted(self._views)

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)
