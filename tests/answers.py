"""Answer-level comparison of relations: what any reader can observe.

Checks that a copy of a relation (decoded from a snapshot, recovered
after a crash) matches its source compare *answers*, not evaluator
internals: the truth of every stored item and of every hierarchy node,
and the extension in its emission order.
"""

from __future__ import annotations

from repro.core import bulk
from repro.errors import AmbiguityError


def answers(relation):
    """``(truths, extension)`` for ``relation``.

    ``truths`` pairs every stored item and every hierarchy node — on
    each attribute, with the other attributes at their roots — with its
    truth value (``None`` marks a conflict).  ``extension`` lists the
    atoms in emission order, ending with ``("conflict", atom)`` when an
    ambiguous atom stops the enumeration.
    """
    evaluator = bulk.evaluator_for(relation)
    top = relation.schema.product.top
    probes = list(relation.asserted)
    for position, hierarchy in enumerate(relation.schema.hierarchies):
        for node in hierarchy.nodes():
            probes.append(top[:position] + (node,) + top[position + 1:])
    truths = [(item, evaluator.truth(item)) for item in probes]
    extension = []
    try:
        for atom in relation.extension():
            extension.append(atom)
    except AmbiguityError as exc:
        extension.append(("conflict", exc.item))
    return truths, extension
