"""Reference constructions the shipped array-native code is checked against.

These are the classical per-rule object loops the library used before
its columnar emitters.  They live with the tests, not in the package:
slow and obviously correct, they exist only to be compared with.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.constants import EPSILON
from repro.core.families import ClosedItemsetFamily, ItemsetFamily
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice
from repro.core.order import OrderCore, pack_itemset_masks
from repro.core.rules import AssociationRule, RuleSet


def _reference_rules(frequent: ItemsetFamily, keep: Callable[[float], bool]) -> RuleSet:
    """Every rule ``X → Z \\ X`` of the family whose confidence passes *keep*.

    One :class:`AssociationRule` per ``(Z, X)`` pair: ``Z`` in canonical
    order, ``X`` over ``Z``'s non-empty proper subsets in size order.
    """
    rules = RuleSet()
    n_objects = frequent.n_objects
    for itemset, count in frequent.items_with_supports():
        support = count / n_objects if n_objects else 0.0
        for antecedent in itemset.nonempty_proper_subsets():
            antecedent_count = frequent.get(antecedent)
            if not antecedent_count:
                continue  # cannot happen for a downward-closed family
            confidence = count / antecedent_count
            if keep(confidence):
                rules.add(
                    AssociationRule(
                        antecedent,
                        itemset.difference(antecedent),
                        support=support,
                        confidence=confidence,
                        support_count=count,
                    )
                )
    return rules


def all_rules_reference(frequent: ItemsetFamily, minconf: float) -> RuleSet:
    """Every valid rule with confidence at least *minconf*."""
    return _reference_rules(frequent, lambda confidence: confidence >= minconf - EPSILON)


def exact_rules_reference(frequent: ItemsetFamily) -> RuleSet:
    """Every confidence-1 rule."""
    return all_rules_reference(frequent, 1.0)


def approximate_rules_reference(frequent: ItemsetFamily, minconf: float) -> RuleSet:
    """Every rule with confidence in ``[minconf, 1)``."""
    return _reference_rules(
        frequent,
        lambda confidence: minconf - EPSILON <= confidence < 1.0 - EPSILON,
    )


def hasse_edges_reference(closed: ClosedItemsetFamily) -> list[tuple[Itemset, Itemset]]:
    """Hasse edges by the pre-vectorisation per-pair algorithm.

    The original pure-Python builder (inverted item index, then a
    per-pair immediate-successor scan), the oracle the packed order core
    is checked against and the baseline of the lattice microbenchmark.
    """
    members = closed.itemsets()
    index: dict[object, set[int]] = {}
    for position, member in enumerate(members):
        for item in member:
            index.setdefault(item, set()).add(position)
    all_positions = set(range(len(members)))

    def proper_supersets(member: Itemset) -> list[Itemset]:
        positions: set[int] | None = None
        for item in member:
            posting = index.get(item, set())
            positions = posting.copy() if positions is None else positions & posting
            if not positions:
                return []
        if positions is None:  # the empty itemset
            positions = set(all_positions)
        return [
            members[position]
            for position in positions
            if len(members[position]) > len(member)
        ]

    edges: list[tuple[Itemset, Itemset]] = []
    for smaller in members:
        successors = sorted(proper_supersets(smaller), key=len)
        immediate: list[Itemset] = []
        for candidate in successors:
            if not any(mid.is_proper_subset(candidate) for mid in immediate):
                immediate.append(candidate)
        edges.extend((smaller, successor) for successor in immediate)
    return sorted(edges)


def reference_lattice(closed: ClosedItemsetFamily) -> IcebergLattice:
    """The lattice of *closed* around the oracle's Hasse edges.

    A CSR-only :meth:`OrderCore.from_edges` core: the edges come from
    :func:`hasse_edges_reference`, containment queries probe the member
    masks, so nothing of the packed construction passes is involved.
    """
    members = closed.itemsets()
    position = {member: index for index, member in enumerate(members)}
    edges = hasse_edges_reference(closed)
    rows = np.array([position[smaller] for smaller, _ in edges], dtype=np.int64)
    cols = np.array([position[larger] for _, larger in edges], dtype=np.int64)
    masks, _ = pack_itemset_masks(members)
    return IcebergLattice(closed, order_core=OrderCore.from_edges(masks, rows, cols))


def is_transitive_reduction(lattice: IcebergLattice) -> bool:
    """``True`` iff the lattice's Hasse edges reduce its full containment order.

    A comparable pair is a Hasse edge iff no third member lies strictly
    in between; checked pair by pair against :meth:`comparable_pairs`.
    """
    pairs = set(lattice.comparable_pairs())
    above: dict[Itemset, set[Itemset]] = {}
    for smaller, larger in pairs:
        above.setdefault(smaller, set()).add(larger)
    reduction = {
        (smaller, larger)
        for smaller, larger in pairs
        if not any((mid, larger) in pairs for mid in above[smaller])
    }
    return reduction == set(lattice.hasse_edges())


def containment_matrix(masks: np.ndarray) -> np.ndarray:
    """Dense strict-containment matrix of packed, pairwise distinct rows.

    ``result[i, j]`` is ``True`` iff row ``i`` is a proper subset of row
    ``j``: the bool reference of
    :func:`repro.core.bitmatrix.packed_containment`.
    """
    subset = ((masks[:, None, :] & masks[None, :, :]) == masks[:, None, :]).all(axis=2)
    np.fill_diagonal(subset, False)
    return subset


def hasse_reduction(proper: np.ndarray) -> np.ndarray:
    """Dense transitive reduction ``proper & ~(proper @ proper)``.

    The bool reference of
    :func:`repro.core.bitmatrix.packed_hasse_reduction`, with the
    two-step relation as an integer matrix product.
    """
    as_int = proper.astype(np.int64)
    return proper & ~((as_int @ as_int) > 0)
