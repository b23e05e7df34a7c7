"""CHARM: vertical (tidset-based) frequent closed itemset mining.

CHARM (Zaki & Hsiao, SDM 2002) post-dates the ICDE 2000 paper but mines
exactly the same object — the frequent closed itemsets — with a radically
different strategy: a depth-first exploration of an itemset–tidset search
tree with aggressive pruning based on four tidset properties.  It is
included here as an *extension* and, more importantly, as an independent
cross-check oracle: the test-suite and the A2 ablation benchmark verify
that Close, A-Close and CHARM return identical ``(closed itemset,
support)`` families on every dataset.

Tidsets are represented as arbitrary-precision integer bitsets (one bit
per object), so intersection is a single ``&`` and support a single
``int.bit_count``.  They are the search state of the algorithm, not a
closure engine: the root tidsets come from
:meth:`TransactionDatabase.vertical_bits`, packed from the context's
matrix, and every deeper tidset is an intersection of two others.
"""

from __future__ import annotations

from ..core.families import ClosedItemsetFamily
from ..core.itemset import Itemset
from ..data.context import TransactionDatabase
from .base import MiningAlgorithm, MiningStatistics

__all__ = ["Charm"]


class _Node:
    """A mutable (itemset, tidset) pair of the CHARM search tree."""

    __slots__ = ("itemset", "tidset", "alive")

    def __init__(self, itemset: Itemset, tidset: int) -> None:
        self.itemset = itemset
        self.tidset = tidset
        self.alive = True


class Charm(MiningAlgorithm):
    """Frequent closed itemset mining with the CHARM algorithm.

    Examples
    --------
    >>> from repro.data.context import TransactionDatabase
    >>> db = TransactionDatabase([["a", "c", "d"], ["b", "c", "e"],
    ...                           ["a", "b", "c", "e"], ["b", "e"],
    ...                           ["a", "b", "c", "e"]])
    >>> closed = Charm(minsup=0.4).mine(db)
    >>> len(closed)
    5
    """

    name = "CHARM"

    def _mine(
        self, database: TransactionDatabase, statistics: MiningStatistics
    ) -> ClosedItemsetFamily:
        threshold = database.minsup_count(self._minsup)
        statistics.database_passes += 1

        item_bits = database.vertical_bits()
        roots = [
            _Node(Itemset.of(item), bits)
            for item, bits in item_bits.items()
            if bits.bit_count() >= threshold
        ]
        statistics.candidates_generated += len(item_bits)
        # Processing items by increasing support maximises the chance of the
        # tidset-equality/containment shortcuts firing early (Zaki's heuristic).
        roots.sort(key=lambda node: (node.tidset.bit_count(), node.itemset))

        # closed sets found so far, keyed by tidset-hash buckets for the
        # subsumption check (an itemset is not closed if a known closed set
        # with the same tidset strictly contains it).
        closed_by_support: dict[int, list[tuple[Itemset, int]]] = {}
        statistics.levels = 1

        def is_subsumed(itemset: Itemset, tidset: int) -> bool:
            support = tidset.bit_count()
            for other, other_tids in closed_by_support.get(support, ()):
                if other_tids == tidset and itemset.is_proper_subset(other):
                    return True
            return False

        def record(itemset: Itemset, tidset: int) -> None:
            if is_subsumed(itemset, tidset):
                return
            support = tidset.bit_count()
            bucket = closed_by_support.setdefault(support, [])
            # Remove previously recorded sets subsumed by the new one: they
            # were provisional closures along other branches.
            bucket[:] = [
                (other, other_tids)
                for other, other_tids in bucket
                if not (other_tids == tidset and other.is_proper_subset(itemset))
            ]
            if not any(other == itemset for other, _ in bucket):
                bucket.append((itemset, tidset))

        def extend(nodes: list[_Node], depth: int) -> None:
            statistics.levels = max(statistics.levels, depth)
            for i, node_i in enumerate(nodes):
                if not node_i.alive:
                    continue
                children: list[_Node] = []
                for j in range(i + 1, len(nodes)):
                    node_j = nodes[j]
                    if not node_j.alive:
                        continue
                    statistics.candidates_generated += 1
                    tids = node_i.tidset & node_j.tidset
                    if tids.bit_count() < threshold:
                        continue
                    union = node_i.itemset.union(node_j.itemset)
                    if node_i.tidset == node_j.tidset:
                        # Property 1: Xi and Xj always occur together; fold
                        # Xj into Xi and drop Xj from further consideration.
                        node_j.alive = False
                        _absorb(node_i, children, union.difference(node_i.itemset))
                    elif node_i.tidset & node_j.tidset == node_i.tidset:
                        # Property 2: Xi's objects all contain Xj; extend Xi
                        # (and its children) but keep Xj for other branches.
                        _absorb(node_i, children, union.difference(node_i.itemset))
                    elif node_i.tidset & node_j.tidset == node_j.tidset:
                        # Property 3: Xj's objects all contain Xi; Xj cannot
                        # be closed on its own under this prefix, explore the
                        # union as a child of Xi.
                        node_j.alive = False
                        children.append(_Node(union, tids))
                    else:
                        # Property 4: genuinely new branch.
                        children.append(_Node(union, tids))
                if children:
                    children.sort(
                        key=lambda node: (node.tidset.bit_count(), node.itemset)
                    )
                    extend(children, depth + 1)
                record(node_i.itemset, node_i.tidset)

        extend(roots, 1)

        supports: dict[Itemset, int] = {}
        for bucket in closed_by_support.values():
            for itemset, tidset in bucket:
                supports[itemset] = tidset.bit_count()
        return ClosedItemsetFamily(
            supports, n_objects=database.n_objects, minsup_count=threshold
        )


def _absorb(node: _Node, children: list[_Node], new_items: Itemset) -> None:
    """Fold *new_items* into *node* and into its already-created children.

    Used by CHARM properties 1 and 2: when every object of ``node`` also
    contains ``new_items``, those items belong to the closure of every
    itemset in the subtree rooted at ``node``, so they are added to the
    node itself and to the children generated so far.
    """
    if not new_items:
        return
    node.itemset = node.itemset.union(new_items)
    for child in children:
        child.itemset = child.itemset.union(new_items)
