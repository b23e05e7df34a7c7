"""Close: level-wise mining of frequent closed itemsets via generators.

Close (Pasquier, Bastide, Taouil, Lakhal — Information Systems 24(1),
1999) is the algorithm the ICDE 2000 paper relies on to extract the
frequent closed itemsets ``FC``.  It works level-wise over *generator*
itemsets:

1. the candidate generators of size 1 are the single items;
2. one database pass per level counts the support of every candidate
   generator ``p`` and computes the closure ``h(p)`` (the intersection
   of the transactions containing ``p``) of the frequent ones;
3. infrequent generators are discarded; a generator whose closure was
   already produced by one of its subsets is redundant and discarded too;
4. candidate generators of size ``k + 1`` are obtained with the Apriori
   join of the surviving generators of size ``k``, pruned when one of
   their ``k``-subsets is not a surviving generator or when they are
   included in the closure of one of their ``k``-subsets (in that case
   their closure is already known).

The union of the closures of all surviving generators is exactly the set
of frequent closed itemsets, each with its support.  The number of
database passes equals the length of the largest generator, which on
dense correlated data is much smaller than the largest frequent itemset —
this is what gives Close its advantage over Apriori in the paper's
figures.

The level loop runs on sorted arrays of item ranks through the candidate
kernel of :mod:`repro.algorithms.levelwise`.  Each level is one
:meth:`~repro.engine.ClosureEngine.evaluate_level` batch: supports by
popcount, then the packed closures of the frequent candidates only.  A
candidate ``c`` lies inside ``h(s)`` for an immediate subset ``s``
exactly when the item ``c`` drops to give ``s`` is in ``h(s)``, so the
redundancy test of step 4 is one bit lookup per (candidate, subset)
pair.  Closed sets and generators become
:class:`~repro.core.itemset.Itemset` objects once, at the end.
"""

from __future__ import annotations

import numpy as np

from ..core.families import ClosedItemsetFamily
from ..core.itemset import Itemset
from ..data.context import TransactionDatabase
from .base import MiningAlgorithm, MiningStatistics
from .levelwise import ClosureRecords, ItemOrder, join_level

__all__ = ["Close"]


class Close(MiningAlgorithm):
    """Frequent closed itemset mining with the Close algorithm.

    Parameters
    ----------
    minsup:
        Relative minimum support threshold.

    Attributes
    ----------
    generators_by_closure:
        After :meth:`run`, a mapping ``closed itemset -> sorted list of the
        generators whose closure it is`` (only the generators actually kept
        by the level-wise search, i.e. the frequent minimal generators).

    Examples
    --------
    >>> from repro.data.context import TransactionDatabase
    >>> db = TransactionDatabase([["a", "c", "d"], ["b", "c", "e"],
    ...                           ["a", "b", "c", "e"], ["b", "e"],
    ...                           ["a", "b", "c", "e"]])
    >>> closed = Close(minsup=0.4).mine(db)
    >>> sorted(map(str, closed))
    ['{a, b, c, e}', '{a, c}', '{b, c, e}', '{b, e}', '{c}']
    """

    name = "Close"

    def __init__(self, minsup: float) -> None:
        super().__init__(minsup)
        self.generators_by_closure: dict[Itemset, list[Itemset]] = {}

    def _mine(
        self, database: TransactionDatabase, statistics: MiningStatistics
    ) -> ClosedItemsetFamily:
        engine = database.engine()
        threshold = database.minsup_count(self._minsup)
        order = ItemOrder(database)
        records = ClosureRecords(database.n_objects)

        # Level 1 candidate generators: the single items.
        level = np.arange(database.n_items)[:, None]
        while len(level):
            statistics.database_passes += 1
            statistics.levels += 1
            statistics.candidates_generated += len(level)
            # The whole level is counted, and its frequent candidates
            # closed, in one vectorised engine pass — this batch is the
            # paper's "one database scan per level" made literal.
            counts, closures = engine.evaluate_level(
                order.columns[level], close_at=threshold
            )
            frequent = counts >= threshold
            level = level[frequent]
            records.add(level, counts[frequent], closures)

            # Build the next level of candidate generators, dropping the
            # candidates inside the closure of one of their immediate
            # subsets: their closure is already known.
            candidates, subsets = join_level(level)
            dropped = order.columns[candidates]
            words = closures[subsets, dropped >> 6]
            inside = (words >> (dropped & 63).astype(np.uint64)) & np.uint64(1)
            level = candidates[~inside.any(axis=1)]

        closed_supports, self.generators_by_closure = records.decode(order)
        return ClosedItemsetFamily(
            closed_supports, n_objects=database.n_objects, minsup_count=threshold
        )
