"""Apriori: the level-wise frequent-itemset miner used as the paper's baseline.

Apriori (Agrawal & Srikant, VLDB 1994) enumerates frequent itemsets level
by level: frequent ``k``-itemsets are joined to form candidate
``(k+1)``-itemsets, candidates with an infrequent ``k``-subset are pruned
(anti-monotonicity of support), and one database pass counts the supports
of the survivors.  The bases papers use Apriori both as the source of
*all* frequent itemsets — from which the full, highly redundant rule sets
are generated — and as the runtime baseline that Close and A-Close are
compared against.

The level loop runs on sorted arrays of item ranks through the
candidate kernel of :mod:`repro.algorithms.levelwise`, which Close and
A-Close share.  Each level is one batch of the context's closure engine,
so support counting is a handful of vectorised reductions (packed cover
ANDs and popcounts) instead of a database re-scan per candidate; each
frequent itemset becomes an :class:`~repro.core.itemset.Itemset` once,
at the end.  The number of logical database passes reported in the
statistics still follows the classical level-wise accounting (one pass
per level), which is what the original figures plot.
"""

from __future__ import annotations

import numpy as np

from ..core.families import ItemsetFamily
from ..core.itemset import Itemset
from ..data.context import TransactionDatabase
from .base import MiningAlgorithm, MiningStatistics
from .levelwise import ItemOrder, join_level

__all__ = ["Apriori"]


class Apriori(MiningAlgorithm):
    """Level-wise mining of all frequent itemsets.

    Parameters
    ----------
    minsup:
        Relative minimum support threshold.
    max_size:
        Optional cap on the itemset cardinality (useful to keep the
        all-rules baselines tractable on dense datasets; ``None`` means no
        cap, the classical behaviour).

    Examples
    --------
    >>> from repro.data.context import TransactionDatabase
    >>> db = TransactionDatabase([["a", "c", "d"], ["b", "c", "e"],
    ...                           ["a", "b", "c", "e"], ["b", "e"],
    ...                           ["a", "b", "c", "e"]])
    >>> family = Apriori(minsup=0.4).mine(db)
    >>> len(family)
    15
    """

    name = "Apriori"

    def __init__(self, minsup: float, max_size: int | None = None) -> None:
        super().__init__(minsup)
        self._max_size = max_size

    def _mine(
        self, database: TransactionDatabase, statistics: MiningStatistics
    ) -> ItemsetFamily:
        engine = database.engine()
        threshold = database.minsup_count(self._minsup)
        order = ItemOrder(database)

        # Level 1: count every single item in one batched pass.  The
        # family lists the frequent items in column order.
        statistics.database_passes += 1
        statistics.levels = 1
        statistics.candidates_generated += database.n_items
        counts, _ = engine.evaluate_level(np.arange(database.n_items)[:, None])
        frequent_columns = np.flatnonzero(counts >= threshold)
        supports: dict[Itemset, int] = {
            Itemset.of(order.items[c]): int(counts[c]) for c in frequent_columns.tolist()
        }
        level = np.sort(order.ranks[frequent_columns])[:, None]

        # Levels k >= 2: join, prune, then count the whole level in one batch.
        levels: list[tuple[np.ndarray, np.ndarray]] = []
        while len(level):
            if self._max_size is not None and statistics.levels >= self._max_size:
                break
            candidates, _ = join_level(level)
            if not len(candidates):
                break
            statistics.database_passes += 1
            statistics.levels += 1
            statistics.candidates_generated += len(candidates)
            counts, _ = engine.evaluate_level(order.columns[candidates])
            frequent = counts >= threshold
            level = candidates[frequent]
            levels.append((level, counts[frequent]))

        for level, counts in levels:
            supports.update(zip(order.itemsets(level), counts.tolist()))
        return ItemsetFamily(
            supports, n_objects=database.n_objects, minsup_count=threshold
        )
