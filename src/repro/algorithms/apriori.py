"""Apriori: the level-wise frequent-itemset miner used as the paper's baseline.

Apriori (Agrawal & Srikant, VLDB 1994) enumerates frequent itemsets level
by level: frequent ``k``-itemsets are joined to form candidate
``(k+1)``-itemsets, candidates with an infrequent ``k``-subset are pruned
(anti-monotonicity of support), and one database pass counts the supports
of the survivors.  The bases papers use Apriori both as the source of
*all* frequent itemsets — from which the full, highly redundant rule sets
are generated — and as the runtime baseline that Close and A-Close are
compared against.

The implementation below hands each candidate level to the context's
closure engine as one batch, so support counting is a handful of
vectorised reductions (packed cover ANDs and popcounts on the numpy
engine, early exit tidset ANDs on the bitset engine) instead of a
database re-scan per candidate; the number of logical database passes
reported in the statistics still follows the classical level-wise
accounting (one pass per level), which is what the original figures
plot.
"""

from __future__ import annotations

from itertools import combinations

from ..core.families import ItemsetFamily
from ..core.itemset import Itemset
from ..data.context import TransactionDatabase
from .base import MiningAlgorithm, MiningStatistics

__all__ = ["Apriori", "apriori_candidates"]


def apriori_candidates(level: list[Itemset]) -> list[Itemset]:
    """Generate the candidate ``(k+1)``-itemsets from frequent ``k``-itemsets.

    Two ``k``-itemsets are joined when they share their first ``k - 1``
    items (in canonical order); the resulting candidate is kept only if all
    of its ``k``-subsets belong to *level* (the classical Apriori pruning).

    The function is exposed publicly because Close and A-Close reuse the
    very same join on their generator sets.
    """
    frequent = set(level)
    ordered = sorted(level)
    candidates: list[Itemset] = []
    by_prefix: dict[tuple, list[Itemset]] = {}
    for itemset in ordered:
        items = itemset.as_tuple()
        by_prefix.setdefault(items[:-1], []).append(itemset)
    for prefix_group in by_prefix.values():
        for first, second in combinations(prefix_group, 2):
            candidate = first.union(second)
            if all(
                subset in frequent
                for subset in candidate.subsets_of_size(len(candidate) - 1)
            ):
                candidates.append(candidate)
    return sorted(candidates)


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

    def __init__(
        self, minsup: float, max_size: int | None = None, engine: str | None = None
    ) -> None:
        super().__init__(minsup, engine=engine)
        self._max_size = max_size

    def _mine(
        self, database: TransactionDatabase, statistics: MiningStatistics
    ) -> ItemsetFamily:
        engine = self._engine(database)
        threshold = database.minsup_count(self._minsup)
        supports: dict[Itemset, int] = {}

        # Level 1: count every single item in one batched pass.
        statistics.database_passes += 1
        statistics.levels = 1
        singles = [Itemset.of(item) for item in database.items]
        statistics.candidates_generated += len(singles)
        level: list[Itemset] = []
        for itemset, count in zip(singles, engine.supports(singles)):
            if count >= threshold:
                supports[itemset] = count
                level.append(itemset)

        # Levels k >= 2: join, prune, then count the whole level in one batch.
        while level:
            if self._max_size is not None and statistics.levels >= self._max_size:
                break
            candidates = apriori_candidates(sorted(level))
            if not candidates:
                break
            statistics.database_passes += 1
            statistics.levels += 1
            statistics.candidates_generated += len(candidates)
            next_level: list[Itemset] = []
            for candidate, count in zip(candidates, engine.supports(candidates)):
                if count >= threshold:
                    supports[candidate] = count
                    next_level.append(candidate)
            level = next_level

        return ItemsetFamily(
            supports, n_objects=database.n_objects, minsup_count=threshold
        )
