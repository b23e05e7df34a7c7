"""A-Close: frequent closed itemset mining via minimal generators.

A-Close (Pasquier, Bastide, Taouil, Lakhal — ICDT 1999) is the second
miner the ICDE 2000 paper builds on.  Unlike Close it does not compute a
closure at every level; it first discovers the *frequent minimal
generators* with plain support counting, then performs one final pass to
compute their closures:

1. level-wise, candidate generators are joined and pruned exactly as in
   Apriori;
2. a frequent candidate is discarded as a non-generator when its support
   equals the support of one of its immediate subsets (then its closure is
   that subset's closure, which will be produced anyway);
3. once no candidate survives, a closure pass computes ``h(G)`` for every
   retained generator ``G``; the distinct closures with their supports
   form the frequent closed itemset family.

The original algorithm remembers the first level at which a non-generator
appeared and only re-computes closures from that level upwards; we keep
the simpler "close every generator" variant, which returns the same
result and only changes constants that are irrelevant to the shapes the
benchmarks reproduce (the closure pass is still a single scan-equivalent
phase).

The level loop runs on sorted arrays of item ranks through the candidate
kernel of :mod:`repro.algorithms.levelwise`, shared with Apriori and
Close: each level is one support-only engine batch, and the generator
test compares every candidate's support with its immediate subsets'
through the subset rows the kernel returns.  The closure pass is one
:meth:`~repro.engine.ClosureEngine.evaluate_level` batch over all
generators, shorter rows padded by cycling their items.  Generators and
closed sets become :class:`~repro.core.itemset.Itemset` objects once, at
the end.
"""

from __future__ import annotations

import numpy as np

from ..core.families import ClosedItemsetFamily
from ..core.itemset import Itemset
from ..data.context import TransactionDatabase
from .base import MiningAlgorithm, MiningStatistics
from .levelwise import ClosureRecords, ItemOrder, join_level

__all__ = ["AClose"]


class AClose(MiningAlgorithm):
    """Frequent closed itemset mining with the A-Close algorithm.

    Attributes
    ----------
    generators:
        After :meth:`run`, the sorted list of frequent minimal generators.
    generators_by_closure:
        After :meth:`run`, a mapping ``closed itemset -> sorted generators``.

    Examples
    --------
    >>> from repro.data.context import TransactionDatabase
    >>> db = TransactionDatabase([["a", "c", "d"], ["b", "c", "e"],
    ...                           ["a", "b", "c", "e"], ["b", "e"],
    ...                           ["a", "b", "c", "e"]])
    >>> closed = AClose(minsup=0.4).mine(db)
    >>> len(closed)
    5
    """

    name = "A-Close"

    def __init__(self, minsup: float) -> None:
        super().__init__(minsup)
        self.generators: list[Itemset] = []
        self.generators_by_closure: dict[Itemset, list[Itemset]] = {}

    def _mine(
        self, database: TransactionDatabase, statistics: MiningStatistics
    ) -> ClosedItemsetFamily:
        engine = database.engine()
        threshold = database.minsup_count(self._minsup)
        order = ItemOrder(database)

        # ------------------------------------------------------------------
        # Phase 1: find the frequent minimal generators level-wise.
        # ------------------------------------------------------------------
        statistics.database_passes += 1
        statistics.levels = 1
        statistics.candidates_generated += database.n_items
        level = np.arange(database.n_items)[:, None]
        counts, _ = engine.evaluate_level(order.columns[level])
        # A single item is a minimal generator unless it appears in every
        # object (then its closure is already the closure of the empty
        # set); it is still useful to keep it so that its closed superset
        # is produced, and the closure pass deduplicates.
        frequent = counts >= threshold
        level, level_counts = level[frequent], counts[frequent]
        generators = [(level, level_counts)]

        while len(level):
            candidates, subsets = join_level(level)
            if not len(candidates):
                break
            statistics.database_passes += 1
            statistics.levels += 1
            # One batched support pass counts the whole candidate level.
            statistics.candidates_generated += len(candidates)
            counts, _ = engine.evaluate_level(order.columns[candidates])
            # Generator test: the support must be strictly smaller than the
            # support of every immediate subset; equality means the
            # candidate has the same closure as that subset.
            keep = counts >= threshold
            keep &= (level_counts[subsets] != counts[:, None]).all(axis=1)
            level, level_counts = candidates[keep], counts[keep]
            generators.append((level, level_counts))

        # ------------------------------------------------------------------
        # Phase 2: closure pass over the retained generators.
        # ------------------------------------------------------------------
        statistics.database_passes += 1
        # The final closure pass is one batch over every retained generator.
        # Shorter rows are padded by cycling their items, which leaves each
        # itemset, its cover and its closure unchanged.
        width = generators[-1][0].shape[1]
        padded = np.concatenate(
            [level[:, np.arange(width) % level.shape[1]] for level, _ in generators]
        )
        _, closures = engine.evaluate_level(order.columns[padded], close_at=threshold)
        records = ClosureRecords(database.n_objects)
        start = 0
        for level, level_counts in generators:
            stop = start + len(level)
            records.add(level, level_counts, closures[start:stop])
            start = stop

        self.generators = [
            generator for level, _ in generators for generator in order.itemsets(level)
        ]
        closed_supports, self.generators_by_closure = records.decode(order)
        return ClosedItemsetFamily(
            closed_supports, n_objects=database.n_objects, minsup_count=threshold
        )
