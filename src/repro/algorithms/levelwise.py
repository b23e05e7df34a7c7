"""The candidate kernel shared by the level-wise miners.

Apriori, Close and A-Close walk the same search space: the ``(k+1)``
candidates of a level are the joins of two ``k``-itemsets that share
their first ``k - 1`` items, kept only when every ``k``-subset is in the
level (Agrawal & Srikant, VLDB 1994).  This module runs that join and
prune for all three, and for the incremental repair's damaged region
(:mod:`repro.incremental.update`).

A *level* is an ``(m × k)`` integer array of item **ranks**, the item
positions in the canonical ascending order of
:func:`~repro.core.rulearrays.sorted_universe`, one row per itemset, rows
in lexicographic order.  That is the ``sorted()`` order of the
equal-size :class:`~repro.core.itemset.Itemset` objects, so the miners
meet candidates, and fill their families, in canonical order.
:class:`ItemOrder` maps ranks to the database's matrix columns (after
:meth:`TransactionDatabase.extended
<repro.data.context.TransactionDatabase.extended>` the column order is
not canonical) and decodes rank rows into itemsets once, at the end of a
run.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core.bitmatrix import _packed_nonzero
from ..core.itemset import Item, Itemset
from ..core.rulearrays import sorted_universe
from .rule_generation import _row_keys

if TYPE_CHECKING:  # pragma: no cover
    from ..data.context import TransactionDatabase

__all__ = ["ItemOrder", "ClosureRecords", "join_level", "decode_packed"]


class ItemOrder:
    """The canonical item order of one mining context.

    ``items[c]`` is the item of matrix column ``c``, ``universe[r]`` the
    item of rank ``r`` and ``columns[r]`` its column; ``ranks[c]``
    inverts ``columns``.
    """

    __slots__ = ("items", "universe", "columns", "ranks")

    def __init__(self, database: "TransactionDatabase") -> None:
        self.items: tuple[Item, ...] = database.items
        position = {item: column for column, item in enumerate(self.items)}
        self.universe: tuple[Item, ...] = sorted_universe(self.items)
        self.columns = np.array([position[item] for item in self.universe], dtype=np.intp)
        self.ranks = np.empty_like(self.columns)
        self.ranks[self.columns] = np.arange(len(self.items))

    def itemsets(self, level: np.ndarray) -> list[Itemset]:
        """One :class:`Itemset` per rank row of *level*, in row order."""
        universe = self.universe
        return [Itemset([universe[r] for r in row]) for row in level.tolist()]


def join_level(level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apriori's join and prune over one sorted level.

    Returns ``(candidates, subsets)``.  ``candidates`` holds the
    ``(k+1)``-rank rows, in lexicographic order, whose every ``k``-subset
    is a row of *level*; ``subsets[i, j]`` is the row of *level* equal to
    candidate ``i`` without its ``j``-th rank.

    Rows sharing their first ``k - 1`` ranks are contiguous, and each row
    joins every later row of its group.  The two joined rows are the
    subsets that drop the candidate's last two ranks; the other ``k - 1``
    are looked up with one binary search each over the level's row keys.
    """
    m, k = level.shape
    if m < 2 or k == 0:
        return np.zeros((0, k + 1), dtype=np.intp), np.zeros((0, k + 1), dtype=np.intp)
    group_starts = np.ones(m, dtype=bool)
    group_starts[1:] = (level[1:, :-1] != level[:-1, :-1]).any(axis=1)
    group_ends = np.append(np.flatnonzero(group_starts)[1:], m)
    rows = np.arange(m)
    partners = group_ends[np.cumsum(group_starts) - 1] - rows - 1
    left = np.repeat(rows, partners)
    block_starts = np.repeat(np.cumsum(partners) - partners, partners)
    right = left + 1 + np.arange(len(left)) - block_starts
    candidates = np.empty((len(left), k + 1), dtype=np.intp)
    candidates[:, :k] = level[left]
    candidates[:, k] = level[right, k - 1]
    subsets = np.empty_like(candidates)
    subsets[:, k] = left
    subsets[:, k - 1] = right
    if k > 1:
        # Big-endian ranks compare bytewise in numeric order, so the row
        # keys sort like the rows do.
        keys = _row_keys(level.astype(">u8"))
        keep = np.ones(len(candidates), dtype=bool)
        for j in range(k - 1):
            probes = _row_keys(np.delete(candidates, j, axis=1).astype(">u8"))
            found = np.minimum(np.searchsorted(keys, probes), m - 1)
            keep &= keys[found] == probes
            subsets[:, j] = found
        candidates, subsets = candidates[keep], subsets[keep]
    return candidates, subsets


def decode_packed(words: np.ndarray, items: Sequence[Item]) -> list[Itemset]:
    """One :class:`Itemset` per packed row; bit ``c`` stands for ``items[c]``."""
    rows, columns = _packed_nonzero(words)
    bounds = np.searchsorted(rows, np.arange(len(words) + 1)).tolist()
    columns = columns.tolist()
    return [
        Itemset([items[c] for c in columns[start:stop]])
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


class ClosureRecords:
    """Closed sets with their generators, in order of first discovery.

    Close and A-Close feed it generator rank rows with their supports and
    packed closures; :meth:`decode` turns the records into itemsets once.
    """

    def __init__(self, n_objects: int) -> None:
        self._n_objects = n_objects
        self._index: dict[bytes, int] = {}
        self._closures: list[np.ndarray] = []
        self._counts: list[int] = []
        self._generators: list[list[tuple[int, ...]]] = []

    def add(self, level: np.ndarray, counts: np.ndarray, closures: np.ndarray) -> None:
        """Record each generator row of *level* with its support and closure."""
        fresh: list[int] = []
        n_objects = self._n_objects
        for row, (generator, count) in enumerate(zip(level.tolist(), counts.tolist())):
            key = closures[row].tobytes()
            position = self._index.get(key)
            if position is None:
                position = self._index[key] = len(self._counts)
                fresh.append(row)
                self._counts.append(count)
                self._generators.append([])
            # A single item present in every object is not a minimal
            # generator (the empty itemset already has the same closure);
            # the empty itemset is recorded instead, so that the generator
            # family stays made of genuine minimal generators.
            single = count == n_objects and len(generator) == 1
            recorded = () if single else tuple(generator)
            bucket = self._generators[position]
            if recorded not in bucket:
                bucket.append(recorded)
        self._closures.append(closures[fresh])

    def decode(
        self, order: ItemOrder
    ) -> tuple[dict[Itemset, int], dict[Itemset, list[Itemset]]]:
        """``(closed supports, sorted generators by closure)`` as itemsets.

        Closure bit ``c`` stands for column ``c`` of *order*, generator
        rank ``r`` for its rank ``r``.
        """
        empty = [np.zeros((0, 0), dtype=np.uint64)]
        closures = decode_packed(np.concatenate(self._closures or empty), order.items)
        universe = order.universe
        generators = {
            closure: sorted(Itemset([universe[r] for r in row]) for row in bucket)
            for closure, bucket in zip(closures, self._generators)
        }
        return dict(zip(closures, self._counts)), generators
