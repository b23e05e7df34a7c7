"""Sliding-window streaming mode over the incremental update core.

A bounded window of the most recent transactions, kept mined: every
:meth:`SlidingWindow.append` evicts the oldest objects past the
capacity, appends the batch, and repairs the mined artifacts through
:func:`repro.incremental.update.update_mining` — the same damage-based
maintenance, with the evicted rows as the removed set.  At capacity the
window size is constant, so the absolute support threshold never drops
and the incremental path stays valid on every step.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core.families import ClosedItemsetFamily, ItemsetFamily
from ..core.itemset import Item, Itemset
from ..core.lattice import IcebergLattice
from ..data.context import TransactionDatabase
from ..errors import InvalidParameterError
from ..experiments.harness import ItemsetMiningResult, mine_itemsets
from .update import IncrementalUpdateResult, update_mining

__all__ = ["SlidingWindow"]


class SlidingWindow:
    """A capacity-bounded transaction window with delta-maintained mining.

    Parameters
    ----------
    database:
        The initial window content; must fit the capacity.
    minsup:
        Relative minimum support, fixed for the window's lifetime.
    capacity:
        Maximum number of objects retained; appends beyond it evict the
        oldest objects first.
    damage_threshold, verify, workers:
        Forwarded to :func:`~repro.incremental.update.update_mining`.
    track_lattice:
        When true, an iceberg lattice is built once up front and
        incrementally repaired on every append (exposed as
        :attr:`lattice`); off by default because not every streaming
        consumer needs the order structure.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        minsup: float,
        capacity: int,
        *,
        damage_threshold: float = 0.5,
        verify: str = "off",
        workers: int | None = None,
        track_lattice: bool = False,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"window capacity must be positive, got {capacity}"
            )
        if database.n_objects > capacity:
            raise InvalidParameterError(
                f"initial database holds {database.n_objects} objects, more "
                f"than the window capacity {capacity}"
            )
        self._capacity = int(capacity)
        self._damage_threshold = damage_threshold
        self._verify = verify
        self._workers = workers
        self._mining = mine_itemsets(database, minsup)
        self._lattice: IcebergLattice | None = (
            IcebergLattice(self._mining.closed, workers=workers)
            if track_lattice
            else None
        )

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of objects the window retains."""
        return self._capacity

    @property
    def database(self) -> TransactionDatabase:
        """The current window content as a mining context."""
        return self._mining.database

    @property
    def mining(self) -> ItemsetMiningResult:
        """The current mining result (frequent, closed, generators)."""
        return self._mining

    @property
    def frequent(self) -> ItemsetFamily:
        """The frequent itemsets of the current window."""
        return self._mining.frequent

    @property
    def closed(self) -> ClosedItemsetFamily:
        """The frequent closed itemsets of the current window."""
        return self._mining.closed

    @property
    def lattice(self) -> IcebergLattice | None:
        """The maintained iceberg lattice (``track_lattice=True`` only)."""
        return self._lattice

    def __len__(self) -> int:
        """Return the current number of objects in the window."""
        return self._mining.database.n_objects

    def transactions(self) -> tuple[Itemset, ...]:
        """The window content, oldest first."""
        return self._mining.database.transactions()

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def append(self, batch: Iterable[Iterable[Item]]) -> IncrementalUpdateResult:
        """Append *batch*, evicting the oldest objects past the capacity.

        Returns the full update result (statistics included); the window
        itself adopts the new mining state.
        """
        batch_rows = [frozenset(t) for t in batch]
        if len(batch_rows) > self._capacity:
            raise InvalidParameterError(
                f"batch of {len(batch_rows)} objects exceeds the window "
                f"capacity {self._capacity}"
            )
        evict = max(
            0, self.database.n_objects + len(batch_rows) - self._capacity
        )
        result = update_mining(
            self._mining,
            batch_rows,
            removed_count=evict,
            damage_threshold=self._damage_threshold,
            verify=self._verify,
            lattice=self._lattice,
            workers=self._workers,
        )
        self._mining = result.mining
        if self._lattice is not None:
            self._lattice = (
                result.lattice
                if result.lattice is not None
                else IcebergLattice(result.mining.closed, workers=self._workers)
            )
        return result
