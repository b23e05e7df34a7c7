"""Common scaffolding shared by the mining algorithms.

Every miner in :mod:`repro.algorithms` follows the same small contract:

* it is constructed with its parameters (``minsup`` at least);
* :meth:`MiningAlgorithm.run` executes it against a
  :class:`~repro.data.context.TransactionDatabase` and returns a
  :class:`MiningRun` record holding the result family plus the measured
  statistics (candidate counts, database passes, wall-clock time);
* the result family is an :class:`~repro.core.families.ItemsetFamily`
  (Apriori) or :class:`~repro.core.families.ClosedItemsetFamily`
  (Close, A-Close, CHARM).

The statistics are the quantities the original papers plot (number of
database passes, number of candidates, execution time), so the benchmark
harness can report them uniformly for every algorithm.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..core.families import ItemsetFamily
from ..data.context import TransactionDatabase
from ..errors import InvalidParameterError

__all__ = ["MiningStatistics", "MiningRun", "MiningAlgorithm"]


@dataclass
class MiningStatistics:
    """Counters collected while a mining algorithm runs.

    Attributes
    ----------
    database_passes:
        Number of full scans over the transaction database (the dominant
        cost driver discussed by the Close paper).
    candidates_generated:
        Total number of candidate itemsets whose support was evaluated.
    itemsets_found:
        Number of itemsets retained in the final result family.
    levels:
        Number of level-wise iterations (longest candidate size reached).
    wall_clock_seconds:
        Total execution time of :meth:`MiningAlgorithm.run`.
    """

    database_passes: int = 0
    candidates_generated: int = 0
    itemsets_found: int = 0
    levels: int = 0
    wall_clock_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Return the statistics as a plain dictionary (for reports)."""
        return {
            "database_passes": self.database_passes,
            "candidates_generated": self.candidates_generated,
            "itemsets_found": self.itemsets_found,
            "levels": self.levels,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


@dataclass
class MiningRun:
    """The outcome of one execution of a mining algorithm."""

    algorithm: str
    database_name: str
    minsup: float
    family: ItemsetFamily
    statistics: MiningStatistics = field(default_factory=MiningStatistics)

    def __str__(self) -> str:
        return (
            f"{self.algorithm} on {self.database_name} @ minsup={self.minsup:.4f}: "
            f"{len(self.family)} itemsets in "
            f"{self.statistics.wall_clock_seconds:.3f}s"
        )


class MiningAlgorithm(ABC):
    """Abstract base class of every frequent-itemset mining algorithm.

    Parameters
    ----------
    minsup:
        Relative minimum support threshold in ``[0, 1]``.
    """

    #: Human-readable algorithm name, overridden by subclasses.
    name: str = "abstract"

    def __init__(self, minsup: float) -> None:
        if not 0.0 <= minsup <= 1.0:
            raise InvalidParameterError(f"minsup must lie in [0, 1], got {minsup}")
        self._minsup = minsup

    @property
    def minsup(self) -> float:
        """Relative minimum support threshold."""
        return self._minsup

    def run(self, database: TransactionDatabase) -> MiningRun:
        """Execute the algorithm on *database* and return a run record."""
        statistics = MiningStatistics()
        start = time.perf_counter()
        family = self._mine(database, statistics)
        statistics.wall_clock_seconds = time.perf_counter() - start
        statistics.itemsets_found = len(family)
        return MiningRun(
            algorithm=self.name,
            database_name=database.name,
            minsup=self._minsup,
            family=family,
            statistics=statistics,
        )

    def mine(self, database: TransactionDatabase) -> ItemsetFamily:
        """Convenience wrapper returning only the result family."""
        return self.run(database).family

    @abstractmethod
    def _mine(
        self, database: TransactionDatabase, statistics: MiningStatistics
    ) -> ItemsetFamily:
        """Algorithm-specific mining procedure."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(minsup={self._minsup})"
