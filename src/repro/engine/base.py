"""Abstract closure engine: the batch evaluation contract and its cache.

A :class:`ClosureEngine` owns the derived views of one mining context
(dense matrix, per-item bitsets, …) and evaluates the Galois operators of
the paper over *batches* of candidate itemsets:

* ``supports(itemsets)`` — ``|g(X)|`` for every candidate;
* ``extents(itemsets)`` — ``g(X)`` (object row indices) for every candidate;
* ``closures(itemsets)`` — ``h(X) = f(g(X))`` for every candidate;
* ``closures_and_supports(itemsets)`` — both in one pass;
* ``evaluate_level(columns, close_at)`` — the level-wise miners' entry
  point: one candidate level as an array of item column indices, the
  support of every row and, when asked, the packed closures of the rows
  whose support reaches ``close_at``.

Batching matters because every level-wise miner evaluates a whole
candidate level at once: handing the engine the full level lets the
backend amortise the work into a handful of vectorised reductions instead
of one Python-loop cover computation per itemset.

The base class also owns the **closure cache**: an LRU mapping from a
canonical :class:`~repro.core.itemset.Itemset` to its ``(closure,
support)`` pair, shared by the single-itemset wrappers and the
``Itemset`` batch entry points; batch calls only compute the cache
misses.  :meth:`ClosureEngine.evaluate_level` neither reads nor fills
it: a mined level is never asked for again, and the bases and the store
read the mined families instead.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.bitmatrix import _pack_rows
from ..core.itemset import Item, Itemset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (context builds engines)
    from ..data.context import TransactionDatabase

__all__ = ["CacheInfo", "ClosureEngine"]

#: Default number of (closure, support) pairs retained by the LRU cache.
DEFAULT_CACHE_SIZE = 8192


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of the closure-cache counters (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class ClosureEngine(ABC):
    """Batch evaluator of the Galois operators of one mining context.

    Parameters
    ----------
    database:
        The :class:`~repro.data.context.TransactionDatabase` the engine is
        a view of.  The engine never mutates it.
    cache_size:
        Maximum number of ``(closure, support)`` pairs kept in the LRU
        closure cache; ``0`` disables caching.
    """

    #: Registry name, overridden by concrete engines ("numpy", "bitset").
    name: str = "abstract"

    def __init__(
        self, database: "TransactionDatabase", cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        self._db = database
        self._items: tuple = database.items
        self._cache: OrderedDict[Itemset, tuple[Itemset, int]] = OrderedDict()
        # One engine is shared by the threaded serve daemon and the
        # parallel closure path; the OrderedDict reorder-on-hit and the
        # eviction loop are not atomic, so every cache touch is locked.
        self._cache_lock = threading.Lock()
        self._cache_size = int(cache_size)
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def database(self) -> "TransactionDatabase":
        """The mining context this engine evaluates."""
        return self._db

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(database={self._db.name!r}, "
            f"cache={self.cache_info()})"
        )

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Return hit/miss/size counters of the closure cache."""
        with self._cache_lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                maxsize=self._cache_size,
                currsize=len(self._cache),
            )

    def cache_clear(self) -> None:
        """Drop every cached closure and reset the counters."""
        with self._cache_lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0

    def _cache_get(self, key: Itemset) -> tuple[Itemset, int] | None:
        with self._cache_lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
            return entry

    def _cache_put(self, key: Itemset, value: tuple[Itemset, int]) -> None:
        if self._cache_size <= 0:
            return
        with self._cache_lock:
            self._cache[key] = value
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Incremental extension
    # ------------------------------------------------------------------
    def extended(self, database: "TransactionDatabase") -> "ClosureEngine":
        """Return an engine of this backend for an *extended* database.

        ``TransactionDatabase.extended`` calls this on every instantiated
        engine so warm derived views carry over to the appended context.
        The base implementation simply builds a fresh engine (always
        correct); backends override it to splice the appended rows into
        their packed views instead of re-deriving the shared prefix.
        The closure cache never carries over — appended objects change
        closures and supports, so cached pairs would be stale.
        """
        return type(self)(database, cache_size=self._cache_size)

    # ------------------------------------------------------------------
    # Candidate canonicalisation
    # ------------------------------------------------------------------
    def _coerce_all(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[Itemset]:
        return [Itemset.coerce(itemset) for itemset in itemsets]

    def _columns(self, itemset: Itemset) -> list[int]:
        """Map an itemset to matrix column indices, validating membership.

        Delegates to the database's canonical item index so the
        membership check (and its error message) has a single home.
        """
        return self._db.item_columns(itemset)

    # ------------------------------------------------------------------
    # Batch API (cache-aware entry points)
    # ------------------------------------------------------------------
    def closures_and_supports(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[tuple[Itemset, int]]:
        """Return ``(h(X), |g(X)|)`` for every candidate, in input order.

        Cache hits are answered directly; the misses of the whole batch are
        evaluated together in one vectorised backend pass.
        """
        candidates = self._coerce_all(itemsets)
        results: list[tuple[Itemset, int] | None] = [None] * len(candidates)
        miss_candidates: list[Itemset] = []
        pending: dict[Itemset, list[int]] = {}
        for position, candidate in enumerate(candidates):
            cached = self._cache_get(candidate)
            if cached is not None:
                results[position] = cached
            elif candidate in pending:
                # Duplicate inside one batch: evaluate once, fan out after.
                pending[candidate].append(position)
            else:
                pending[candidate] = [position]
                miss_candidates.append(candidate)
        if miss_candidates:
            computed = self._closures_and_supports_batch(miss_candidates)
            for candidate, pair in zip(miss_candidates, computed):
                self._cache_put(candidate, pair)
                for position in pending[candidate]:
                    results[position] = pair
        return results  # type: ignore[return-value]

    def closures(self, itemsets: Iterable[Itemset | Iterable[Item]]) -> list[Itemset]:
        """Return the Galois closure ``h(X)`` of every candidate, in order."""
        return [closure for closure, _ in self.closures_and_supports(itemsets)]

    def supports(self, itemsets: Iterable[Itemset | Iterable[Item]]) -> list[int]:
        """Return the absolute support ``|g(X)|`` of every candidate.

        Unlike :meth:`closures`, support-only batches skip the closure
        computation entirely (support is a popcount / column reduction, an
        order of magnitude cheaper); cached closures are still consulted so
        a support query never re-derives a cover the cache already paid for.
        """
        candidates = self._coerce_all(itemsets)
        results: list[int | None] = [None] * len(candidates)
        miss_positions: list[int] = []
        miss_candidates: list[Itemset] = []
        for position, candidate in enumerate(candidates):
            cached = self._cache_get(candidate)
            if cached is not None:
                results[position] = cached[1]
            else:
                miss_positions.append(position)
                miss_candidates.append(candidate)
        if miss_candidates:
            computed = self._supports_batch(miss_candidates)
            for position, support in zip(miss_positions, computed):
                results[position] = support
        return results  # type: ignore[return-value]

    def extents(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[frozenset[int]]:
        """Return the extent ``g(X)`` (object row indices) of every candidate."""
        return self._extents_batch(self._coerce_all(itemsets))

    def evaluate_level(
        self, columns: np.ndarray, close_at: int | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Evaluate one candidate level given as item column indices.

        *columns* is an ``(m × k)`` integer array; row ``r`` names the
        matrix columns of candidate ``r`` (repeating a column is allowed,
        it leaves the itemset unchanged).  Returns ``(supports,
        closures)``: the int64 absolute support of every row and, when
        *close_at* is given, the closures of the rows whose support is at
        least *close_at*, in row order, as packed uint64 rows (bit
        ``c & 63`` of word ``c >> 6`` is column ``c``).  ``closures`` is
        ``None`` when *close_at* is ``None``.

        The closure cache is not consulted.  This implementation goes
        through the backend's ``Itemset`` batch methods; backends with a
        packed view override it.
        """
        items = self._items
        itemsets = [
            Itemset([items[c] for c in row]) for row in np.asarray(columns).tolist()
        ]
        supports = np.array(self._supports_batch(itemsets), dtype=np.int64)
        if close_at is None:
            return supports, None
        closing = [itemsets[r] for r in np.flatnonzero(supports >= close_at).tolist()]
        closed = np.zeros((len(closing), len(items)), dtype=bool)
        for row, (closure, _) in enumerate(self._closures_and_supports_batch(closing)):
            closed[row, self._columns(closure)] = True
        return supports, _pack_rows(closed)

    # ------------------------------------------------------------------
    # Single-itemset convenience wrappers (the pre-engine API shape)
    # ------------------------------------------------------------------
    def closure(self, items: Itemset | Iterable[Item]) -> Itemset:
        """Return ``h(items)`` (cached)."""
        return self.closures_and_supports([items])[0][0]

    def closure_and_support(
        self, items: Itemset | Iterable[Item]
    ) -> tuple[Itemset, int]:
        """Return ``(h(items), |g(items)|)`` (cached)."""
        return self.closures_and_supports([items])[0]

    def support_count(self, items: Itemset | Iterable[Item]) -> int:
        """Return ``|g(items)|``."""
        return self.supports([items])[0]

    def extent(self, items: Itemset | Iterable[Item]) -> frozenset[int]:
        """Return ``g(items)`` as object row indices."""
        return self.extents([items])[0]

    # ------------------------------------------------------------------
    # Backend contract
    # ------------------------------------------------------------------
    @abstractmethod
    def _closures_and_supports_batch(
        self, itemsets: Sequence[Itemset]
    ) -> list[tuple[Itemset, int]]:
        """Evaluate ``(h(X), |g(X)|)`` for canonical, cache-missed candidates."""

    @abstractmethod
    def _supports_batch(self, itemsets: Sequence[Itemset]) -> list[int]:
        """Evaluate ``|g(X)|`` for canonical candidates."""

    @abstractmethod
    def _extents_batch(self, itemsets: Sequence[Itemset]) -> list[frozenset[int]]:
        """Evaluate ``g(X)`` for canonical candidates."""
