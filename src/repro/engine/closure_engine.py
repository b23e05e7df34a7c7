"""The closure engine: the Galois operators over packed uint64 words.

A :class:`ClosureEngine` evaluates the Galois operators of the paper over
*batches* of candidate itemsets of one mining context:

* ``supports(itemsets)`` — ``|g(X)|`` for every candidate;
* ``extents(itemsets)`` — ``g(X)`` (object row indices) for every candidate;
* ``closures(itemsets)`` — ``h(X) = f(g(X))`` for every candidate;
* ``closures_and_supports(itemsets)`` — both in one pass;
* ``evaluate_level(columns, close_at)`` — the level-wise miners' entry
  point: one candidate level as an array of item column indices, the
  support of every row and, when asked, the packed closures of the rows
  whose support reaches ``close_at``.

The engine holds the context bit-packed into ``uint64`` words twice over:
each item's cover as a row of object bits, and (built on the first
closure) each object's itemset as a row of item bits.  A whole batch of
candidates is evaluated in four vectorised steps:

1. **covers** — the candidates' item rows are gathered with one ``take``
   over a padded index array and AND-reduced in bulk
   (``np.bitwise_and.reduce``), giving the packed cover matrix
   (candidates × words) for the entire batch;
2. **supports** — one ``np.bitwise_count`` popcount over the cover words;
3. **cover deduplication** — distinct cover rows are identified with a
   byte-key dict; on the correlated contexts of the paper a
   10 000-candidate level collapses onto a few thousand distinct covers,
   so the closure step only runs on the unique rows;
4. **closures** — ``h(X)`` is, as the paper defines it, the set of items
   shared by every object of the cover ``g(X)``: the AND of the packed
   item rows of the cover's objects.  The object rows of every distinct
   cover are gathered in one pass and closed by one
   ``np.bitwise_and.reduceat`` over the per-cover segments.  The
   ``Itemset`` batch methods decode each distinct closure row exactly
   once and fan it back out through the inverse index;
   :meth:`ClosureEngine.evaluate_level` takes its candidates as a
   column-index array, closes only the rows whose support reaches its
   threshold and returns the packed rows undecoded.

A candidate with an empty cover has no segment; its closure is the full
item universe — exactly the FCA convention of
:meth:`TransactionDatabase.closure`.  Every step is integer word
arithmetic; no float operand or matrix product is involved.

The engine also owns the **closure cache**: an LRU mapping from a
canonical :class:`~repro.core.itemset.Itemset` to its ``(closure,
support)`` pair, shared by the single-itemset wrappers and the
``Itemset`` batch entry points; batch calls only compute the cache
misses.  :meth:`ClosureEngine.evaluate_level` neither reads nor fills
it: a mined level is never asked for again, and the bases and the store
read the mined families instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.bitmatrix import _pack_rows
from ..core.itemset import Item, Itemset
from ..core.parallel import KernelExecutor, get_executor, shard_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (context builds the engine)
    from ..data.context import TransactionDatabase

__all__ = ["CacheInfo", "ClosureEngine"]

#: Default number of (closure, support) pairs retained by the LRU cache.
DEFAULT_CACHE_SIZE = 8192

#: Cap on the number of uint64 words materialised by one gather chunk.
_CHUNK_WORDS = 1 << 24


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of the closure-cache counters (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def _gather_spans(
    n_rows: int, words_per_row: int, executor: KernelExecutor
) -> list[tuple[int, int]]:
    """Row spans whose gathers stay under :data:`_CHUNK_WORDS`.

    A multi-worker executor also gets a few spans per worker, without
    growing any span past the working-set cap.
    """
    chunk = max(1, _CHUNK_WORDS // max(1, words_per_row))
    if not executor.is_serial:
        chunk = min(chunk, executor.shard_size(n_rows))
    return shard_spans(n_rows, chunk)


def _distinct_rows(words: np.ndarray) -> tuple[list[int], np.ndarray]:
    """``(unique, inverse)``: first rows of each distinct row, and the map back.

    ``words[unique][inverse]`` equals ``words``.  A dict on the row bytes,
    not ``np.unique``: that imports ``numpy.ma``, which then pins memory
    for good.
    """
    seen: dict[bytes, int] = {}
    inverse = np.empty(len(words), dtype=np.intp)
    unique: list[int] = []
    for r in range(len(words)):
        key = words[r].tobytes()
        position = seen.get(key)
        if position is None:
            position = seen[key] = len(unique)
            unique.append(r)
        inverse[r] = position
    return unique, inverse


def _packed_item_covers(matrix: np.ndarray, n_words: int) -> np.ndarray:
    """Each item's cover (a column of *matrix*) packed into *n_words* words."""
    n_objects, n_items = matrix.shape
    packed8 = np.zeros((n_items, n_words * 8), dtype=np.uint8)
    if n_objects:
        packed8[:, : -(-n_objects // 8)] = np.packbits(
            matrix.T, axis=1, bitorder="little"
        )
    return packed8.view(np.uint64)


class ClosureEngine:
    """Batch evaluator of the Galois operators of one mining context.

    Parameters
    ----------
    database:
        The :class:`~repro.data.context.TransactionDatabase` the engine is
        a view of.  The engine never mutates it.
    cache_size:
        Maximum number of ``(closure, support)`` pairs kept in the LRU
        closure cache; ``0`` disables caching.
    workers:
        Shards the batched cover gather and the closure AND-reduce over
        candidate rows through the kernel executor of
        :mod:`repro.core.parallel` (``None`` = the ``REPRO_NUM_WORKERS``
        environment variable, else serial).  Row shards write disjoint
        output slices and each row's reduction is independent, so results
        are byte-identical for any worker count.
    """

    def __init__(
        self,
        database: "TransactionDatabase",
        cache_size: int = DEFAULT_CACHE_SIZE,
        workers: int | None = None,
    ) -> None:
        n_words = max(1, -(-database.n_objects // 64))
        self._attach(
            database, _packed_item_covers(database.matrix, n_words), cache_size, workers
        )

    def _attach(
        self,
        database: "TransactionDatabase",
        item_words: np.ndarray,
        cache_size: int,
        workers: int | None,
    ) -> None:
        """Set every field from *database* and its packed per-item covers."""
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
        self._workers = workers
        self._matrix = database.matrix
        n_objects = database.n_objects
        self._n_objects = n_objects
        # Per-item covers packed into uint64 words, one row per item.
        self._item_words = item_words
        self._n_words = n_words = item_words.shape[1]
        # The per-object item rows of the closure step are packed lazily:
        # a support-only workload (Apriori counting) never pays for them.
        # They are stored transposed (item words × objects) so the gather
        # and the segmented AND-reduce run along contiguous memory.
        self._object_words_cache: np.ndarray | None = None
        # The cover of the empty itemset: every object bit set, tail zeroed.
        full = np.zeros(n_words * 64, dtype=np.uint8)
        full[:n_objects] = 1
        self._full_words = np.packbits(full, bitorder="little").view(np.uint64)
        # The closure of an empty cover: every item bit set, tail zeroed.
        self._universe_words = _pack_rows(np.ones((1, len(self._items)), dtype=bool))[0]

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
        """Warm-start an engine for *database*, an appended extension.

        ``TransactionDatabase.extended`` calls this so the warm packed
        views carry over to the appended context.  The packed per-item
        cover words of the shared object prefix are copied over verbatim;
        only the appended rows are packed (shifted to the old context's
        bit offset and OR-ed into the tail words).  ``database`` must
        hold this engine's objects as its row prefix — exactly what
        :meth:`TransactionDatabase.extended` constructs.  The closure
        cache never carries over — appended objects change closures and
        supports, so cached pairs would be stale.
        """
        matrix = database.matrix
        n_objects, n_items = matrix.shape
        n_old = self._n_objects
        if n_objects < n_old:
            raise ValueError(
                f"extended database has {n_objects} objects, fewer than the "
                f"{n_old} of the base context"
            )
        n_words = max(1, -(-n_objects // 64))
        item_words = np.zeros((n_items, n_words), dtype=np.uint64)
        item_words[: self._item_words.shape[0], : self._n_words] = self._item_words
        appended = n_objects - n_old
        if appended:
            # Pack the appended rows alone, pre-shifted by the bit offset
            # of the first appended object inside its word.
            offset = n_old % 64
            padded = np.zeros((n_items, offset + appended), dtype=bool)
            padded[:, offset:] = matrix[n_old:].T
            packed8 = np.packbits(padded, axis=1, bitorder="little")
            pad = (-packed8.shape[1]) % 8
            if pad:
                packed8 = np.pad(packed8, ((0, 0), (0, pad)))
            tail = np.ascontiguousarray(packed8).view(np.uint64)
            start = n_old // 64
            # The old words' bits past n_old are zero, so OR is exact.
            item_words[:, start : start + tail.shape[1]] |= tail
        clone = object.__new__(ClosureEngine)
        clone._attach(database, item_words, self._cache_size, self._workers)
        return clone

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
        evaluated together in one vectorised pass.
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
        computation entirely (support is a popcount of the cover words, an
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
            cover_words = self._cover_words([self._columns(c) for c in miss_candidates])
            computed = np.bitwise_count(cover_words).sum(axis=1).tolist()
            for position, support in zip(miss_positions, computed):
                results[position] = support
        return results  # type: ignore[return-value]

    def extents(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[frozenset[int]]:
        """Return the extent ``g(X)`` (object row indices) of every candidate."""
        candidates = self._coerce_all(itemsets)
        if not candidates:
            return []
        cover_words = self._cover_words([self._columns(c) for c in candidates])
        bits = np.unpackbits(cover_words.view(np.uint8), axis=1, bitorder="little")
        return [
            frozenset(np.flatnonzero(row).tolist())
            for row in bits[:, : self._n_objects]
        ]

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

        The closure cache is not consulted.  One cover gather serves the
        whole level, and each distinct cover among the closed rows is
        closed once.
        """
        cover_words = self._gather_covers(np.asarray(columns, dtype=np.intp))
        supports = np.bitwise_count(cover_words).sum(axis=1, dtype=np.int64)
        if close_at is None:
            return supports, None
        rows = np.flatnonzero(supports >= close_at)
        unique, inverse = _distinct_rows(cover_words[rows])
        rows = rows[unique]
        return supports, self._close_covers(cover_words[rows], supports[rows])[inverse]

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
    # Packed kernels
    # ------------------------------------------------------------------
    @property
    def _object_words(self) -> np.ndarray:
        if self._object_words_cache is None:
            self._object_words_cache = np.ascontiguousarray(_pack_rows(self._matrix).T)
        return self._object_words_cache

    def _gather_covers(self, columns: np.ndarray) -> np.ndarray:
        """Return the packed cover matrix (rows × uint64 words) of *columns*.

        Row ``r`` ANDs the packed item rows named by ``columns[r]``; one
        ``take`` gathers a span of rows and one ``bitwise_and`` reduction
        closes it.  A zero-width array covers every object.
        """
        m, width = columns.shape
        out = np.empty((m, self._n_words), dtype=np.uint64)
        if width == 0:
            out[:] = self._full_words
            return out
        executor = get_executor(self._workers)

        def gather(span: tuple[int, int]) -> None:
            start, stop = span
            gathered = self._item_words.take(columns[start:stop], axis=0)
            np.bitwise_and.reduce(gathered, axis=1, out=out[start:stop])

        executor.map(gather, _gather_spans(m, self._n_words * width, executor))
        return out

    def _cover_words(self, col_lists: Sequence[list[int]]) -> np.ndarray:
        """Return the packed cover matrix of candidates given as column lists.

        The lists are padded (by cycling, AND-idempotent) to one
        rectangular index array for :meth:`_gather_covers`; an empty list
        covers every object.
        """
        m = len(col_lists)
        width = max((len(cols) for cols in col_lists), default=0)
        if width == 0:
            return self._gather_covers(np.zeros((m, 0), dtype=np.intp))
        index = np.empty((m, width), dtype=np.intp)
        empty_rows: list[int] = []
        for row, cols in enumerate(col_lists):
            if cols:
                index[row] = (cols * width)[:width]
            else:
                empty_rows.append(row)
                index[row] = 0
        out = self._gather_covers(index)
        if empty_rows:
            out[empty_rows] = self._full_words
        return out

    def _close_covers(self, cover_words: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """``h`` of each packed cover row, as packed item rows.

        Row ``r`` ANDs the item rows of the ``sizes[r]`` objects of cover
        ``r``; a cover without objects closes to the full item universe.
        Rows are closed span by span, each span's gathered object rows
        bounded by the working-set cap, and every row's reduction is
        independent, so sharding the spans over the workers is
        byte-identical to one pass.
        """
        object_words = self._object_words
        closed = np.empty((len(cover_words), object_words.shape[0]), dtype=np.uint64)
        closed[sizes == 0] = self._universe_words
        executor = get_executor(self._workers)

        def close_rows(span: tuple[int, int]) -> None:
            start, stop = span
            counts = sizes[start:stop]
            filled = np.flatnonzero(counts)
            if not filled.size:
                return
            bits = np.unpackbits(
                cover_words[start:stop].view(np.uint8), axis=1, bitorder="little"
            )
            objects = np.flatnonzero(bits.view(bool)) % bits.shape[1]
            segments = np.cumsum(counts[filled]) - counts[filled]
            closed[start + filled] = np.bitwise_and.reduceat(
                object_words.take(objects, axis=1), segments, axis=1
            ).T

        # Per row: the unpacked cover bytes plus the gathered object rows.
        words_per_row = 8 * cover_words.shape[1] + object_words.shape[0] * int(
            sizes.max(initial=0)
        )
        executor.map(close_rows, _gather_spans(len(closed), words_per_row, executor))
        return closed

    def _closures_and_supports_batch(
        self, itemsets: Sequence[Itemset]
    ) -> list[tuple[Itemset, int]]:
        """Evaluate ``(h(X), |g(X)|)`` for canonical, cache-missed candidates."""
        cover_words = self._cover_words([self._columns(c) for c in itemsets])
        supports = np.bitwise_count(cover_words).sum(axis=1, dtype=np.intp)
        unique, inverse = _distinct_rows(cover_words)
        closed = self._close_covers(cover_words[unique], supports[unique])
        bits = np.unpackbits(closed.view(np.uint8), axis=1, bitorder="little")
        items = self._items
        distinct = [
            Itemset([items[i] for i in np.flatnonzero(row).tolist()])
            for row in bits[:, : len(items)]
        ]
        return [
            (distinct[inverse[r]], int(supports[r])) for r in range(len(itemsets))
        ]
