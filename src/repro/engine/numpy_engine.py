"""Dense vectorised closure engine backed by numpy word-packed reductions.

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
   :meth:`NumpyClosureEngine.evaluate_level`, the level-wise miners'
   entry point, takes its candidates as a column-index array, closes
   only the rows whose support reaches its threshold and returns the
   packed rows undecoded.

A candidate with an empty cover has no segment; its closure is the full
item universe — exactly the FCA convention of
:meth:`TransactionDatabase.closure`.  Every step is integer word
arithmetic; no float operand or matrix product is involved.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core.bitmatrix import _pack_rows
from ..core.itemset import Itemset
from ..core.parallel import KernelExecutor, get_executor, shard_spans
from .base import DEFAULT_CACHE_SIZE, ClosureEngine

if TYPE_CHECKING:  # pragma: no cover
    from ..data.context import TransactionDatabase

__all__ = ["NumpyClosureEngine"]

#: Cap on the number of uint64 words materialised by one gather chunk.
_CHUNK_WORDS = 1 << 24


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


class NumpyClosureEngine(ClosureEngine):
    """Vectorised dense engine (the default for the level-wise miners).

    ``workers`` shards the batched cover gather and the closure
    AND-reduce over candidate rows through the kernel executor of
    :mod:`repro.core.parallel` (``None`` = the ``REPRO_NUM_WORKERS``
    environment variable, else serial).  Row shards write disjoint
    output slices and each row's reduction is independent, so results
    are byte-identical for any worker count.
    """

    name = "numpy"

    def __init__(
        self,
        database: "TransactionDatabase",
        cache_size: int = DEFAULT_CACHE_SIZE,
        workers: int | None = None,
    ) -> None:
        super().__init__(database, cache_size=cache_size)
        self._workers = workers
        matrix = database.matrix
        self._matrix = matrix
        # The per-object item rows of the closure step are packed lazily:
        # a support-only workload (Apriori counting) never pays for them.
        # They are stored transposed (item words × objects) so the gather
        # and the segmented AND-reduce run along contiguous memory.
        self._object_words_cache: np.ndarray | None = None
        n_objects, n_items = matrix.shape
        self._n_objects = n_objects
        # Per-item covers packed into uint64 words, one row per item.
        n_words = max(1, -(-n_objects // 64))
        packed8 = np.zeros((n_items, n_words * 8), dtype=np.uint8)
        if n_objects:
            packed8[:, : -(-n_objects // 8)] = np.packbits(
                matrix.T, axis=1, bitorder="little"
            )
        self._item_words = packed8.view(np.uint64)
        # The cover of the empty itemset: every object bit set, tail zeroed.
        full = np.zeros(n_words * 64, dtype=np.uint8)
        full[:n_objects] = 1
        self._full_words = np.packbits(full, bitorder="little").view(np.uint64)
        self._n_words = n_words
        # The closure of an empty cover: every item bit set, tail zeroed.
        self._universe_words = _pack_rows(np.ones((1, n_items), dtype=bool))[0]

    @property
    def _object_words(self) -> np.ndarray:
        if self._object_words_cache is None:
            self._object_words_cache = np.ascontiguousarray(_pack_rows(self._matrix).T)
        return self._object_words_cache

    def extended(self, database: "TransactionDatabase") -> "NumpyClosureEngine":
        """Warm-start an engine for *database*, an appended extension.

        The packed per-item cover words of the shared object prefix are
        copied over verbatim; only the appended rows are packed (shifted
        to the old context's bit offset and OR-ed into the tail words).
        ``database`` must hold this engine's objects as its row prefix —
        exactly what :meth:`TransactionDatabase.extended` constructs.
        """
        clone = object.__new__(NumpyClosureEngine)
        ClosureEngine.__init__(clone, database, cache_size=self._cache_size)
        clone._workers = self._workers
        matrix = database.matrix
        clone._matrix = matrix
        clone._object_words_cache = None
        n_objects, n_items = matrix.shape
        n_old = self._n_objects
        if n_objects < n_old:
            raise ValueError(
                f"extended database has {n_objects} objects, fewer than the "
                f"{n_old} of the base context"
            )
        clone._n_objects = n_objects
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
        clone._item_words = item_words
        full = np.zeros(n_words * 64, dtype=np.uint8)
        full[:n_objects] = 1
        clone._full_words = np.packbits(full, bitorder="little").view(np.uint64)
        clone._n_words = n_words
        clone._universe_words = _pack_rows(np.ones((1, n_items), dtype=bool))[0]
        return clone

    # ------------------------------------------------------------------
    # Batched cover computation (packed)
    # ------------------------------------------------------------------
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

    def _unpack_covers(self, cover_words: np.ndarray) -> np.ndarray:
        """Unpack packed cover rows into a boolean (rows × objects) matrix."""
        as_bytes = cover_words.reshape(cover_words.shape[0], -1).view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
        return bits[:, : self._n_objects].astype(bool)

    def cover_masks(self, itemsets: Sequence[Itemset]) -> np.ndarray:
        """Return the boolean cover matrix (candidates × objects)."""
        candidates = self._coerce_all(itemsets)
        words = self._cover_words([self._columns(c) for c in candidates])
        if not candidates:
            return np.zeros((0, self._n_objects), dtype=bool)
        return self._unpack_covers(words)

    def evaluate_level(
        self, columns: np.ndarray, close_at: int | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Supports by popcount; closures of the rows reaching *close_at*.

        See :meth:`ClosureEngine.evaluate_level`.  One cover gather serves
        the whole level, and each distinct cover among the closed rows is
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
    # Decoding helpers
    # ------------------------------------------------------------------
    def _decode_items(self, mask: np.ndarray) -> Itemset:
        items = self._items
        return Itemset([items[i] for i in np.flatnonzero(mask).tolist()])

    # ------------------------------------------------------------------
    # Backend contract
    # ------------------------------------------------------------------
    def _closures_and_supports_batch(
        self, itemsets: Sequence[Itemset]
    ) -> list[tuple[Itemset, int]]:
        if not itemsets:
            return []
        cover_words = self._cover_words([self._columns(c) for c in itemsets])
        supports = np.bitwise_count(cover_words).sum(axis=1, dtype=np.intp)
        unique, inverse = _distinct_rows(cover_words)
        closed = self._close_covers(cover_words[unique], supports[unique])
        bits = np.unpackbits(closed.view(np.uint8), axis=1, bitorder="little")
        distinct = [self._decode_items(row) for row in bits[:, : len(self._items)]]
        return [
            (distinct[inverse[r]], int(supports[r])) for r in range(len(itemsets))
        ]

    def _supports_batch(self, itemsets: Sequence[Itemset]) -> list[int]:
        if not itemsets:
            return []
        cover_words = self._cover_words([self._columns(c) for c in itemsets])
        return [int(s) for s in np.bitwise_count(cover_words).sum(axis=1)]

    def _extents_batch(self, itemsets: Sequence[Itemset]) -> list[frozenset[int]]:
        if not itemsets:
            return []
        cover_words = self._cover_words([self._columns(c) for c in itemsets])
        covers = self._unpack_covers(cover_words)
        return [
            frozenset(int(i) for i in np.flatnonzero(covers[r]))
            for r in range(len(itemsets))
        ]
