"""Bit-packed boolean matrices for the lattice order core.

Stored as two ``n x n`` bool arrays, the containment relation of a
family and its transitive reduction take 2 bytes per pair, which walls
out families beyond a few tens of thousands of closed itemsets (2 x 2.5
GB at n = 50k).  This module packs the same relations 64 pairs per
uint64 word, an 8x (vs one bool matrix) to 16x (vs the pair of them)
memory reduction, and expresses the two construction passes of
:class:`~repro.core.order.OrderCore` so that only bounded row blocks are
ever unpacked:

* :func:`packed_containment` — the bulk AND/compare subset pass, written
  block-by-block straight into packed words.  Rows sorted by cardinality
  (the canonical member order of a family) additionally prune every
  same-or-smaller-size column group, which is where the bulk of the
  pair tests of a wide lattice live.
* :func:`packed_hasse_reduction` — the boolean-matmul transitive
  reduction ``proper & ~(proper @ proper)``, evaluated as a blocked
  gather/OR-reduce over packed rows (``(A @ A)[i] = OR of rows A[k]
  over the set bits k of A[i]``), fused with the AND-NOT so no packed
  intermediate for the two-step relation is ever materialised.

:class:`BitMatrix` itself is a thin, general-purpose packed bool matrix:
little-endian bit order within each row (bit ``j`` of a row lives in
word ``j >> 6`` at position ``j & 63``, matching the layout
``np.packbits(..., bitorder="little")`` produces and
:func:`repro.core.rulearrays.pack_itemsets_into` already uses), popcount row
statistics via ``np.bitwise_count``, and packed AND / OR / ANDN row ops.
Bits at column positions ``>= n_cols`` (the tail of the last word) are
kept zero as a class invariant so popcounts and reductions never see
padding.
"""

from __future__ import annotations

import numpy as np

from .parallel import KernelExecutor, get_executor

__all__ = [
    "BitMatrix",
    "packed_containment",
    "packed_hasse_reduction",
]

#: Bits per packed word.
WORD_BITS = 64

#: Upper bound (in matrix cells) on the temporary blocks unpacked or
#: gathered by the blocked passes.
_BLOCK_CELLS = 1 << 24

#: Row cap per containment shard.  The cell budget alone lets a narrow
#: column suffix (the common case after level-wise pruning: most rows
#: only test against a thin top layer) collapse into one giant task,
#: which would starve a multi-worker executor; capping the rows keeps
#: enough shards to spread while staying far above the per-task
#: scheduling overhead.
_MAX_SHARD_ROWS = 1 << 14


def _words_for(n_cols: int) -> int:
    """Number of uint64 words needed to hold *n_cols* bits."""
    return (n_cols + WORD_BITS - 1) // WORD_BITS


def _packed_nonzero(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the set bits of packed rows, row-major order.

    Scans the uint64 words directly (8x fewer bytes than unpacking to
    bools) and only expands the nonzero words bit-by-bit, so the cost is
    one streaming pass over the packed storage plus ``O(nnz)`` expansion
    — the dominant win for the sparse relations the order cores hold.
    Relies on the :class:`BitMatrix` invariant that padding bits past
    the logical column count are zero; stray padding bits would surface
    as out-of-range column indices.
    """
    nz_rows, nz_words = np.nonzero(words)
    if not nz_rows.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    values = np.ascontiguousarray(words[nz_rows, nz_words])
    bits = np.unpackbits(
        values.reshape(-1, 1).view(np.uint8), axis=1, bitorder="little"
    )
    word_index, bit_index = np.nonzero(bits)
    rows = nz_rows[word_index].astype(np.int64, copy=False)
    cols = nz_words[word_index].astype(np.int64) * WORD_BITS + bit_index
    return rows, cols


def _pack_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a 2-D bool array into rows of little-endian uint64 words."""
    dense = np.ascontiguousarray(dense, dtype=bool)
    n_rows, n_cols = dense.shape
    words = np.zeros((n_rows, _words_for(n_cols)), dtype=np.uint64)
    if n_rows and n_cols:
        packed = np.packbits(dense, axis=1, bitorder="little")
        pad = (-packed.shape[1]) % 8
        if pad:
            packed = np.pad(packed, ((0, 0), (0, pad)))
        words[:] = np.ascontiguousarray(packed).view(np.uint64)
    return words


class BitMatrix:
    """A boolean matrix packed 64 columns per uint64 word, row-major.

    Parameters
    ----------
    words:
        ``(n_rows, n_words)`` uint64 array; bit ``j & 63`` of
        ``words[i, j >> 6]`` is cell ``(i, j)``.
    n_cols:
        Logical column count; ``n_words`` must be ``ceil(n_cols / 64)``
        and all bits at positions ``>= n_cols`` must be zero.
    """

    __slots__ = ("words", "n_cols")

    def __init__(self, words: np.ndarray, n_cols: int) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {words.shape}")
        if words.shape[1] != _words_for(n_cols):
            raise ValueError(
                f"{words.shape[1]} words cannot hold exactly {n_cols} columns"
            )
        self.words = words
        self.n_cols = int(n_cols)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        """An all-false matrix of the given logical shape."""
        return cls(np.zeros((n_rows, _words_for(n_cols)), dtype=np.uint64), n_cols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        """Pack a 2-D bool (or bool-convertible) array."""
        dense = np.ascontiguousarray(dense, dtype=bool)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        return cls(_pack_rows(dense), dense.shape[1])

    def copy(self) -> "BitMatrix":
        """An independent copy (the words array is duplicated)."""
        return BitMatrix(self.words.copy(), self.n_cols)

    def equals(self, other: "BitMatrix") -> bool:
        """Exact equality: same logical shape and same packed words.

        Because the padding bits past ``n_cols`` are a zero invariant,
        word equality is cell equality — this is the check the store
        round-trip tests rely on.
        """
        return self.shape == other.shape and bool(
            np.array_equal(self.words, other.words)
        )

    # ------------------------------------------------------------------
    # Shape and scalar access
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        """Packed words per row."""
        return self.words.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(n_rows, n_cols)`` shape."""
        return (self.n_rows, self.n_cols)

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_rows}x{self.n_cols}, {self.n_words} words/row)"

    def get(self, row: int, col: int) -> bool:
        """Cell ``(row, col)`` as a Python bool."""
        col = int(col)
        if not 0 <= col < self.n_cols:
            raise IndexError(f"column {col} out of range [0, {self.n_cols})")
        word = int(self.words[row, col >> 6])
        return bool((word >> (col & 63)) & 1)

    # ------------------------------------------------------------------
    # Unpacking and row/column views
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """The full matrix as a ``(n_rows, n_cols)`` bool array."""
        if self.n_cols == 0 or self.n_rows == 0:
            return np.zeros(self.shape, dtype=bool)
        raw = np.ascontiguousarray(self.words).view(np.uint8)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        return bits[:, : self.n_cols].astype(bool)

    def row_bool(self, row: int) -> np.ndarray:
        """Row *row* unpacked to a bool array of length ``n_cols``."""
        if self.n_cols == 0:
            return np.zeros(0, dtype=bool)
        raw = np.ascontiguousarray(self.words[row]).view(np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.n_cols].astype(bool)

    def row_indices(self, row: int) -> np.ndarray:
        """Column indices of the set bits of row *row*, ascending."""
        return np.nonzero(self.row_bool(row))[0]

    def take_columns(self, columns: np.ndarray) -> "BitMatrix":
        """The matrix restricted to *columns*, in that order, re-packed.

        Unpacks bounded row blocks only, like :meth:`column_counts`.
        """
        columns = np.asarray(columns, dtype=np.intp)
        out = BitMatrix.zeros(self.n_rows, len(columns))
        block = max(1, _BLOCK_CELLS // max(1, self.n_words * WORD_BITS))
        for start in range(0, self.n_rows, block):
            dense = BitMatrix(self.words[start : start + block], self.n_cols).to_dense()
            out.words[start : start + len(dense)] = _pack_rows(dense[:, columns])
        return out

    def column_bool(self, col: int) -> np.ndarray:
        """Column *col* as a bool array of length ``n_rows``.

        A column read touches one word per row (``n_rows`` words total),
        not the whole matrix — there is no packed transpose to maintain.
        """
        if not 0 <= col < self.n_cols:
            raise IndexError(f"column {col} out of range [0, {self.n_cols})")
        return ((self.words[:, col >> 6] >> np.uint64(col & 63)) & np.uint64(1)).astype(
            bool
        )

    def column_indices(self, col: int) -> np.ndarray:
        """Row indices of the set bits of column *col*, ascending."""
        return np.nonzero(self.column_bool(col))[0]

    # ------------------------------------------------------------------
    # Popcount statistics
    # ------------------------------------------------------------------
    def row_counts(self) -> np.ndarray:
        """Set bits per row (popcount over the packed words), int64."""
        if self.n_words == 0:
            return np.zeros(self.n_rows, dtype=np.int64)
        return np.bitwise_count(self.words).sum(axis=1, dtype=np.int64)

    def column_counts(self) -> np.ndarray:
        """Set bits per column, int64; unpacks in bounded row blocks."""
        counts = np.zeros(self.n_cols, dtype=np.int64)
        if self.n_cols == 0:
            return counts
        block = max(1, _BLOCK_CELLS // max(1, self.n_cols))
        for start in range(0, self.n_rows, block):
            raw = np.ascontiguousarray(self.words[start : start + block]).view(np.uint8)
            bits = np.unpackbits(raw, axis=1, bitorder="little")
            counts += bits[:, : self.n_cols].sum(axis=0, dtype=np.int64)
        return counts

    def count(self) -> int:
        """Total number of set bits."""
        if self.n_words == 0:
            return 0
        return int(np.bitwise_count(self.words).sum(dtype=np.int64))

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` index arrays of the set cells, row-major order.

        Equivalent to ``np.nonzero(self.to_dense())`` but never unpacks
        the matrix: one streaming scan of the packed words plus
        ``O(nnz)`` bit expansion (see :func:`_packed_nonzero`).
        """
        return _packed_nonzero(self.words)

    # ------------------------------------------------------------------
    # Packed element-wise ops (padding invariant preserved)
    # ------------------------------------------------------------------
    def _check_same_shape(self, other: "BitMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __and__(self, other: "BitMatrix") -> "BitMatrix":
        self._check_same_shape(other)
        return BitMatrix(self.words & other.words, self.n_cols)

    def __or__(self, other: "BitMatrix") -> "BitMatrix":
        self._check_same_shape(other)
        return BitMatrix(self.words | other.words, self.n_cols)

    def and_not(self, other: "BitMatrix") -> "BitMatrix":
        """``self & ~other`` without materialising the negation."""
        self._check_same_shape(other)
        return BitMatrix(self.words & ~other.words, self.n_cols)

    def _tail_mask(self) -> np.ndarray:
        """Per-word mask with ones at valid column positions only."""
        mask = np.full(self.n_words, ~np.uint64(0), dtype=np.uint64)
        tail = self.n_cols & 63
        if self.n_words and tail:
            mask[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
        return mask

    def logical_not(self) -> "BitMatrix":
        """Element-wise negation, keeping the padding bits zero."""
        return BitMatrix(~self.words & self._tail_mask(), self.n_cols)

    def clear_diagonal(self) -> None:
        """Set ``(i, i)`` to false in place for every valid diagonal cell."""
        n = min(self.n_rows, self.n_cols)
        if n == 0:
            return
        diagonal = np.arange(n)
        self.words[diagonal, diagonal >> 6] &= ~(
            np.uint64(1) << (diagonal & 63).astype(np.uint64)
        )

    # ------------------------------------------------------------------
    # Blocked boolean matrix product
    # ------------------------------------------------------------------
    def _gather_or_bounds(
        self, counts: np.ndarray, other: "BitMatrix"
    ) -> list[tuple[int, int]]:
        """Row-span boundaries of the blocked ``self @ other`` product.

        A pure function of the selector row popcounts: each span bounds
        both the result rows it holds and the operand rows it will gather
        (the working-set budget), so the spans — and therefore the block
        decomposition — are identical whatever executor later runs them.
        """
        # Two budgets, both in words: how many operand rows one block may
        # gather at a time, and how many result rows it may hold.
        gather_budget = max(1, _BLOCK_CELLS // max(1, other.n_words))
        row_cap = max(1, _BLOCK_CELLS // max(8, 8 * other.n_words))
        bounds: list[tuple[int, int]] = []
        start = 0
        n_rows = self.n_rows
        while start < n_rows:
            stop = start + 1
            gathered_rows = int(counts[start])
            while (
                stop < n_rows
                and stop - start < row_cap
                and gathered_rows + int(counts[stop]) <= gather_budget
            ):
                gathered_rows += int(counts[stop])
                stop += 1
            bounds.append((start, stop))
            start = stop
        return bounds

    def _gather_or_reach(
        self, other: "BitMatrix", counts: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """One row span of ``self @ other``: the OR-reduction of the
        operand rows selected by each selector row in ``[start, stop)``.

        Independent of every other span (reads shared inputs, returns a
        fresh array), which is what makes the block loop shardable.
        """
        gather_budget = max(1, _BLOCK_CELLS // max(1, other.n_words))
        gathered_rows = int(counts[start:stop].sum())
        reach = np.zeros((stop - start, other.n_words), dtype=np.uint64)
        if gathered_rows > gather_budget:
            # A single row wider than the whole budget: OR its selected
            # operand rows in bounded chunks instead of one oversized
            # gather.
            selected = _packed_nonzero(self.words[start:stop])[1]
            for chunk_start in range(0, selected.size, gather_budget):
                chunk = selected[chunk_start : chunk_start + gather_budget]
                reach[0] |= np.bitwise_or.reduce(other.words[chunk], axis=0)
        elif gathered_rows:
            block_rows, selected = _packed_nonzero(self.words[start:stop])
            gathered = other.words[selected]
            block_counts = np.bincount(block_rows, minlength=stop - start)
            nonempty = np.nonzero(block_counts)[0]
            offsets = np.zeros(len(nonempty), dtype=np.intp)
            np.cumsum(block_counts[nonempty[:-1]], out=offsets[1:])
            reach[nonempty] = np.bitwise_or.reduceat(gathered, offsets, axis=0)
        return reach

    def bool_matmul(
        self, other: "BitMatrix", executor: "KernelExecutor | None" = None
    ) -> "BitMatrix":
        """Boolean matrix product ``self @ other``, fully packed.

        ``result[i, j]`` is true iff some ``k`` has ``self[i, k]`` and
        ``other[k, j]``.  Runs as a blocked gather/OR-reduce over packed
        rows, so the working set beyond the packed result is bounded.
        The independent row spans are sharded across *executor* (serial
        by default); every span writes a disjoint result slice, so the
        output is byte-identical for any worker count.
        """
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape}: inner "
                "dimensions differ"
            )
        executor = get_executor(executor)
        counts = self.row_counts()
        result = np.zeros((self.n_rows, other.n_words), dtype=np.uint64)

        def compute(span: tuple[int, int]) -> None:
            start, stop = span
            result[start:stop] = self._gather_or_reach(other, counts, start, stop)

        executor.map(compute, self._gather_or_bounds(counts, other))
        return BitMatrix(result, other.n_cols)


def packed_containment(
    masks: np.ndarray, executor: "KernelExecutor | None" = None
) -> BitMatrix:
    """Strict-containment relation of packed itemset masks, as a BitMatrix.

    ``result[i, j]`` is true iff row ``i`` of *masks* is a proper subset
    of row ``j``.  Rows must be pairwise distinct.  When rows are sorted
    by cardinality (the
    canonical member order of an itemset family) the subset tests run per
    size group against the strictly-larger-size column suffix only, which
    skips every same-size pair of a wide lattice; unsorted input falls
    back to the full pair scan.  Either way only ``O(block x n)`` bool
    temporaries exist at a time and the result is written straight into
    packed words.

    The (size-group × row-block) loops are flattened into one shard list
    and spread across *executor* (serial by default).  Each shard keeps
    its group's column suffix — the level-wise pruning happens *before*
    the popcount work is scheduled — and writes a disjoint row slice of
    the packed result, so any worker count is byte-identical to serial.
    """
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    n, n_mask_words = masks.shape
    result = BitMatrix.zeros(n, n)
    if n == 0:
        return result
    if n_mask_words == 0:
        # Every row is the empty set; distinct-rows contract means n <= 1
        # and there is nothing to contain either way.
        return result
    executor = get_executor(executor)
    sizes = np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
    size_sorted = bool(np.all(sizes[:-1] <= sizes[1:]))
    groups = _size_groups(sizes) if size_sorted else [(0, n, 0)]
    shards: list[tuple[int, int, int]] = []
    for row_start, row_stop, col_start in groups:
        n_cols = n - col_start
        if n_cols <= 0:
            continue
        block = max(1, min(_BLOCK_CELLS // max(1, n_cols), _MAX_SHARD_ROWS))
        for start in range(row_start, row_stop, block):
            shards.append((start, min(start + block, row_stop), col_start))

    def compute(shard: tuple[int, int, int]) -> None:
        start, stop, col_start = shard
        _containment_block(masks, result, start, stop, col_start)

    executor.map(compute, shards)
    if not size_sorted:
        result.clear_diagonal()
    return result


def _size_groups(sizes: np.ndarray) -> list[tuple[int, int, int]]:
    """``(row_start, row_stop, col_start)`` per distinct-cardinality group.

    With rows sorted by cardinality, a row of size ``s`` can only be
    properly contained in a column of size ``> s`` — the first index past
    the size-``s`` run.  Same-size pairs (including the diagonal) are
    never tested at all.
    """
    groups: list[tuple[int, int, int]] = []
    n = len(sizes)
    row_start = 0
    while row_start < n:
        row_stop = int(np.searchsorted(sizes, sizes[row_start], side="right"))
        if row_stop < n:
            groups.append((row_start, row_stop, row_stop))
        row_start = row_stop
    return groups


def _containment_block(
    masks: np.ndarray,
    result: BitMatrix,
    row_start: int,
    row_stop: int,
    col_start: int,
) -> None:
    """Subset-test rows ``[row_start, row_stop)`` against columns ``>= col_start``.

    One independent shard of :func:`packed_containment`: reads shared
    inputs, writes only its own packed row slice (and only the word range
    the column suffix occupies), so shards compose — in any execution
    order — to exactly the sequential result.
    """
    n = masks.shape[0]
    n_cols = n - col_start
    if n_cols <= 0:
        return
    # Align the written range to a word boundary so whole packed words
    # can be assigned.
    word_start = col_start >> 6
    bit_start = word_start << 6
    n_mask_words = masks.shape[1]
    rows = masks[row_start:row_stop]
    subset = np.ones((rows.shape[0], n_cols), dtype=bool)
    for word in range(n_mask_words):
        column = rows[:, word][:, None]
        subset &= (column & masks[None, col_start:, word]) == column
    padded = np.zeros((rows.shape[0], n - bit_start), dtype=bool)
    padded[:, col_start - bit_start :] = subset
    result.words[row_start : row_start + rows.shape[0], word_start:] = _pack_rows(
        padded
    )


def packed_hasse_reduction(
    proper: BitMatrix, executor: "KernelExecutor | None" = None
) -> BitMatrix:
    """Transitive reduction of a packed strict order: ``proper & ~(proper @ proper)``.

    A pair survives iff no third element lies strictly in between.  The
    two-step relation is evaluated block by block through the packed
    gather/OR-reduce product and fused with the AND-NOT, so besides the
    packed result only one bounded block of words is live at a time.
    The independent row spans are sharded across *executor* (serial by
    default) with disjoint output slices — byte-identical to the serial
    pass for any worker count.
    """
    n = proper.n_rows
    if proper.n_cols != n:
        raise ValueError(f"order relation must be square, got {proper.shape}")
    executor = get_executor(executor)
    counts = proper.row_counts()
    # np.zeros (calloc) over np.zeros_like, which memsets eagerly — the
    # spans below overwrite every row block anyway, so each page should
    # be written once, not twice.
    hasse = np.zeros(proper.words.shape, dtype=np.uint64)

    def compute(span: tuple[int, int]) -> None:
        start, stop = span
        reach = proper._gather_or_reach(proper, counts, start, stop)
        hasse[start:stop] = proper.words[start:stop] & ~reach

    executor.map(compute, proper._gather_or_bounds(counts, proper))
    return BitMatrix(hasse, n)
