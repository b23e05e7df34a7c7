"""Columnar (structure-of-arrays) storage for association rules.

The rule bases of the paper are pure functions of the closed-set lattice,
which :mod:`repro.core.order` already holds as packed uint64 arrays — yet
until this module existed every basis was materialised one
:class:`~repro.core.rules.AssociationRule` Python object at a time.  On
rule-dense workloads (10⁵–10⁶ informative / Luxenburger rules) that
object layer dominated end-to-end time and memory.

:class:`RuleArrays` keeps a rule collection as five aligned columns:

* ``antecedents`` / ``consequents`` — packed item-mask rows
  (:class:`~repro.core.bitmatrix.BitMatrix`, bit ``i`` ⇔
  ``universe[i]``, same little-endian layout as the lattice masks);
* ``support`` / ``confidence`` — float64 columns;
* ``support_count`` — int64 column (``-1`` encodes "unknown", the
  array form of ``AssociationRule.support_count is None``).

Everything the experiment pipeline does per rule — dedup on the
``(antecedent, consequent)`` identity, canonical sorting, min-confidence
/ min-support / exact / approximate filtering, concatenation and the
key-based set operations — runs as one vectorised pass over the columns.
:class:`~repro.core.rules.RuleSet` wraps a ``RuleArrays`` through
``RuleSet.from_arrays`` and only materialises Python rule objects when a
caller actually iterates them, so the hot path (building a basis,
counting it, filtering it) never touches object space.

Every basis of the paper is a set of row pairs into a mined family: an
antecedent row and an antecedent ∪ consequent ("union") row
(:class:`RowPairs`).  One assembler, :meth:`RuleArrays.from_row_pairs`,
turns such pairs into the five columns — for the emitters when they
build a basis and for the store when it loads one.

Rows are trusted to describe well-formed rules (disjoint sides,
non-empty consequent, probabilities in range) — the builders construct
them from lattice invariants that guarantee it.
:meth:`RuleArrays.validate` re-checks the contract: the store on every
basis it loads as columns, the tests on the built ones.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from ..errors import InvalidParameterError
from .bitmatrix import _BLOCK_CELLS, BitMatrix, _pack_rows, _words_for
from .constants import EPSILON
from .itemset import Item, Itemset, _sort_key
from .parallel import get_executor

__all__ = [
    "MaskRows",
    "RowPairs",
    "RuleArrays",
    "pack_itemsets_into",
    "pack_itemset_words",
    "mask_to_itemset",
    "relative_supports",
    "resolve_block_rows",
    "sorted_universe",
]


def resolve_block_rows(block_rows: int | None, n_words: int) -> int:
    """The row-block size of a streamed rule expansion.

    ``None`` (the "auto" default of the streaming builders) sizes the
    block from the shared working-set budget of
    :mod:`repro.core.bitmatrix`: one block of packed antecedent +
    consequent rows stays around ``_BLOCK_CELLS`` bits however many
    rules the expansion produces, which is what keeps the peak *mask*
    memory of a 10⁷-rule build constant instead of output-sized.
    Explicit values pass through (floored at one row).
    """
    if block_rows is None:
        return max(1, _BLOCK_CELLS // max(64, n_words * 64))
    block_rows = int(block_rows)
    if block_rows < 1:
        raise InvalidParameterError(
            f"block_rows must be a positive row count, got {block_rows}"
        )
    return block_rows


def sorted_universe(items: Iterable[Item]) -> tuple[Item, ...]:
    """The canonical (ascending) item order used for bit positions.

    Shared by every packing consumer (rule columns, the closure-lookup
    index of :class:`~repro.core.families.ClosedItemsetFamily`, the
    pseudo-closed computation, generator masks) so that "bit ``i`` means
    ``universe[i]``" is one convention, not several.
    """
    distinct = set(items)
    try:
        return tuple(sorted(distinct))
    except TypeError:
        return tuple(sorted(distinct, key=_sort_key))


def pack_itemset_words(
    itemset: Iterable[Item],
    item_position: dict,
    n_words: int,
) -> np.ndarray:
    """Pack one itemset into a length-``n_words`` uint64 little-endian row.

    The single-row companion of :func:`pack_itemsets_into` for callers
    that pack incrementally against a prebuilt ``item -> bit position``
    mapping (the pseudo-closed scan, the closure-lookup index).  Raises
    ``KeyError`` for an item missing from the mapping.
    """
    words = np.zeros(n_words, dtype=np.uint64)
    for item in itemset:
        position = item_position[item]
        words[position >> 6] |= np.uint64(1) << np.uint64(position & 63)
    return words


def relative_supports(counts: np.ndarray, n_objects: int) -> np.ndarray:
    """An absolute support-count column as float64 relative supports.

    The shared counts-to-probability convention of every array-native
    basis builder: plain division, with ``n_objects == 0`` mapping to an
    all-zero column (the value the object pipeline used per rule).
    """
    if n_objects:
        return counts.astype(np.float64) / n_objects
    return np.zeros(len(counts), dtype=np.float64)


class MaskRows(NamedTuple):
    """Rows a row pair can index: packed masks with their support counts.

    A :class:`~repro.core.families.PackedFamily` has the same three
    fields and serves directly; the store builds these from the arrays
    it reads, without decoding a family.
    """

    #: One mask row per member, over :attr:`universe`.
    matrix: BitMatrix
    #: Absolute support count per row.
    counts: np.ndarray
    #: Items in canonical bit order.
    universe: tuple[Item, ...]


class RowPairs(NamedTuple):
    """A basis as one antecedent row and one union row per rule, in row order.

    ``antecedents`` and ``unions`` are the families the rows index, each
    through its ``packed()`` rows: an
    :class:`~repro.core.families.ItemsetFamily` (frequent or closed) or
    a :class:`~repro.core.generators.GeneratorFamily`.  Antecedent row
    ``-1`` is the empty itemset (support ``n_objects``), which no family
    lists.
    """

    antecedents: object
    antecedent_rows: np.ndarray
    unions: object
    union_rows: np.ndarray


def used_universe(rows: MaskRows, indices: np.ndarray) -> tuple[Item, ...]:
    """The items set in any of the rows *indices* (none -1), in canonical order."""
    words = rows.matrix.words
    in_use = np.zeros(len(words), dtype=bool)
    in_use[indices] = True
    used = np.bitwise_or.reduce(words[in_use], axis=0)
    columns = BitMatrix(used[None, :], rows.matrix.n_cols).row_indices(0)
    return tuple(rows.universe[column] for column in columns)


def _gather_source(
    rows: MaskRows, indices: np.ndarray, universe: tuple, role: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(masks, positions)``: ``masks[positions]`` are rows *indices* over *universe*.

    Only the rows in use are projected, once each; row ``-1`` maps to an
    appended empty row.  Raises when a row in use holds an item outside
    *universe* or *universe* names an item the rows lack.
    """
    words = rows.matrix.words
    positions = indices
    if tuple(rows.universe) != universe:
        bit = {item: column for column, item in enumerate(rows.universe)}
        missing = [item for item in universe if item not in bit]
        if missing:
            raise InvalidParameterError(
                f"universe: item {missing[0]!r} is not in the {role} family"
            )
        columns = np.array([bit[item] for item in universe], dtype=np.intp)
        in_use = np.zeros(len(words), dtype=bool)
        in_use[indices[indices >= 0]] = True
        kept = words[in_use]
        words = BitMatrix(kept, rows.matrix.n_cols).take_columns(columns).words
        # The projection drops the bits outside *universe*: none may be set.
        if np.bitwise_count(words).sum() != np.bitwise_count(kept).sum():
            raise InvalidParameterError(
                f"universe: {role} rows hold items outside the basis universe"
            )
        positions = (np.cumsum(in_use) - 1)[indices]
    if (indices < 0).any():
        words = np.concatenate([words, np.zeros((1, words.shape[1]), np.uint64)])
        positions = np.where(indices < 0, len(words) - 1, positions)
    return words, positions


def _words_for_universe(universe: Sequence[Item]) -> int:
    """Packed uint64 words per mask row over *universe*."""
    return _words_for(len(universe))


def pack_itemsets_into(
    itemsets: Sequence[Itemset],
    universe: Sequence[Item],
) -> BitMatrix:
    """Pack *itemsets* as rows of a :class:`BitMatrix` over a fixed universe.

    Bit ``i`` of a row is set iff the itemset contains ``universe[i]``.
    Raises when an itemset holds an item outside the universe (the packed
    row could not represent it).  The dense presence temporaries are
    bounded row blocks, so packing a million-rule collection never
    allocates an ``n x |universe|`` bool matrix.
    """
    index = {item: position for position, item in enumerate(universe)}
    n_cols = len(universe)
    out = BitMatrix.zeros(len(itemsets), n_cols)
    block = max(1, _BLOCK_CELLS // max(1, n_cols))
    for start in range(0, len(itemsets), block):
        chunk = itemsets[start : start + block]
        presence = np.zeros((len(chunk), n_cols), dtype=bool)
        for row, itemset in enumerate(chunk):
            for item in itemset:
                try:
                    presence[row, index[item]] = True
                except KeyError:
                    raise InvalidParameterError(
                        f"item {item!r} of {itemset} is outside the packing universe"
                    ) from None
        out.words[start : start + len(chunk)] = _pack_rows(presence)
    return out


def mask_to_itemset(matrix: BitMatrix, row: int, universe: Sequence[Item]) -> Itemset:
    """Materialise one packed row back into an :class:`Itemset`."""
    return Itemset(universe[position] for position in matrix.row_indices(row))


#: Every byte value with its eight bits in reverse order.
_REVERSED_BYTES = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1),
    axis=1,
    bitorder="little",
).ravel()


def _reversed_bit_rows(matrix: BitMatrix) -> np.ndarray:
    """Each row's bit string reversed over the full padded word width.

    Used by the canonical sort: for two masks of equal popcount, the
    ascending-index tuple of ``x`` precedes that of ``y`` exactly when
    the *lowest* differing bit belongs to ``x`` — i.e. when the
    bit-reversed row of ``x`` is the *larger* multiword integer.  The
    row's bytes are taken in reverse order and each is bit-reversed
    through a 256-entry table; the only new array is the output.
    """
    return _REVERSED_BYTES[matrix.words.view(np.uint8)[:, ::-1]].view(np.uint64)


class RuleArrays:
    """A rule collection as aligned columns over a fixed item universe.

    Parameters
    ----------
    antecedents, consequents:
        Packed item-mask rows (one rule per row, same shape).
    universe:
        Items in canonical ascending order; bit ``i`` of every mask row
        refers to ``universe[i]``.
    support, confidence:
        Float64 columns (coerced and frozen).
    support_count:
        Int64 column; ``-1`` means the absolute count is unknown.
        ``None`` fills the column with ``-1``.
    """

    __slots__ = (
        "antecedents",
        "consequents",
        "universe",
        "support",
        "confidence",
        "support_count",
    )

    def __init__(
        self,
        antecedents: BitMatrix,
        consequents: BitMatrix,
        universe: Sequence[Item],
        support: np.ndarray,
        confidence: np.ndarray,
        support_count: np.ndarray | None = None,
    ) -> None:
        n = antecedents.n_rows
        if consequents.shape != antecedents.shape:
            raise InvalidParameterError(
                f"antecedent/consequent shape mismatch: {antecedents.shape} "
                f"vs {consequents.shape}"
            )
        if antecedents.n_cols != len(universe):
            raise InvalidParameterError(
                f"{antecedents.n_cols}-column masks cannot index a "
                f"{len(universe)}-item universe"
            )
        support = np.ascontiguousarray(support, dtype=np.float64)
        confidence = np.ascontiguousarray(confidence, dtype=np.float64)
        if support_count is None:
            support_count = np.full(n, -1, dtype=np.int64)
        else:
            support_count = np.ascontiguousarray(support_count, dtype=np.int64)
        for label, column in (
            ("support", support),
            ("confidence", confidence),
            ("support_count", support_count),
        ):
            if column.shape != (n,):
                raise InvalidParameterError(
                    f"{label} column has shape {column.shape}, expected ({n},)"
                )
        self.antecedents = antecedents
        self.consequents = consequents
        self.universe = tuple(universe)
        self.support = support
        self.confidence = confidence
        self.support_count = support_count
        # Freeze every column, mask words included: the arrays are handed
        # out through RuleSet.to_arrays / BuiltBasis.rule_arrays and may
        # back a lazily materialised RuleSet — a consumer writing into
        # them would silently corrupt answers already given.
        frozen = (
            support,
            confidence,
            support_count,
            antecedents.words,
            consequents.words,
        )
        for array in frozen:
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, universe: Sequence[Item] = ()) -> "RuleArrays":
        """A zero-rule collection over *universe*."""
        n_cols = len(universe)
        return cls(
            BitMatrix.zeros(0, n_cols),
            BitMatrix.zeros(0, n_cols),
            tuple(universe),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
        )

    @classmethod
    def from_rules(
        cls, rules: Iterable, universe: Sequence[Item] | None = None
    ) -> "RuleArrays":
        """Pack an iterable of :class:`AssociationRule` objects into columns.

        When *universe* is omitted it is derived from the rules' items in
        canonical order.  Row order is iteration order (the insertion
        order of a :class:`~repro.core.rules.RuleSet`).
        """
        rules = list(rules)
        if universe is None:
            universe = sorted_universe(item for rule in rules for item in rule.itemset)
        antecedents = pack_itemsets_into([rule.antecedent for rule in rules], universe)
        consequents = pack_itemsets_into([rule.consequent for rule in rules], universe)
        support = np.array([rule.support for rule in rules], dtype=np.float64)
        confidence = np.array([rule.confidence for rule in rules], dtype=np.float64)
        counts = np.array(
            [
                -1 if rule.support_count is None else rule.support_count
                for rule in rules
            ],
            dtype=np.int64,
        )
        return cls(antecedents, consequents, universe, support, confidence, counts)

    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable["RuleArrays"],
        universe: Sequence[Item],
        n_rows: int | None = None,
    ) -> "RuleArrays":
        """Assemble one collection from an iterator of row-block collections.

        The chunk-consuming counterpart of :meth:`iter_blocks`, and the
        assembly step of the streamed basis builders: every block must be
        packed over *universe* (the builders guarantee it; a mismatched
        block raises), and blocks are written in iteration order.

        ``n_rows``, when given, is a row-count *capacity*: the output
        columns are preallocated once and each block is copied straight
        into its slice, so beyond the finished output only one block is
        ever live — the bounded-memory path.  Blocks may undershoot the
        capacity (a streamed builder that filters rows per block); the
        surplus is trimmed at the end.  Without ``n_rows`` the blocks are
        collected and concatenated once.
        """
        universe = tuple(universe)
        if n_rows is None:
            collected = list(blocks)
            for block in collected:
                if block.universe != universe:
                    raise InvalidParameterError(
                        "blocks are packed over a different universe than the target"
                    )
            if not collected:
                return cls.empty(universe)
            return cls(
                BitMatrix(
                    np.concatenate([b.antecedents.words for b in collected]),
                    len(universe),
                ),
                BitMatrix(
                    np.concatenate([b.consequents.words for b in collected]),
                    len(universe),
                ),
                universe,
                np.concatenate([b.support for b in collected]),
                np.concatenate([b.confidence for b in collected]),
                np.concatenate([b.support_count for b in collected]),
            )
        n_words = _words_for_universe(universe)
        antecedents = np.zeros((n_rows, n_words), dtype=np.uint64)
        consequents = np.zeros((n_rows, n_words), dtype=np.uint64)
        support = np.zeros(n_rows, dtype=np.float64)
        confidence = np.zeros(n_rows, dtype=np.float64)
        support_count = np.full(n_rows, -1, dtype=np.int64)
        filled = 0
        for block in blocks:
            if block.universe != universe:
                raise InvalidParameterError(
                    "blocks are packed over a different universe than the target"
                )
            stop = filled + len(block)
            if stop > n_rows:
                raise InvalidParameterError(
                    f"blocks hold more than the declared capacity of {n_rows} rows"
                )
            antecedents[filled:stop] = block.antecedents.words
            consequents[filled:stop] = block.consequents.words
            support[filled:stop] = block.support
            confidence[filled:stop] = block.confidence
            support_count[filled:stop] = block.support_count
            filled = stop
        if filled < n_rows:
            # Copy the filled prefix so the trimmed rows do not keep the
            # full-capacity buffers alive through a view.
            antecedents = antecedents[:filled].copy()
            consequents = consequents[:filled].copy()
            support = support[:filled].copy()
            confidence = confidence[:filled].copy()
            support_count = support_count[:filled].copy()
        return cls(
            BitMatrix(antecedents, len(universe)),
            BitMatrix(consequents, len(universe)),
            universe,
            support,
            confidence,
            support_count,
        )

    @classmethod
    def from_row_pairs(
        cls,
        antecedents: MaskRows,
        antecedent_rows: np.ndarray,
        unions: MaskRows,
        union_rows: np.ndarray,
        universe: Sequence[Item],
        n_objects: int,
        *,
        block_rows: int | None = None,
        workers: int | None = None,
    ) -> "RuleArrays":
        """Assemble rule ``X → Z \\ X`` per ``(X row, Z row)`` pair, streamed.

        The single assembler of every basis, at build and at store load.
        The rows in use are projected onto *universe* once; each block of
        ``block_rows`` rules then gathers its antecedent and union masks,
        AND-NOTs them into consequents and takes ``support_count`` from
        the union counts, ``support`` from :func:`relative_supports` and
        ``confidence`` as union count / antecedent count (float64, so an
        exact rule reads exactly 1.0).  Antecedent row ``-1`` is the
        empty itemset with count *n_objects*.  ``block_rows`` and
        ``workers`` change memory and wall time, never the output.

        Raises :class:`~repro.errors.InvalidParameterError`, its message
        opening with the offending argument, when the two row arrays
        differ in length, a row lies outside its family (``-1`` aside),
        a row in use holds an item outside *universe*, or an antecedent
        row is not a proper subset of its union row.
        """
        antecedent_rows = np.asarray(antecedent_rows, dtype=np.int64)
        union_rows = np.asarray(union_rows, dtype=np.int64)
        universe = tuple(universe)
        if len(union_rows) != len(antecedent_rows):
            raise InvalidParameterError(
                f"union_rows holds {len(union_rows)} rows, "
                f"antecedent_rows {len(antecedent_rows)}"
            )
        for label, rows, family, lowest in (
            ("antecedent_rows", antecedent_rows, antecedents, -1),
            ("union_rows", union_rows, unions, 0),
        ):
            n = len(family.counts)
            if rows.size and not lowest <= rows.min() <= rows.max() < n:
                raise InvalidParameterError(
                    f"{label}: rows must lie in [{lowest}, {n})"
                )
        x_masks, x_positions = _gather_source(
            antecedents, antecedent_rows, universe, "antecedent"
        )
        z_masks, z_positions = _gather_source(unions, union_rows, universe, "union")
        # Row -1 reads the appended last entry: the empty itemset's count.
        x_count_table = np.append(antecedents.counts, n_objects).astype(np.int64)
        block = resolve_block_rows(block_rows, _words_for(len(universe)))

        def assemble(start: int) -> RuleArrays:
            rows = slice(start, start + block)
            x = x_masks.take(x_positions[rows], axis=0)
            z = z_masks.take(z_positions[rows], axis=0)
            consequents = z & ~x
            nonempty = (consequents != 0).any(axis=1)
            if (x & ~z).any() or not nonempty.all():
                improper = ((x & ~z) != 0).any(axis=1) | ~nonempty
                rule = start + int(np.argmax(improper))
                raise InvalidParameterError(
                    f"antecedent_rows: rule {rule}: antecedent row "
                    f"{antecedent_rows[rule]} is not a proper subset of "
                    f"union row {union_rows[rule]}"
                )
            x_counts = x_count_table.take(antecedent_rows[rows])
            z_counts = unions.counts.take(union_rows[rows])
            with np.errstate(divide="ignore", invalid="ignore"):
                confidence = z_counts / x_counts
            # A zero antecedent count (no object at all) reads 1.0.
            confidence[x_counts == 0] = 1.0
            return RuleArrays(
                BitMatrix(x, len(universe)),
                BitMatrix(consequents, len(universe)),
                universe,
                relative_supports(z_counts, n_objects),
                confidence,
                z_counts,
            )

        starts = range(0, len(union_rows), block)
        if len(starts) == 1:
            return assemble(0)
        return cls.from_blocks(
            get_executor(workers).imap(assemble, starts),
            universe,
            n_rows=len(union_rows),
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Return the number of rules held in the columns."""
        return self.antecedents.n_rows

    def __repr__(self) -> str:
        """Summarize the store as rule and universe counts."""
        return f"RuleArrays({len(self)} rules, {len(self.universe)} items)"

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the columns."""
        return (
            self.antecedents.words.nbytes
            + self.consequents.words.nbytes
            + self.support.nbytes
            + self.confidence.nbytes
            + self.support_count.nbytes
        )

    # ------------------------------------------------------------------
    # Row selection
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "RuleArrays":
        """A new collection holding the rows *indices*, in that order."""
        indices = np.asarray(indices)
        return RuleArrays(
            BitMatrix(self.antecedents.words[indices], self.antecedents.n_cols),
            BitMatrix(self.consequents.words[indices], self.consequents.n_cols),
            self.universe,
            self.support[indices],
            self.confidence[indices],
            self.support_count[indices],
        )

    def select(self, mask: np.ndarray) -> "RuleArrays":
        """The rows where the boolean *mask* is true, order preserved."""
        return self.take(np.nonzero(np.asarray(mask, dtype=bool))[0])

    def iter_blocks(self, block_rows: int | None = None) -> Iterator["RuleArrays"]:
        """Yield the collection as contiguous row blocks, in row order.

        The chunk-producing counterpart of :meth:`from_blocks`, used by
        consumers that stream a large collection out of process (the
        on-disk store, the Arrow export) without ever slicing it into
        per-rule objects.  Each block is a plain slice of the columns —
        zero-copy for the numpy stat columns.  ``block_rows=None`` picks
        the shared auto size (see :func:`resolve_block_rows`).
        """
        block_rows = resolve_block_rows(block_rows, self.antecedents.n_words)
        for start in range(0, len(self), block_rows):
            stop = min(start + block_rows, len(self))
            yield RuleArrays(
                BitMatrix(self.antecedents.words[start:stop], self.antecedents.n_cols),
                BitMatrix(self.consequents.words[start:stop], self.consequents.n_cols),
                self.universe,
                self.support[start:stop],
                self.confidence[start:stop],
                self.support_count[start:stop],
            )

    # ------------------------------------------------------------------
    # Vectorised filters (same EPSILON semantics as RuleSet)
    # ------------------------------------------------------------------
    def exact_mask(self) -> np.ndarray:
        """Boolean column: confidence-1 rules."""
        return self.confidence >= 1.0 - EPSILON

    def exact(self) -> "RuleArrays":
        """The 100 %-confidence rules."""
        return self.select(self.exact_mask())

    def approximate(self) -> "RuleArrays":
        """The rules with confidence strictly below 1."""
        return self.select(~self.exact_mask())

    def with_min_confidence(self, minconf: float) -> "RuleArrays":
        """The rules whose confidence is at least *minconf*."""
        return self.select(self.confidence >= minconf - EPSILON)

    def with_min_support(self, minsup: float) -> "RuleArrays":
        """The rules whose support is at least *minsup*."""
        return self.select(self.support >= minsup - EPSILON)

    # ------------------------------------------------------------------
    # Keys, dedup, canonical sort
    # ------------------------------------------------------------------
    def key_view(self) -> np.ndarray:
        """The ``(antecedent, consequent)`` identity per row as a void column.

        Two rows compare equal exactly when they describe the same
        implication, which makes the view directly usable with
        ``np.unique`` / ``np.isin`` for the set operations.
        """
        combined = np.concatenate(
            [self.antecedents.words, self.consequents.words], axis=1
        )
        if combined.shape[1] == 0:
            # Empty universe: every row is the (degenerate) same key.
            return np.zeros(len(self), dtype=np.int64)
        flat = np.ascontiguousarray(combined)
        return flat.view(np.dtype((np.void, flat.shape[1] * 8))).reshape(-1)

    def deduplicated(self) -> "RuleArrays":
        """Drop duplicate keys, first occurrence wins, order preserved.

        Mirrors :class:`~repro.core.rules.RuleSet` insertion semantics.
        """
        keys = self.key_view()
        _, first = np.unique(keys, return_index=True)
        if first.size == len(self):
            return self
        return self.take(np.sort(first))

    def canonical_order(self) -> np.ndarray:
        """Row permutation sorting by the ``(antecedent, consequent)`` order.

        The order is exactly ``AssociationRule.__lt__``: antecedent first,
        consequent second, each compared as Itemsets (cardinality, then
        lexicographic on the ascending item tuple).  For equal-size masks
        the tuple comparison reduces to "the lowest differing bit belongs
        to the smaller set", which the bit-reversed rows expose as a
        plain descending multiword integer comparison — so the whole sort
        is one ``np.lexsort`` over numeric columns.
        """
        keys: list[np.ndarray] = []

        def push(matrix: BitMatrix) -> None:
            """Append one mask matrix's lexsort key columns to *keys*."""
            reversed_rows = _reversed_bit_rows(matrix)
            # lexsort is ascending; ascending itemset order is descending
            # on the reversed rows, so complement every word.  Least
            # significant word first — lexsort's last key is primary.
            for word in range(reversed_rows.shape[1]):
                keys.append(~reversed_rows[:, word])
            keys.append(matrix.row_counts())

        push(self.consequents)
        push(self.antecedents)
        if not keys:
            return np.arange(len(self))
        return np.lexsort(keys)

    def sorted_canonically(self) -> "RuleArrays":
        """The rows reordered into the canonical rule order."""
        return self.take(self.canonical_order())

    # ------------------------------------------------------------------
    # Concatenation and set operations on rule identities
    # ------------------------------------------------------------------
    def same_universe(self, other: "RuleArrays") -> bool:
        """Whether both collections share the same packing universe."""
        return self.universe == other.universe

    def project_to(self, universe: Sequence[Item]) -> "RuleArrays":
        """Re-pack the masks over a different universe.

        Column bits are permuted to the target's positions (blocked
        unpack/scatter/repack, bounded temporaries).  Items of the
        current universe missing from the target are allowed only when
        no rule uses them — their (all-zero) columns are dropped, which
        is what makes ``project_to`` round-trip through a padded
        universe; a set bit without a target position raises.
        """
        universe = tuple(universe)
        if universe == self.universe:
            return self
        index = {item: position for position, item in enumerate(universe)}
        mapping = np.array(
            [index.get(item, -1) for item in self.universe], dtype=np.intp
        )
        kept = mapping >= 0
        dropped = np.nonzero(~kept)[0]

        def remap(matrix: BitMatrix) -> BitMatrix:
            """Re-index one mask matrix onto the target universe."""
            n_rows = matrix.n_rows
            out = BitMatrix.zeros(n_rows, len(universe))
            if n_rows == 0 or matrix.n_cols == 0:
                return out
            block = max(1, _BLOCK_CELLS // max(1, max(len(universe), matrix.n_cols)))
            for start in range(0, n_rows, block):
                raw = np.ascontiguousarray(matrix.words[start : start + block]).view(
                    np.uint8
                )
                bits = np.unpackbits(raw, axis=1, bitorder="little")
                bits = bits[:, : matrix.n_cols].astype(bool)
                if dropped.size and bits[:, dropped].any():
                    used = dropped[bits[:, dropped].any(axis=0)][0]
                    raise InvalidParameterError(
                        f"target universe is missing item "
                        f"{self.universe[int(used)]!r}, which rules still use"
                    )
                scattered = np.zeros((bits.shape[0], len(universe)), dtype=bool)
                scattered[:, mapping[kept]] = bits[:, kept]
                out.words[start : start + bits.shape[0]] = BitMatrix.from_dense(
                    scattered
                ).words
            return out

        return RuleArrays(
            remap(self.antecedents),
            remap(self.consequents),
            universe,
            self.support,
            self.confidence,
            self.support_count,
        )

    def _aligned_pair(self, other: "RuleArrays") -> tuple["RuleArrays", "RuleArrays"]:
        if self.same_universe(other):
            return self, other
        merged = sorted_universe(self.universe + other.universe)
        return self.project_to(merged), other.project_to(merged)

    def concat(self, other: "RuleArrays") -> "RuleArrays":
        """Row-wise concatenation (duplicates kept; universes aligned)."""
        first, second = self._aligned_pair(other)
        return RuleArrays(
            BitMatrix(
                np.concatenate([first.antecedents.words, second.antecedents.words]),
                first.antecedents.n_cols,
            ),
            BitMatrix(
                np.concatenate([first.consequents.words, second.consequents.words]),
                first.consequents.n_cols,
            ),
            first.universe,
            np.concatenate([first.support, second.support]),
            np.concatenate([first.confidence, second.confidence]),
            np.concatenate([first.support_count, second.support_count]),
        )

    def union(self, other: "RuleArrays") -> "RuleArrays":
        """Key-based union; on duplicate keys this collection's row wins."""
        return self.concat(other).deduplicated()

    def difference(self, other: "RuleArrays") -> "RuleArrays":
        """The rows of *self* whose key does not appear in *other*."""
        first, second = self._aligned_pair(other)
        present = np.isin(first.key_view(), second.key_view())
        return first.select(~present)

    def intersection(self, other: "RuleArrays") -> "RuleArrays":
        """The rows of *self* whose key appears in *other* (self's stats)."""
        first, second = self._aligned_pair(other)
        present = np.isin(first.key_view(), second.key_view())
        return first.select(present)

    # ------------------------------------------------------------------
    # Column reductions (the summary statistics of the reports)
    # ------------------------------------------------------------------
    def count_exact(self) -> int:
        """Number of confidence-1 rules."""
        return int(np.count_nonzero(self.exact_mask()))

    def count_approximate(self) -> int:
        """Number of rules with confidence strictly below 1."""
        return len(self) - self.count_exact()

    def average_confidence(self) -> float:
        """Mean confidence (0 for an empty collection)."""
        return float(self.confidence.mean()) if len(self) else 0.0

    def average_support(self) -> float:
        """Mean support (0 for an empty collection)."""
        return float(self.support.mean()) if len(self) else 0.0

    # ------------------------------------------------------------------
    # Object materialisation (the lazy view RuleSet exposes)
    # ------------------------------------------------------------------
    def rule_at(self, row: int):
        """Materialise one row as an :class:`AssociationRule`."""
        from .rules import AssociationRule

        count = int(self.support_count[row])
        return AssociationRule(
            mask_to_itemset(self.antecedents, row, self.universe),
            mask_to_itemset(self.consequents, row, self.universe),
            support=float(self.support[row]),
            confidence=float(self.confidence[row]),
            support_count=None if count < 0 else count,
        )

    def iter_rules(self) -> Iterator:
        """Materialise every row, in row order."""
        for row in range(len(self)):
            yield self.rule_at(row)

    # ------------------------------------------------------------------
    # Contract checking
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Re-check the well-formed-rule contract; returns violations.

        One message per broken clause, opening with the column at fault
        and naming its first offending row: mask bits past the universe,
        a consequent overlapping its antecedent or empty, a support
        outside ``[0, 1]`` or a confidence outside ``(0, 1]`` (NaN and
        infinities included), a support count below the ``-1`` "unknown"
        marker.  The store rejects a column-encoded basis on the first.
        """
        valid_bits = BitMatrix.zeros(1, len(self.universe)).logical_not().words
        x, y = self.antecedents.words, self.consequents.words
        support, confidence, count = self.support, self.confidence, self.support_count
        # (column, its values when the message shows them, broken rows, what)
        past_universe = "items past the universe"
        checks = (
            ("antecedents", None, (x & ~valid_bits).any(axis=1), past_universe),
            ("consequents", None, (y & ~valid_bits).any(axis=1), past_universe),
            ("consequents", None, (x & y).any(axis=1), "overlaps its antecedent"),
            ("consequents", None, ~y.any(axis=1), "empty consequent"),
            ("support", support, ~((support >= 0) & (support <= 1)), "outside [0, 1]"),
            (
                "confidence",
                confidence,
                ~((confidence > 0) & (confidence <= 1)),
                "outside (0, 1]",
            ),
            ("support_count", count, count < -1, "below -1"),
        )
        problems = []
        for column, values, broken, what in checks:
            if broken.any():
                row = int(np.argmax(broken))
                shown = "" if values is None else f"{values[row]} "
                problems.append(f"{column}: row {row}: {shown}{what}")
        return problems
