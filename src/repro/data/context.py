"""The data mining context: a binary relation between objects and items.

The paper defines the mining context as a triplet ``D = (O, I, R)`` where
``O`` is a finite set of objects (transactions), ``I`` a finite set of
items, and ``R ⊆ O × I`` a binary relation.  :class:`TransactionDatabase`
is the concrete realisation of that triplet used throughout this library.

Two derived operators of the Galois connection live naturally here because
they need fast access to the relation:

* ``g(X)`` — the *cover* (extent) of an itemset ``X``: the set of objects
  related to every item of ``X``;
* ``f(T)`` — the *common items* (intent) of a set of objects ``T``: the
  items related to every object of ``T``.

The closure operator ``h = f ∘ g`` of the paper is exposed as
:meth:`TransactionDatabase.closure`.

Implementation
--------------
The relation is stored as a dense boolean numpy matrix (objects × items);
the packed views and all closure/support evaluation live in the closure
engine of :mod:`repro.engine`.  ``TransactionDatabase.engine()`` returns
the lazily built engine of this context.  The single-itemset methods
below (:meth:`cover`, :meth:`closure`, :meth:`support_count`, …) are thin
wrappers over it, while the level-wise miners hand whole candidate
levels to the engine directly.  The vertical view CHARM searches — one
integer tidset per item, one bit per object — is packed from the matrix
by :meth:`vertical_bits`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.itemset import Item, Itemset
from ..errors import EmptyDatabaseError, InvalidItemsetError, InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ClosureEngine

__all__ = ["TransactionDatabase"]


class TransactionDatabase:
    """A finite mining context ``D = (O, I, R)``.

    Parameters
    ----------
    transactions:
        Iterable of transactions; each transaction is an iterable of items.
        Duplicated items inside one transaction are collapsed.  Empty
        transactions are kept (they contribute to ``|O|`` but to no item
        support), matching the formal definition of the context.
    item_order:
        Optional explicit ordering of the item universe.  Items that appear
        in transactions but not in ``item_order`` are appended after it in
        canonical sorted order.  Items listed here but absent from every
        transaction are retained with support zero.
    object_ids:
        Optional identifiers for the objects.  Defaults to ``0..n-1``.
    name:
        Optional human-readable dataset name used by reports.

    Examples
    --------
    >>> db = TransactionDatabase([["a", "c", "d"], ["b", "c", "e"],
    ...                           ["a", "b", "c", "e"], ["b", "e"],
    ...                           ["a", "b", "c", "e"]], name="example")
    >>> db.n_objects, db.n_items
    (5, 5)
    >>> db.support_count(Itemset("bc"))
    3
    >>> str(db.closure(Itemset("a")))
    '{a, c}'
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[Item]],
        item_order: Sequence[Item] | None = None,
        object_ids: Sequence[Any] | None = None,
        name: str | None = None,
    ) -> None:
        rows: list[frozenset] = [frozenset(t) for t in transactions]
        self._name = name or "unnamed"

        seen: set = set()
        for row in rows:
            seen.update(row)

        items: list = []
        if item_order is not None:
            ordered_seen: set = set()
            for item in item_order:
                if item not in ordered_seen:
                    ordered_seen.add(item)
                    items.append(item)
        remaining = seen.difference(items)
        try:
            items.extend(sorted(remaining))
        except TypeError:
            items.extend(sorted(remaining, key=repr))

        self._items: tuple = tuple(items)
        self._item_index: dict = {item: i for i, item in enumerate(self._items)}

        if object_ids is not None:
            object_ids = list(object_ids)
            if len(object_ids) != len(rows):
                raise InvalidParameterError(
                    f"got {len(object_ids)} object ids for {len(rows)} transactions"
                )
            self._object_ids: tuple = tuple(object_ids)
        else:
            self._object_ids = tuple(range(len(rows)))

        n_rows, n_cols = len(rows), len(self._items)
        matrix = np.zeros((n_rows, n_cols), dtype=bool)
        for r, row in enumerate(rows):
            for item in row:
                matrix[r, self._item_index[item]] = True
        matrix.setflags(write=False)
        self._matrix = matrix

        self._row_itemsets: tuple[Itemset, ...] = tuple(Itemset(row) for row in rows)

        # The engine and the vertical tidsets are built lazily on first use.
        self._engine: "ClosureEngine | None" = None
        self._tidsets: tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    # Incremental extension
    # ------------------------------------------------------------------
    def extended(
        self,
        batch: Iterable[Iterable[Item]],
        object_ids: Sequence[Any] | None = None,
        name: str | None = None,
    ) -> "TransactionDatabase":
        """Return a new context with the *batch* transactions appended.

        The result shares this context's relation as its row prefix: the
        old items keep their column positions (items new to the universe
        are appended after them in canonical sorted order) and the old
        objects keep their row positions, so every packed per-item cover
        of the old context is a bit-prefix of the extended one.  An engine
        already instantiated on this context is carried over through
        :meth:`~repro.engine.ClosureEngine.extended`, which splices the
        appended rows into the warm packed views instead of rebuilding
        them.  This context itself is never mutated.

        Note the column-order difference from re-parsing: a context built
        fresh from the concatenated transactions sorts its whole universe,
        while an extended context keeps old-items-first.  Mined artifacts
        (families, generators, order core, bases) are independent of the
        column order, so oracle comparisons against a fresh mine still
        hold; only raw matrix layouts differ.

        Parameters
        ----------
        batch:
            Iterable of transactions to append; each is an iterable of
            items.  May be empty (the result is then an identical copy
            sharing this context's arrays).
        object_ids:
            Optional identifiers for the appended objects; defaults to
            ``n_objects .. n_objects + len(batch) - 1``.
        name:
            Name of the extended context; defaults to this context's name.
        """
        rows = [frozenset(t) for t in batch]
        new_items: set = set()
        for row in rows:
            new_items.update(row)
        new_items.difference_update(self._items)
        try:
            appended_items = sorted(new_items)
        except TypeError:
            appended_items = sorted(new_items, key=repr)

        clone = TransactionDatabase.__new__(TransactionDatabase)
        clone._name = name or self._name
        clone._items = self._items + tuple(appended_items)
        clone._item_index = {item: i for i, item in enumerate(clone._items)}

        if object_ids is not None:
            object_ids = list(object_ids)
            if len(object_ids) != len(rows):
                raise InvalidParameterError(
                    f"got {len(object_ids)} object ids for {len(rows)} "
                    "appended transactions"
                )
            clone._object_ids = self._object_ids + tuple(object_ids)
        else:
            clone._object_ids = self._object_ids + tuple(
                range(self.n_objects, self.n_objects + len(rows))
            )

        n_old, m_old = self._matrix.shape
        matrix = np.zeros((n_old + len(rows), len(clone._items)), dtype=bool)
        matrix[:n_old, :m_old] = self._matrix
        for r, row in enumerate(rows):
            for item in row:
                matrix[n_old + r, clone._item_index[item]] = True
        matrix.setflags(write=False)
        clone._matrix = matrix

        clone._row_itemsets = self._row_itemsets + tuple(
            Itemset(row) for row in rows
        )
        clone._engine = None if self._engine is None else self._engine.extended(clone)
        clone._tidsets = None
        return clone

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[Any, Item]],
        name: str | None = None,
    ) -> "TransactionDatabase":
        """Build a database from explicit ``(object, item)`` relation pairs.

        This mirrors the formal definition of ``R ⊆ O × I`` most closely
        and is convenient when loading relational exports.
        """
        grouped: dict[Any, set] = {}
        order: list[Any] = []
        for obj, item in pairs:
            if obj not in grouped:
                grouped[obj] = set()
                order.append(obj)
            grouped[obj].add(item)
        return cls(
            (grouped[obj] for obj in order),
            object_ids=order,
            name=name,
        )

    @classmethod
    def from_binary_matrix(
        cls,
        matrix: np.ndarray,
        items: Sequence[Item] | None = None,
        name: str | None = None,
    ) -> "TransactionDatabase":
        """Build a database from a dense 0/1 matrix (objects × items)."""
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise InvalidParameterError("binary matrix must be two-dimensional")
        if items is None:
            items = [f"i{c}" for c in range(matrix.shape[1])]
        if len(items) != matrix.shape[1]:
            raise InvalidParameterError(
                f"got {len(items)} item labels for {matrix.shape[1]} columns"
            )
        transactions = [
            [items[c] for c in np.flatnonzero(matrix[r])] for r in range(matrix.shape[0])
        ]
        return cls(transactions, item_order=items, name=name)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable dataset name (used in reports and benchmarks)."""
        return self._name

    @property
    def n_objects(self) -> int:
        """Number of objects (transactions) ``|O|``."""
        return len(self._row_itemsets)

    @property
    def n_items(self) -> int:
        """Number of items ``|I|`` in the universe."""
        return len(self._items)

    @property
    def items(self) -> tuple:
        """The item universe in canonical column order."""
        return self._items

    @property
    def object_ids(self) -> tuple:
        """Identifiers of the objects, aligned with row indices."""
        return self._object_ids

    @property
    def item_universe(self) -> Itemset:
        """The full item universe as an :class:`Itemset`."""
        return Itemset(self._items)

    @property
    def matrix(self) -> np.ndarray:
        """The dense boolean object × item matrix (read-only view).

        The array is write-locked; the engine builds its packed views from
        it without copying.  Use :meth:`to_binary_matrix` for a mutable
        copy.
        """
        return self._matrix

    # ------------------------------------------------------------------
    # Closure engine
    # ------------------------------------------------------------------
    def engine(self) -> "ClosureEngine":
        """Return the (lazily built, cached) closure engine of this context.

        One engine — and therefore one closure cache and one set of packed
        views — is kept per database, so repeated calls are cheap.
        """
        if self._engine is None:
            from ..engine import ClosureEngine

            self._engine = ClosureEngine(self)
        return self._engine

    def __len__(self) -> int:
        return self.n_objects

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self._row_itemsets)

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(name={self._name!r}, objects={self.n_objects}, "
            f"items={self.n_items})"
        )

    def transaction(self, index: int) -> Itemset:
        """Return the itemset of the object at row *index*."""
        return self._row_itemsets[index]

    def transactions(self) -> tuple[Itemset, ...]:
        """Return all transactions as a tuple of itemsets."""
        return self._row_itemsets

    def relation_pairs(self) -> Iterator[tuple[Any, Item]]:
        """Yield the relation ``R`` as explicit ``(object id, item)`` pairs."""
        for row, oid in zip(self._row_itemsets, self._object_ids):
            for item in row:
                yield (oid, item)

    # ------------------------------------------------------------------
    # Dataset statistics
    # ------------------------------------------------------------------
    @property
    def density(self) -> float:
        """Fraction of cells of the object × item matrix that are related."""
        if self.n_objects == 0 or self.n_items == 0:
            return 0.0
        return float(self._matrix.sum()) / (self.n_objects * self.n_items)

    @property
    def avg_transaction_size(self) -> float:
        """Mean number of items per object."""
        if self.n_objects == 0:
            return 0.0
        return float(self._matrix.sum()) / self.n_objects

    @property
    def max_transaction_size(self) -> int:
        """Largest number of items held by a single object."""
        if self.n_objects == 0:
            return 0
        return int(self._matrix.sum(axis=1).max())

    def item_support_counts(self) -> dict:
        """Return a mapping ``item -> absolute support`` for every item."""
        counts = self._matrix.sum(axis=0)
        return {item: int(counts[i]) for i, item in enumerate(self._items)}

    # ------------------------------------------------------------------
    # Galois connection primitives
    # ------------------------------------------------------------------
    def item_columns(self, items: Itemset | Iterable[Item]) -> list[int]:
        """Map *items* to matrix column indices, validating membership.

        The single home of the item-membership check; the engine routes
        its candidate encoding through it.
        """
        itemset = Itemset.coerce(items)
        cols = []
        for item in itemset:
            index = self._item_index.get(item)
            if index is None:
                raise InvalidItemsetError(
                    f"item {item!r} does not belong to the context {self._name!r}"
                )
            cols.append(index)
        return cols

    def cover_bits(self, items: Itemset | Iterable[Item]) -> int:
        """Return the cover of *items* as an integer bitset over objects.

        Bit ``t`` is set iff object ``t`` contains every item of *items*.
        The cover of the empty itemset is the whole object set.  ANDs the
        item tidsets of :meth:`vertical_bits`.
        """
        tidsets = self._item_tidsets()
        cover = (1 << self.n_objects) - 1
        for column in self.item_columns(items):
            cover &= tidsets[column]
        return cover

    def cover_mask(self, items: Itemset | Iterable[Item]) -> np.ndarray:
        """Return the cover of *items* as a boolean mask over object rows.

        Vectorised twin of :meth:`cover_bits`.
        """
        cols = self.item_columns(items)
        if not cols:
            return np.ones(self.n_objects, dtype=bool)
        if len(cols) == 1:
            return self._matrix[:, cols[0]].copy()
        return self._matrix[:, cols].all(axis=1)

    def cover(self, items: Itemset | Iterable[Item]) -> frozenset[int]:
        """Return ``g(items)``: the row indices of objects containing *items*."""
        return self.engine().extent(items)

    def common_items(self, objects: Iterable[int]) -> Itemset:
        """Return ``f(objects)``: the items shared by every listed object.

        By convention ``f(∅)`` is the full item universe (the top of the
        Galois connection), as in formal concept analysis.
        """
        rows = list(objects)
        if not rows:
            return self.item_universe
        mask = self._matrix[rows].all(axis=0)
        return Itemset(self._items[i] for i in np.flatnonzero(mask))

    def closure(self, items: Itemset | Iterable[Item]) -> Itemset:
        """Return ``h(items) = f(g(items))`` — the Galois closure of *items*.

        For an itemset contained in at least one object this is the maximal
        itemset shared by all objects containing it (the intersection of
        those objects).  For an itemset contained in no object the closure
        is the full item universe, the standard FCA convention.
        """
        return self.engine().closure(items)

    def closure_and_support(
        self, items: Itemset | Iterable[Item]
    ) -> tuple[Itemset, int]:
        """Return ``(h(items), support_count(items))`` with a single cover pass."""
        return self.engine().closure_and_support(items)

    def is_closed(self, items: Itemset | Iterable[Item]) -> bool:
        """Return ``True`` iff *items* equals its own closure."""
        itemset = Itemset.coerce(items)
        return self.closure(itemset) == itemset

    # ------------------------------------------------------------------
    # Batch operations (thin forwards to the default engine)
    # ------------------------------------------------------------------
    def closures(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[Itemset]:
        """Return ``h(X)`` for every candidate in one vectorised pass."""
        return self.engine().closures(itemsets)

    def supports(self, itemsets: Iterable[Itemset | Iterable[Item]]) -> list[int]:
        """Return the absolute support of every candidate in one pass."""
        return self.engine().supports(itemsets)

    def extents(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[frozenset[int]]:
        """Return ``g(X)`` for every candidate in one pass."""
        return self.engine().extents(itemsets)

    # ------------------------------------------------------------------
    # Support
    # ------------------------------------------------------------------
    def support_count(self, items: Itemset | Iterable[Item]) -> int:
        """Return the absolute support (number of covering objects)."""
        return self.engine().support_count(items)

    def support(self, items: Itemset | Iterable[Item]) -> float:
        """Return the relative support ``support_count / |O|``."""
        if self.n_objects == 0:
            raise EmptyDatabaseError("support is undefined on an empty database")
        return self.support_count(items) / self.n_objects

    def minsup_count(self, minsup: float) -> int:
        """Translate a relative *minsup* threshold into an absolute count.

        The returned count is the smallest integer ``c`` such that
        ``c / |O| >= minsup``; an itemset is frequent iff its absolute
        support is ``>= c``.  A relative threshold of ``0`` maps to count
        ``1`` so that "frequent" always means "occurs at least once".

        ``ceil(minsup * |O|)`` is only a first guess: the product rounds,
        so for 100 objects at minsup 0.07 it is 8 although 7 / 100 >= 0.07.
        The guess is corrected against the definition itself.
        """
        if not 0.0 <= minsup <= 1.0:
            raise InvalidParameterError(f"minsup must lie in [0, 1], got {minsup}")
        n_objects = self.n_objects
        if n_objects == 0:
            raise EmptyDatabaseError("minsup is undefined on an empty database")
        count = max(1, math.ceil(minsup * n_objects))
        while count > 1 and (count - 1) / n_objects >= minsup:
            count -= 1
        while count / n_objects < minsup:
            count += 1
        return count

    # ------------------------------------------------------------------
    # Vertical view & item pruning
    # ------------------------------------------------------------------
    def vertical(self) -> dict:
        """Return the vertical representation: ``item -> frozenset of tids``."""
        return {
            item: frozenset(np.flatnonzero(self._matrix[:, c]).tolist())
            for c, item in enumerate(self._items)
        }

    def vertical_bits(self) -> dict:
        """Return the vertical representation as ``item -> integer bitset``.

        Bit ``t`` of an item's tidset is set iff object ``t`` holds the
        item.  This is the search state of CHARM (intersection is one
        ``&``, support one ``int.bit_count``).
        """
        return dict(zip(self._items, self._item_tidsets()))

    def _item_tidsets(self) -> tuple[int, ...]:
        """Each matrix column as an integer bitset, packed once on first use."""
        if self._tidsets is None:
            packed = np.packbits(self._matrix.T, axis=1, bitorder="little")
            self._tidsets = tuple(
                int.from_bytes(row.tobytes(), "little") for row in packed
            )
        return self._tidsets

    def to_binary_matrix(self) -> np.ndarray:
        """Return a copy of the dense boolean object × item matrix."""
        return self._matrix.copy()

    def restrict_to_items(self, items: Itemset | Iterable[Item]) -> "TransactionDatabase":
        """Return a new database keeping only the given items.

        Objects are all kept (possibly becoming empty transactions) so that
        relative supports stay comparable with the original database.
        """
        keep = Itemset.coerce(items)
        unknown = keep.difference(self._items)
        if unknown:
            raise InvalidItemsetError(f"unknown items: {sorted(map(repr, unknown))}")
        keep_set = keep.as_frozenset()
        order = [item for item in self._items if item in keep_set]
        return TransactionDatabase(
            (row.intersection(keep_set).as_frozenset() for row in self._row_itemsets),
            item_order=order,
            object_ids=self._object_ids,
            name=self._name,
        )

    def restrict_to_frequent_items(self, minsup: float) -> "TransactionDatabase":
        """Return a new database keeping only items frequent at *minsup*.

        Pruning infrequent items never changes the frequent (closed)
        itemsets above the same threshold and is the standard first step of
        every level-wise miner.
        """
        threshold = self.minsup_count(minsup)
        counts = self.item_support_counts()
        frequent = [item for item in self._items if counts[item] >= threshold]
        return self.restrict_to_items(frequent)
