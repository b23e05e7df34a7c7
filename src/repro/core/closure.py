"""The Galois connection and its closure operator.

Section 2 of the paper defines, for a mining context ``D = (O, I, R)``:

* ``f(T)`` for ``T ⊆ O`` — the items common to all objects of ``T``;
* ``g(X)`` for ``X ⊆ I`` — the objects related to all items of ``X``;
* the closure operator ``h = f ∘ g`` which associates with ``X`` the
  maximal set of items common to all objects containing ``X``.

:class:`GaloisConnection` packages these three applications over a
:class:`~repro.data.context.TransactionDatabase` and adds the classical
derived notions: formal concepts, closed itemsets and the closure system.
The heavy lifting (cover computation, intersection of transactions) is
delegated to the closure engine of :mod:`repro.engine` through the
database, including batch variants that close or count many itemsets in
one vectorised pass.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..data.context import TransactionDatabase
from .itemset import Item, Itemset

__all__ = ["GaloisConnection"]


class GaloisConnection:
    """The Galois connection ``(f, g)`` of a mining context.

    Parameters
    ----------
    database:
        The transaction database (mining context) the connection is
        defined on.

    Notes
    -----
    ``h = f ∘ g`` is a *closure operator* on itemsets: it is extensive
    (``X ⊆ h(X)``), monotone (``X ⊆ Y ⇒ h(X) ⊆ h(Y)``) and idempotent
    (``h(h(X)) = h(X)``).  Dually, ``g ∘ f`` is a closure operator on
    object sets.  These properties are exercised by the property-based
    test-suite (`tests/test_closure_properties.py`).
    """

    def __init__(self, database: TransactionDatabase) -> None:
        self._db = database

    @property
    def database(self) -> TransactionDatabase:
        """The underlying mining context."""
        return self._db

    # ------------------------------------------------------------------
    # The two applications and the two closure operators
    # ------------------------------------------------------------------
    def itemset_extent(self, items: Itemset | Iterable[Item]) -> frozenset[int]:
        """``g(X)``: objects (row indices) related to every item of ``X``."""
        return self._db.cover(items)

    def objectset_intent(self, objects: Iterable[int]) -> Itemset:
        """``f(T)``: items related to every object of ``T``."""
        return self._db.common_items(objects)

    def itemset_closure(self, items: Itemset | Iterable[Item]) -> Itemset:
        """``h(X) = f(g(X))``: the Galois closure of an itemset."""
        return self._db.closure(items)

    def itemset_closures(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[Itemset]:
        """Batch ``h(X)`` over many itemsets in one engine pass."""
        return self._db.closures(itemsets)

    def itemset_supports(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[int]:
        """Batch ``|g(X)|`` over many itemsets in one engine pass."""
        return self._db.supports(itemsets)

    def itemset_extents(
        self, itemsets: Iterable[Itemset | Iterable[Item]]
    ) -> list[frozenset[int]]:
        """Batch ``g(X)`` over many itemsets in one engine pass."""
        return self._db.extents(itemsets)

    def objectset_closure(self, objects: Iterable[int]) -> frozenset[int]:
        """``g(f(T))``: the Galois closure of a set of objects."""
        return self._db.cover(self._db.common_items(objects))

    # Short aliases matching the paper's notation --------------------------------
    def f(self, objects: Iterable[int]) -> Itemset:
        """Alias of :meth:`objectset_intent` (the paper's ``f``)."""
        return self.objectset_intent(objects)

    def g(self, items: Itemset | Iterable[Item]) -> frozenset[int]:
        """Alias of :meth:`itemset_extent` (the paper's ``g``)."""
        return self.itemset_extent(items)

    def h(self, items: Itemset | Iterable[Item]) -> Itemset:
        """Alias of :meth:`itemset_closure` (the paper's ``h = f ∘ g``)."""
        return self.itemset_closure(items)

    # ------------------------------------------------------------------
    # Derived notions
    # ------------------------------------------------------------------
    def is_closed_itemset(self, items: Itemset | Iterable[Item]) -> bool:
        """Return ``True`` iff ``h(X) = X``."""
        itemset = Itemset.coerce(items)
        return self.itemset_closure(itemset) == itemset

    def support_count(self, items: Itemset | Iterable[Item]) -> int:
        """Absolute support of an itemset, ``|g(X)|``."""
        return self._db.support_count(items)

    def support(self, items: Itemset | Iterable[Item]) -> float:
        """Relative support of an itemset, ``|g(X)| / |O|``."""
        return self._db.support(items)

    def closed_itemsets(self) -> Iterator[Itemset]:
        """Yield every closed itemset of the context (no support threshold).

        The closed itemsets are exactly the intents of the formal concepts;
        they are enumerated by closing the intersection closure system of
        the transactions.  This exhaustive enumeration is intended for
        small contexts (tests, examples, lattice drawings); use the Close /
        A-Close / CHARM miners for frequent closed itemsets on real data.
        """
        # Every closed itemset with a non-empty cover is an intersection of a
        # non-empty family of transactions, and conversely; so the family of
        # closed sets is the transaction contents closed under intersection.
        distinct = set(self._db.transactions())
        closed: set[Itemset] = set(distinct)
        pending = list(closed)
        while pending:
            current = pending.pop()
            for row in distinct:
                candidate = current.intersection(row)
                if candidate not in closed:
                    closed.add(candidate)
                    pending.append(candidate)
        # The full item universe is closed by convention (closure of any
        # itemset with an empty cover), matching ``TransactionDatabase.closure``.
        closed.add(self._db.item_universe)
        yield from sorted(closed)

    def concept_count(self) -> int:
        """Number of formal concepts (closed itemsets) of the context."""
        return sum(1 for _ in self.closed_itemsets())
