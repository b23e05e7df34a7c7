"""Families of (closed) frequent itemsets with their supports.

The mining algorithms of :mod:`repro.algorithms` all return one of the two
collection types defined here:

* :class:`ItemsetFamily` — a set of frequent itemsets together with their
  absolute supports (what Apriori produces);
* :class:`ClosedItemsetFamily` — the same, restricted to *closed* itemsets
  (what Close, A-Close and CHARM produce).

A :class:`ClosedItemsetFamily` is the "minimal non-redundant generating
set" of the paper: the support of *any* frequent itemset can be recovered
from it as the support of the smallest closed itemset containing it
(:meth:`ClosedItemsetFamily.inferred_support_count`).  That recovery rule
is the keystone of the whole bases construction and is verified by the
property-based tests.
"""

from __future__ import annotations

import operator
import threading
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping
from typing import NamedTuple

import numpy as np

from ..errors import InvalidParameterError
from .bitmatrix import BitMatrix
from .itemset import Item, Itemset

__all__ = ["ItemsetFamily", "ClosedItemsetFamily", "PackedFamily"]


class PackedFamily(NamedTuple):
    """An itemset family as packed mask rows (see :meth:`ItemsetFamily.packed`)."""

    #: The members in canonical (size, lexicographic) order.
    members: list[Itemset]
    #: Items of the members in canonical bit order.
    universe: tuple[Item, ...]
    #: One read-only mask row per member, over :attr:`universe`.
    matrix: BitMatrix
    #: Read-only int64 absolute supports aligned with :attr:`members`.
    counts: np.ndarray

    def rows_of(self, itemsets: Iterable[Itemset]) -> np.ndarray:
        """The row of each itemset in :attr:`members`, ``-1`` where absent.

        Bisects the canonical member order, so a lookup costs
        ``O(log n)`` itemset comparisons and no index is built.
        """
        members = self.members
        rows = []
        for itemset in itemsets:
            row = bisect_left(members, itemset)
            rows.append(row if row < len(members) and members[row] == itemset else -1)
        return np.array(rows, dtype=np.int64)


class ItemsetFamily:
    """A finite family of itemsets with absolute support counts.

    Parameters
    ----------
    supports:
        Mapping from itemset to absolute support (number of objects).
    n_objects:
        Total number of objects in the originating database; needed to
        convert absolute counts into relative supports.
    minsup_count:
        The absolute support threshold that was used to mine the family.
        Stored for provenance and used by reports.
    """

    def __init__(
        self,
        supports: Mapping[Itemset, int] | Iterable[tuple[Itemset, int]],
        n_objects: int,
        minsup_count: int = 1,
    ) -> None:
        if n_objects < 0:
            raise InvalidParameterError("n_objects cannot be negative")
        if minsup_count < 1:
            raise InvalidParameterError("minsup_count must be at least 1")
        items = supports.items() if isinstance(supports, Mapping) else supports
        self._supports: dict[Itemset, int] = {}
        for itemset, count in items:
            itemset = Itemset.coerce(itemset)
            count = int(count)
            if count < 0 or count > n_objects:
                raise InvalidParameterError(
                    f"support count {count} of {itemset} outside [0, {n_objects}]"
                )
            self._supports[itemset] = count
        self._n_objects = n_objects
        self._minsup_count = minsup_count

    #: Lazily built packed form (see :meth:`packed`).
    _packed: PackedFamily | None = None

    @classmethod
    def from_packed(
        cls, packed: PackedFamily, n_objects: int, minsup_count: int = 1
    ) -> "ItemsetFamily":
        """A family rebuilt from packed rows (as a store holds it).

        The rows become the family's :meth:`packed` form, with no sort
        and no re-packing, when they are what :meth:`packed` would
        build: members strictly increasing in canonical order, over a
        sorted universe whose every item is used.  Other rows still give
        the family; it then packs itself on first use.
        """
        from .rulearrays import sorted_universe, used_universe

        members = packed.members
        family = cls(
            zip(members, packed.counts.tolist()),
            n_objects=n_objects,
            minsup_count=minsup_count,
        )
        if (
            len(family) == len(members)
            and all(map(operator.lt, members, members[1:]))
            and packed.universe == sorted_universe(packed.universe)
            and used_universe(packed, np.arange(len(members))) == packed.universe
        ):
            packed.matrix.words.setflags(write=False)
            packed.counts.setflags(write=False)
            family._packed = packed
        return family

    #: Guards the lazy packing, like ``ClosedItemsetFamily._closure_index_lock``.
    _packed_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        """Number of objects of the originating database."""
        return self._n_objects

    @property
    def minsup_count(self) -> int:
        """Absolute support threshold used for mining."""
        return self._minsup_count

    @property
    def minsup(self) -> float:
        """Relative support threshold used for mining."""
        if self._n_objects == 0:
            return 0.0
        return self._minsup_count / self._n_objects

    def __len__(self) -> int:
        return len(self._supports)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self._supports)

    def __contains__(self, itemset: object) -> bool:
        if isinstance(itemset, Itemset):
            return itemset in self._supports
        if isinstance(itemset, (frozenset, set, tuple, list)):
            return Itemset(itemset) in self._supports
        return False

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._supports)} itemsets, "
            f"n_objects={self._n_objects}, minsup_count={self._minsup_count})"
        )

    def itemsets(self) -> list[Itemset]:
        """Return the itemsets sorted in the canonical (size, lexicographic) order."""
        if self._packed is not None:
            return list(self._packed.members)
        return sorted(self._supports)

    def items_with_supports(self) -> Iterator[tuple[Itemset, int]]:
        """Yield ``(itemset, absolute support)`` pairs in canonical order."""
        for itemset in self.itemsets():
            yield itemset, self._supports[itemset]

    def to_dict(self) -> dict[Itemset, int]:
        """Return a copy of the underlying ``itemset -> count`` mapping."""
        return dict(self._supports)

    def packed(self) -> PackedFamily:
        """The members packed once, in canonical order, over their own items.

        Built on first use and cached (families are immutable after
        construction); the all-rules emitter and the artifact store both
        read it, so a mined family is sorted and packed exactly once.
        """
        if self._packed is None:
            with self._packed_lock:
                if self._packed is not None:
                    return self._packed
                from .rulearrays import pack_itemsets_into, sorted_universe

                members = self.itemsets()
                universe = sorted_universe(item for member in members for item in member)
                matrix = pack_itemsets_into(members, universe)
                counts = np.array(
                    [self._supports[member] for member in members], dtype=np.int64
                )
                matrix.words.setflags(write=False)
                counts.setflags(write=False)
                self._packed = PackedFamily(members, universe, matrix, counts)
        return self._packed

    # ------------------------------------------------------------------
    # Support queries
    # ------------------------------------------------------------------
    def support_count(self, itemset: Itemset | Iterable[Item]) -> int:
        """Absolute support of a member itemset; raises ``KeyError`` if absent."""
        return self._supports[Itemset.coerce(itemset)]

    def support(self, itemset: Itemset | Iterable[Item]) -> float:
        """Relative support of a member itemset."""
        if self._n_objects == 0:
            return 0.0
        return self.support_count(itemset) / self._n_objects

    def get(self, itemset: Itemset | Iterable[Item], default: int | None = None):
        """Absolute support of *itemset*, or *default* when absent."""
        return self._supports.get(Itemset.coerce(itemset), default)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def by_size(self) -> dict[int, list[Itemset]]:
        """Group the itemsets by cardinality (used by level-wise reports)."""
        grouped: dict[int, list[Itemset]] = {}
        for itemset in self.itemsets():
            grouped.setdefault(len(itemset), []).append(itemset)
        return grouped

    def max_size(self) -> int:
        """Cardinality of the largest itemset in the family (0 when empty)."""
        return max((len(itemset) for itemset in self._supports), default=0)

    def maximal_itemsets(self) -> list[Itemset]:
        """Return the itemsets that have no proper superset in the family."""
        ordered = sorted(self._supports, key=len, reverse=True)
        maximal: list[Itemset] = []
        for itemset in ordered:
            if not any(itemset.is_proper_subset(m) for m in maximal):
                maximal.append(itemset)
        return sorted(maximal)

    def restricted_to_max_size(self, size: int) -> "ItemsetFamily":
        """Return a copy keeping only itemsets of cardinality ``<= size``."""
        return type(self)(
            {i: c for i, c in self._supports.items() if len(i) <= size},
            n_objects=self._n_objects,
            minsup_count=self._minsup_count,
        )

    def same_contents(self, other: "ItemsetFamily") -> bool:
        """Return ``True`` iff both families hold the same itemsets and counts."""
        return (
            self._n_objects == other._n_objects
            and self.to_dict() == other.to_dict()
        )


class ClosedItemsetFamily(ItemsetFamily):
    """A family of frequent *closed* itemsets with their supports.

    Beyond the plain family interface this class implements the inference
    machinery of the paper: the closure of any frequent itemset is the
    smallest member containing it, and its support is the support of that
    member.
    """

    #: Lazily built closure-lookup index (see :meth:`_closure_lookup`).
    _closure_index: tuple | None = None

    #: Guards the lazy index build: the threaded serve daemon and the
    #: parallel closure path may fire concurrent first lookups at the
    #: same family.  Class-wide (the build is cheap and idempotent), so
    #: no per-instance mutable state is needed before first use.
    _closure_index_lock = threading.Lock()

    def _closure_lookup(self) -> tuple:
        """``(sizes, item_position)`` over the :meth:`packed` rows.

        The packed members are in canonical order, which is size-major, so
        each cardinality is one contiguous run of rows; ``sizes`` is their
        row popcounts and ``item_position`` maps each universe item to its
        bit.  Built once on first use (families are immutable after
        construction), under :data:`_closure_index_lock`, so a
        :meth:`closure_of` query only packs its target.
        """
        if self._closure_index is None:
            packed = self.packed()
            with self._closure_index_lock:
                if self._closure_index is None:
                    self._closure_index = (
                        packed.matrix.row_counts(),
                        {item: bit for bit, item in enumerate(packed.universe)},
                    )
        return self._closure_index

    def closure_of(self, itemset: Itemset | Iterable[Item]) -> Itemset | None:
        """Return the smallest closed itemset of the family containing *itemset*.

        Returns ``None`` when no member contains *itemset* (then *itemset*
        is not frequent at the family's threshold).  When several members
        contain *itemset*, the smallest one is unique because closed sets
        are stable under intersection; we nevertheless resolve ties by
        minimal support, then canonical order, to stay robust if the
        family was built with a non-closed member injected by hand.

        Lookups test the packed rows one size bucket at a time with a
        vectorised masked compare: buckets of cardinality below the target
        are never touched, and the first bucket with a containing member
        answers.
        """
        target = Itemset.coerce(itemset)
        if not self._supports:
            return None
        packed = self.packed()
        sizes, item_position = self._closure_lookup()
        if any(item not in item_position for item in target):
            return None  # some item appears in no member at all
        from .rulearrays import pack_itemset_words

        words = pack_itemset_words(target, item_position, packed.matrix.n_words)
        start = int(np.searchsorted(sizes, len(target), side="left"))
        n = len(sizes)
        while start < n:
            stop = int(np.searchsorted(sizes, sizes[start], side="right"))
            block = packed.matrix.words[start:stop]
            hits = np.nonzero(np.all((block & words) == words, axis=1))[0]
            if hits.size:
                best = hits[np.argmin(packed.counts[start:stop][hits])]
                return packed.members[start + int(best)]
            start = stop
        return None

    def bottom_closure(self) -> Itemset:
        """Return ``h(∅)``, the unique minimal closed itemset of the context.

        ``h(∅)`` is the set of items present in *every* object.  The mining
        algorithms never list it explicitly unless it is the closure of some
        single item, but it is recoverable from the family alone: an item
        belongs to ``h(∅)`` iff its (inferred) support equals the number of
        objects.  The Duquenne-Guigues construction needs this value to
        decide whether the empty itemset is pseudo-closed.
        """
        universe: set = set()
        for member in self._supports:
            universe.update(member.as_frozenset())
        bottom_items = [
            item
            for item in universe
            if self.inferred_support_count(Itemset.of(item)) == self._n_objects
        ]
        return Itemset(bottom_items)

    def inferred_support_count(self, itemset: Itemset | Iterable[Item]) -> int | None:
        """Support of an arbitrary frequent itemset, inferred from the family.

        ``support(X) = support(h(X))`` and ``h(X)`` is the smallest closed
        superset of ``X``; so the inferred support is the support of
        :meth:`closure_of`.  Returns ``None`` for itemsets not covered by
        the family (i.e. infrequent ones).
        """
        closure = self.closure_of(itemset)
        if closure is None:
            return None
        return self._supports[closure]

    def inferred_support(self, itemset: Itemset | Iterable[Item]) -> float | None:
        """Relative version of :meth:`inferred_support_count`."""
        count = self.inferred_support_count(itemset)
        if count is None:
            return None
        if self._n_objects == 0:
            return 0.0
        return count / self._n_objects

    def is_member_closed_in_family(self, itemset: Itemset | Iterable[Item]) -> bool:
        """Check that a member is minimal among members containing it.

        Used by validation code: in a well-formed closed family every
        member is its own ``closure_of``.
        """
        target = Itemset.coerce(itemset)
        if target not in self._supports:
            return False
        return self.closure_of(target) == target

    def frequent_supersets(self, itemset: Itemset | Iterable[Item]) -> list[Itemset]:
        """Return every member that is a proper superset of *itemset*."""
        target = Itemset.coerce(itemset)
        return sorted(
            member
            for member in self._supports
            if target.is_proper_subset(member)
        )

    def expand_to_frequent_itemsets(self) -> ItemsetFamily:
        """Materialise every frequent itemset (with support) from the closed family.

        Every frequent itemset is a subset of at least one frequent closed
        itemset, and its support is inferred by the smallest-closed-superset
        rule.  This expansion demonstrates the "generating set" property of
        Definition 1 and serves as an oracle in tests; it is exponential in
        the size of the largest closed itemset, so it is only meant for
        small or strongly-thresholded families.
        """
        supports: dict[Itemset, int] = {}
        for member in sorted(self._supports, key=len):
            count = self._supports[member]
            for size in range(len(member) + 1):
                for subset in member.subsets_of_size(size):
                    existing = supports.get(subset)
                    if existing is None or count > existing:
                        supports[subset] = count
        # The empty itemset is technically frequent (support |O|) but the
        # frequent-itemset families produced by Apriori never include it;
        # drop it for comparability.
        supports.pop(Itemset.empty(), None)
        return ItemsetFamily(
            supports, n_objects=self._n_objects, minsup_count=self._minsup_count
        )
