"""The iceberg lattice of frequent closed itemsets.

The frequent closed itemsets ordered by set inclusion form a
join-semilattice (the top part — the "iceberg" — of the full Galois/
concept lattice of the context).  Its Hasse diagram is exactly the set of
edges used by the transitive reduction of the Luxenburger basis, and its
paths drive the derivation of approximate-rule confidences, so this
module is shared by :mod:`repro.core.luxenburger` and
:mod:`repro.core.derivation`.

Construction packs the closed family into uint64 item-masks and hands
them to the bit-packed :class:`~repro.core.order.OrderCore` (``n**2 / 8``
bytes, blocked containment and gather/OR-reduce transitive reduction),
which loads 50k+-node families.  Downstream consumers never touch the
underlying matrices: the basis constructions iterate the exposed
edge/confidence index arrays, and the neighbourhood queries go through
the accessors (:meth:`IcebergLattice.children_of`,
:meth:`IcebergLattice.parents_of`, :meth:`IcebergLattice.is_ancestor`, …).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import InvalidParameterError
from .constants import EPSILON
from .families import ClosedItemsetFamily
from .itemset import Itemset
from .order import OrderCore

__all__ = ["IcebergLattice"]


class IcebergLattice:
    """Hasse diagram of a family of frequent closed itemsets.

    Parameters
    ----------
    closed:
        The frequent closed itemsets with their supports.
    order_core:
        A prebuilt :class:`~repro.core.order.OrderCore` over the family's
        canonical member order.  When given, the (expensive) containment
        and transitive-reduction passes are skipped entirely — this is
        how :mod:`repro.store` rehydrates a persisted lattice.  The core
        must have been built for exactly this family's members in
        canonical order (``closed.itemsets()``); a node-count mismatch
        raises.
    workers:
        Worker count for the sharded construction kernels of the order
        core (``None`` = the ``REPRO_NUM_WORKERS`` environment variable,
        else serial; ``0`` = all cores).  The built lattice is
        byte-identical for any worker count; ignored when *order_core*
        is given.
    retain_containment:
        When ``False`` the order core drops the ``n**2 / 8``-byte
        containment words after extracting the Hasse edges and answers
        containment queries by mask probing — the memory-lean mode of
        query-only consumers such as ``repro serve``.

    Examples
    --------
    >>> from repro.core.families import ClosedItemsetFamily
    >>> family = ClosedItemsetFamily(
    ...     {Itemset("c"): 4, Itemset("ac"): 3, Itemset("be"): 4,
    ...      Itemset("bce"): 3, Itemset("abce"): 2},
    ...     n_objects=5, minsup_count=2)
    >>> lattice = IcebergLattice(family)
    >>> len(lattice.hasse_edges())
    5
    """

    def __init__(
        self,
        closed: ClosedItemsetFamily,
        order_core: OrderCore | None = None,
        workers: int | None = None,
        retain_containment: bool = True,
    ) -> None:
        self._closed = closed
        # The family's own packed rows (read-only, shared with the rule
        # emitters and the store): members, masks and supports.
        packed = closed.packed()
        members = packed.members
        self._members: list[Itemset] = members
        self._index: dict[Itemset, int] = {
            member: position for position, member in enumerate(members)
        }
        self._supports = packed.counts
        self._masks = packed.matrix.words
        self._universe: tuple = packed.universe
        if order_core is None:
            order_core = OrderCore(
                self._masks, workers=workers, retain_containment=retain_containment
            )
        elif order_core.n != len(members):
            raise InvalidParameterError(
                f"prebuilt order core covers {order_core.n} members, "
                f"family has {len(members)}"
            )
        self._core = order_core
        self._hasse_rows, self._hasse_cols = self._core.hasse_indices()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def closed_family(self) -> ClosedItemsetFamily:
        """The closed itemset family the lattice was built from."""
        return self._closed

    @property
    def order_core(self) -> OrderCore:
        """The underlying order core (what :mod:`repro.store` persists)."""
        return self._core

    @property
    def members(self) -> list[Itemset]:
        """The closed itemsets in canonical (size, lexicographic) order."""
        return list(self._members)

    def member_index(self, itemset: Itemset) -> int | None:
        """Position of *itemset* in :attr:`members`, or ``None`` if absent."""
        return self._index.get(itemset)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, itemset: object) -> bool:
        return isinstance(itemset, Itemset) and itemset in self._index

    def nodes(self) -> list[Itemset]:
        """Return the closed itemsets (lattice nodes) in canonical order."""
        return sorted(self._members)

    def support_count(self, itemset: Itemset) -> int:
        """Absolute support of a lattice node."""
        return int(self._supports[self._index[itemset]])

    # ------------------------------------------------------------------
    # Array views (consumed by the basis constructions)
    # ------------------------------------------------------------------
    def support_counts(self) -> np.ndarray:
        """Support counts aligned with :attr:`members` (read-only view)."""
        return self._supports

    @property
    def item_universe(self) -> tuple:
        """The item universe of the member masks, in canonical bit order."""
        return self._universe

    def hasse_edge_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Hasse edges as ``(smaller, larger)`` index arrays into members."""
        return self._hasse_rows, self._hasse_cols

    def containment_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Every comparable pair as index arrays (the full, non-reduced order)."""
        return self._core.containment_indices()

    def edge_confidences(self, full: bool = False) -> np.ndarray:
        """Confidence ``supp(larger)/supp(smaller)`` per edge (or per pair).

        Aligned with :meth:`hasse_edge_indices` (``full=False``) or
        :meth:`containment_indices` (``full=True``).
        """
        rows, cols = (
            self.containment_indices() if full else self.hasse_edge_indices()
        )
        smaller = self._supports[rows].astype(np.float64)
        larger = self._supports[cols].astype(np.float64)
        return np.divide(
            larger, smaller, out=np.zeros_like(larger), where=smaller != 0
        )

    def confidence_window_pairs(
        self, minconf: float, reduced: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed-set pairs whose confidence lies in ``[minconf, 1)``.

        The pair selection shared by the approximate-rule bases
        (Luxenburger and informative): Hasse edges when *reduced*, every
        comparable pair otherwise, with ``supp(larger)/supp(smaller)``
        computed in one safe vectorised divide and thresholded with the
        library-wide :data:`~repro.core.constants.EPSILON` semantics
        (confidence 1 between distinct closed sets would mean the
        smaller one is not closed; guarded for malformed input).

        Returns ``(rows, cols, confidences)`` index arrays into
        :attr:`members`, row-major (``rows`` non-decreasing) — the order
        the CSR expansion of the informative basis relies on.
        """
        if reduced:
            rows, cols = self.hasse_edge_indices()
        else:
            rows, cols = self.containment_indices()
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        smaller = self._supports[rows].astype(np.float64)
        larger = self._supports[cols].astype(np.float64)
        confidences = np.divide(
            larger, smaller, out=np.zeros_like(larger), where=smaller != 0
        )
        keep = (confidences >= minconf - EPSILON) & (confidences < 1.0 - EPSILON)
        return rows[keep], cols[keep], confidences[keep]

    def confidence_between(self, smaller: Itemset, larger: Itemset) -> float | None:
        """Confidence ``supp(larger)/supp(smaller)`` for comparable nodes.

        Equals the product of the edge confidences along any Hasse path
        from *smaller* to *larger* (the products telescope), so this is
        the array-backed replacement for a path walk.  Returns ``None``
        when either node is missing or the two are not comparable.
        """
        row = self._index.get(smaller)
        col = self._index.get(larger)
        if row is None or col is None:
            return None
        if row == col:
            return 1.0
        if not self._core.is_ancestor(row, col):
            return None
        denominator = int(self._supports[row])
        return int(self._supports[col]) / denominator if denominator else 0.0

    # ------------------------------------------------------------------
    # Order structure
    # ------------------------------------------------------------------
    def is_ancestor(self, smaller: Itemset, larger: Itemset) -> bool:
        """``True`` iff both are nodes and ``smaller ⊂ larger`` (strictly).

        "Ancestor" follows the edge direction of the Hasse diagram
        (smaller → larger): the ancestors of a node are the closed sets
        strictly below it in the containment order.
        """
        row = self._index.get(smaller)
        col = self._index.get(larger)
        if row is None or col is None or row == col:
            return False
        return self._core.is_ancestor(row, col)

    def hasse_edges(self) -> list[tuple[Itemset, Itemset]]:
        """Return the Hasse edges as ``(smaller, larger)`` pairs, sorted."""
        return sorted(
            (self._members[row], self._members[col])
            for row, col in zip(self._hasse_rows, self._hasse_cols)
        )

    def comparable_pairs(self) -> Iterator[tuple[Itemset, Itemset]]:
        """Yield every pair ``(smaller, larger)`` with ``smaller ⊂ larger``.

        This is the edge set of the *full* (non-reduced) Luxenburger basis.
        """
        for row, col in zip(*self.containment_indices()):
            yield (self._members[row], self._members[col])

    def proper_supersets(self, itemset: Itemset) -> list[Itemset]:
        """Every member strictly containing *itemset* (full-order row), sorted."""
        row = self._index[itemset]
        return sorted(self._members[col] for col in self._core.order_row(row))

    def children_of(self, itemset: Itemset) -> list[Itemset]:
        """Closed supersets of *itemset* with no closed set strictly in between.

        One Hasse step along the edge direction (smaller → larger).
        """
        row = self._index[itemset]
        return sorted(self._members[col] for col in self._core.successors(row))

    def parents_of(self, itemset: Itemset) -> list[Itemset]:
        """Closed subsets of *itemset* with no closed set strictly in between.

        One Hasse step against the edge direction (larger → smaller).
        """
        col = self._index[itemset]
        return sorted(self._members[row] for row in self._core.predecessors(col))

    def immediate_successors(self, itemset: Itemset) -> list[Itemset]:
        """Alias of :meth:`children_of` (the older accessor name)."""
        return self.children_of(itemset)

    def immediate_predecessors(self, itemset: Itemset) -> list[Itemset]:
        """Alias of :meth:`parents_of` (the older accessor name)."""
        return self.parents_of(itemset)

    def minimal_elements(self) -> list[Itemset]:
        """Nodes with no predecessor (usually the single closure of ∅)."""
        if not self._members:
            return []
        in_degree = self._core.in_degrees()
        return sorted(
            self._members[position] for position in np.nonzero(in_degree == 0)[0]
        )

    def maximal_elements(self) -> list[Itemset]:
        """Nodes with no successor (the maximal frequent closed itemsets)."""
        if not self._members:
            return []
        out_degree = self._core.out_degrees()
        return sorted(
            self._members[position] for position in np.nonzero(out_degree == 0)[0]
        )

    def path_between(
        self, smaller: Itemset, larger: Itemset
    ) -> list[Itemset] | None:
        """Return one Hasse path from *smaller* to *larger*, or ``None``.

        A path exists iff ``smaller ⊆ larger`` and both are lattice nodes;
        any path gives the same confidence product, so the greedy walk
        (always step to the first immediate successor still below
        *larger*) is as good as any other.
        """
        start = self._index.get(smaller)
        goal = self._index.get(larger)
        if start is None or goal is None:
            return None
        if start == goal:
            return [smaller]
        if not self._core.is_ancestor(start, goal):
            return None
        path = [smaller]
        current = start
        while current != goal:
            # In a containment order every node strictly below `goal` has
            # an immediate successor that is still <= goal, so the walk
            # always terminates in at most `height` steps.
            for successor in self._core.successors(current):
                successor = int(successor)
                if successor == goal or self._core.is_ancestor(successor, goal):
                    current = successor
                    break
            else:  # pragma: no cover - impossible for a well-formed order
                return None
            path.append(self._members[current])
        return path

    # ------------------------------------------------------------------
    # Shape statistics (used by reports and examples)
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Length (in edges) of the longest chain of the lattice.

        Members are in canonical order, so every Hasse edge runs from a
        lower index to a higher one and one pass over the row-major edges
        sees each node's depth final before extending it.
        """
        depth = [0] * len(self._members)
        for row, col in zip(self._hasse_rows.tolist(), self._hasse_cols.tolist()):
            depth[col] = max(depth[col], depth[row] + 1)
        return max(depth, default=0)

    def width_by_size(self) -> dict[int, int]:
        """Number of closed itemsets per cardinality (a coarse width profile)."""
        profile: dict[int, int] = {}
        for member in self._members:
            profile[len(member)] = profile.get(len(member), 0) + 1
        return dict(sorted(profile.items()))

    def edge_count(self) -> int:
        """Number of Hasse edges (the size of the reduced Luxenburger skeleton)."""
        return int(len(self._hasse_rows))
