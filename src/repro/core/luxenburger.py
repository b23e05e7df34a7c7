"""The Luxenburger basis for approximate association rules (Theorem 2).

Luxenburger (1991) studied *partial implications* between closed sets of a
context.  Adapted to frequent itemsets, the paper's Theorem 2 states that
the set of rules

    ``C1 → C2 \\ C1``   for frequent closed itemsets ``C1 ⊂ C2``,

with support ``supp(C2)`` and confidence ``supp(C2) / supp(C1)``, is a
basis for all approximate (confidence < 1) association rules.  Moreover
its *transitive reduction* — keeping only the pairs ``C1 ⊂ C2`` with no
frequent closed itemset strictly in between, i.e. the Hasse edges of the
iceberg lattice — is still a basis, because the confidence of any
closed-set pair is the product of the edge confidences along a path.

This module builds both variants directly from the lattice's precomputed
edge and confidence arrays: one vectorised threshold pass selects the
surviving ``(C1, C2)`` pairs of closed rows, and
:meth:`~repro.core.rulearrays.RuleArrays.from_row_pairs` assembles them
into columns — no per-rule Python object is built unless a caller
iterates the rule set.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..errors import InvalidParameterError
from .families import ClosedItemsetFamily
from .itemset import Itemset
from .lattice import IcebergLattice
from .rulearrays import RowPairs, RuleArrays
from .rules import AssociationRule, RuleSet

__all__ = ["LuxenburgerBasis", "build_luxenburger_basis"]


class LuxenburgerBasis:
    """The Luxenburger basis (full or transitively reduced) of a context.

    Parameters
    ----------
    closed:
        The frequent closed itemset family.
    minconf:
        Minimum confidence threshold; only rules at or above it are kept.
        (Rules below the threshold carry no information for the target
        rule set: any derivable rule with confidence ``≥ minconf`` only
        traverses edges with confidence ``≥ minconf``, since every edge
        confidence on a path is at least the product.)
    transitive_reduction:
        When ``True`` (the reduced basis of Theorem 2), keep only the Hasse
        edges of the iceberg lattice; when ``False``, keep every comparable
        pair of closed itemsets.
    lattice:
        Optional pre-built iceberg lattice of *closed*; pass one to share
        the (vectorised, but not free) lattice construction between the
        bases built from the same closed family.
    block_rows:
        Row-block size of the streamed column assembly.  ``None`` (the
        default) sizes the blocks from the shared working-set budget so
        peak *mask* memory beyond the finished columns stays constant
        however many rules the basis holds; any positive integer forces
        that block size.  The built basis is byte-identical for any size.
    workers:
        Worker count for the sharded block assembly (and the lattice
        construction when the basis builds its own lattice); ``None``
        defers to the ``REPRO_NUM_WORKERS`` environment variable, else
        serial.  Blocks are consumed in submission order with bounded
        prefetch, so the built basis is byte-identical for any worker
        count and the streamed-memory bound still holds.

    Attributes
    ----------
    row_pairs:
        The rules as ``(C1, C2)`` closed rows
        (:class:`~repro.core.rulearrays.RowPairs`), in row order.
    """

    row_pairs: RowPairs

    def __init__(
        self,
        closed: ClosedItemsetFamily,
        minconf: float,
        transitive_reduction: bool = True,
        lattice: IcebergLattice | None = None,
        block_rows: int | None = None,
        workers: int | None = None,
    ) -> None:
        if not 0.0 <= minconf <= 1.0:
            raise InvalidParameterError(f"minconf must lie in [0, 1], got {minconf}")
        if lattice is not None and lattice.closed_family is not closed:
            raise InvalidParameterError(
                "the provided lattice was built from a different closed family"
            )
        self._closed = closed
        self._minconf = minconf
        self._reduced = transitive_reduction
        self._block_rows = block_rows
        self._workers = workers
        self._lattice = (
            lattice
            if lattice is not None
            else IcebergLattice(closed, workers=workers)
        )
        # Rows are unique by construction: the antecedent is a closed
        # member's mask and the consequent union the antecedent is the
        # ancestor closure, so distinct (member, ancestor) order pairs
        # can never collide on the (antecedent, consequent) key.  See the
        # matching note in InformativeBasis.__init__.
        self._rules = RuleSet.from_arrays(self._build_arrays(), assume_unique=True)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_arrays(self) -> RuleArrays:
        """Assemble the surviving ``(smaller, larger)`` pairs, streamed in blocks."""
        rows, cols, _ = self._lattice.confidence_window_pairs(
            self._minconf, reduced=self._reduced
        )
        self.row_pairs = RowPairs(self._closed, rows, self._closed, cols)
        packed = self._closed.packed()
        return RuleArrays.from_row_pairs(
            packed,
            rows,
            packed,
            cols,
            self._lattice.item_universe,
            self._closed.n_objects,
            block_rows=self._block_rows,
            workers=self._workers,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def closed_family(self) -> ClosedItemsetFamily:
        """The frequent closed itemset family the basis was built from."""
        return self._closed

    @property
    def lattice(self) -> IcebergLattice:
        """The iceberg lattice of the closed family (shared with derivation)."""
        return self._lattice

    @property
    def minconf(self) -> float:
        """Minimum confidence threshold applied to the basis rules."""
        return self._minconf

    @property
    def is_transitive_reduction(self) -> bool:
        """``True`` when only Hasse edges are kept (the reduced basis)."""
        return self._reduced

    @property
    def rules(self) -> RuleSet:
        """The basis rules as a :class:`~repro.core.rules.RuleSet`."""
        return self._rules

    @property
    def metadata(self) -> dict[str, object]:
        """Shape metadata for the reduction reports."""
        return {
            "transitive_reduction": self._reduced,
            "minconf": self._minconf,
            "lattice_nodes": len(self._lattice),
            "lattice_edges": self._lattice.edge_count(),
        }

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[AssociationRule]:
        return iter(self._rules)

    def __repr__(self) -> str:
        kind = "reduced" if self._reduced else "full"
        return (
            f"LuxenburgerBasis({len(self._rules)} rules, {kind}, "
            f"minconf={self._minconf})"
        )

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def edge_confidence(self, smaller: Itemset, larger: Itemset) -> float | None:
        """Confidence of the basis rule between two closed itemsets, if present."""
        rule = self._rules.get(smaller, larger.difference(smaller))
        return None if rule is None else rule.confidence

    def path_confidence(self, smaller: Itemset, larger: Itemset) -> float | None:
        """Confidence between two comparable closed itemsets via the lattice.

        For the reduced basis the confidence of ``smaller → larger`` is the
        product of the edge confidences along *any* path from ``smaller``
        to ``larger`` in the Hasse diagram; all paths give the same
        product, namely ``supp(larger) / supp(smaller)``, which the
        lattice's containment arrays answer directly without walking a
        path.  Returns ``None`` when the two itemsets are not comparable
        in the lattice.
        """
        smaller = Itemset.coerce(smaller)
        larger = Itemset.coerce(larger)
        return self._lattice.confidence_between(smaller, larger)


def build_luxenburger_basis(
    closed: ClosedItemsetFamily,
    minconf: float,
    transitive_reduction: bool = True,
    lattice: IcebergLattice | None = None,
    block_rows: int | None = None,
    workers: int | None = None,
) -> LuxenburgerBasis:
    """Build the Luxenburger basis (reduced by default) of a closed family."""
    return LuxenburgerBasis(
        closed,
        minconf=minconf,
        transitive_reduction=transitive_reduction,
        lattice=lattice,
        block_rows=block_rows,
        workers=workers,
    )
