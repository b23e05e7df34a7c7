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
surviving pairs, and the rules themselves are assembled as a columnar
:class:`~repro.core.rulearrays.RuleArrays` by gathering antecedent /
consequent mask rows straight from the lattice's packed member masks —
no per-rule Python object is built unless a caller iterates the rule
set.  The pre-columnar per-pair loop is kept as
:meth:`LuxenburgerBasis.iter_rules_reference`, the oracle the
equivalence tests and the rule-materialisation benchmark compare
against.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import InvalidParameterError
from .bitmatrix import BitMatrix
from .families import ClosedItemsetFamily
from .itemset import Itemset
from .lattice import IcebergLattice
from .parallel import get_executor
from .rulearrays import RuleArrays, relative_supports, resolve_block_rows
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
        that block size.  The streamed build is byte-identical to the
        kept one-shot path (:meth:`_build_arrays_materialized`).
    workers:
        Worker count for the sharded block assembly (and the lattice
        construction when the basis builds its own lattice); ``None``
        defers to the ``REPRO_NUM_WORKERS`` environment variable, else
        serial.  Blocks are consumed in submission order with bounded
        prefetch, so the built basis is byte-identical for any worker
        count and the streamed-memory bound still holds.
    """

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
        """Assemble the basis as columns, streamed in bounded row blocks.

        The surviving ``(smaller, larger)`` pairs are expanded in blocks
        of ``block_rows`` rules: each block gathers its antecedent rows
        from the lattice's packed member masks, AND-NOTs the larger
        members' masks into consequents, and is written straight into the
        preallocated output columns — beyond the finished columns only
        one block of mask temporaries is ever live.
        """
        lattice = self._lattice
        universe = lattice.item_universe
        rows, cols, confidences = lattice.confidence_window_pairs(
            self._minconf, reduced=self._reduced
        )
        block = resolve_block_rows(self._block_rows, lattice.member_masks().shape[1])
        executor = get_executor(self._workers)

        def assemble(start: int) -> RuleArrays:
            return self._array_block(rows, cols, confidences, start, block)

        # Ordered imap with bounded prefetch: workers assemble blocks
        # ahead of the consumer while from_blocks writes them in
        # submission order — byte-identical to the serial stream.
        return RuleArrays.from_blocks(
            executor.imap(assemble, range(0, len(rows), block)),
            universe,
            n_rows=len(rows),
        )

    def _array_block(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        confidences: np.ndarray,
        start: int,
        block_rows: int,
    ) -> RuleArrays:
        """One bounded row block of the basis columns.

        Reads only shared immutable inputs, so blocks can be assembled
        on any worker in any order; the consumer reassembles them by
        submission order.
        """
        lattice = self._lattice
        masks = lattice.member_masks()
        universe = lattice.item_universe
        counts = lattice.support_counts()
        n_objects = self._closed.n_objects
        sl = slice(start, start + block_rows)
        antecedents = masks[rows[sl]]
        consequents = masks[cols[sl]] & ~antecedents
        larger_counts = counts[cols[sl]]
        return RuleArrays(
            BitMatrix(antecedents, len(universe)),
            BitMatrix(consequents, len(universe)),
            universe,
            relative_supports(larger_counts, n_objects),
            confidences[sl].copy(),
            larger_counts,
        )

    def _build_arrays_materialized(self) -> RuleArrays:
        """The pre-streaming one-shot column assembly (oracle for tests).

        Gathers every antecedent/consequent row in one shot; kept so the
        equivalence tests can assert the streamed build byte-identical.
        """
        lattice = self._lattice
        rows, cols, confidences = lattice.confidence_window_pairs(
            self._minconf, reduced=self._reduced
        )
        masks = lattice.member_masks()
        universe = lattice.item_universe
        antecedents = masks[rows]
        consequents = masks[cols] & ~antecedents
        larger_counts = lattice.support_counts()[cols]
        return RuleArrays(
            BitMatrix(antecedents, len(universe)),
            BitMatrix(consequents, len(universe)),
            universe,
            relative_supports(larger_counts, self._closed.n_objects),
            confidences,
            larger_counts,
        )

    def iter_rules_reference(self) -> Iterator[AssociationRule]:
        """The pre-columnar per-rule object pipeline, kept as the oracle.

        Yields exactly the rules of :attr:`rules`, each materialised the
        old way (one :class:`AssociationRule` and two Itemset set
        operations per pair).  Used by the equivalence tests and as the
        baseline of the rule-materialisation microbenchmark.
        """
        lattice = self._lattice
        rows, cols, confidences = lattice.confidence_window_pairs(
            self._minconf, reduced=self._reduced
        )
        members = lattice.members
        supports = lattice.support_counts()
        n_objects = self._closed.n_objects
        for row, col, confidence in zip(rows, cols, confidences):
            smaller = members[row]
            larger = members[col]
            larger_count = int(supports[col])
            yield AssociationRule(
                antecedent=smaller,
                consequent=larger.difference(smaller),
                support=larger_count / n_objects if n_objects else 0.0,
                confidence=float(confidence),
                support_count=larger_count,
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
