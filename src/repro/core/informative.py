"""The generic and informative bases (minimal generator based) — extension.

The same research group followed the ICDE 2000 paper with bases whose
antecedents are *minimal generators* instead of pseudo-closed itemsets
(Bastide, Pasquier, Taouil, Stumme, Lakhal — "Mining minimal non-redundant
association rules using frequent closed itemsets", CL 2000).  They are
included here as a documented extension because they share all the
machinery (closed itemsets, generators, lattice) and provide a useful
ablation point: the generic basis is usually somewhat larger than the
Duquenne-Guigues basis (which is provably minimum) but every one of its
rules has a minimal antecedent and a maximal consequent, which users often
find more directly actionable.

* **Generic basis** (exact rules): ``G → h(G) \\ G`` for every frequent
  minimal generator ``G`` with ``G ≠ h(G)``; confidence 1, support
  ``supp(h(G))``.
* **Informative basis** (approximate rules): ``G → C \\ G`` for every
  frequent minimal generator ``G`` (with closure ``h(G)``) and every
  frequent closed itemset ``C ⊃ h(G)``; confidence
  ``supp(C)/supp(h(G))``, kept when at least ``minconf``.  The *reduced*
  variant restricts ``C`` to the immediate successors of ``h(G)`` in the
  iceberg lattice.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import InvalidParameterError
from .generators import GeneratorFamily
from .lattice import IcebergLattice
from .rulearrays import RowPairs, RuleArrays, used_universe
from .rules import AssociationRule, RuleSet

__all__ = ["GenericBasis", "InformativeBasis"]


class GenericBasis:
    """The generic basis for exact rules, built from minimal generators.

    Each rule is a row pair — a generator row and its closure's closed
    row — assembled into columns by
    :meth:`~repro.core.rulearrays.RuleArrays.from_row_pairs`; no
    per-rule Python object is built; :attr:`row_pairs` keeps the pairs.
    """

    row_pairs: RowPairs

    def __init__(self, generators: GeneratorFamily) -> None:
        self._generators = generators
        self._closed = generators.closed_family
        self._rules = RuleSet.from_arrays(self._build_arrays())

    def _build_arrays(self) -> RuleArrays:
        packed = self._generators.packed()
        closed = self._closed.packed()
        closure_rows = packed.closure_rows
        # A generator equal to its closure has an empty consequent — no
        # exact rule (the proper_generators_of condition).
        closures = closed.matrix.words[closure_rows]
        proper = np.any(packed.matrix.words != closures, axis=1)
        generator_rows = np.flatnonzero(proper)
        union_rows = closure_rows[proper]
        self.row_pairs = RowPairs(self._generators, generator_rows, self._closed, union_rows)
        return RuleArrays.from_row_pairs(
            packed,
            generator_rows,
            closed,
            union_rows,
            used_universe(closed, closure_rows),
            self._closed.n_objects,
        )

    @property
    def rules(self) -> RuleSet:
        """The generic-basis rules."""
        return self._rules

    @property
    def metadata(self) -> dict[str, object]:
        """Shape metadata for the reduction reports."""
        return {
            "closed_itemsets": len(self._closed),
            "generator_closures": len(self._generators),
        }

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[AssociationRule]:
        return iter(self._rules)

    def __repr__(self) -> str:
        return f"GenericBasis({len(self._rules)} rules)"


class InformativeBasis:
    """The informative basis for approximate rules, built from generators.

    Parameters
    ----------
    generators:
        Minimal generators grouped by their closures.
    minconf:
        Minimum confidence threshold.
    reduced:
        When ``True``, only pair each generator's closure with its
        immediate successors in the iceberg lattice (the reduced
        informative basis); when ``False``, with every larger closed set.
    lattice:
        Optional pre-built iceberg lattice of the generators' closed
        family, to share the lattice construction between bases.
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
        The rules as generator rows and closed rows
        (:class:`~repro.core.rulearrays.RowPairs`), in row order.
    """

    row_pairs: RowPairs

    def __init__(
        self,
        generators: GeneratorFamily,
        minconf: float,
        reduced: bool = True,
        lattice: IcebergLattice | None = None,
        block_rows: int | None = None,
        workers: int | None = None,
    ) -> None:
        if not 0.0 <= minconf <= 1.0:
            raise InvalidParameterError(f"minconf must lie in [0, 1], got {minconf}")
        self._generators = generators
        self._closed = generators.closed_family
        if lattice is not None and lattice.closed_family is not self._closed:
            raise InvalidParameterError(
                "the provided lattice was built from a different closed family"
            )
        self._minconf = minconf
        self._reduced = reduced
        self._block_rows = block_rows
        self._workers = workers
        self._lattice = (
            lattice
            if lattice is not None
            else IcebergLattice(self._closed, workers=workers)
        )
        # Rows are unique by construction: the antecedent is the generator
        # mask and the consequent union the antecedent reconstructs the
        # ancestor closure (generator <= closure(ancestor)), so distinct
        # (generator, ancestor) expansion pairs can never collide on the
        # (antecedent, consequent) key.  Skipping the dedup pass avoids an
        # O(rules) multiword key sort that dominates rule-dense builds;
        # the analytic-count and reference-oracle tests would catch any
        # emitter bug that started producing duplicates.
        self._rules = RuleSet.from_arrays(self._build_arrays(), assume_unique=True)

    def _build_arrays(self) -> RuleArrays:
        """Expand every (generator, closed pair) combination into row pairs.

        The confidence-window pairs come grouped by their smaller member
        (CSR); each generator walks its closure's contiguous pair slice,
        so the antecedent rows are generator rows and the union rows the
        larger members.  The columns are assembled in bounded row blocks.
        """
        lattice = self._lattice
        rows, cols, _ = lattice.confidence_window_pairs(
            self._minconf, reduced=self._reduced
        )
        row_counts = np.bincount(rows, minlength=len(lattice))
        offsets = np.concatenate(([0], np.cumsum(row_counts)))
        packed = self._generators.packed()
        repeats = row_counts[packed.closure_rows]
        generator_rows = np.repeat(np.arange(len(repeats)), repeats)
        # Per-rule position into the pair arrays: each generator walks its
        # closure's pair slice from the start.
        within = np.arange(len(generator_rows)) - np.repeat(
            np.cumsum(repeats) - repeats, repeats
        )
        targets = cols[np.repeat(offsets[packed.closure_rows], repeats) + within]
        self.row_pairs = RowPairs(
            self._generators, generator_rows, self._closed, targets
        )
        return RuleArrays.from_row_pairs(
            packed,
            generator_rows,
            self._closed.packed(),
            targets,
            lattice.item_universe,
            self._closed.n_objects,
            block_rows=self._block_rows,
            workers=self._workers,
        )

    @property
    def rules(self) -> RuleSet:
        """The informative-basis rules."""
        return self._rules

    @property
    def minconf(self) -> float:
        """Minimum confidence threshold used when building the basis."""
        return self._minconf

    @property
    def is_reduced(self) -> bool:
        """``True`` when restricted to lattice-adjacent closed pairs."""
        return self._reduced

    @property
    def lattice(self) -> IcebergLattice:
        """The iceberg lattice the basis pairs were read from."""
        return self._lattice

    @property
    def metadata(self) -> dict[str, object]:
        """Shape metadata for the reduction reports."""
        return {
            "reduced": self._reduced,
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
        return f"InformativeBasis({len(self._rules)} rules, {kind}, minconf={self._minconf})"
