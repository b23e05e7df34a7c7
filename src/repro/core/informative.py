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
from .bitmatrix import BitMatrix
from .constants import EPSILON
from .generators import GeneratorFamily
from .lattice import IcebergLattice
from .parallel import get_executor
from .rulearrays import (
    RuleArrays,
    pack_itemsets_into,
    relative_supports,
    resolve_block_rows,
)
from .rules import AssociationRule, RuleSet

__all__ = ["GenericBasis", "InformativeBasis"]


class GenericBasis:
    """The generic basis for exact rules, built from minimal generators.

    The rules are assembled as a columnar
    :class:`~repro.core.rulearrays.RuleArrays`: one packed-mask gather
    per column instead of one Python object per rule.  The pre-columnar
    loop survives as :meth:`iter_rules_reference` (the test oracle).
    """

    def __init__(self, generators: GeneratorFamily) -> None:
        self._generators = generators
        self._closed = generators.closed_family
        self._rules = RuleSet.from_arrays(self._build_arrays())

    def _build_arrays(self) -> RuleArrays:
        gen_matrix, closures, universe = self._generators.packed_masks()
        unique_closures = self._generators.closed_itemsets()
        position = {closed: index for index, closed in enumerate(unique_closures)}
        closure_matrix = pack_itemsets_into(unique_closures, universe)
        counts = np.array(
            [self._closed.support_count(closed) for closed in unique_closures],
            dtype=np.int64,
        )
        closure_index = np.array(
            [position[closed] for closed in closures], dtype=np.int64
        )
        antecedents = gen_matrix.words
        consequents = closure_matrix.words[closure_index] & ~antecedents
        # A generator equal to its closure packs to an empty consequent —
        # those pairs produce no exact rule (the proper_generators_of
        # condition of the object pipeline).
        keep = np.any(consequents != 0, axis=1)
        support_counts = counts[closure_index]
        arrays = RuleArrays(
            BitMatrix(antecedents, len(universe)),
            BitMatrix(consequents, len(universe)),
            universe,
            relative_supports(support_counts, self._closed.n_objects),
            np.ones(len(closures), dtype=np.float64),
            support_counts,
        )
        return arrays.select(keep)

    def iter_rules_reference(self) -> Iterator[AssociationRule]:
        """The pre-columnar object pipeline (oracle for tests/benchmarks)."""
        n_objects = self._closed.n_objects
        for closed in self._generators.closed_itemsets():
            count = self._closed.support_count(closed)
            for generator in self._generators.proper_generators_of(closed):
                consequent = closed.difference(generator)
                if not consequent:
                    continue
                yield AssociationRule(
                    antecedent=generator,
                    consequent=consequent,
                    support=count / n_objects if n_objects else 0.0,
                    confidence=1.0,
                    support_count=count,
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
        Row-block size of the streamed CSR expansion.  ``None`` (the
        default) sizes the blocks from the shared working-set budget so
        peak *mask* memory beyond the finished columns stays constant
        however many rules the basis holds; any positive integer forces
        that block size.  The streamed build is byte-identical to the
        kept one-shot path (:meth:`_build_arrays_materialized`).
    workers:
        Worker count for the sharded block expansion (and the lattice
        construction when the basis builds its own lattice); ``None``
        defers to the ``REPRO_NUM_WORKERS`` environment variable, else
        serial.  Blocks are consumed in submission order with bounded
        prefetch, so the built basis is byte-identical for any worker
        count and the streamed-memory bound still holds.
    """

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

    def _expansion_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, "BitMatrix", np.ndarray, np.ndarray, np.ndarray]:
        """The CSR shape of the (generator × closed-pair) expansion.

        Returns ``(cols, confidences, gen_matrix, closure_index, repeats,
        offsets)``: the confidence-filtered pair arrays grouped by their
        smaller member, the packed generator rows, each generator's
        closure position, how many pairs each generator expands into and
        the CSR offsets of each closure's contiguous pair slice.  Shared
        by the streamed and the one-shot assembly so both expand exactly
        the same row sequence.
        """
        lattice = self._lattice
        universe = lattice.item_universe
        rows, cols, confidences = lattice.confidence_window_pairs(
            self._minconf, reduced=self._reduced
        )
        n_members = len(lattice.members)
        row_counts = np.bincount(rows, minlength=n_members)
        offsets = np.concatenate(([0], np.cumsum(row_counts)))
        gen_matrix, closures, _ = self._generators.packed_masks(universe)
        closure_index = np.array(
            [lattice.member_index(closed) for closed in closures], dtype=np.int64
        )
        if len(closures):
            repeats = row_counts[closure_index]
        else:
            repeats = np.zeros(0, dtype=np.int64)
        return cols, confidences, gen_matrix, closure_index, repeats, offsets

    def _build_arrays(self) -> RuleArrays:
        """Expand (generator, closed-pair) combinations in bounded blocks.

        The expansion is addressed as one flat row space of
        ``repeats.sum()`` rules; each block of ``block_rows`` consecutive
        rows recovers its generator via a ``searchsorted`` over the
        expansion boundaries, gathers its antecedent/target masks, and is
        written straight into the preallocated output columns — beyond
        the finished columns only one block of mask temporaries (and
        ``O(pairs)`` index arrays) is ever live.
        """
        lattice = self._lattice
        universe = lattice.item_universe
        cols, confidences, gen_matrix, closure_index, repeats, offsets = (
            self._expansion_arrays()
        )
        total = int(repeats.sum())
        block = resolve_block_rows(self._block_rows, lattice.member_masks().shape[1])
        executor = get_executor(self._workers)
        boundaries = np.cumsum(repeats)
        starts = boundaries - repeats

        def expand(lo: int) -> RuleArrays:
            return self._array_block(
                lo,
                min(lo + block, total),
                cols,
                confidences,
                gen_matrix,
                closure_index,
                boundaries,
                starts,
                offsets,
            )

        # Ordered imap with bounded prefetch: workers expand blocks ahead
        # of the consumer while from_blocks writes them in submission
        # order — byte-identical to the serial stream, still bounded.
        return RuleArrays.from_blocks(
            executor.imap(expand, range(0, total, block)),
            universe,
            n_rows=total,
        )

    def _array_block(
        self,
        lo: int,
        hi: int,
        cols: np.ndarray,
        confidences: np.ndarray,
        gen_matrix: "BitMatrix",
        closure_index: np.ndarray,
        boundaries: np.ndarray,
        starts: np.ndarray,
        offsets: np.ndarray,
    ) -> RuleArrays:
        """One bounded block ``[lo, hi)`` of the expanded basis columns.

        Reads only shared immutable inputs, so blocks can be expanded on
        any worker in any order; the consumer reassembles them by
        submission order.
        """
        lattice = self._lattice
        universe = lattice.item_universe
        masks = lattice.member_masks()
        counts = lattice.support_counts()
        n_objects = self._closed.n_objects
        flat = np.arange(lo, hi)
        generator_rows = np.searchsorted(boundaries, flat, side="right")
        within = flat - starts[generator_rows]
        pair_positions = offsets[closure_index[generator_rows]] + within
        targets = cols[pair_positions]
        antecedents = gen_matrix.words[generator_rows]
        consequents = masks[targets] & ~antecedents
        support_counts = counts[targets]
        arrays = RuleArrays(
            BitMatrix(antecedents, len(universe)),
            BitMatrix(consequents, len(universe)),
            universe,
            relative_supports(support_counts, n_objects),
            confidences[pair_positions],
            support_counts,
        )
        # target ⊃ closure ⊇ generator makes an empty consequent
        # impossible for well-formed input; the guard mirrors the
        # object pipeline's defence against malformed families.
        keep = np.any(consequents != 0, axis=1)
        return arrays if bool(keep.all()) else arrays.select(keep)

    def _build_arrays_materialized(self) -> RuleArrays:
        """The pre-streaming one-shot CSR expansion (oracle for tests).

        Materialises every expanded row in one gather; kept so the
        equivalence tests can assert the streamed build byte-identical.
        """
        lattice = self._lattice
        universe = lattice.item_universe
        cols, confidences, gen_matrix, closure_index, repeats, offsets = (
            self._expansion_arrays()
        )
        total = int(repeats.sum())
        generator_rows = np.repeat(np.arange(len(closure_index)), repeats)
        # Per-expanded-row position into the pair arrays: each generator
        # walks its closure's contiguous pair slice from the start.
        within = np.arange(total) - np.repeat(np.cumsum(repeats) - repeats, repeats)
        pair_positions = np.repeat(offsets[closure_index], repeats) + within
        targets = cols[pair_positions]

        masks = lattice.member_masks()
        antecedents = gen_matrix.words[generator_rows]
        consequents = masks[targets] & ~antecedents
        support_counts = lattice.support_counts()[targets]
        arrays = RuleArrays(
            BitMatrix(antecedents, len(universe)),
            BitMatrix(consequents, len(universe)),
            universe,
            relative_supports(support_counts, self._closed.n_objects),
            confidences[pair_positions],
            support_counts,
        )
        # target ⊃ closure ⊇ generator makes an empty consequent
        # impossible for well-formed input; the guard mirrors the object
        # pipeline's defence against malformed generator families.
        return arrays.select(np.any(consequents != 0, axis=1))

    def iter_rules_reference(self) -> Iterator[AssociationRule]:
        """The pre-columnar object pipeline (oracle for tests/benchmarks)."""
        n_objects = self._closed.n_objects
        lattice = self._lattice
        for closed in self._generators.closed_itemsets():
            lower_count = self._closed.support_count(closed)
            if self._reduced:
                targets = lattice.children_of(closed)
            else:
                # The lattice's containment row answers "every larger
                # closed set" without re-scanning the whole family.
                targets = lattice.proper_supersets(closed)
            for target in targets:
                upper_count = self._closed.support_count(target)
                confidence = upper_count / lower_count if lower_count else 0.0
                if confidence < self._minconf - EPSILON:
                    continue
                if confidence >= 1.0 - EPSILON:
                    continue
                for generator in self._generators.generators_of(closed):
                    consequent = target.difference(generator)
                    if not consequent:
                        continue
                    yield AssociationRule(
                        antecedent=generator,
                        consequent=consequent,
                        support=upper_count / n_objects if n_objects else 0.0,
                        confidence=confidence,
                        support_count=upper_count,
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
