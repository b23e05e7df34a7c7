"""The rule-basis contract: build inputs, build outputs, the protocol.

Every rule artefact of the paper and its follow-ons — the naive "all
valid rules" baseline, the Duquenne-Guigues basis, the two Luxenburger
variants, the generic/informative bases — is, seen from the experiments,
the same thing: a named construction that turns mined itemset families
into a :class:`~repro.core.rules.RuleSet` plus some size metadata for the
reduction reports.  This module defines that shape:

* :class:`BasisContext` — the shared inputs (frequent family, closed
  family, minimal generators, ``minconf``) with a lazily built, *shared*
  iceberg lattice, so building several lattice-backed bases from one
  context packs and reduces the closed family exactly once;
* :class:`BuiltBasis` — the output record: the rules, the basis kind
  (exact / approximate / all) and the construction's metadata;
* :class:`RuleBasis` — the protocol every registered basis implements.

Concrete bases live in :mod:`repro.bases.builders` and are looked up by
name through :mod:`repro.bases.registry`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from ..core.families import ClosedItemsetFamily, ItemsetFamily
from ..core.generators import GeneratorFamily
from ..core.lattice import IcebergLattice
from ..core.rulearrays import RowPairs
from ..core.rules import RuleSet
from ..errors import InvalidParameterError

__all__ = ["BasisContext", "BuiltBasis", "RuleBasis"]


@dataclass
class BasisContext:
    """Everything a rule-basis construction may need, computed once.

    Parameters
    ----------
    closed:
        The frequent closed itemsets (Close / A-Close / CHARM output).
        Always required — every basis is defined against the closed
        family's context.
    minconf:
        Minimum confidence threshold for the approximate constructions.
    frequent:
        All frequent itemsets (Apriori output); required by the naive
        rule sets and the Duquenne-Guigues construction.
    generators:
        Minimal generators grouped by closure; required by the generic /
        informative bases.
    generators_factory:
        Optional zero-argument callable producing the generator family on
        first use, so callers that *may* build a generator-backed basis
        do not pay for (or validate) the generators unless one is
        actually selected.
    block_rows:
        Row-block size of the streamed column assembly every basis goes
        through (and of the naive bases' selection pass).  ``None`` lets
        each builder pick the auto size from the shared working-set
        budget; an explicit positive integer forces that block size.
        Built bases are byte-identical for any size, so this is purely a
        peak-memory knob.
    workers:
        Worker count for the sharded kernels (shared lattice
        construction and the streamed rule emitters); ``None`` defers to
        the ``REPRO_NUM_WORKERS`` environment variable, else serial, and
        ``0`` means all cores.  Every basis built from the context is
        byte-identical for any worker count — purely a wall-clock knob.
    """

    closed: ClosedItemsetFamily
    minconf: float
    frequent: ItemsetFamily | None = None
    generators: GeneratorFamily | None = None
    generators_factory: Callable[[], GeneratorFamily] | None = field(
        default=None, repr=False, compare=False
    )
    block_rows: int | None = None
    workers: int | None = None
    _lattice: IcebergLattice | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.minconf <= 1.0:
            raise InvalidParameterError(
                f"minconf must lie in [0, 1], got {self.minconf}"
            )

    @property
    def n_objects(self) -> int:
        """Number of objects of the originating database."""
        return self.closed.n_objects

    @property
    def lattice(self) -> IcebergLattice:
        """The iceberg lattice of the closed family, built once and shared."""
        if self._lattice is None:
            self._lattice = IcebergLattice(self.closed, workers=self.workers)
        return self._lattice

    def require_frequent(self, basis_name: str) -> ItemsetFamily:
        """The frequent family, or a clear error naming the basis that needs it."""
        if self.frequent is None:
            raise InvalidParameterError(
                f"basis {basis_name!r} needs the frequent itemset family; "
                "pass frequent= when building the BasisContext"
            )
        return self.frequent

    def require_generators(self, basis_name: str) -> GeneratorFamily:
        """The generator family, or a clear error naming the basis that needs it."""
        if self.generators is None and self.generators_factory is not None:
            self.generators = self.generators_factory()
        if self.generators is None:
            raise InvalidParameterError(
                f"basis {basis_name!r} needs the minimal generators; "
                "pass generators= (or generators_factory=) when building "
                "the BasisContext"
            )
        return self.generators


@dataclass(frozen=True)
class BuiltBasis:
    """One built rule basis: the rules plus report metadata.

    Attributes
    ----------
    name:
        Registry name the basis was built under.
    kind:
        ``"exact"`` (confidence-1 rules only), ``"approximate"``
        (confidence < 1 only) or ``"all"`` (both).
    rules:
        The basis rules.
    source:
        The underlying construction object (e.g. the
        :class:`~repro.core.dg_basis.DuquenneGuiguesBasis` instance), kept
        for callers that need more than the rules; ``None`` for the plain
        generated rule sets.
    metadata:
        Construction metadata (lattice shape, pseudo-closed counts, …)
        surfaced by the reduction reports.
    row_pairs:
        The rules as rows of the families they were built from
        (:class:`~repro.core.rulearrays.RowPairs`), which is how the
        store writes them; ``None`` when the rules are not such pairs.
    """

    name: str
    kind: str
    rules: RuleSet
    source: object = None
    metadata: dict[str, object] = field(default_factory=dict)
    row_pairs: RowPairs | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        """Number of rules in the basis."""
        return len(self.rules)

    @property
    def rule_arrays(self):
        """The basis in columnar form (:class:`~repro.core.rulearrays.RuleArrays`).

        The array-native constructions build their rules as columns in
        the first place, so for those this is a zero-copy accessor; for
        object-built rule sets the columns are packed (and cached) on
        first use.
        """
        return self.rules.to_arrays()

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"BuiltBasis({self.name!r}, {self.kind}, {len(self.rules)} rules)"


@runtime_checkable
class RuleBasis(Protocol):
    """The contract every registered rule basis implements."""

    #: Registry key the basis is selected by (e.g. ``"dg"``).
    name: str
    #: ``"exact"``, ``"approximate"`` or ``"all"``.
    kind: str
    #: One-line human description shown by ``repro bases --list-bases``.
    description: str

    def build(self, context: BasisContext) -> BuiltBasis:
        """Build the basis from the shared context."""
        ...
