"""The nine registered rule bases, as one table.

Each row of :data:`BASES` names a basis, its kind and its description,
and picks one of four build functions that wire the shared
:class:`~repro.bases.base.BasisContext` (and in particular its single
iceberg lattice) into an existing construction.  The heavy lifting stays
in :mod:`repro.core` and :mod:`repro.algorithms`; importing this module
registers every row.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..algorithms.rule_generation import _naive_rules
from ..core.dg_basis import build_duquenne_guigues_basis
from ..core.informative import GenericBasis, InformativeBasis
from ..core.luxenburger import LuxenburgerBasis
from .base import BasisContext, BuiltBasis
from .registry import register_basis

__all__ = ["TableBasis", "BASES"]


@dataclass(frozen=True)
class TableBasis:
    """One registered basis: a table row implementing the basis protocol.

    ``construct`` builds the basis from the row and the shared context;
    ``reduced`` selects the transitively reduced variant of the
    lattice-backed constructions.
    """

    name: str
    kind: str
    description: str
    construct: Callable[["TableBasis", BasisContext], BuiltBasis]
    reduced: bool = False

    def build(self, context: BasisContext) -> BuiltBasis:
        """Build the basis from the shared context."""
        return self.construct(self, context)


def _built(basis: TableBasis, construction) -> BuiltBasis:
    return BuiltBasis(
        name=basis.name,
        kind=basis.kind,
        rules=construction.rules,
        source=construction,
        metadata=construction.metadata,
        row_pairs=construction.row_pairs,
    )


def _naive(basis: TableBasis, context: BasisContext) -> BuiltBasis:
    """Every valid rule, or its exact or approximate split (by kind)."""
    frequent = context.require_frequent(basis.name)
    rules, row_pairs = _naive_rules(
        frequent,
        context.minconf,
        basis.kind,
        block_rows=context.block_rows,
        workers=context.workers,
    )
    return BuiltBasis(
        name=basis.name,
        kind=basis.kind,
        rules=rules,
        metadata={"frequent_itemsets": len(frequent)},
        row_pairs=row_pairs,
    )


def _duquenne_guigues(basis: TableBasis, context: BasisContext) -> BuiltBasis:
    frequent = context.require_frequent(basis.name)
    return _built(basis, build_duquenne_guigues_basis(frequent, context.closed))


def _luxenburger(basis: TableBasis, context: BasisContext) -> BuiltBasis:
    construction = LuxenburgerBasis(
        context.closed,
        minconf=context.minconf,
        transitive_reduction=basis.reduced,
        lattice=context.lattice,
        block_rows=context.block_rows,
        workers=context.workers,
    )
    return _built(basis, construction)


def _generator_backed(basis: TableBasis, context: BasisContext) -> BuiltBasis:
    """The generic basis (exact) or an informative basis (approximate)."""
    generators = context.require_generators(basis.name)
    if basis.kind == "exact":
        return _built(basis, GenericBasis(generators))
    construction = InformativeBasis(
        generators,
        minconf=context.minconf,
        reduced=basis.reduced,
        lattice=context.lattice,
        block_rows=context.block_rows,
        workers=context.workers,
    )
    return _built(basis, construction)


#: Every registered basis, in registration order.
BASES: tuple[TableBasis, ...] = (
    TableBasis(
        "all", "all", "all valid rules above minconf (the naive baseline)", _naive
    ),
    TableBasis(
        "exact", "exact", "all exact (confidence-1) rules, generated naively", _naive
    ),
    TableBasis(
        "approximate",
        "approximate",
        "all approximate rules in [minconf, 1), generated naively",
        _naive,
    ),
    TableBasis(
        "dg",
        "exact",
        "Duquenne-Guigues basis (pseudo-closed antecedents, Theorem 1)",
        _duquenne_guigues,
    ),
    TableBasis(
        "luxenburger",
        "approximate",
        "full Luxenburger basis (every comparable closed pair)",
        _luxenburger,
    ),
    TableBasis(
        "luxenburger-reduced",
        "approximate",
        "reduced Luxenburger basis (lattice Hasse edges, Theorem 2)",
        _luxenburger,
        reduced=True,
    ),
    TableBasis(
        "generic",
        "exact",
        "generic basis (minimal-generator antecedents, exact rules)",
        _generator_backed,
    ),
    TableBasis(
        "informative",
        "approximate",
        "informative basis (generators to every larger closed set)",
        _generator_backed,
    ),
    TableBasis(
        "informative-reduced",
        "approximate",
        "reduced informative basis (generators along lattice edges)",
        _generator_backed,
        reduced=True,
    ),
)

for _basis in BASES:
    register_basis(_basis)
