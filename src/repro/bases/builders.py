"""The nine registered rule bases.

Each class below adapts one existing construction to the
:class:`~repro.bases.base.RuleBasis` protocol; importing this module
populates the registry.  The heavy lifting stays in :mod:`repro.core`
and :mod:`repro.algorithms` — these adapters only wire the shared
:class:`~repro.bases.base.BasisContext` (and in particular its single
iceberg lattice) into the constructors.
"""

from __future__ import annotations

from ..algorithms.rule_generation import (
    generate_all_rules,
    generate_approximate_rules,
    generate_exact_rules,
)
from ..core.dg_basis import build_duquenne_guigues_basis
from ..core.informative import GenericBasis, InformativeBasis
from ..core.luxenburger import LuxenburgerBasis
from .base import BasisContext, BuiltBasis
from .registry import register_basis

__all__ = [
    "AllRulesBasis",
    "ExactRulesBasis",
    "ApproximateRulesBasis",
    "DuquenneGuiguesRuleBasis",
    "LuxenburgerFullBasis",
    "LuxenburgerReducedBasis",
    "GenericRuleBasis",
    "InformativeFullBasis",
    "InformativeReducedBasis",
]


@register_basis
class AllRulesBasis:
    """Every valid rule — the baseline the bases are measured against."""

    name = "all"
    kind = "all"
    description = "all valid rules above minconf (the naive baseline)"

    def build(self, context: BasisContext) -> BuiltBasis:
        frequent = context.require_frequent(self.name)
        rules = generate_all_rules(
            frequent,
            minconf=context.minconf,
            block_rows=context.block_rows,
            workers=context.workers,
        )
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=rules,
            metadata={"frequent_itemsets": len(frequent)},
        )


@register_basis
class ExactRulesBasis:
    """Every exact (confidence-1) rule: the confidence-1 split of ``all``."""

    name = "exact"
    kind = "exact"
    description = "all exact (confidence-1) rules, generated naively"

    def build(self, context: BasisContext) -> BuiltBasis:
        frequent = context.require_frequent(self.name)
        rules = generate_exact_rules(
            frequent, block_rows=context.block_rows, workers=context.workers
        )
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=rules,
            metadata={"frequent_itemsets": len(frequent)},
        )


@register_basis
class ApproximateRulesBasis:
    """Every approximate rule in ``[minconf, 1)``: the split of ``all`` below 1."""

    name = "approximate"
    kind = "approximate"
    description = "all approximate rules in [minconf, 1), generated naively"

    def build(self, context: BasisContext) -> BuiltBasis:
        frequent = context.require_frequent(self.name)
        rules = generate_approximate_rules(
            frequent,
            minconf=context.minconf,
            block_rows=context.block_rows,
            workers=context.workers,
        )
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=rules,
            metadata={"frequent_itemsets": len(frequent)},
        )


@register_basis
class DuquenneGuiguesRuleBasis:
    """The minimum-size basis for exact rules (Theorem 1)."""

    name = "dg"
    kind = "exact"
    description = "Duquenne-Guigues basis (pseudo-closed antecedents, Theorem 1)"

    def build(self, context: BasisContext) -> BuiltBasis:
        frequent = context.require_frequent(self.name)
        basis = build_duquenne_guigues_basis(frequent, context.closed)
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=basis.rules,
            source=basis,
            metadata=basis.metadata,
        )


@register_basis
class LuxenburgerFullBasis:
    """Every comparable closed pair (the full Luxenburger basis)."""

    name = "luxenburger"
    kind = "approximate"
    description = "full Luxenburger basis (every comparable closed pair)"

    def build(self, context: BasisContext) -> BuiltBasis:
        basis = LuxenburgerBasis(
            context.closed,
            minconf=context.minconf,
            transitive_reduction=False,
            lattice=context.lattice,
            block_rows=context.block_rows,
            workers=context.workers,
        )
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=basis.rules,
            source=basis,
            metadata=basis.metadata,
        )


@register_basis
class LuxenburgerReducedBasis:
    """Hasse edges only — the transitively reduced basis of Theorem 2."""

    name = "luxenburger-reduced"
    kind = "approximate"
    description = "reduced Luxenburger basis (lattice Hasse edges, Theorem 2)"

    def build(self, context: BasisContext) -> BuiltBasis:
        basis = LuxenburgerBasis(
            context.closed,
            minconf=context.minconf,
            transitive_reduction=True,
            lattice=context.lattice,
            block_rows=context.block_rows,
            workers=context.workers,
        )
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=basis.rules,
            source=basis,
            metadata=basis.metadata,
        )


@register_basis
class GenericRuleBasis:
    """Exact rules with minimal-generator antecedents (CL 2000 extension)."""

    name = "generic"
    kind = "exact"
    description = "generic basis (minimal-generator antecedents, exact rules)"

    def build(self, context: BasisContext) -> BuiltBasis:
        basis = GenericBasis(context.require_generators(self.name))
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=basis.rules,
            source=basis,
            metadata=basis.metadata,
        )


@register_basis
class InformativeFullBasis:
    """Approximate rules from generators to every larger closed set."""

    name = "informative"
    kind = "approximate"
    description = "informative basis (generators to every larger closed set)"

    def build(self, context: BasisContext) -> BuiltBasis:
        basis = InformativeBasis(
            context.require_generators(self.name),
            minconf=context.minconf,
            reduced=False,
            lattice=context.lattice,
            block_rows=context.block_rows,
            workers=context.workers,
        )
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=basis.rules,
            source=basis,
            metadata=basis.metadata,
        )


@register_basis
class InformativeReducedBasis:
    """Approximate rules from generators along lattice edges only."""

    name = "informative-reduced"
    kind = "approximate"
    description = "reduced informative basis (generators along lattice edges)"

    def build(self, context: BasisContext) -> BuiltBasis:
        basis = InformativeBasis(
            context.require_generators(self.name),
            minconf=context.minconf,
            reduced=True,
            lattice=context.lattice,
            block_rows=context.block_rows,
            workers=context.workers,
        )
        return BuiltBasis(
            name=self.name,
            kind=self.kind,
            rules=basis.rules,
            source=basis,
            metadata=basis.metadata,
        )
