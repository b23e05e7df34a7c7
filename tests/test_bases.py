"""Tests for the unified rule-basis subsystem (registry + vectorised lattice).

The core guarantee of the refactor: every registered basis, built through
the registry on arbitrary contexts, yields exactly the same rules as its
pre-refactor free-standing construction, and the vectorised lattice
matches the per-pair reference builder edge-for-edge.
"""

from __future__ import annotations

import pytest

from repro import Apriori, Close
from repro.bases import (
    DEFAULT_BASES,
    BasisContext,
    BuiltBasis,
    available_bases,
    build_bases,
    get_basis,
    registered_names,
    resolve_basis_names,
)
from repro.core.dg_basis import build_duquenne_guigues_basis
from repro.core.generators import GeneratorFamily
from repro.core.informative import GenericBasis, InformativeBasis
from repro.core.lattice import IcebergLattice
from repro.core.luxenburger import LuxenburgerBasis
from repro.errors import InvalidParameterError

from oracles import (
    all_rules_reference,
    approximate_rules_reference,
    exact_rules_reference,
    hasse_edges_reference,
    is_transitive_reduction,
)

ALL_NAMES = (
    "all",
    "exact",
    "approximate",
    "dg",
    "luxenburger",
    "luxenburger-reduced",
    "generic",
    "informative",
    "informative-reduced",
)

MINSUP = 0.2
MINCONF = 0.5


def make_context(database, minsup=MINSUP, minconf=MINCONF):
    close = Close(minsup)
    closed = close.mine(database)
    frequent = Apriori(minsup).mine(database)
    generators = GeneratorFamily(closed, close.generators_by_closure)
    return BasisContext(
        closed=closed, minconf=minconf, frequent=frequent, generators=generators
    )


def reference_rules(name, context):
    """The pre-refactor construction of each basis, called directly.

    The naive bases come from the per-rule object loop in ``oracles``,
    not from the array-native emitter the registry builds them with.
    """
    frequent = context.frequent
    closed = context.closed
    generators = context.generators
    minconf = context.minconf
    if name == "all":
        return all_rules_reference(frequent, minconf)
    if name == "exact":
        return exact_rules_reference(frequent)
    if name == "approximate":
        return approximate_rules_reference(frequent, minconf)
    if name == "dg":
        return build_duquenne_guigues_basis(frequent, closed).rules
    if name == "luxenburger":
        return LuxenburgerBasis(
            closed, minconf=minconf, transitive_reduction=False
        ).rules
    if name == "luxenburger-reduced":
        return LuxenburgerBasis(
            closed, minconf=minconf, transitive_reduction=True
        ).rules
    if name == "generic":
        return GenericBasis(generators).rules
    if name == "informative":
        return InformativeBasis(generators, minconf=minconf, reduced=False).rules
    if name == "informative-reduced":
        return InformativeBasis(generators, minconf=minconf, reduced=True).rules
    raise AssertionError(f"unknown reference basis {name}")


class TestRegistry:
    def test_exactly_the_nine_documented_bases(self):
        assert registered_names() == tuple(sorted(ALL_NAMES))

    def test_available_bases_have_descriptions_and_kinds(self):
        for name, description in available_bases().items():
            assert description
            assert get_basis(name).kind in {"exact", "approximate", "all"}

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(InvalidParameterError, match="luxenburger"):
            get_basis("luxemburger")

    def test_resolve_default_selection(self):
        assert resolve_basis_names(None) == DEFAULT_BASES

    def test_resolve_comma_string_preserves_order_and_dedupes(self):
        assert resolve_basis_names("dg, luxenburger-reduced,dg") == (
            "dg",
            "luxenburger-reduced",
        )

    def test_resolve_empty_selection_raises(self):
        with pytest.raises(InvalidParameterError):
            resolve_basis_names(",")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            from repro.bases.builders import BASES
            from repro.bases.registry import register_basis

            register_basis(BASES[0])


class TestBasisEquivalence:
    """Every registered basis equals its pre-refactor construction."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_toy_context(self, toy_db, name):
        context = make_context(toy_db, minsup=0.4)
        built = build_bases(context, [name])[name]
        expected = reference_rules(name, context)
        assert built.rules.same_rules_and_statistics(expected)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_random_contexts(self, random_db, name):
        context = make_context(random_db)
        built = build_bases(context, [name])[name]
        expected = reference_rules(name, context)
        assert built.rules.same_rules_and_statistics(expected)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_rule_dense_context(self, name):
        """Array-native == object pipeline on the clone-chain workload."""
        from repro.data.synthetic import make_rule_dense_context

        context = make_context(make_rule_dense_context(5, 2), minsup=1e-9, minconf=0.0)
        built = build_bases(context, [name])[name]
        expected = reference_rules(name, context)
        assert built.rules.same_rules_and_statistics(expected)

    def test_rule_arrays_accessor(self, toy_db):
        context = make_context(toy_db, minsup=0.4)
        built = build_bases(context, "luxenburger")["luxenburger"]
        arrays = built.rule_arrays
        assert len(arrays) == len(built.rules)
        assert built.rule_arrays is arrays  # cached columnar view

    def test_built_basis_shape(self, toy_db):
        context = make_context(toy_db, minsup=0.4)
        built = build_bases(context, "dg")["dg"]
        assert isinstance(built, BuiltBasis)
        assert built.name == "dg"
        assert built.kind == "exact"
        assert built.size == len(built) == len(built.rules)
        assert built.metadata["pseudo_closed_itemsets"] == len(built.rules)

    def test_lattice_is_shared_between_bases(self, toy_db):
        context = make_context(toy_db, minsup=0.4)
        built = build_bases(context, ["luxenburger", "informative-reduced"])
        assert built["luxenburger"].source.lattice is context.lattice
        assert built["informative-reduced"].source.lattice is context.lattice

    def test_missing_frequent_family_raises_by_name(self, toy_db):
        closed = Close(0.4).mine(toy_db)
        context = BasisContext(closed=closed, minconf=0.5)
        with pytest.raises(InvalidParameterError, match="'all'"):
            build_bases(context, ["all"])

    def test_missing_generators_raise_by_name(self, toy_db):
        closed = Close(0.4).mine(toy_db)
        context = BasisContext(closed=closed, minconf=0.5)
        with pytest.raises(InvalidParameterError, match="'generic'"):
            build_bases(context, ["generic"])

    def test_generators_factory_is_lazy(self, toy_db):
        close = Close(0.4)
        closed = close.mine(toy_db)
        calls = []

        def factory():
            calls.append(1)
            return GeneratorFamily(closed, close.generators_by_closure)

        context = BasisContext(
            closed=closed, minconf=0.5, generators_factory=factory
        )
        build_bases(context, ["luxenburger-reduced"])
        assert not calls
        build_bases(context, ["generic"])
        assert len(calls) == 1
        build_bases(context, ["informative"])  # cached after first use
        assert len(calls) == 1


class TestVectorisedLattice:
    """The packed-mask lattice matches the per-pair reference builder."""

    @pytest.mark.parametrize("minsup", [0.1, 0.2, 0.4])
    def test_matches_reference_edge_for_edge(self, random_db, minsup):
        closed = Close(minsup).mine(random_db)
        lattice = IcebergLattice(closed)
        assert lattice.hasse_edges() == hasse_edges_reference(closed)
        assert is_transitive_reduction(lattice)

    def test_matches_reference_on_dense_context(self, dense_smoke_db):
        closed = Close(0.2).mine(dense_smoke_db)
        lattice = IcebergLattice(closed)
        assert lattice.hasse_edges() == hasse_edges_reference(closed)
        assert is_transitive_reduction(lattice)

    def test_edge_arrays_agree_with_edge_list(self, toy_closed):
        lattice = IcebergLattice(toy_closed)
        members = lattice.members
        rows, cols = lattice.hasse_edge_indices()
        from_arrays = sorted((members[r], members[c]) for r, c in zip(rows, cols))
        assert from_arrays == lattice.hasse_edges()

    def test_edge_confidences_match_support_ratios(self, toy_closed):
        lattice = IcebergLattice(toy_closed)
        members = lattice.members
        rows, cols = lattice.hasse_edge_indices()
        for row, col, confidence in zip(rows, cols, lattice.edge_confidences()):
            expected = toy_closed.support_count(
                members[col]
            ) / toy_closed.support_count(members[row])
            assert confidence == pytest.approx(expected)

    def test_confidence_between_matches_path_product(self, random_db):
        closed = Close(0.2).mine(random_db)
        lattice = IcebergLattice(closed)
        members = lattice.members
        for smaller in members:
            for larger in members:
                confidence = lattice.confidence_between(smaller, larger)
                path = lattice.path_between(smaller, larger)
                if path is None:
                    assert confidence is None or smaller == larger
                    continue
                product = 1.0
                for lower, upper in zip(path, path[1:]):
                    product *= closed.support_count(upper) / closed.support_count(
                        lower
                    )
                assert confidence == pytest.approx(product)

    def test_single_member_family(self, identical_rows_db):
        closed = Close(0.5).mine(identical_rows_db)
        lattice = IcebergLattice(closed)
        assert len(lattice) == 1
        assert lattice.hasse_edges() == []
        assert is_transitive_reduction(lattice)
