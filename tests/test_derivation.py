"""Round-trip tests: rules derived from the bases == rules generated naively.

This is the paper's central claim exercised end to end: mine the frequent
and closed itemsets, build the two bases, throw the database away, and
reconstruct every valid association rule — with its exact support and
confidence — from the bases alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Apriori,
    BasisDerivation,
    Close,
    LuxenburgerBasis,
    build_duquenne_guigues_basis,
)
from repro.algorithms.rule_generation import (
    generate_all_rules,
    generate_approximate_rules,
    generate_exact_rules,
)
from repro.core.itemset import Itemset
from repro.data.context import TransactionDatabase
from repro.errors import DerivationError, InvalidParameterError

from oracles import recover_closed_supports_reference


def build_derivation(db, minsup, minconf=0.0):
    frequent = Apriori(minsup).mine(db)
    closed = Close(minsup).mine(db)
    dg = build_duquenne_guigues_basis(frequent, closed)
    lux = LuxenburgerBasis(closed, minconf=minconf, transitive_reduction=True)
    return frequent, BasisDerivation(dg, lux, n_objects=db.n_objects)


class TestPrimitives:
    def test_closure_and_supports_on_toy(self, toy_db):
        frequent, derivation = build_derivation(toy_db, 0.4)
        assert derivation.closure(Itemset("a")) == Itemset("ac")
        assert derivation.support_count(Itemset("a")) == 3
        assert derivation.support(Itemset("bc")) == pytest.approx(0.6)
        assert derivation.support_count(Itemset("abce")) == 2

    def test_confidence_reconstruction(self, toy_db):
        _, derivation = build_derivation(toy_db, 0.4)
        assert derivation.confidence(Itemset("a"), Itemset("c")) == 1.0
        assert derivation.confidence(Itemset("c"), Itemset("a")) == pytest.approx(0.75)
        assert derivation.confidence(Itemset("c"), Itemset("abe")) == pytest.approx(0.5)

    def test_derive_single_rule(self, toy_db):
        _, derivation = build_derivation(toy_db, 0.4)
        rule = derivation.derive_rule(Itemset("c"), Itemset("be"))
        assert rule.support == pytest.approx(0.6)
        assert rule.confidence == pytest.approx(0.75)
        assert rule.support_count == 3

    def test_empty_antecedent_when_no_item_is_everywhere(self, toy_db):
        # No toy item is in every object: h(∅) = ∅ is no lattice node, so
        # the confidence of ∅ → Y divides by supp(∅) = n_objects.
        _, derivation = build_derivation(toy_db, 0.4)
        rule = derivation.derive_rule(Itemset(), Itemset("c"))
        assert rule.support == 0.8
        assert rule.confidence == 0.8
        assert rule.support_count == 4
        assert derivation.confidence(Itemset(), Itemset("be")) == 0.8
        assert derivation.confidence(Itemset(), Itemset("abce")) == 0.4
        with pytest.raises(DerivationError):
            derivation.derive_rule(Itemset(), Itemset("d"))

    def test_empty_antecedent_with_universal_item(self, allx_db):
        # h(∅) = {x} is a lattice node: the ordinary path product applies.
        _, derivation = build_derivation(allx_db, 0.25)
        assert derivation.derive_rule(Itemset(), Itemset("x")).confidence == 1.0
        rule = derivation.derive_rule(Itemset(), Itemset("a"))
        assert rule.support == 0.5
        assert rule.confidence == 0.5

    def test_unknown_closed_support_raises(self, toy_db):
        _, derivation = build_derivation(toy_db, 0.4)
        with pytest.raises(DerivationError):
            derivation.support_count_of_closed(Itemset("ad"))

    def test_invalid_constructor_arguments(self, toy_db):
        frequent, derivation = build_derivation(toy_db, 0.4)
        with pytest.raises(InvalidParameterError):
            BasisDerivation.__init__(derivation, None, None, n_objects=0)
        with pytest.raises(InvalidParameterError):
            derivation.derive_approximate_rules(frequent, minconf=2.0)


class TestRoundTrip:
    @pytest.mark.parametrize("minconf", [0.0, 0.5, 0.7, 0.9])
    def test_toy_round_trip(self, toy_db, minconf):
        frequent, derivation = build_derivation(toy_db, 0.4)
        naive = generate_all_rules(frequent, minconf=minconf)
        derived = derivation.derive_all_rules(frequent, minconf)
        assert naive.same_rules_and_statistics(derived)

    @pytest.mark.parametrize("minsup", [0.1, 0.25, 0.5])
    def test_random_databases_round_trip(self, random_db, minsup):
        frequent, derivation = build_derivation(random_db, minsup)
        for minconf in (0.4, 0.7):
            naive = generate_all_rules(frequent, minconf=minconf)
            derived = derivation.derive_all_rules(frequent, minconf)
            assert naive.same_rules_and_statistics(derived)

    def test_exact_rules_round_trip(self, random_db):
        frequent, derivation = build_derivation(random_db, 0.2)
        naive = generate_exact_rules(frequent)
        derived = derivation.derive_exact_rules(frequent)
        assert naive.same_rules_and_statistics(derived)

    def test_approximate_rules_round_trip(self, random_db):
        frequent, derivation = build_derivation(random_db, 0.2)
        naive = generate_approximate_rules(frequent, minconf=0.5)
        derived = derivation.derive_approximate_rules(frequent, minconf=0.5)
        assert naive.same_rules_and_statistics(derived)

    def test_universal_item_round_trip(self, allx_db):
        frequent, derivation = build_derivation(allx_db, 0.25)
        naive = generate_all_rules(frequent, minconf=0.3)
        derived = derivation.derive_all_rules(frequent, 0.3)
        assert naive.same_rules_and_statistics(derived)

    def test_dense_smoke_round_trip(self, dense_smoke_db):
        frequent, derivation = build_derivation(dense_smoke_db, 0.4)
        naive = generate_all_rules(frequent, minconf=0.7)
        derived = derivation.derive_all_rules(frequent, 0.7)
        assert naive.same_rules_and_statistics(derived)

    def test_derivation_works_from_full_luxenburger_basis_too(self, toy_db):
        frequent = Apriori(0.4).mine(toy_db)
        closed = Close(0.4).mine(toy_db)
        dg = build_duquenne_guigues_basis(frequent, closed)
        full = LuxenburgerBasis(closed, minconf=0.0, transitive_reduction=False)
        derivation = BasisDerivation(dg, full, n_objects=toy_db.n_objects)
        naive = generate_all_rules(frequent, minconf=0.5)
        derived = derivation.derive_all_rules(frequent, 0.5)
        assert naive.same_rules_and_statistics(derived)


@st.composite
def derivation_cases(draw):
    """Small random contexts; with ``universal`` every object holds ``x``."""
    pool = ["a", "b", "c", "d", "e", "f"]
    rows = draw(
        st.lists(st.sets(st.sampled_from(pool)), min_size=1, max_size=12)
    )
    universal = draw(st.booleans())
    if universal:
        rows = [row | {"x"} for row in rows]
    minsup = draw(st.sampled_from([0.1, 0.25, 0.5]))
    minconf = draw(st.sampled_from([0.0, 0.6]))
    reduced = draw(st.booleans())
    db = TransactionDatabase([sorted(row) for row in rows])
    return db, universal, minsup, minconf, reduced


@given(case=derivation_cases())
@settings(deadline=None, max_examples=80)
def test_property_closed_supports_equal_the_reference_recovery(case):
    """Supports read from the closed family == those decoded from the rules."""
    db, universal, minsup, minconf, reduced = case
    frequent = Apriori(minsup).mine(db)
    closed = Close(minsup).mine(db)
    dg = build_duquenne_guigues_basis(frequent, closed)
    lux = LuxenburgerBasis(closed, minconf=minconf, transitive_reduction=reduced)
    derivation = BasisDerivation(dg, lux, n_objects=db.n_objects)
    recovered = recover_closed_supports_reference(dg, lux, db.n_objects)
    bottom = derivation.closure(Itemset.empty())
    if universal:
        assert "x" in bottom  # h(∅) ≠ ∅: a member of the closed family
    for itemset, count in recovered.items():
        assert derivation.support_count_of_closed(itemset) == count
    for itemset, count in closed.items_with_supports():
        assert derivation.support_count_of_closed(itemset) == count
    assert derivation.support_count_of_closed(bottom) == (
        closed.get(bottom, db.n_objects)
    )
