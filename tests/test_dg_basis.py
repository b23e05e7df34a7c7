"""Tests for the Duquenne-Guigues basis of exact rules (Theorem 1)."""

from __future__ import annotations

import pytest

from repro import Apriori, Close, build_duquenne_guigues_basis
from repro.algorithms.rule_generation import generate_exact_rules
from repro.core.dg_basis import DuquenneGuiguesBasis
from repro.core.itemset import Itemset
from repro.errors import InvalidParameterError


def build(db, minsup):
    frequent = Apriori(minsup).mine(db)
    closed = Close(minsup).mine(db)
    return frequent, closed, build_duquenne_guigues_basis(frequent, closed)


class TestToyBasis:
    def test_rules_of_the_toy_context(self, toy_db):
        _, _, basis = build(toy_db, 0.4)
        keys = {(rule.antecedent, rule.consequent) for rule in basis}
        assert keys == {
            (Itemset("a"), Itemset("c")),
            (Itemset("b"), Itemset("e")),
            (Itemset("e"), Itemset("b")),
        }

    def test_rule_statistics(self, toy_db):
        _, _, basis = build(toy_db, 0.4)
        rule = basis.rules.get(Itemset("a"), Itemset("c"))
        assert rule is not None
        assert rule.confidence == 1.0
        assert rule.support == pytest.approx(0.6)
        assert rule.support_count == 3

    def test_len_matches_pseudo_closed_count(self, toy_db):
        _, _, basis = build(toy_db, 0.4)
        assert len(basis) == len(basis.pseudo_closed_itemsets) == 3

    def test_universal_item_context_includes_empty_antecedent_rule(self, allx_db):
        _, _, basis = build(allx_db, 0.25)
        rule = basis.rules.get(Itemset(), Itemset("x"))
        assert rule is not None
        assert rule.support == pytest.approx(1.0)

    def test_rules_are_row_pairs_into_the_families(self, allx_db):
        frequent, closed, basis = build(allx_db, 0.25)
        pairs = basis.row_pairs
        assert pairs.antecedents is frequent and pairs.unions is closed
        members, closures = frequent.itemsets(), closed.itemsets()
        from_rows = {
            (Itemset() if x_row == -1 else members[x_row], closures[z_row])
            for x_row, z_row in zip(pairs.antecedent_rows, pairs.union_rows)
        }
        assert (Itemset(), Itemset("x")) in from_rows
        assert from_rows == {
            (rule.antecedent, rule.antecedent.union(rule.consequent))
            for rule in basis
        }

    def test_record_missing_from_its_family_rejected(self, toy_db):
        _, closed, basis = build(toy_db, 0.4)
        without_a = Apriori(0.8).mine(toy_db)
        with pytest.raises(InvalidParameterError, match="not a member"):
            DuquenneGuiguesBasis(basis.pseudo_closed_itemsets, without_a, closed)


class TestSemanticClosure:
    @pytest.mark.parametrize("minsup", [0.1, 0.3, 0.5])
    def test_implied_closure_equals_galois_closure_on_frequent_itemsets(
        self, random_db, minsup
    ):
        """The basis axiomatises h on the frequent itemsets."""
        frequent, _, basis = build(random_db, minsup)
        for itemset in frequent:
            assert basis.implied_closure(itemset) == random_db.closure(itemset)

    def test_implied_closure_of_empty_set(self, allx_db):
        _, _, basis = build(allx_db, 0.25)
        assert basis.implied_closure(Itemset()) == Itemset("x")

    def test_derives_every_naive_exact_rule(self, random_db):
        frequent, _, basis = build(random_db, 0.2)
        for rule in generate_exact_rules(frequent):
            assert basis.derives(rule.antecedent, rule.consequent)

    def test_does_not_derive_approximate_implications(self, toy_db):
        _, _, basis = build(toy_db, 0.4)
        # c -> a has confidence 0.75 < 1 and must not be derivable.
        assert not basis.derives(Itemset("c"), Itemset("a"))
        assert not basis.derives(Itemset("be"), Itemset("c"))


class TestMinimality:
    def test_toy_basis_is_non_redundant(self, toy_db):
        _, _, basis = build(toy_db, 0.4)
        assert basis.is_non_redundant()

    @pytest.mark.parametrize("seed_minsup", [0.2, 0.4])
    def test_random_bases_are_non_redundant(self, random_db, seed_minsup):
        _, _, basis = build(random_db, seed_minsup)
        assert basis.is_non_redundant()

    def test_basis_is_never_larger_than_the_naive_exact_rule_set(self, random_db):
        frequent, _, basis = build(random_db, 0.2)
        naive = generate_exact_rules(frequent)
        if len(naive) > 0:
            assert len(basis) <= len(naive)

    def test_basis_much_smaller_on_dense_data(self, dense_smoke_db):
        frequent, _, basis = build(dense_smoke_db, 0.3)
        naive = generate_exact_rules(frequent)
        assert len(naive) > 5 * max(len(basis), 1)
