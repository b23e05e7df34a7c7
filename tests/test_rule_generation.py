"""Tests for the classical all-valid-rules generation (the baseline).

The array-native emitter is checked column for column against the
per-rule object loop kept in ``oracles``: on the toy context, and as a
hypothesis property over random contexts whose universes straddle the
uint64 word boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Apriori, TransactionDatabase
from repro.algorithms.rule_generation import (
    generate_all_rules,
    generate_approximate_rules,
    generate_exact_rules,
)
from repro.core.itemset import Itemset
from repro.errors import InvalidParameterError

from oracles import (
    all_rules_reference,
    approximate_rules_reference,
    exact_rules_reference,
)


class TestGenerateAllRules:
    def test_toy_rule_count_at_half_confidence(self, toy_frequent):
        assert len(generate_all_rules(toy_frequent, minconf=0.5)) == 50

    def test_every_rule_is_valid(self, toy_db, toy_frequent):
        rules = generate_all_rules(toy_frequent, minconf=0.6)
        assert rules
        for rule in rules:
            union = rule.antecedent.union(rule.consequent)
            expected_support = toy_db.support(union)
            expected_confidence = toy_db.support_count(union) / toy_db.support_count(
                rule.antecedent
            )
            assert rule.support == pytest.approx(expected_support)
            assert rule.confidence == pytest.approx(expected_confidence)
            assert rule.confidence >= 0.6

    def test_rule_sides_are_nonempty_and_disjoint(self, toy_frequent):
        for rule in generate_all_rules(toy_frequent, minconf=0.0):
            assert rule.antecedent
            assert rule.consequent
            assert rule.antecedent.isdisjoint(rule.consequent)

    def test_monotone_in_minconf(self, toy_frequent):
        sizes = [
            len(generate_all_rules(toy_frequent, minconf=c))
            for c in (0.0, 0.5, 0.7, 0.9, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_exhaustive_against_manual_enumeration(self, toy_db, toy_frequent):
        expected = set()
        for itemset in toy_frequent:
            if len(itemset) < 2:
                continue
            for antecedent in itemset.nonempty_proper_subsets():
                confidence = toy_db.support_count(itemset) / toy_db.support_count(
                    antecedent
                )
                if confidence >= 0.7:
                    expected.add((antecedent, itemset.difference(antecedent)))
        rules = generate_all_rules(toy_frequent, minconf=0.7)
        assert rules.keys() == expected

    def test_minconf_validation(self, toy_frequent):
        with pytest.raises(InvalidParameterError):
            generate_all_rules(toy_frequent, minconf=1.5)


class TestExactAndApproximateSplits:
    def test_exact_rules_have_confidence_one(self, toy_frequent):
        exact = generate_exact_rules(toy_frequent)
        assert exact
        assert all(rule.is_exact for rule in exact)

    def test_toy_exact_rules_are_the_known_ones(self, toy_frequent):
        exact = generate_exact_rules(toy_frequent)
        # Spot-check the classic implications of the toy context.
        assert exact.get(Itemset("a"), Itemset("c")) is not None
        assert exact.get(Itemset("b"), Itemset("e")) is not None
        assert exact.get(Itemset("ab"), Itemset("ce")) is not None
        assert exact.get(Itemset("c"), Itemset("a")) is None

    def test_approximate_rules_exclude_exact_ones(self, toy_frequent):
        approximate = generate_approximate_rules(toy_frequent, minconf=0.5)
        assert approximate
        assert all(rule.confidence < 1.0 for rule in approximate)

    def test_partition_covers_all_rules(self, toy_frequent):
        minconf = 0.5
        all_rules = generate_all_rules(toy_frequent, minconf=minconf)
        exact = generate_exact_rules(toy_frequent)
        approximate = generate_approximate_rules(toy_frequent, minconf=minconf)
        assert len(all_rules) == len(exact) + len(approximate)
        assert exact.union(approximate).same_rules(all_rules)

    def test_rule_counts_on_dense_smoke_data(self, dense_smoke_db):
        frequent = Apriori(minsup=0.3).mine(dense_smoke_db)
        all_rules = generate_all_rules(frequent, minconf=0.7)
        exact = generate_exact_rules(frequent)
        # Dense correlated data must produce a non-trivial number of exact
        # rules — that is the redundancy the paper is about.
        assert len(exact) > 10
        assert len(all_rules) > len(exact)


# ----------------------------------------------------------------------
# Array-native emitter == per-rule object loop, column for column
# ----------------------------------------------------------------------
def assert_same_columns(rules, reference) -> None:
    """Exact equality of every column and of the universe (no tolerance)."""
    left, right = rules.to_arrays(), reference.to_arrays()
    assert left.universe == right.universe
    assert np.array_equal(left.antecedents.words, right.antecedents.words)
    assert np.array_equal(left.consequents.words, right.consequents.words)
    assert np.array_equal(left.support, right.support)
    assert np.array_equal(left.confidence, right.confidence)
    assert np.array_equal(left.support_count, right.support_count)


def assert_matches_oracle(frequent, minconf) -> None:
    assert_same_columns(
        generate_all_rules(frequent, minconf), all_rules_reference(frequent, minconf)
    )
    assert_same_columns(generate_exact_rules(frequent), exact_rules_reference(frequent))
    assert_same_columns(
        generate_approximate_rules(frequent, minconf),
        approximate_rules_reference(frequent, minconf),
    )


@st.composite
def word_boundary_contexts(draw, n_items: int, lonely: bool):
    """A random context over exactly *n_items* items in rules at minconf 0.

    Every item lands in a row of two to five items, so at minsup count 1
    each one is in some frequent pair and hence in some rule; a few
    extra random rows make the confidences non-trivial.  With *lonely*,
    one more item forms a row of its own: frequent, but in no rule, so
    the rule universe is one item smaller than the family's.
    """
    items = draw(st.permutations([f"i{position:02d}" for position in range(n_items)]))
    rows = []
    start = 0
    while start < n_items:
        size = draw(st.integers(min_value=2, max_value=5))
        if n_items - (start + size) == 1:
            size += 1  # never leave one item alone
        rows.append(items[start : start + size])
        start += size
    extra = st.lists(st.sampled_from(items), min_size=1, max_size=5, unique=True)
    rows += draw(st.lists(extra, max_size=6))
    if lonely:
        rows.append(["a_lonely"])  # sorts first, so every used column shifts
    return TransactionDatabase(rows)


class TestArrayNativeMatchesOracle:
    def test_toy_context_every_threshold(self, toy_frequent):
        for minconf in (0.0, 0.5, 0.6, 0.7, 0.75, 1.0):
            assert_matches_oracle(toy_frequent, minconf)

    def test_item_in_no_rule_shrinks_the_universe(self):
        db = TransactionDatabase([["a", "b"], ["a", "b"], ["z"], ["z"]])
        frequent = Apriori(minsup=0.5).mine(db)
        assert Itemset("z") in frequent
        rules = generate_all_rules(frequent, minconf=0.0)
        assert rules.to_arrays().universe == ("a", "b")
        assert_matches_oracle(frequent, 0.0)

    def test_frequent_singletons_only(self):
        frequent = Apriori(minsup=0.5).mine(TransactionDatabase([["a"], ["b"]]))
        assert len(frequent) == 2
        for rules in (
            generate_all_rules(frequent, 0.0),
            generate_exact_rules(frequent),
            generate_approximate_rules(frequent, 0.0),
        ):
            assert len(rules) == 0
            assert rules.to_arrays().universe == ()

    def test_rules_stay_columnar(self, toy_frequent):
        rules = generate_all_rules(toy_frequent, minconf=0.5)
        assert not rules.is_materialized()

    @pytest.mark.parametrize("n_items", [63, 64, 65])
    @pytest.mark.parametrize("lonely", [False, True])
    @pytest.mark.parametrize("threshold", ["zero", "one", "attained"])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_random_word_boundary_contexts(self, n_items, lonely, threshold, data):
        db = data.draw(word_boundary_contexts(n_items, lonely))
        frequent = Apriori(minsup=0.0).mine(db)
        if threshold == "zero":
            minconf = 0.0
        elif threshold == "one":
            minconf = 1.0
        else:
            # A confidence some rule has exactly: the window's closed end.
            attained = sorted(
                {rule.confidence for rule in all_rules_reference(frequent, 0.0)}
            )
            minconf = data.draw(st.sampled_from(attained))
        if threshold == "zero":
            universe = generate_all_rules(frequent, minconf).to_arrays().universe
            assert len(universe) == n_items
        assert_matches_oracle(frequent, minconf)
