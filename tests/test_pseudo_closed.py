"""Tests for the frequent pseudo-closed itemset computation (Theorem 1)."""

from __future__ import annotations

import pytest

from repro import Apriori, Close
from repro.core.itemset import Itemset
from repro.core.pseudo_closed import (
    PseudoClosedItemset,
    frequent_pseudo_closed_itemsets,
)
from repro.errors import InvalidParameterError

from oracles import frequent_pseudo_closed_itemsets_reference


def compute(db, minsup):
    frequent = Apriori(minsup).mine(db)
    closed = Close(minsup).mine(db)
    return db, frequent, closed, frequent_pseudo_closed_itemsets(frequent, closed)


class TestToyContext:
    def test_pseudo_closed_sets_of_the_toy_context(self, toy_db):
        _, _, _, pseudo = compute(toy_db, 0.4)
        assert [p.itemset for p in pseudo] == [Itemset("a"), Itemset("b"), Itemset("e")]

    def test_closures_and_supports(self, toy_db):
        _, _, _, pseudo = compute(toy_db, 0.4)
        by_itemset = {p.itemset: p for p in pseudo}
        assert by_itemset[Itemset("a")].closure == Itemset("ac")
        assert by_itemset[Itemset("a")].support_count == 3
        assert by_itemset[Itemset("b")].closure == Itemset("be")
        assert by_itemset[Itemset("e")].closure == Itemset("be")
        assert by_itemset[Itemset("b")].support_count == 4

    def test_empty_set_not_pseudo_closed_when_closed(self, toy_db):
        _, _, _, pseudo = compute(toy_db, 0.4)
        assert Itemset() not in {p.itemset for p in pseudo}


class TestUniversalItemContext:
    def test_empty_set_is_pseudo_closed_when_not_closed(self, allx_db):
        _, _, _, pseudo = compute(allx_db, 0.25)
        by_itemset = {p.itemset: p for p in pseudo}
        assert Itemset() in by_itemset
        assert by_itemset[Itemset()].closure == Itemset("x")
        assert by_itemset[Itemset()].support_count == allx_db.n_objects


class TestDefinition:
    @pytest.mark.parametrize("minsup", [0.1, 0.3, 0.5])
    def test_definition_holds_on_random_databases(self, random_db, minsup):
        """Re-check the recursive definition itemset by itemset."""
        db, frequent, closed, pseudo = compute(random_db, minsup)
        pseudo_sets = {p.itemset for p in pseudo}

        def is_pseudo_closed(candidate: Itemset) -> bool:
            if db.closure(candidate) == candidate:
                return False
            for other in pseudo_sets:
                if other.is_proper_subset(candidate) and not db.closure(
                    other
                ).issubset(candidate):
                    return False
            return True

        # Every frequent itemset (plus the empty set) must be classified
        # exactly as the definition demands, given the returned pseudo set.
        candidates = [Itemset()] + frequent.itemsets()
        for candidate in candidates:
            assert (candidate in pseudo_sets) == is_pseudo_closed(candidate)

    def test_pseudo_closed_sets_are_disjoint_from_closed_sets(self, random_db):
        db, _, closed, pseudo = compute(random_db, 0.2)
        for entry in pseudo:
            assert entry.itemset not in closed
            assert db.closure(entry.itemset) == entry.closure
            assert db.support_count(entry.itemset) == entry.support_count

    def test_supports_equal_closure_supports(self, random_db):
        db, _, _, pseudo = compute(random_db, 0.2)
        for entry in pseudo:
            assert entry.support_count == db.support_count(entry.closure)


class TestPackedEquivalence:
    """The packed inner loop equals the per-pair reference computation."""

    @pytest.mark.parametrize("minsup", [0.1, 0.2, 0.4])
    def test_matches_reference_on_random_databases(self, random_db, minsup):
        frequent = Apriori(minsup).mine(random_db)
        closed = Close(minsup).mine(random_db)
        assert frequent_pseudo_closed_itemsets(
            frequent, closed
        ) == frequent_pseudo_closed_itemsets_reference(frequent, closed)

    def test_matches_reference_on_special_contexts(
        self, toy_db, allx_db, single_row_db, identical_rows_db, dense_smoke_db
    ):
        for db, minsup in [
            (toy_db, 0.4),
            (allx_db, 0.25),
            (single_row_db, 0.5),
            (identical_rows_db, 0.5),
            (dense_smoke_db, 0.2),
        ]:
            frequent = Apriori(minsup).mine(db)
            closed = Close(minsup).mine(db)
            assert frequent_pseudo_closed_itemsets(
                frequent, closed
            ) == frequent_pseudo_closed_itemsets_reference(frequent, closed)


class TestValidation:
    def test_pseudo_closed_value_object_rejects_bad_closure(self):
        with pytest.raises(InvalidParameterError):
            PseudoClosedItemset(
                itemset=Itemset("ab"), closure=Itemset("ab"), support_count=3
            )

    def test_mismatched_families_are_rejected(self, toy_db):
        frequent = Apriori(0.4).mine(toy_db)
        closed = Close(0.4).mine(toy_db)
        other = Apriori(0.4).mine(
            __import__("repro").TransactionDatabase([["a"], ["a", "b"]])
        )
        with pytest.raises(InvalidParameterError):
            frequent_pseudo_closed_itemsets(other, closed)
