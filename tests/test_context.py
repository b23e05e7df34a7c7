"""Unit tests for the mining context (:class:`TransactionDatabase`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Apriori, TransactionDatabase
from repro.core.itemset import Itemset
from repro.errors import (
    EmptyDatabaseError,
    InvalidItemsetError,
    InvalidParameterError,
)


class TestConstruction:
    def test_basic_shape(self, toy_db):
        assert toy_db.n_objects == 5
        assert toy_db.n_items == 5
        assert len(toy_db) == 5

    def test_items_are_sorted(self, toy_db):
        assert toy_db.items == ("a", "b", "c", "d", "e")

    def test_default_object_ids(self, toy_db):
        assert toy_db.object_ids == (0, 1, 2, 3, 4)

    def test_duplicate_items_in_transaction_are_collapsed(self):
        db = TransactionDatabase([["a", "a", "b"]])
        assert db.transaction(0) == Itemset("ab")

    def test_explicit_item_order_is_respected(self):
        db = TransactionDatabase([["a", "b"]], item_order=["b", "a"])
        assert db.items == ("b", "a")

    def test_item_order_may_add_unseen_items(self):
        db = TransactionDatabase([["a"]], item_order=["a", "z"])
        assert "z" in db.items
        assert db.support_count(Itemset("z")) == 0

    def test_empty_transactions_are_kept(self):
        db = TransactionDatabase([["a"], []])
        assert db.n_objects == 2
        assert db.transaction(1) == Itemset()

    def test_mismatched_object_ids_raise(self):
        with pytest.raises(InvalidParameterError):
            TransactionDatabase([["a"], ["b"]], object_ids=["only-one"])

    def test_from_pairs(self):
        db = TransactionDatabase.from_pairs(
            [("t1", "a"), ("t1", "b"), ("t2", "a")], name="pairs"
        )
        assert db.n_objects == 2
        assert db.object_ids == ("t1", "t2")
        assert db.transaction(0) == Itemset("ab")

    def test_from_binary_matrix(self):
        matrix = np.array([[1, 0, 1], [0, 1, 1]])
        db = TransactionDatabase.from_binary_matrix(matrix, items=["x", "y", "z"])
        assert db.transaction(0) == Itemset(["x", "z"])
        assert db.transaction(1) == Itemset(["y", "z"])

    def test_from_binary_matrix_default_item_names(self):
        db = TransactionDatabase.from_binary_matrix(np.eye(2, dtype=bool))
        assert db.items == ("i0", "i1")

    def test_from_binary_matrix_rejects_bad_shapes(self):
        with pytest.raises(InvalidParameterError):
            TransactionDatabase.from_binary_matrix(np.zeros(3))
        with pytest.raises(InvalidParameterError):
            TransactionDatabase.from_binary_matrix(np.zeros((2, 2)), items=["only-one"])

    def test_repr_mentions_shape(self, toy_db):
        assert "objects=5" in repr(toy_db)
        assert "toy" in repr(toy_db)


class TestStatistics:
    def test_density(self, toy_db):
        # 16 relation pairs out of 5 x 5 cells.
        assert toy_db.density == pytest.approx(16 / 25)

    def test_avg_and_max_transaction_size(self, toy_db):
        assert toy_db.avg_transaction_size == pytest.approx(16 / 5)
        assert toy_db.max_transaction_size == 4

    def test_item_support_counts(self, toy_db):
        counts = toy_db.item_support_counts()
        assert counts == {"a": 3, "b": 4, "c": 4, "d": 1, "e": 4}

    def test_relation_pairs_round_trip(self, toy_db):
        pairs = list(toy_db.relation_pairs())
        assert ("0", "a") not in pairs  # ids are ints by default
        assert (0, "a") in pairs
        assert len(pairs) == 16

    def test_empty_database_statistics(self):
        db = TransactionDatabase([])
        assert db.density == 0.0
        assert db.avg_transaction_size == 0.0
        assert db.max_transaction_size == 0


class TestGaloisPrimitives:
    def test_cover_of_single_item(self, toy_db):
        assert toy_db.cover(Itemset("a")) == frozenset({0, 2, 4})

    def test_cover_of_pair(self, toy_db):
        assert toy_db.cover(Itemset("bc")) == frozenset({1, 2, 4})

    def test_cover_of_empty_itemset_is_every_object(self, toy_db):
        assert toy_db.cover(Itemset()) == frozenset(range(5))

    def test_cover_mask_agrees_with_cover(self, toy_db):
        mask = toy_db.cover_mask(Itemset("bc"))
        assert set(np.flatnonzero(mask)) == {1, 2, 4}

    def test_common_items(self, toy_db):
        assert toy_db.common_items([2, 4]) == Itemset("abce")
        assert toy_db.common_items([0, 1]) == Itemset("c")

    def test_common_items_of_no_objects_is_universe(self, toy_db):
        assert toy_db.common_items([]) == toy_db.item_universe

    def test_closure_examples(self, toy_db):
        assert toy_db.closure(Itemset("a")) == Itemset("ac")
        assert toy_db.closure(Itemset("b")) == Itemset("be")
        assert toy_db.closure(Itemset("bc")) == Itemset("bce")
        assert toy_db.closure(Itemset("c")) == Itemset("c")

    def test_closure_of_empty_itemset(self, toy_db, allx_db):
        assert toy_db.closure(Itemset()) == Itemset()
        assert allx_db.closure(Itemset()) == Itemset("x")

    def test_closure_of_unsupported_itemset_is_universe(self, toy_db):
        assert toy_db.closure(Itemset("ad") | Itemset("e")) == toy_db.item_universe

    def test_closure_and_support(self, toy_db):
        closure, count = toy_db.closure_and_support(Itemset("a"))
        assert closure == Itemset("ac")
        assert count == 3

    def test_is_closed(self, toy_db):
        assert toy_db.is_closed(Itemset("c"))
        assert not toy_db.is_closed(Itemset("a"))

    def test_unknown_item_raises(self, toy_db):
        with pytest.raises(InvalidItemsetError):
            toy_db.cover(Itemset("zz"))


class TestSupport:
    def test_support_count(self, toy_db):
        assert toy_db.support_count(Itemset("be")) == 4
        assert toy_db.support_count(Itemset("abce")) == 2
        assert toy_db.support_count(Itemset("d")) == 1

    def test_relative_support(self, toy_db):
        assert toy_db.support(Itemset("be")) == pytest.approx(0.8)

    def test_support_on_empty_database_raises(self):
        with pytest.raises(EmptyDatabaseError):
            TransactionDatabase([]).support(Itemset())

    def test_minsup_count_rounds_up(self, toy_db):
        assert toy_db.minsup_count(0.5) == 3
        assert toy_db.minsup_count(0.41) == 3
        assert toy_db.minsup_count(0.4) == 2

    def test_minsup_count_zero_maps_to_one(self, toy_db):
        assert toy_db.minsup_count(0.0) == 1

    def test_minsup_count_rejects_out_of_range(self, toy_db):
        with pytest.raises(InvalidParameterError):
            toy_db.minsup_count(1.5)

    def test_minsup_count_is_exact_where_the_product_rounds_up(self):
        # 0.07 * 100 is 7.000000000000001 in floating point, yet 7/100 >= 0.07.
        db = TransactionDatabase([["a"]] * 7 + [["b"]] * 93)
        assert db.minsup_count(0.07) == 7
        assert Apriori(0.07).mine(db).support_count(["a"]) == 7

    def test_minsup_count_matches_its_definition(self):
        for n in range(1, 201):
            db = TransactionDatabase([[]] * n)
            for k in range(n + 1):
                minsup = k / n
                smallest = next(c for c in range(1, n + 1) if c / n >= minsup)
                assert db.minsup_count(minsup) == smallest, (n, k)


class TestViewsAndRestriction:
    def test_vertical_representation(self, toy_db):
        vertical = toy_db.vertical()
        assert vertical["a"] == frozenset({0, 2, 4})
        assert vertical["d"] == frozenset({0})

    def test_vertical_bits_popcounts_match_supports(self, toy_db):
        bits = toy_db.vertical_bits()
        for item, count in toy_db.item_support_counts().items():
            assert bits[item].bit_count() == count

    def test_binary_matrix_round_trip(self, toy_db):
        matrix = toy_db.to_binary_matrix()
        rebuilt = TransactionDatabase.from_binary_matrix(matrix, items=toy_db.items)
        assert rebuilt.transactions() == toy_db.transactions()

    def test_restrict_to_items(self, toy_db):
        restricted = toy_db.restrict_to_items(Itemset("abc"))
        assert restricted.n_items == 3
        assert restricted.n_objects == 5
        assert restricted.support_count(Itemset("ab")) == toy_db.support_count(
            Itemset("ab")
        )

    def test_restrict_to_unknown_items_raises(self, toy_db):
        with pytest.raises(InvalidItemsetError):
            toy_db.restrict_to_items(Itemset("zz"))

    def test_restrict_to_frequent_items(self, toy_db):
        pruned = toy_db.restrict_to_frequent_items(0.4)
        assert "d" not in pruned.items
        assert pruned.n_objects == toy_db.n_objects
        assert pruned.support_count(Itemset("ace")) == toy_db.support_count(
            Itemset("ace")
        )
