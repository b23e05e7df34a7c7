"""Unit tests for :class:`ItemsetFamily` and :class:`ClosedItemsetFamily`."""

from __future__ import annotations

import pytest

from repro import Apriori, Close
from repro.core.families import ClosedItemsetFamily, ItemsetFamily
from repro.core.itemset import Itemset
from repro.errors import InvalidParameterError


@pytest.fixture()
def small_family() -> ItemsetFamily:
    return ItemsetFamily(
        {Itemset("a"): 3, Itemset("b"): 4, Itemset("ab"): 2, Itemset("abc"): 1},
        n_objects=5,
        minsup_count=1,
    )


@pytest.fixture()
def toy_closed_family() -> ClosedItemsetFamily:
    """The closed family of the toy database at minsup 0.4, built by hand."""
    return ClosedItemsetFamily(
        {
            Itemset("c"): 4,
            Itemset("ac"): 3,
            Itemset("be"): 4,
            Itemset("bce"): 3,
            Itemset("abce"): 2,
        },
        n_objects=5,
        minsup_count=2,
    )


class TestItemsetFamily:
    def test_len_and_contains(self, small_family):
        assert len(small_family) == 4
        assert Itemset("ab") in small_family
        assert ["a", "b"] in small_family
        assert Itemset("zz") not in small_family

    def test_support_accessors(self, small_family):
        assert small_family.support_count(Itemset("b")) == 4
        assert small_family.support(Itemset("b")) == pytest.approx(0.8)
        assert small_family.get(Itemset("zz")) is None

    def test_missing_support_raises_keyerror(self, small_family):
        with pytest.raises(KeyError):
            small_family.support_count(Itemset("zz"))

    def test_minsup_properties(self, small_family):
        assert small_family.minsup_count == 1
        assert small_family.minsup == pytest.approx(0.2)

    def test_itemsets_are_sorted_canonically(self, small_family):
        assert small_family.itemsets() == [
            Itemset("a"),
            Itemset("b"),
            Itemset("ab"),
            Itemset("abc"),
        ]

    def test_by_size(self, small_family):
        grouped = small_family.by_size()
        assert set(grouped) == {1, 2, 3}
        assert grouped[1] == [Itemset("a"), Itemset("b")]

    def test_max_size(self, small_family):
        assert small_family.max_size() == 3
        assert ItemsetFamily({}, n_objects=5).max_size() == 0

    def test_maximal_itemsets(self, small_family):
        assert small_family.maximal_itemsets() == [Itemset("abc")]

    def test_restricted_to_max_size(self, small_family):
        restricted = small_family.restricted_to_max_size(1)
        assert len(restricted) == 2
        assert restricted.minsup_count == small_family.minsup_count

    def test_same_contents(self, small_family):
        twin = ItemsetFamily(small_family.to_dict(), n_objects=5, minsup_count=1)
        assert small_family.same_contents(twin)

    def test_validation_rejects_negative_counts(self):
        with pytest.raises(InvalidParameterError):
            ItemsetFamily({Itemset("a"): -1}, n_objects=5)

    def test_validation_rejects_count_above_n_objects(self):
        with pytest.raises(InvalidParameterError):
            ItemsetFamily({Itemset("a"): 6}, n_objects=5)

    def test_validation_rejects_bad_minsup_count(self):
        with pytest.raises(InvalidParameterError):
            ItemsetFamily({}, n_objects=5, minsup_count=0)


class TestClosedItemsetFamily:
    def test_closure_of_member_is_itself(self, toy_closed_family):
        for member in toy_closed_family:
            assert toy_closed_family.closure_of(member) == member
            assert toy_closed_family.is_member_closed_in_family(member)

    def test_closure_of_non_member(self, toy_closed_family):
        assert toy_closed_family.closure_of(Itemset("a")) == Itemset("ac")
        assert toy_closed_family.closure_of(Itemset("b")) == Itemset("be")
        assert toy_closed_family.closure_of(Itemset("ab")) == Itemset("abce")

    def test_closure_of_uncovered_itemset_is_none(self, toy_closed_family):
        assert toy_closed_family.closure_of(Itemset("ad")) is None

    def test_inferred_support(self, toy_closed_family):
        assert toy_closed_family.inferred_support_count(Itemset("a")) == 3
        assert toy_closed_family.inferred_support_count(Itemset("ce")) == 3
        assert toy_closed_family.inferred_support(Itemset("b")) == pytest.approx(0.8)
        assert toy_closed_family.inferred_support_count(Itemset("ad")) is None

    def test_bottom_closure_empty_when_no_common_item(self, toy_closed_family):
        assert toy_closed_family.bottom_closure() == Itemset()

    def test_bottom_closure_detects_universal_item(self):
        family = ClosedItemsetFamily(
            {Itemset("x"): 4, Itemset("xa"): 2}, n_objects=4
        )
        assert family.bottom_closure() == Itemset("x")

    def test_frequent_supersets(self, toy_closed_family):
        supersets = toy_closed_family.frequent_supersets(Itemset("c"))
        assert supersets == [Itemset("ac"), Itemset("bce"), Itemset("abce")]

    def test_expand_to_frequent_itemsets_matches_apriori(self, toy_db):
        closed = Close(minsup=0.4).mine(toy_db)
        frequent = Apriori(minsup=0.4).mine(toy_db)
        expanded = closed.expand_to_frequent_itemsets()
        assert expanded.to_dict() == frequent.to_dict()

    def test_expand_drops_empty_itemset(self, toy_closed_family):
        expanded = toy_closed_family.expand_to_frequent_itemsets()
        assert Itemset() not in expanded


def closure_of_linear_scan(family: ClosedItemsetFamily, itemset: Itemset):
    """The pre-index reference semantics: strictly-better-(len, count) scan."""
    best = None
    best_count = -1
    for member, count in family.to_dict().items():
        if itemset.issubset(member):
            if best is None or len(member) < len(best) or (
                len(member) == len(best) and count < best_count
            ):
                best = member
                best_count = count
    return best


class TestClosureOfIndex:
    """The size-bucketed packed lookup equals the linear reference scan."""

    def test_matches_linear_scan_on_mined_families(self, random_db):
        closed = Close(minsup=0.1).mine(random_db)
        items = sorted({item for member in closed for item in member})
        queries = [Itemset()] + [Itemset([item]) for item in items]
        for member in closed:
            queries.append(member)
            queries.extend(member.subsets_of_size(min(2, len(member))))
        queries.append(Itemset(items))  # usually uncovered -> None
        queries.append(Itemset(["never-seen"]))
        for query in queries:
            assert closed.closure_of(query) == closure_of_linear_scan(closed, query)

    def test_support_tie_resolution_prefers_lower_count(self):
        # Deliberately malformed family (two incomparable same-size members
        # both containing the query): the documented tie rule is minimal
        # support, then canonical order.
        family = ClosedItemsetFamily(
            {Itemset("ab"): 4, Itemset("ac"): 2}, n_objects=5
        )
        assert family.closure_of(Itemset("a")) == Itemset("ac")
        tied = ClosedItemsetFamily(
            {Itemset("ab"): 3, Itemset("ac"): 3}, n_objects=5
        )
        assert tied.closure_of(Itemset("a")) == Itemset("ab")

    def test_empty_family_and_unknown_items(self):
        empty = ClosedItemsetFamily({}, n_objects=0)
        assert empty.closure_of(Itemset("a")) is None
        family = ClosedItemsetFamily({Itemset("a"): 1}, n_objects=2)
        assert family.closure_of(Itemset("z")) is None
        assert family.closure_of(Itemset()) == Itemset("a")
