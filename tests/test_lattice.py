"""Tests for the iceberg lattice of frequent closed itemsets."""

from __future__ import annotations

import pytest

from repro import Close
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice

from oracles import is_transitive_reduction


@pytest.fixture()
def toy_lattice(toy_closed) -> IcebergLattice:
    return IcebergLattice(toy_closed)


class TestStructure:
    def test_nodes_are_the_closed_itemsets(self, toy_lattice, toy_closed):
        assert set(toy_lattice.nodes()) == set(toy_closed)
        assert len(toy_lattice) == 5

    def test_hasse_edges_of_the_toy_lattice(self, toy_lattice):
        assert set(toy_lattice.hasse_edges()) == {
            (Itemset("c"), Itemset("ac")),
            (Itemset("c"), Itemset("bce")),
            (Itemset("be"), Itemset("bce")),
            (Itemset("ac"), Itemset("abce")),
            (Itemset("bce"), Itemset("abce")),
        }
        assert toy_lattice.edge_count() == 5

    def test_hasse_edges_skip_transitive_pairs(self, toy_lattice):
        # c ⊂ abce but bce / ac lie strictly in between.
        assert (Itemset("c"), Itemset("abce")) not in toy_lattice.hasse_edges()

    def test_is_transitive_reduction(self, toy_lattice):
        assert is_transitive_reduction(toy_lattice)

    def test_comparable_pairs_superset_of_hasse_edges(self, toy_lattice):
        comparable = set(toy_lattice.comparable_pairs())
        assert set(toy_lattice.hasse_edges()) <= comparable
        assert (Itemset("c"), Itemset("abce")) in comparable
        assert len(comparable) == 7

    def test_support_counts_on_nodes(self, toy_lattice):
        assert toy_lattice.support_count(Itemset("c")) == 4
        assert toy_lattice.support_count(Itemset("abce")) == 2

    def test_contains(self, toy_lattice):
        assert Itemset("ac") in toy_lattice
        assert Itemset("a") not in toy_lattice


class TestNeighbourhoods:
    def test_immediate_successors(self, toy_lattice):
        assert toy_lattice.immediate_successors(Itemset("c")) == [
            Itemset("ac"),
            Itemset("bce"),
        ]
        assert toy_lattice.immediate_successors(Itemset("abce")) == []

    def test_immediate_predecessors(self, toy_lattice):
        assert toy_lattice.immediate_predecessors(Itemset("abce")) == [
            Itemset("ac"),
            Itemset("bce"),
        ]
        assert toy_lattice.immediate_predecessors(Itemset("c")) == []

    def test_minimal_and_maximal_elements(self, toy_lattice):
        assert toy_lattice.minimal_elements() == [Itemset("c"), Itemset("be")]
        assert toy_lattice.maximal_elements() == [Itemset("abce")]

    def test_path_between_comparable_nodes(self, toy_lattice):
        path = toy_lattice.path_between(Itemset("c"), Itemset("abce"))
        assert path is not None
        assert path[0] == Itemset("c") and path[-1] == Itemset("abce")
        for lower, upper in zip(path, path[1:]):
            assert (lower, upper) in toy_lattice.hasse_edges()

    def test_path_between_incomparable_nodes_is_none(self, toy_lattice):
        assert toy_lattice.path_between(Itemset("ac"), Itemset("be")) is None
        assert toy_lattice.path_between(Itemset("be"), Itemset("ac")) is None

    def test_path_to_itself(self, toy_lattice):
        assert toy_lattice.path_between(Itemset("c"), Itemset("c")) == [Itemset("c")]

    def test_path_with_unknown_node_is_none(self, toy_lattice):
        assert toy_lattice.path_between(Itemset("a"), Itemset("abce")) is None


class TestShape:
    def test_height(self, toy_lattice):
        assert toy_lattice.height() == 2

    def test_height_is_the_longest_chain_on_random_database(self, random_db):
        lattice = IcebergLattice(Close(minsup=0.2).mine(random_db))
        below: dict[Itemset, list[Itemset]] = {}
        for smaller, larger in lattice.comparable_pairs():
            below.setdefault(larger, []).append(smaller)
        depth: dict[Itemset, int] = {}
        for member in sorted(lattice.members, key=len):
            depth[member] = max((depth[low] + 1 for low in below.get(member, [])), default=0)
        assert lattice.height() == max(depth.values()) > 0

    def test_width_by_size(self, toy_lattice):
        assert toy_lattice.width_by_size() == {1: 1, 2: 2, 3: 1, 4: 1}

    def test_lattice_on_random_database_is_a_reduction(self, random_db):
        closed = Close(minsup=0.2).mine(random_db)
        lattice = IcebergLattice(closed)
        assert is_transitive_reduction(lattice)
        # Every Hasse edge is a strict containment with nothing in between.
        members = set(closed)
        for smaller, larger in lattice.hasse_edges():
            assert smaller.is_proper_subset(larger)
            assert not any(
                smaller.is_proper_subset(mid) and mid.is_proper_subset(larger)
                for mid in members
            )
