"""Tests for minimal generators and :class:`GeneratorFamily`."""

from __future__ import annotations

import pytest

from repro import AClose, Close
from repro.core.generators import GeneratorFamily, is_minimal_generator
from repro.core.itemset import Itemset
from repro.errors import InvalidParameterError

from oracles import generator_violations, minimal_generators_brute_force


class TestMinimalGeneratorPredicate:
    def test_empty_set_is_a_generator(self, toy_db):
        assert is_minimal_generator(toy_db, Itemset())

    def test_single_items(self, toy_db):
        assert is_minimal_generator(toy_db, Itemset("a"))
        assert is_minimal_generator(toy_db, Itemset("b"))

    def test_non_generators(self, toy_db):
        # supp(ac) == supp(a): dropping c changes nothing.
        assert not is_minimal_generator(toy_db, Itemset("ac"))
        assert not is_minimal_generator(toy_db, Itemset("be"))
        assert not is_minimal_generator(toy_db, Itemset("bce"))

    def test_generators_of_size_two(self, toy_db):
        assert is_minimal_generator(toy_db, Itemset("ab"))
        assert is_minimal_generator(toy_db, Itemset("bc"))

    def test_downward_closure_property(self, random_db):
        """Every subset of a minimal generator is a minimal generator."""
        items = list(random_db.item_universe)
        from itertools import combinations

        for size in (2, 3):
            for combo in combinations(items[:6], size):
                candidate = Itemset(combo)
                if random_db.support_count(candidate) == 0:
                    continue
                if is_minimal_generator(random_db, candidate):
                    for subset in candidate.immediate_subsets():
                        assert is_minimal_generator(random_db, subset)


class TestBruteForceGenerators:
    def test_generators_of_toy_closures(self, toy_db):
        assert minimal_generators_brute_force(toy_db, Itemset("ac")) == [Itemset("a")]
        assert minimal_generators_brute_force(toy_db, Itemset("be")) == [
            Itemset("b"),
            Itemset("e"),
        ]
        assert minimal_generators_brute_force(toy_db, Itemset("bce")) == [
            Itemset("bc"),
            Itemset("ce"),
        ]

    def test_self_generated_closed_set(self, toy_db):
        assert minimal_generators_brute_force(toy_db, Itemset("c")) == [Itemset("c")]


class TestGeneratorFamily:
    @pytest.fixture()
    def family(self, toy_db, toy_closed):
        miner = Close(minsup=0.4)
        miner.mine(toy_db)
        return GeneratorFamily(toy_closed, miner.generators_by_closure)

    def test_generators_match_brute_force(self, toy_db, family):
        for closed in family.closed_itemsets():
            assert list(family.generators_of(closed)) == minimal_generators_brute_force(
                toy_db, closed
            )

    def test_all_generators(self, family):
        generators = family.all_generators()
        assert Itemset("a") in generators
        assert Itemset("bc") in generators
        assert len(generators) == len(set(generators))

    def test_proper_generators_exclude_the_closure_itself(self, family):
        assert family.proper_generators_of(Itemset("c")) == ()
        assert family.proper_generators_of(Itemset("ac")) == (Itemset("a"),)

    def test_contains_and_len(self, family, toy_closed):
        assert len(family) == len(toy_closed)
        assert Itemset("ac") in family
        assert Itemset("zz") not in family

    def test_verify_against_database(self, toy_db, family):
        assert generator_violations(family, toy_db) == []

    def test_verification_reports_wrong_closure(self, toy_db, toy_closed):
        broken = GeneratorFamily(toy_closed, {Itemset("ac"): [Itemset("c")]})
        problems = generator_violations(broken, toy_db)
        assert problems and "closure" in problems[0]

    def test_rejects_generators_outside_their_closure(self, toy_closed):
        with pytest.raises(InvalidParameterError):
            GeneratorFamily(toy_closed, {Itemset("ac"): [Itemset("b")]})

    def test_rejects_unknown_closed_itemsets(self, toy_closed):
        with pytest.raises(InvalidParameterError):
            GeneratorFamily(toy_closed, {Itemset("ab"): [Itemset("a")]})

    def test_aclose_generators_also_verify(self, toy_db, toy_closed):
        miner = AClose(minsup=0.4)
        miner.mine(toy_db)
        family = GeneratorFamily(toy_closed, miner.generators_by_closure)
        # A-Close may record a universal item as a generator of h(∅); all
        # other recorded generators must verify.
        problems = [p for p in generator_violations(family, toy_db) if "minimal" in p]
        assert problems == []
