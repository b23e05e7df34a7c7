"""Unit tests for the Apriori baseline miner."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from repro import Apriori, TransactionDatabase
from repro.algorithms.levelwise import join_level
from repro.core.itemset import Itemset
from repro.core.rulearrays import sorted_universe
from repro.errors import InvalidParameterError

from oracles import apriori_candidates_reference


def brute_force_frequent(db: TransactionDatabase, minsup: float) -> dict[Itemset, int]:
    """Reference implementation: enumerate every non-empty itemset."""
    threshold = db.minsup_count(minsup)
    items = list(db.item_universe)
    result: dict[Itemset, int] = {}
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            itemset = Itemset(combo)
            count = db.support_count(itemset)
            if count >= threshold:
                result[itemset] = count
    return result


def join_itemsets(level: list[Itemset]) -> list[Itemset]:
    """``join_level`` on the sorted rank rows of *level*, decoded back."""
    universe = sorted_universe(item for itemset in level for item in itemset)
    rank = {item: r for r, item in enumerate(universe)}
    size = len(level[0]) if level else 1
    rows = sorted(sorted(rank[item] for item in itemset) for itemset in level)
    candidates, _ = join_level(np.array(rows, dtype=np.intp).reshape(len(rows), size))
    return [Itemset([universe[r] for r in row]) for row in candidates.tolist()]


def ranks(*rows) -> np.ndarray:
    return np.array(rows, dtype=np.intp)


class TestCandidateGeneration:
    def test_joins_itemsets_sharing_prefix(self):
        # ab, ac, bc as ranks a=0, b=1, c=2
        candidates, subsets = join_level(ranks([0, 1], [0, 2], [1, 2]))
        assert candidates.tolist() == [[0, 1, 2]]
        # abc without a, b, c: rows bc, ac, ab
        assert subsets.tolist() == [[2, 1, 0]]

    def test_prunes_candidates_with_infrequent_subset(self):
        # {a,b,c} requires {b,c} to be present.
        candidates, subsets = join_level(ranks([0, 1], [0, 2]))
        assert candidates.shape == (0, 3)
        assert subsets.shape == (0, 3)

    def test_singletons_join_into_pairs(self):
        candidates, _ = join_level(ranks([0], [1], [2]))
        assert candidates.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_empty_level(self):
        candidates, _ = join_level(np.zeros((0, 2), dtype=np.intp))
        assert candidates.shape == (0, 3)

    def test_unsorted_level_with_integer_items(self):
        # Ranks follow the numeric item order: 1 < 2 < 10.
        level = [Itemset([2, 10]), Itemset([1, 10]), Itemset([1, 2])]
        assert join_itemsets(level) == [Itemset([1, 2, 10])]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_itemset_join(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 4)
        pool = [f"i{n}" for n in range(rng.randint(size, 9))]
        level = list({Itemset(rng.sample(pool, size)) for _ in range(rng.randint(0, 40))})
        assert join_itemsets(level) == apriori_candidates_reference(level)


class TestApriori:
    def test_toy_counts(self, toy_db, toy_frequent):
        assert len(toy_frequent) == 15
        assert toy_frequent.support_count(Itemset("abce")) == 2
        assert toy_frequent.support_count(Itemset("be")) == 4
        assert Itemset("d") not in toy_frequent

    def test_matches_brute_force_on_toy(self, toy_db):
        for minsup in (0.2, 0.4, 0.6, 0.8):
            family = Apriori(minsup).mine(toy_db)
            assert family.to_dict() == brute_force_frequent(toy_db, minsup)

    def test_matches_brute_force_on_random_databases(self, random_db):
        for minsup in (0.1, 0.25, 0.5):
            family = Apriori(minsup).mine(random_db)
            assert family.to_dict() == brute_force_frequent(random_db, minsup)

    def test_family_is_downward_closed(self, toy_frequent):
        for itemset in toy_frequent:
            for subset in itemset.nonempty_proper_subsets():
                assert subset in toy_frequent
                assert toy_frequent.support_count(subset) >= toy_frequent.support_count(
                    itemset
                )

    def test_max_size_caps_exploration(self, toy_db):
        capped = Apriori(minsup=0.4, max_size=2).mine(toy_db)
        assert capped.max_size() == 2
        full = Apriori(minsup=0.4).mine(toy_db)
        assert {i for i in full if len(i) <= 2} == set(capped)

    def test_high_threshold_keeps_only_ubiquitous_items(self, identical_rows_db):
        family = Apriori(minsup=1.0).mine(identical_rows_db)
        assert Itemset("abc") in family
        assert len(family) == 7  # every non-empty subset of {a,b,c}

    def test_minsup_validation(self):
        with pytest.raises(InvalidParameterError):
            Apriori(minsup=1.2)
        with pytest.raises(InvalidParameterError):
            Apriori(minsup=-0.1)

    def test_run_records_statistics(self, toy_db):
        run = Apriori(minsup=0.4).run(toy_db)
        stats = run.statistics
        assert stats.itemsets_found == 15
        assert stats.levels == 4
        assert stats.database_passes == stats.levels
        assert stats.candidates_generated >= 15
        assert stats.wall_clock_seconds >= 0.0
        assert "Apriori" in str(run)

    def test_threshold_metadata_is_recorded(self, toy_db):
        family = Apriori(minsup=0.4).mine(toy_db)
        assert family.minsup_count == 2
        assert family.n_objects == 5
