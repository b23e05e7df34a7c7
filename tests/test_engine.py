"""Tests of the batch closure engine (`repro.engine`).

Four groups of guarantees:

* **batch/single agreement** — property tests that ``closures()`` /
  ``supports()`` / ``extents()`` over a batch agree itemset-by-itemset
  with the single-itemset ``TransactionDatabase`` API and with the
  set-based Galois reference of ``oracles.py``, on random contexts;
* **reference agreement** — on contexts whose objects and items
  straddle a packed word boundary, on larger random contexts, and for
  every miner's family;
* **cache behaviour** — LRU hits/misses/eviction of the shared closure
  cache, and the database's one engine (extended and restricted
  contexts get their own);
* **wiring** — the level-wise miners route whole candidate levels
  through the engine's level entry point, which agrees with the
  reference serially and sharded over two threads.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AClose, Apriori, Charm, Close, TransactionDatabase
from repro.algorithms.levelwise import decode_packed
from repro.core.itemset import Itemset
from repro.engine import ClosureEngine
from repro.errors import InvalidItemsetError

from oracles import (
    GaloisReference,
    aclose_reference,
    apriori_reference,
    close_reference,
)

ITEM_POOL = ["a", "b", "c", "d", "e", "f"]


@st.composite
def contexts(draw) -> TransactionDatabase:
    """Random small mining contexts (1–12 objects over 6 items)."""
    n_rows = draw(st.integers(min_value=1, max_value=12))
    rows = [
        draw(st.sets(st.sampled_from(ITEM_POOL), min_size=0, max_size=len(ITEM_POOL)))
        for _ in range(n_rows)
    ]
    return TransactionDatabase(rows, item_order=ITEM_POOL)


@st.composite
def context_and_batch(draw):
    db = draw(contexts())
    batch = [
        Itemset(draw(st.sets(st.sampled_from(ITEM_POOL), min_size=0, max_size=4)))
        for _ in range(draw(st.integers(min_value=0, max_value=12)))
    ]
    return db, batch


@st.composite
def wide_context_and_batch(draw):
    """63/64/65 objects over 63/64/65 items, with batches of 1–8 candidates.

    Both packed axes of the engine (object bits per item row, item
    bits per object row) straddle a uint64 word boundary.  The cells come
    from a seeded generator: drawn one by one, ~4,000 of them exceed
    hypothesis's entropy budget and fail its data-size health check.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool = [f"i{k:02d}" for k in range(draw(st.sampled_from([63, 64, 65])))]
    n_objects = draw(st.sampled_from([63, 64, 65]))
    density = draw(st.sampled_from([0.05, 0.5, 0.95]))
    rows = [{item for item in pool if rng.random() < density} for _ in range(n_objects)]
    db = TransactionDatabase(rows, item_order=pool)
    batch = [
        Itemset(rng.sample(pool, rng.randint(0, 4)))
        for _ in range(draw(st.integers(min_value=1, max_value=8)))
    ]
    return db, batch


def make_random_db(seed: int, n_objects: int = 60, n_items: int = 10):
    rng = random.Random(seed)
    rows = [
        sorted({f"i{rng.randrange(n_items)}" for _ in range(rng.randint(0, 7))})
        for _ in range(n_objects)
    ]
    return TransactionDatabase(rows, name=f"random{seed}")


# ----------------------------------------------------------------------
# Batch results agree with the single-itemset API and brute force
# ----------------------------------------------------------------------
class TestBatchAgreesWithSingle:
    @settings(max_examples=60, deadline=None)
    @given(data=context_and_batch())
    def test_closures_match_per_itemset_closure(self, data):
        db, batch = data
        reference = GaloisReference(db)
        closures = ClosureEngine(db).closures(batch)
        assert len(closures) == len(batch)
        for itemset, closure in zip(batch, closures):
            assert closure == db.closure(itemset)
            assert closure == reference.closure(itemset)

    @settings(max_examples=60, deadline=None)
    @given(data=context_and_batch())
    def test_supports_and_extents_match_reference(self, data):
        db, batch = data
        reference = GaloisReference(db)
        engine = ClosureEngine(db)
        supports = engine.supports(batch)
        extents = engine.extents(batch)
        for itemset, support, extent in zip(batch, supports, extents):
            assert extent == reference.cover(itemset)
            assert support == len(extent)

    @settings(max_examples=40, deadline=None)
    @given(data=context_and_batch())
    def test_closures_and_supports_consistent(self, data):
        db, batch = data
        pairs = db.engine().closures_and_supports(batch)
        assert pairs == list(
            zip(db.engine().closures(batch), db.engine().supports(batch))
        )

    def test_large_batch_equals_single_calls(self):
        # One large batch (cover dedup + one AND-reduce over the distinct
        # covers) against one batch of one per candidate.
        db = make_random_db(1)
        rng = random.Random(9)
        batch = [
            Itemset(rng.sample(db.items, rng.randint(0, 4))) for _ in range(300)
        ]
        engine = ClosureEngine(db, cache_size=0)
        expected = [engine.closure_and_support(c) for c in batch]
        assert engine.closures_and_supports(batch) == expected

    def test_unknown_item_raises(self):
        db = make_random_db(2)
        with pytest.raises(InvalidItemsetError):
            ClosureEngine(db).closures([Itemset.of("nope")])

    def test_duplicates_in_one_batch(self):
        db = make_random_db(3)
        itemset = Itemset.of(db.items[0])
        engine = ClosureEngine(db)
        closures = engine.closures([itemset, itemset, itemset])
        assert closures[0] == closures[1] == closures[2] == db.closure(itemset)


# ----------------------------------------------------------------------
# The engine equals the set-based reference
# ----------------------------------------------------------------------
class TestEngineMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.one_of(context_and_batch(), wide_context_and_batch()))
    def test_batches_match_set_reference(self, data):
        db, batch = data
        engine = ClosureEngine(db)
        reference = GaloisReference(db)
        expected = reference.closures_and_supports(batch)
        assert engine.closures_and_supports(batch) == expected
        assert engine.extents(batch) == [reference.cover(itemset) for itemset in batch]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_larger_random_contexts_match_set_reference(self, seed):
        db = make_random_db(seed, n_objects=150, n_items=14)
        rng = random.Random(seed + 100)
        batch = [
            Itemset(rng.sample(db.items, rng.randint(0, 5))) for _ in range(200)
        ]
        expected = GaloisReference(db).closures_and_supports(batch)
        assert ClosureEngine(db).closures_and_supports(batch) == expected

    @pytest.mark.parametrize(
        ("miner", "reference"),
        [
            (Apriori, apriori_reference),
            (Close, close_reference),
            (AClose, aclose_reference),
            (Charm, close_reference),
        ],
        ids=["Apriori", "Close", "A-Close", "CHARM"],
    )
    def test_miners_match_set_based_references(self, miner, reference):
        db = make_random_db(7, n_objects=80, n_items=9)
        expected = reference(db, 0.1).family.items_with_supports()
        assert dict(miner(0.1).mine(db).items_with_supports()) == dict(expected)

    def test_empty_context_edge_cases(self):
        db = TransactionDatabase([[]], item_order=["a", "b"])
        engine = ClosureEngine(db)
        assert engine.closures([Itemset.empty()]) == [Itemset.empty()]
        assert engine.supports([Itemset.of("a")]) == [0]
        assert engine.closures([Itemset.of("a")]) == [db.item_universe]


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
class TestClosureCache:
    def test_repeated_single_calls_hit_the_cache(self):
        db = make_random_db(11)
        engine = ClosureEngine(db)
        itemset = Itemset.of(db.items[0], db.items[1])
        first = engine.closure_and_support(itemset)
        info_after_first = engine.cache_info()
        second = engine.closure_and_support(itemset)
        info_after_second = engine.cache_info()
        assert first == second
        assert info_after_first.misses == 1 and info_after_first.hits == 0
        assert info_after_second.hits == 1 and info_after_second.misses == 1
        assert info_after_second.currsize == 1

    def test_batch_only_computes_cache_misses(self):
        db = make_random_db(12)
        engine = ClosureEngine(db)
        warm = [Itemset.of(item) for item in db.items[:3]]
        cold = [Itemset.of(item) for item in db.items[3:6]]
        engine.closures(warm)
        before = engine.cache_info()
        engine.closures(warm + cold)
        after = engine.cache_info()
        assert after.hits == before.hits + len(warm)
        assert after.misses == before.misses + len(cold)

    def test_supports_use_cached_closure_pairs(self):
        db = make_random_db(13)
        engine = ClosureEngine(db)
        itemset = Itemset.of(db.items[0])
        _, support = engine.closure_and_support(itemset)
        assert engine.supports([itemset]) == [support]
        assert engine.cache_info().hits == 1

    def test_lru_eviction_bounds_cache_size(self):
        db = make_random_db(14)
        engine = ClosureEngine(db, cache_size=4)
        batch = [Itemset.of(item) for item in db.items[:8]]
        engine.closures(batch)
        info = engine.cache_info()
        assert info.currsize == 4
        # The oldest entries were evicted: querying them misses again.
        engine.closure(batch[0])
        assert engine.cache_info().misses == info.misses + 1
        # The newest entries are still cached.
        engine.closure(batch[-1])
        assert engine.cache_info().hits == info.hits + 1

    def test_cache_clear_and_disabled_cache(self):
        db = make_random_db(15)
        engine = ClosureEngine(db)
        engine.closure(Itemset.of(db.items[0]))
        engine.cache_clear()
        info = engine.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        uncached = ClosureEngine(db, cache_size=0)
        uncached.closure(Itemset.of(db.items[0]))
        uncached.closure(Itemset.of(db.items[0]))
        assert uncached.cache_info().currsize == 0
        assert uncached.cache_info().hits == 0


# ----------------------------------------------------------------------
# The database's engine
# ----------------------------------------------------------------------
class TestDatabaseEngine:
    def test_database_engine_is_built_once(self):
        db = make_random_db(21)
        assert isinstance(db.engine(), ClosureEngine)
        assert db.engine() is db.engine()

    def test_database_wrappers_route_through_default_engine(self):
        db = make_random_db(23)
        itemset = Itemset.of(db.items[0])
        db.closure(itemset)
        db.closure(itemset)
        assert db.engine().cache_info().hits >= 1

    def test_extended_database_carries_a_cold_cache_over(self):
        db = make_random_db(24)
        engine = db.engine()
        probes = [Itemset.of(item) for item in db.items]
        engine.closures(probes)
        extended = db.extended([db.items[:2], db.items[2:5]])
        carried = extended.engine()
        assert carried is not engine and carried.database is extended
        info = carried.cache_info()
        assert (info.currsize, info.maxsize) == (0, engine.cache_info().maxsize)
        expected = GaloisReference(extended).closures_and_supports(probes)
        assert carried.closures_and_supports(probes) == expected

    def test_restricted_database_builds_its_own_engine(self):
        db = make_random_db(25)
        kept = db.items[:5]
        restricted = db.restrict_to_items(kept)
        assert restricted.engine() is not db.engine()
        assert restricted.engine().database is restricted
        probes = [Itemset.empty()] + [Itemset.of(item) for item in kept]
        expected = GaloisReference(restricted).closures_and_supports(probes)
        assert restricted.engine().closures_and_supports(probes) == expected


# ----------------------------------------------------------------------
# The miners actually use the batch entry points
# ----------------------------------------------------------------------
class TestMinersUseBatches:
    """One ``evaluate_level`` batch per level; only Close and A-Close close."""

    def _record_levels(self, monkeypatch, engine):
        calls: list[tuple[int, int | None]] = []
        original = engine.evaluate_level

        def recording(columns, close_at=None):
            calls.append((len(columns), close_at))
            return original(columns, close_at=close_at)

        monkeypatch.setattr(engine, "evaluate_level", recording)
        return calls

    def test_close_batches_whole_levels(self, monkeypatch):
        db = make_random_db(31)
        calls = self._record_levels(monkeypatch, db.engine())
        run = Close(0.1).run(db)
        # One batch per level, each covering the full candidate level and
        # closing its frequent candidates: far fewer calls than candidates.
        assert len(calls) == run.statistics.levels
        assert sum(rows for rows, _ in calls) == run.statistics.candidates_generated
        assert calls[0][0] == db.n_items and max(rows for rows, _ in calls) > 1
        threshold = db.minsup_count(0.1)
        assert all(close_at == threshold for _, close_at in calls)

    def test_aclose_batches_supports_and_final_closures(self, monkeypatch):
        db = make_random_db(32)
        calls = self._record_levels(monkeypatch, db.engine())
        miner = AClose(0.1)
        run = miner.run(db)
        assert calls[0] == (db.n_items, None)
        # One support batch per level, then exactly one closure batch: the
        # phase-2 pass over all generators.
        assert len(calls) == run.statistics.levels + 1
        assert all(close_at is None for _, close_at in calls[:-1])
        assert calls[-1] == (len(miner.generators), db.minsup_count(0.1))

    def test_apriori_batches_support_counting(self, monkeypatch):
        db = make_random_db(33)
        calls = self._record_levels(monkeypatch, db.engine())
        run = Apriori(0.1).run(db)
        assert calls and calls[0] == (db.n_items, None)
        # One supports batch per level, none of them closing.
        assert len(calls) == run.statistics.levels
        assert all(close_at is None for _, close_at in calls)

    @pytest.mark.parametrize("miner", [Apriori(0.1), Close(0.1), AClose(0.1)])
    def test_miners_leave_the_closure_cache_alone(self, miner):
        db = make_random_db(34)
        miner.run(db)
        info = db.engine().cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


# ----------------------------------------------------------------------
# The level entry point agrees with the Itemset batch methods
# ----------------------------------------------------------------------
class TestEvaluateLevel:
    """Serial and two-thread engines: the sharded gather and AND-reduce too."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("close_at", [None, 0, 1, 3])
    def test_matches_set_reference(self, close_at, workers):
        rng = random.Random(35)
        rows = [
            sorted({f"i{rng.randrange(66)}" for _ in range(rng.randint(0, 30))})
            for _ in range(70)
        ]
        db = TransactionDatabase(rows)
        reference = GaloisReference(db)
        columns = np.random.default_rng(35).integers(0, db.n_items, size=(300, 3))
        columns[:20, 1:] = columns[:20, :1]  # rows padded by repeating an item
        itemsets = [Itemset(db.items[c] for c in row) for row in columns.tolist()]
        engine = ClosureEngine(db, cache_size=0, workers=workers)
        supports, closures = engine.evaluate_level(columns, close_at=close_at)
        assert supports.tolist() == reference.supports(itemsets)
        if close_at is None:
            assert closures is None
            return
        closed = np.flatnonzero(supports >= close_at)
        expected = reference.closures([itemsets[r] for r in closed])
        assert decode_packed(closures, db.items) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_level(self, workers):
        db = make_random_db(36)
        engine = ClosureEngine(db, workers=workers)
        supports, closures = engine.evaluate_level(np.zeros((0, 2), dtype=np.intp), 1)
        assert supports.shape == (0,) and closures.shape[0] == 0
