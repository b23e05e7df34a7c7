"""Tests of the incremental mining layer (:mod:`repro.incremental`).

Four layers, mirroring the package: the extended-context constructor
and its warm engine hand-off, the delta maintenance of the mined
families (always checked against the fresh-mine oracle), the sliding
window, and the store/CLI/serve wiring that carries a repaired
generation all the way to a watching daemon (the rewritten store
byte-identical to a fresh save of the extended context).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.itemset import Itemset
from repro.data.context import TransactionDatabase
from repro.data.synthetic import make_rule_dense_context
from repro.errors import InvalidParameterError, OracleMismatchError
from repro.experiments.harness import (
    build_rule_artifacts,
    mine_itemsets,
    save_artifacts,
)
from repro.incremental import SlidingWindow, update_mining
from repro.incremental.store import update_store

from conftest import make_random_db

TOY = [
    ["a", "c", "d"],
    ["b", "c", "e"],
    ["a", "b", "c", "e"],
    ["b", "e"],
    ["a", "b", "c", "e"],
]


def random_batch(seed: int, size: int, n_items: int = 8, max_row: int = 6):
    """Batch rows over the same item pool as :func:`make_random_db`."""
    import random

    rng = random.Random(seed ^ 0x5EED)
    return [
        frozenset(f"i{rng.randrange(n_items)}" for _ in range(rng.randint(1, max_row)))
        for _ in range(size)
    ]


def assert_matches_fresh_mine(result):
    """The strong form of the oracle: every artifact equals a fresh mine."""
    fresh = mine_itemsets(result.mining.database, result.mining.minsup)
    assert result.mining.frequent.same_contents(fresh.frequent)
    assert result.mining.closed.same_contents(fresh.closed)
    assert result.mining.generators_by_closure == fresh.generators_by_closure


# ----------------------------------------------------------------------
# Extended contexts and warm engines
# ----------------------------------------------------------------------
class TestExtendedDatabase:
    def test_prefix_and_ids_are_shared(self, toy_db):
        extended = toy_db.extended([["a", "b"], ["c", "f"]])
        assert extended.n_objects == toy_db.n_objects + 2
        assert extended.items[: toy_db.n_items] == toy_db.items
        assert "f" in extended.items
        assert np.array_equal(
            extended.matrix[: toy_db.n_objects, : toy_db.n_items], toy_db.matrix
        )
        assert extended.object_ids[: toy_db.n_objects] == toy_db.object_ids
        assert toy_db.n_objects == 5  # the original is untouched

    def test_new_items_are_appended_sorted(self, toy_db):
        extended = toy_db.extended([["z", "f"], ["g"]])
        assert extended.items == toy_db.items + ("f", "g", "z")

    def test_supports_match_a_fresh_parse(self, toy_db):
        batch = [["a", "c"], ["b", "e", "f"]]
        extended = toy_db.extended(batch)
        fresh = TransactionDatabase(list(toy_db.transactions()) + batch)
        for item in extended.items:
            probe = Itemset([item])
            assert extended.support_count(probe) == fresh.support_count(probe)

    @pytest.mark.parametrize(
        "batch",
        [
            [["a", "b", "f"], ["c"]],
            [["a", "c"], ["b", "e"]],
            [["a", "b", "c", "e"]] * 40 + [["d", "g"]] * 30,
        ],
        ids=["new-item", "known-items", "past-word-boundary"],
    )
    def test_warm_engine_equals_cold_engine(self, toy_db, batch):
        warm_src = toy_db.engine()
        assert warm_src is not None  # materialise before extending
        extended = toy_db.extended(batch)
        warm = extended.engine()
        cold = type(warm)(extended)
        probes = [Itemset(p) for p in ([], ["c", "e"], ["a", "b", "c"])]
        probes += [Itemset([item]) for item in extended.items]
        for probe in probes:
            assert warm.closure(probe) == cold.closure(probe)
            assert warm.support_count(probe) == cold.support_count(probe)
        assert warm.extents(probes) == cold.extents(probes)

    def test_object_id_length_is_validated(self, toy_db):
        with pytest.raises(InvalidParameterError):
            toy_db.extended([["a"]], object_ids=[1, 2, 3])


# ----------------------------------------------------------------------
# Family / generator maintenance
# ----------------------------------------------------------------------
class TestUpdateMining:
    def test_toy_append_is_incremental_and_exact(self, toy_db):
        mining = mine_itemsets(toy_db, 0.4)
        result = update_mining(
            mining, [["a", "b", "c", "e"]], damage_threshold=1.0, verify="oracle"
        )
        assert result.statistics.mode == "incremental"
        assert result.statistics.n_appended == 1
        assert result.statistics.fallback_reason is None
        assert 0 < result.statistics.damaged_closed <= result.statistics.old_closed
        assert_matches_fresh_mine(result)

    def test_empty_batch_is_a_no_op(self, toy_db):
        mining = mine_itemsets(toy_db, 0.4)
        result = update_mining(mining, [], damage_threshold=1.0, verify="oracle")
        assert result.statistics.mode == "incremental"
        assert result.statistics.damaged_closed == 0
        assert result.mining.frequent.same_contents(mining.frequent)
        assert result.mining.closed.same_contents(mining.closed)

    def test_batch_with_new_universe_items(self, toy_db):
        mining = mine_itemsets(toy_db, 0.3)
        batch = [["a", "f", "g"], ["f", "g"], ["f", "g", "c"]]
        result = update_mining(mining, batch, damage_threshold=1.0, verify="oracle")
        assert result.statistics.mode == "incremental"
        assert result.statistics.new_frequent > 0
        assert_matches_fresh_mine(result)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_contexts_match_oracle(self, seed):
        db = make_random_db(seed)
        mining = mine_itemsets(db, 0.15)
        batch = random_batch(seed, 4)
        result = update_mining(mining, batch, damage_threshold=1.0, verify="oracle")
        assert result.statistics.mode == "incremental"
        assert_matches_fresh_mine(result)

    @pytest.mark.parametrize("warm_cache", [False, True], ids=["cold", "warm"])
    def test_base_closure_cache_does_not_leak(self, warm_cache):
        db = make_random_db(7)
        mining = mine_itemsets(db, 0.2)
        if warm_cache:
            # Cache the base context's pairs; the appended rows change them.
            frequent = [itemset for itemset, _ in mining.frequent.items_with_supports()]
            db.engine().closures_and_supports(frequent)
            assert db.engine().cache_info().currsize == len(frequent)
        result = update_mining(
            mining, random_batch(7, 3), damage_threshold=1.0, verify="oracle"
        )
        assert result.statistics.mode == "incremental"
        assert_matches_fresh_mine(result)

    def test_removal_keeps_exactness(self):
        db = make_random_db(11)
        mining = mine_itemsets(db, 0.2)
        result = update_mining(
            mining,
            random_batch(11, 3),
            removed_count=3,
            damage_threshold=1.0,
            verify="oracle",
        )
        assert result.statistics.n_removed == 3
        assert result.mining.database.n_objects == db.n_objects
        assert_matches_fresh_mine(result)

    def test_rule_dense_context(self):
        db = make_rule_dense_context(chain_length=10, generator_multiplicity=2)
        mining = mine_itemsets(db, 0.5)
        batch = [list(db.transaction(db.n_objects - 2).as_frozenset())]
        result = update_mining(mining, batch, damage_threshold=1.0, verify="oracle")
        assert result.statistics.mode == "incremental"
        assert_matches_fresh_mine(result)

    def test_damage_threshold_triggers_fallback(self, toy_db):
        mining = mine_itemsets(toy_db, 0.4)
        result = update_mining(
            mining, [["a", "b", "c", "e"]], damage_threshold=0.0, verify="oracle"
        )
        assert result.statistics.mode == "remine"
        assert "damage ratio" in result.statistics.fallback_reason
        assert_matches_fresh_mine(result)

    def test_shrinking_context_falls_back(self, toy_db):
        mining = mine_itemsets(toy_db, 0.4)
        result = update_mining(
            mining, [["a", "c"]], removed_count=3, damage_threshold=1.0,
            verify="oracle",
        )
        assert result.statistics.mode == "remine"
        assert_matches_fresh_mine(result)

    def test_parameter_validation(self, toy_db):
        mining = mine_itemsets(toy_db, 0.4)
        with pytest.raises(InvalidParameterError):
            update_mining(mining, [], damage_threshold=1.5)
        with pytest.raises(InvalidParameterError):
            update_mining(mining, [], verify="sometimes")
        with pytest.raises(InvalidParameterError):
            update_mining(mining, [], removed_count=6)

    def test_statistics_as_dict_round_trips_to_json(self, toy_db):
        import json

        mining = mine_itemsets(toy_db, 0.4)
        result = update_mining(mining, [["b", "e"]], damage_threshold=1.0)
        payload = json.loads(json.dumps(result.statistics.as_dict()))
        assert payload["mode"] == "incremental"
        assert payload["n_appended"] == 1
        assert payload["wall_clock_seconds"] >= 0.0

    @staticmethod
    def stale_supports(toy_db):
        """The toy mining result with every frequent support off by one."""
        mining = mine_itemsets(toy_db, 0.4)
        doctored = {
            itemset: count + 1
            for itemset, count in mining.frequent.to_dict().items()
        }
        from repro.algorithms.base import MiningRun
        from repro.core.families import ItemsetFamily
        from repro.experiments.harness import ItemsetMiningResult

        return ItemsetMiningResult(
            database=toy_db,
            minsup=0.4,
            apriori_run=MiningRun(
                algorithm="Apriori",
                database_name=toy_db.name,
                minsup=0.4,
                family=ItemsetFamily(
                    doctored, toy_db.n_objects,
                    minsup_count=mining.frequent.minsup_count,
                ),
            ),
            close_run=mining.close_run,
            generators_by_closure=mining.generators_by_closure,
        )

    def test_oracle_mismatch_is_raised_on_corrupted_input(self, toy_db):
        """A stale mining result (wrong supports) must not verify."""
        with pytest.raises(OracleMismatchError):
            update_mining(
                self.stale_supports(toy_db),
                [["a", "c"]],
                damage_threshold=1.0,
                verify="oracle",
            )

    def test_delta_count_check_runs_without_the_oracle(self, toy_db):
        """The damaged region's kernel counts catch stale supports."""
        with pytest.raises(OracleMismatchError, match="delta-counted"):
            update_mining(self.stale_supports(toy_db), [["a", "c"]], damage_threshold=1.0)


# ----------------------------------------------------------------------
# Sliding window
# ----------------------------------------------------------------------
class TestSlidingWindow:
    def test_streaming_stays_exact_under_churn(self):
        db = make_random_db(3, n_objects=20)
        window = SlidingWindow(
            db, 0.2, capacity=24, damage_threshold=1.0, verify="oracle"
        )
        for step in range(6):
            result = window.append(random_batch(step, 3))
            assert len(window) <= 24
            assert window.mining is result.mining
            assert window.lattice.closed_family is window.closed
        assert len(window) == 24  # at capacity: every append now evicts

    def test_window_keeps_newest_transactions(self):
        window = SlidingWindow(
            TransactionDatabase([["a"], ["b"]], name="w"), 0.5, capacity=2,
            damage_threshold=1.0,
        )
        window.append([["c", "d"]])
        assert [set(t) for t in window.transactions()] == [{"b"}, {"c", "d"}]

    def test_validation(self, toy_db):
        with pytest.raises(InvalidParameterError):
            SlidingWindow(toy_db, 0.4, capacity=0)
        with pytest.raises(InvalidParameterError):
            SlidingWindow(toy_db, 0.4, capacity=3)
        window = SlidingWindow(toy_db, 0.4, capacity=6)
        with pytest.raises(InvalidParameterError):
            window.append([["a"]] * 7)


# ----------------------------------------------------------------------
# Store and serve wiring
# ----------------------------------------------------------------------
def fresh_save(path, rows, item_order, name, minsup, minconf):
    """What ``repro save`` writes for *rows* mined from scratch."""
    db = TransactionDatabase(rows, item_order=item_order, name=name)
    mining = mine_itemsets(db, minsup)
    return save_artifacts(path, mining, build_rule_artifacts(mining, minconf=minconf))


def build_store(path, minsup=0.4, minconf=0.7):
    return fresh_save(path, TOY, None, "toy", minsup, minconf)


class TestUpdatedStoreEqualsFreshSave:
    """The rewritten store holds the arrays a fresh save of its context does."""

    @staticmethod
    def source(name):
        """A base context, its thresholds and two successive batches."""
        if name == "toy":
            # "f" is new to the universe; the eviction drops the only "d" row.
            batches = [
                [["a", "b", "c", "e"], ["b", "c", "f"]],
                [["a", "c", "f"], ["b", "e"]],
            ]
            return TransactionDatabase(TOY, name="toy"), 0.4, 0.7, batches
        seed = int(name)
        batches = [random_batch(seed, 4), random_batch(seed + 50, 3)]
        return make_random_db(seed), 0.15, 0.6, batches

    @pytest.mark.parametrize("evict", [False, True], ids=["append", "window"])
    @pytest.mark.parametrize("name", ["toy", "0", "1", "2"])
    def test_every_array_digest_equals_a_fresh_save(self, tmp_path, name, evict):
        from repro.store import read_manifest

        db, minsup, minconf, batches = self.source(name)
        path = tmp_path / "run.npz"
        rows = [sorted(row.as_frozenset()) for row in db.transactions()]
        fresh_save(path, rows, db.items, db.name, minsup, minconf)
        for step, batch in enumerate(batches):
            _, result = update_store(
                path,
                batch,
                window=db.n_objects if evict else None,
                damage_threshold=1.0,
            )
            assert result.statistics.mode == "incremental"
            rows = rows + [sorted(row) for row in batch]
            if evict:
                rows = rows[len(batch):]
            fresh = fresh_save(
                tmp_path / f"fresh{step}.npz", rows, db.items, db.name,
                minsup, minconf,
            )
            updated, expected = read_manifest(path), read_manifest(fresh)
            assert (
                updated["integrity"]["arrays"] == expected["integrity"]["arrays"]
            )
            assert updated == expected


class TestUpdateStore:
    def test_update_rewrites_every_section_exactly(self, tmp_path):
        from repro import store

        path = build_store(tmp_path / "run.npz")
        batch = [["a", "b", "c", "e"], ["b", "c", "e"]]
        _, result = update_store(
            path, batch, damage_threshold=1.0, verify="oracle"
        )
        assert result.statistics.mode == "incremental"

        reloaded = store.load_run(path)
        fresh_db = TransactionDatabase(TOY + batch, name="toy")
        fresh = mine_itemsets(fresh_db, 0.4)
        assert reloaded.frequent.same_contents(fresh.frequent)
        assert reloaded.closed.same_contents(fresh.closed)
        assert reloaded.database.n_objects == 7
        assert reloaded.minsup == 0.4 and reloaded.minconf == 0.7

        fresh_artifacts = build_rule_artifacts(fresh, minconf=0.7)
        assert set(reloaded.rule_arrays) == set(fresh_artifacts.names)
        for name, built in fresh_artifacts.bases.items():
            assert len(reloaded.rule_arrays[name]) == len(built.rules)

    def test_update_is_repeatable(self, tmp_path):
        path = build_store(tmp_path / "run.npz")
        for step in range(3):
            _, result = update_store(
                path, [["a", "c", "d"]], damage_threshold=1.0, verify="oracle"
            )
            assert result.mining.database.n_objects == 6 + step

    def test_windowed_update_evicts_oldest(self, tmp_path):
        from repro import store

        path = build_store(tmp_path / "run.npz")
        update_store(
            path, [["a", "b"], ["b", "c"]], window=5, damage_threshold=1.0,
            verify="oracle",
        )
        reloaded = store.load_run(path)
        assert reloaded.database.n_objects == 5
        rows = [set(t) for t in reloaded.database.transactions()]
        assert rows[-2:] == [{"a", "b"}, {"b", "c"}]

    def test_store_without_context_is_rejected(self, tmp_path):
        from repro.errors import StoreFormatError

        db = TransactionDatabase(TOY, name="toy")
        mining = mine_itemsets(db, 0.4)
        artifacts = build_rule_artifacts(mining, minconf=0.7)
        path = save_artifacts(
            tmp_path / "bare.npz", mining, artifacts, include_context=False
        )
        with pytest.raises(StoreFormatError):
            update_store(path, [["a"]])

    def test_serve_hot_reloads_the_repaired_generation(self, tmp_path):
        from repro.serve import ServeApp

        path = build_store(tmp_path / "run.npz")
        app = ServeApp(path, watch=True)
        _, before = app.handle("GET", "/healthz")
        assert before["generation"] == 1

        update_store(path, [["a", "b", "c", "e"]], damage_threshold=1.0)
        _, after = app.handle("GET", "/healthz")
        assert after["generation"] == 2
        status, recommend = app.handle(
            "POST", "/recommend", body=b'{"basket": ["b", "c"], "k": 3}'
        )
        assert status == 200


class TestCLI:
    def test_update_verb_round_trip(self, tmp_path, capsys):
        from repro.experiments.cli import main

        store_path = tmp_path / "run.npz"
        build_store(store_path)
        batch_file = tmp_path / "batch.basket"
        batch_file.write_text("a b c e\nc d\n")
        code = main(
            [
                "update",
                "--store", str(store_path),
                "--append", str(batch_file),
                "--verify", "oracle",
                "--damage-threshold", "1.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "+2 objects (incremental)" in out
        assert "closures recomputed" in out

    def test_update_verb_reports_fallback(self, tmp_path, capsys):
        from repro.experiments.cli import main

        store_path = tmp_path / "run.npz"
        build_store(store_path)
        batch_file = tmp_path / "batch.basket"
        batch_file.write_text("a b c e\n")
        code = main(
            [
                "update",
                "--store", str(store_path),
                "--append", str(batch_file),
                "--damage-threshold", "0.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(remine)" in out
        assert "full re-mine" in out

    def test_update_verb_missing_store_is_a_cli_error(self, tmp_path, capsys):
        from repro.experiments.cli import main

        batch_file = tmp_path / "batch.basket"
        batch_file.write_text("a\n")
        code = main(
            [
                "update",
                "--store", str(tmp_path / "absent.npz"),
                "--append", str(batch_file),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
