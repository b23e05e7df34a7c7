"""Round-trip tests of the on-disk artifact store (:mod:`repro.store`).

The save→load invariant: context, families, generators, the packed
lattice order core and every stored rule basis come back *identical* —
same members and supports, edge-for-edge the same order, byte-for-byte
the same rule columns — and a ``repro bases`` warm start from a store
prints byte-identical output to the cold (mined) run.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import store
from repro.bases import registered_names
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice
from repro.core.luxenburger import LuxenburgerBasis
from repro.core.order import OrderCore
from repro.data.context import TransactionDatabase
from repro.data.synthetic import make_rule_dense_family, make_star_closed_family
from repro.errors import InvalidParameterError, StoreFormatError
from repro.experiments import cli
from repro.experiments.harness import (
    build_rule_artifacts,
    build_rule_artifacts_from_store,
    mine_itemsets,
    save_artifacts,
)
from repro.store import npz

from conftest import make_random_db
from oracles import hasse_edges_reference, reference_lattice


FIG1_ROWS = [
    ["a", "c", "d"],
    ["b", "c", "e"],
    ["a", "b", "c", "e"],
    ["b", "e"],
    ["a", "b", "c", "e"],
]


@pytest.fixture(scope="module")
def toy_db():
    return TransactionDatabase(FIG1_ROWS, name="toy")


@pytest.fixture(scope="module")
def toy_mining(toy_db):
    return mine_itemsets(toy_db, 0.4)


@pytest.fixture(scope="module")
def toy_artifacts(toy_mining):
    return build_rule_artifacts(toy_mining, minconf=0.5, bases=registered_names())


@pytest.fixture(scope="module")
def toy_store_path(tmp_path_factory, toy_mining, toy_artifacts):
    path = tmp_path_factory.mktemp("store") / "toy.npz"
    save_artifacts(path, toy_mining, toy_artifacts)
    return path


def assert_same_rule_arrays(left, right):
    assert left.universe == right.universe
    assert np.array_equal(left.antecedents.words, right.antecedents.words)
    assert np.array_equal(left.consequents.words, right.consequents.words)
    assert np.array_equal(left.support, right.support)
    assert np.array_equal(left.confidence, right.confidence)
    assert np.array_equal(left.support_count, right.support_count)


# ----------------------------------------------------------------------
# Section round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_context(self, toy_store_path, toy_db):
        run = store.load_run(toy_store_path)
        assert run.database.name == toy_db.name
        assert run.database.items == toy_db.items
        assert np.array_equal(run.database.matrix, toy_db.matrix)

    def test_families(self, toy_store_path, toy_mining):
        run = store.load_run(toy_store_path)
        assert run.frequent.same_contents(toy_mining.frequent)
        assert run.closed.same_contents(toy_mining.closed)
        assert run.frequent.minsup_count == toy_mining.frequent.minsup_count
        assert run.closed.n_objects == toy_mining.closed.n_objects

    def test_generators(self, toy_store_path, toy_mining):
        run = store.load_run(toy_store_path)
        original = toy_mining.generator_family
        assert run.generators.closed_itemsets() == original.closed_itemsets()
        for closure in original.closed_itemsets():
            assert run.generators.generators_of(closure) == original.generators_of(
                closure
            )

    def test_order_core(self, toy_store_path, toy_artifacts):
        run = store.load_run(toy_store_path)
        lattice = toy_artifacts.context.lattice
        assert isinstance(run.lattice.order_core, OrderCore)
        assert run.lattice.hasse_edges() == lattice.hasse_edges()
        left = sorted(zip(*run.lattice.containment_indices()))
        right = sorted(zip(*lattice.containment_indices()))
        assert left == right
        # The stored packed containment equals a fresh build.
        rebuilt = IcebergLattice(run.lattice.closed_family)
        assert run.lattice.order_core.packed_containment_matrix().equals(
            rebuilt.order_core.packed_containment_matrix()
        )

    def test_every_registered_basis_identical(self, toy_store_path, toy_artifacts):
        run = store.load_run(toy_store_path)
        assert set(run.rule_arrays) == set(registered_names())
        for name in registered_names():
            assert_same_rule_arrays(
                run.rule_arrays[name], toy_artifacts[name].rule_arrays
            )
            assert run.basis_kinds[name] == toy_artifacts[name].kind

    def test_manifest(self, toy_store_path):
        manifest = store.read_manifest(toy_store_path)
        assert manifest["format"] == store.FORMAT_NAME
        assert manifest["version"] == store.FORMAT_VERSION
        assert manifest["minsup"] == 0.4 and manifest["minconf"] == 0.5
        assert set(manifest["sections"]) == {
            "context",
            "frequent",
            "closed",
            "generators",
            "order",
            "rules",
        }

    def test_bases_are_row_pairs_into_the_stored_families(self, toy_store_path):
        expected = {
            "all": ("frequent", "frequent"),
            "exact": ("frequent", "frequent"),
            "approximate": ("frequent", "frequent"),
            "dg": ("frequent", "closed"),
            "luxenburger": ("closed", "closed"),
            "luxenburger-reduced": ("closed", "closed"),
            "generic": ("generators", "closed"),
            "informative": ("generators", "closed"),
            "informative-reduced": ("generators", "closed"),
        }
        manifest = store.read_manifest(toy_store_path)
        pairs = {
            entry["name"]: (entry["pairs"]["antecedent"], entry["pairs"]["union"])
            for entry in manifest["bases"]
        }
        assert pairs == expected
        with np.load(toy_store_path) as data:
            assert not any(key.endswith("__confidence") for key in data.files)
            for key in data.files:
                if key.endswith(
                    ("_rows", "__counts", "__indptr", "__item_ids", "__closure_index")
                ):
                    assert data[key].dtype == np.int8, key

    @pytest.mark.parametrize("verify", ["manifest", "full"])
    @pytest.mark.parametrize("sections", [None, ("rules",)])
    def test_each_array_is_read_once(
        self, toy_store_path, monkeypatch, sections, verify
    ):
        """The rule bases reuse the family rows read for the other sections,
        and full verification hashes each array from that one read."""
        reads = Counter()
        open_container = npz._open_container

        class CountingContainer:
            def __init__(self, data):
                self.data, self.files = data, data.files

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.data.close()

            def __contains__(self, key):
                return key in self.data

            def __getitem__(self, key):
                reads[key] += 1
                return self.data[key]

        monkeypatch.setattr(
            npz, "_open_container", lambda path: CountingContainer(open_container(path))
        )
        run = store.load_run(toy_store_path, sections=sections, verify=verify)
        assert len(run.rule_arrays) == len(registered_names())
        assert "closed__words" in reads and set(reads.values()) == {1}
        if verify == "full":
            listed = store.read_manifest(toy_store_path)["integrity"]["arrays"]
            assert set(reads) == {"manifest", *listed}

    def test_bare_rule_arrays_keep_columns(self, tmp_path, toy_artifacts):
        arrays = toy_artifacts["dg"].rule_arrays
        path = store.save_run(tmp_path / "bare.npz", rule_arrays={"dg": arrays})
        (entry,) = store.read_manifest(path)["bases"]
        assert "pairs" not in entry
        assert_same_rule_arrays(store.load_run(path).rule_arrays["dg"], arrays)

    def test_pairs_require_their_families(self, tmp_path, toy_mining, toy_artifacts):
        built = toy_artifacts["luxenburger"]
        with pytest.raises(InvalidParameterError, match="does not store"):
            store.save_run(
                tmp_path / "orphan.npz",
                frequent=toy_mining.frequent,
                rule_arrays={"luxenburger": built.rule_arrays},
                row_pairs={"luxenburger": built.row_pairs},
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_databases(self, tmp_path, seed):
        database = make_random_db(seed)
        mining = mine_itemsets(database, 0.2)
        artifacts = build_rule_artifacts(mining, minconf=0.6)
        path = tmp_path / f"random{seed}.npz"
        save_artifacts(path, mining, artifacts)
        run = store.load_run(path)
        assert np.array_equal(run.database.matrix, database.matrix)
        assert run.closed.same_contents(mining.closed)
        assert run.lattice.hasse_edges() == artifacts.context.lattice.hasse_edges()
        for name in artifacts.names:
            assert_same_rule_arrays(run.rule_arrays[name], artifacts[name].rule_arrays)

    def test_run_without_a_frequent_item(self, tmp_path, toy_db):
        """No item reaches minsup: every basis is empty and still saves as pairs."""
        mining = mine_itemsets(toy_db, 1.0)
        assert len(mining.frequent) == 0 and not mining.generators_by_closure
        artifacts = build_rule_artifacts(mining, minconf=0.5, bases=registered_names())
        path = save_artifacts(tmp_path / "empty.npz", mining, artifacts)
        manifest = store.read_manifest(path)
        assert "generators" in manifest["sections"]
        assert all("pairs" in entry for entry in manifest["bases"])
        run = store.load_run(path, verify="full")
        assert set(run.rule_arrays) == set(registered_names())
        for name in registered_names():
            assert len(run.rule_arrays[name]) == 0
            assert_same_rule_arrays(run.rule_arrays[name], artifacts[name].rule_arrays)
        # The stored (empty) generator family lets the run be updated.
        from repro.incremental.store import update_store

        update_store(path, [["a", "b", "c", "d", "e"]] * 3)
        assert store.load_run(path).database.n_objects == len(FIG1_ROWS) + 3

    def test_integer_items(self, tmp_path):
        """Star families use int items; the codec must preserve the type."""
        family = make_star_closed_family(40)
        lattice = IcebergLattice(family)
        path = tmp_path / "star.npz"
        store.save_run(path, closed=family, lattice=lattice, name="star")
        run = store.load_run(path)
        assert run.closed.same_contents(family)
        members = run.closed.itemsets()
        assert all(isinstance(item, int) for member in members for item in member)
        assert run.lattice.hasse_edges() == lattice.hasse_edges()

    def test_rule_dense_columns(self, tmp_path):
        """A larger (analytic) workload round-trips byte-identically."""
        closed, generators = make_rule_dense_family(40, 2)
        from repro.core.informative import InformativeBasis

        lattice = IcebergLattice(closed)
        basis = InformativeBasis(
            generators, minconf=0.0, reduced=False, lattice=lattice
        )
        arrays = basis.rules.to_arrays()
        path = tmp_path / "dense.npz"
        store.save_run(
            path,
            closed=closed,
            generators=generators,
            lattice=lattice,
            rule_arrays={"informative": arrays},
            basis_kinds={"informative": "approximate"},
        )
        run = store.load_run(path)
        assert_same_rule_arrays(run.rule_arrays["informative"], arrays)


# ----------------------------------------------------------------------
# Warm start
# ----------------------------------------------------------------------
class TestWarmStart:
    def test_artifacts_from_store_equal_cold_build(
        self, toy_store_path, toy_artifacts
    ):
        run = store.load_run(toy_store_path)
        warm = build_rule_artifacts_from_store(run, bases=registered_names())
        assert warm.minconf == toy_artifacts.minconf
        assert warm.minsup == toy_artifacts.minsup
        for name in registered_names():
            assert warm[name].rules.same_rules_and_statistics(
                toy_artifacts[name].rules
            )
            assert_same_rule_arrays(
                warm[name].rule_arrays, toy_artifacts[name].rule_arrays
            )

    def test_warm_start_reuses_stored_lattice(self, toy_store_path):
        run = store.load_run(toy_store_path)
        warm = build_rule_artifacts_from_store(run, bases=("luxenburger-reduced",))
        assert warm.context.lattice is run.lattice

    def test_cli_bases_from_store_byte_identical(
        self, tmp_path, toy_db, capsys
    ):
        basket = tmp_path / "toy.basket"
        basket.write_text(
            "".join(
                " ".join(str(item) for item in sorted(transaction)) + "\n"
                for transaction in toy_db
            )
        )
        store_path = tmp_path / "toy-cli.npz"
        args = ["--minsup", "0.4", "--minconf", "0.7"]
        assert cli.main(["bases", "--dataset", str(basket), *args]) == 0
        mined = capsys.readouterr().out
        save_args = ["save", "--dataset", str(basket), *args, "--out", str(store_path)]
        assert cli.main(save_args) == 0
        capsys.readouterr()
        warm_args = ["bases", "--from-store", str(store_path), "--minconf", "0.7"]
        assert cli.main(warm_args) == 0
        warm = capsys.readouterr().out
        assert warm == mined

    def test_warm_start_without_minconf_reuses_stored_threshold(
        self, tmp_path, toy_db, capsys
    ):
        """`bases --from-store` with no --minconf must use the saved one."""
        basket = tmp_path / "toy.basket"
        basket.write_text(
            "".join(
                " ".join(str(item) for item in sorted(transaction)) + "\n"
                for transaction in toy_db
            )
        )
        store_path = tmp_path / "minconf09.npz"
        save_args = ["--minsup", "0.4", "--minconf", "0.9"]
        assert cli.main(["bases", "--dataset", str(basket), *save_args]) == 0
        mined = capsys.readouterr().out
        cmd = ["save", "--dataset", str(basket), *save_args, "--out", str(store_path)]
        assert cli.main(cmd) == 0
        capsys.readouterr()
        assert cli.main(["bases", "--from-store", str(store_path)]) == 0
        warm = capsys.readouterr().out
        assert "minconf=0.9" in warm
        assert warm == mined

    def test_nameless_store_reads_as_unnamed(self, tmp_path, toy_mining):
        path = tmp_path / "nameless.npz"
        store.save_run(path, closed=toy_mining.closed, minsup=0.4)
        run = store.load_run(path)
        assert run.name == "unnamed"

    def test_stored_lattice_matches_reference(self, toy_store_path):
        """The warm start serves the stored core, and it equals the oracle's."""
        run = store.load_run(toy_store_path)
        warm = build_rule_artifacts_from_store(run, bases=("luxenburger-reduced",))
        assert warm.context.lattice is run.lattice
        assert run.lattice.hasse_edges() == hasse_edges_reference(run.closed)
        oracle = LuxenburgerBasis(
            run.closed, minconf=run.minconf, lattice=reference_lattice(run.closed)
        )
        assert warm["luxenburger-reduced"].rules.same_rules_and_statistics(
            oracle.rules
        )

    def test_cli_user_errors_are_clean(self, tmp_path, capsys):
        """CLI surfaces library errors argparse-style (exit 2, no traceback)."""
        assert cli.main(["bases", "--minconf", "0.7"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--dataset" in err
        assert cli.main(["load", str(tmp_path / "absent.npz")]) == 2
        assert "store file not found" in capsys.readouterr().err

    def test_missing_minconf_requires_explicit(self, tmp_path, toy_mining):
        path = tmp_path / "nominconf.npz"
        store.save_run(path, closed=toy_mining.closed, frequent=toy_mining.frequent)
        run = store.load_run(path)
        with pytest.raises(InvalidParameterError):
            build_rule_artifacts_from_store(run, bases=("luxenburger-reduced",))
        warm = build_rule_artifacts_from_store(
            run, minconf=0.5, bases=("luxenburger-reduced",)
        )
        assert len(warm["luxenburger-reduced"].rules) > 0


# ----------------------------------------------------------------------
# Format guards
# ----------------------------------------------------------------------
class TestFormatGuards:
    @pytest.mark.parametrize("version", [0, store.FORMAT_VERSION + 1])
    def test_wrong_version_rejected(self, tmp_path, toy_mining, version):
        import json

        path = tmp_path / "future.npz"
        store.save_run(path, closed=toy_mining.closed)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
        manifest["version"] = version
        payload["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **payload)
        with pytest.raises(StoreFormatError, match="version"):
            store.load_run(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(StoreFormatError, match="manifest"):
            store.load_run(path)
        with pytest.raises(StoreFormatError):
            store.read_manifest(path)

    def test_non_npz_file_rejected_cleanly(self, tmp_path):
        """Text or truncated files raise StoreFormatError, not numpy noise."""
        text = tmp_path / "notes.txt"
        text.write_text("just some text\n")
        with pytest.raises(StoreFormatError, match="not a readable store"):
            store.load_run(text)
        with pytest.raises(StoreFormatError, match="store file not found"):
            store.read_manifest(tmp_path / "absent.npz")

    def test_wrong_format_name_rejected(self, tmp_path):
        import json

        path = tmp_path / "other.npz"
        manifest = np.frombuffer(
            json.dumps({"format": "something-else", "version": 1}).encode("utf-8"),
            dtype=np.uint8,
        )
        np.savez(path, manifest=manifest)
        with pytest.raises(StoreFormatError, match="not a repro-store"):
            store.load_run(path)

    def test_require_names_missing_section(self, tmp_path, toy_mining):
        path = tmp_path / "partial.npz"
        store.save_run(path, closed=toy_mining.closed)
        run = store.load_run(path)
        assert run.database is None and run.lattice is None
        with pytest.raises(StoreFormatError, match="context"):
            run.require("context")
        assert run.require("closed") is run.closed

    def test_mixed_item_types_rejected(self, tmp_path):
        from repro.core.families import ClosedItemsetFamily

        family = ClosedItemsetFamily(
            {Itemset(["a", 1]): 1}, n_objects=1, minsup_count=1
        )
        with pytest.raises(StoreFormatError, match="item types"):
            store.save_run(tmp_path / "mixed.npz", closed=family)

    def test_generators_require_closed(self, tmp_path, toy_mining):
        with pytest.raises(InvalidParameterError):
            store.save_run(
                tmp_path / "bad.npz", generators=toy_mining.generator_family
            )

    def test_lattice_family_identity_enforced(self, tmp_path, toy_mining):
        other = mine_itemsets(make_random_db(3), 0.2)
        lattice = IcebergLattice(other.closed)
        with pytest.raises(InvalidParameterError):
            store.save_run(
                tmp_path / "bad.npz", closed=toy_mining.closed, lattice=lattice
            )


# ----------------------------------------------------------------------
# Arrow export (soft dependency)
# ----------------------------------------------------------------------
class TestArrowExport:
    def test_missing_pyarrow_raises_cleanly(self, toy_artifacts, tmp_path):
        if store.arrow_available():
            pytest.skip("pyarrow installed; the unavailable path is untestable")
        from repro.errors import MissingDependencyError

        arrays = toy_artifacts["dg"].rule_arrays
        with pytest.raises(MissingDependencyError, match="pyarrow"):
            store.export_rule_arrays(arrays, tmp_path / "dg.parquet")

    def test_export_and_read_back(self, toy_artifacts, tmp_path):
        if not store.arrow_available():
            pytest.skip("pyarrow not installed")
        import pyarrow.parquet as pq

        built = toy_artifacts["luxenburger-reduced"]
        arrays = built.rule_arrays
        path = store.export_rule_arrays(arrays, tmp_path / "rules.parquet")
        table = pq.read_table(path)
        assert table.num_rows == len(arrays)
        assert table.column_names == [
            "antecedent",
            "consequent",
            "support",
            "confidence",
            "support_count",
        ]
        antecedents = table.column("antecedent").to_pylist()
        for row, rule in zip(antecedents, arrays.iter_rules()):
            assert row == [str(item) for item in sorted(rule.antecedent)]


# ----------------------------------------------------------------------
# Version 1 containers (every basis as columns)
# ----------------------------------------------------------------------
#: A Fig. 1 store with all nine bases, written by the version-1 writer
#: (``repro save --minsup 0.4 --minconf 0.5 --bases <all nine>``).
V1_FIXTURE = Path(__file__).parent / "golden" / "store_v1_fig1.npz"


class TestVersion1:
    def test_columns_equal_a_fresh_v2_save(self, tmp_path, toy_mining, toy_artifacts):
        old = store.load_run(V1_FIXTURE, verify="full")
        assert old.manifest["version"] == 1
        path = tmp_path / "v2.npz"
        save_artifacts(path, toy_mining, toy_artifacts)
        new = store.load_run(path, verify="full")
        assert new.manifest["version"] == store.FORMAT_VERSION == 2
        assert set(old.rule_arrays) == set(new.rule_arrays) == set(registered_names())
        for name in registered_names():
            assert_same_rule_arrays(old.rule_arrays[name], new.rule_arrays[name])
            assert old.basis_kinds[name] == new.basis_kinds[name]
        assert old.frequent.same_contents(new.frequent)
        assert old.lattice.hasse_edges() == new.lattice.hasse_edges()

    def test_repro_load_prints_it(self, capsys):
        assert cli.main(["load", str(V1_FIXTURE)]) == 0
        out = capsys.readouterr().out
        assert "repro-store v1" in out
        assert "basis all [all]: 50 rules" in out
        assert "basis informative-reduced [approximate]: 7 rules" in out

    def test_update_store_writes_v2(self, tmp_path):
        from repro.incremental.store import update_store

        path = tmp_path / "v1.npz"
        path.write_bytes(V1_FIXTURE.read_bytes())
        update_store(path, [["a", "b", "e"]])
        manifest = store.read_manifest(path)
        assert manifest["version"] == store.FORMAT_VERSION
        assert all("pairs" in entry for entry in manifest["bases"])
        run = store.load_run(path, verify="full")
        database = TransactionDatabase(
            [*(sorted(row) for row in FIG1_ROWS), ["a", "b", "e"]], name="fig1"
        )
        fresh = build_rule_artifacts(
            mine_itemsets(database, 0.4), minconf=0.5, bases=registered_names()
        )
        for name in registered_names():
            assert_same_rule_arrays(run.rule_arrays[name], fresh[name].rule_arrays)
