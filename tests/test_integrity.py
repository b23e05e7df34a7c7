"""Store integrity: digests, the corruption matrix, atomic writes.

The corruption matrix drives every tamper mode the integrity layer
claims to catch through a real saved container:

* truncation (half the file gone) — caught at any verify level, the
  zip central directory is unreadable;
* a flipped byte in each manifest-listed array's decompressed payload,
  re-zipped with a valid CRC — exactly the silent-corruption case only
  the sha256 digests catch, so ``verify="full"`` must raise;
* a missing array — the manifest inventory check catches it at the
  default ``verify="manifest"``;
* a stale digest (manifest lists a wrong hash) — ``verify="full"``
  raises, ``verify="manifest"`` (inventory only) still loads.

Index arrays rewritten out of range, and the columns of a basis stored
as columns rewritten out of contract, with their digests recomputed so
only the load checks can catch them, fail with a typed
:class:`~repro.errors.StoreFormatError` naming the array.

Plus: a live :class:`~repro.serve.app.ServeApp` keeps serving the old
generation when a reload hits a corrupted or out-of-range replacement,
and the
:func:`~repro.ioutils.atomic_write` helper used by every saver is
all-or-nothing.
"""

from __future__ import annotations

import io
import json
import os
import zipfile

import numpy as np
import pytest

from repro.data.context import TransactionDatabase
from repro.errors import (
    InvalidParameterError,
    StoreFormatError,
    StoreIntegrityError,
)
from repro.experiments.harness import (
    build_rule_artifacts,
    mine_itemsets,
    save_artifacts,
)
from repro.ioutils import atomic_write
from repro.serve import ServeApp
from repro.store import load_run, read_manifest, save_run
from repro.store.integrity import array_digest
from repro.testing import FaultInjector

FIG1 = [
    ["a", "c", "d"],
    ["b", "c", "e"],
    ["a", "b", "c", "e"],
    ["b", "e"],
    ["a", "b", "c", "e"],
]


def build_store(path):
    db = TransactionDatabase(FIG1, name="fig1")
    mining = mine_itemsets(db, minsup=0.4)
    return save_artifacts(path, mining, build_rule_artifacts(mining, 0.7))


def build_column_store(path):
    """The Fig. 1 families and Luxenburger basis, the basis as bare columns ``lux``."""
    db = TransactionDatabase(FIG1, name="fig1")
    mining = mine_itemsets(db, minsup=0.4)
    arrays = build_rule_artifacts(mining, 0.7, bases=["luxenburger"])[
        "luxenburger"
    ].rule_arrays
    return save_run(
        path, frequent=mining.frequent, closed=mining.closed, rule_arrays={"lux": arrays}
    )


@pytest.fixture()
def store_path(tmp_path):
    return build_store(tmp_path / "fig1.npz")


def store_holding(key, request):
    """The store whose array *key* a case rewrites: the column store for ``lux``."""
    if key.startswith("rules__lux__"):
        return build_column_store(request.getfixturevalue("tmp_path") / "lux.npz")
    return request.getfixturevalue("store_path")


def rezip(source, dest, mutate):
    """Rewrite the npz *source* into *dest*, passing each decompressed
    member through *mutate(name, payload) -> payload* (valid CRCs out).
    """
    with zipfile.ZipFile(source) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    with zipfile.ZipFile(dest, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, payload in members.items():
            archive.writestr(name, mutate(name, payload))


def rewrite_array(source, dest, key, mutate):
    """Rewrite array *key* of *source* into *dest* as *mutate(array)*,
    recomputing its manifest digest so the container stays intact.
    """
    member = f"{key}.npy"
    with zipfile.ZipFile(source) as archive:
        array = np.load(io.BytesIO(archive.read(member)))
    array = mutate(array.copy())

    def replace(name, payload):
        buffer = io.BytesIO()
        if name == member:
            np.save(buffer, array)
        elif name == "manifest.npy":
            header_end = payload.index(b"\n") + 1
            manifest = json.loads(bytes(payload[header_end:]))
            manifest["integrity"]["arrays"][key] = array_digest(array)
            body = json.dumps(manifest, sort_keys=True).encode("utf-8")
            np.save(buffer, np.frombuffer(body, dtype=np.uint8))
        else:
            return payload
        return buffer.getvalue()

    rezip(source, dest, replace)
    return dest


def set_first(value):
    def mutate(array):
        # Widen first: the store writes indices in their narrowest dtype.
        array = array.astype(np.int64)
        array[0] = value
        return array

    return mutate


def set_cell(index, value):
    def mutate(array):
        array[index] = value
        return array

    return mutate


def set_bit_63(array):
    """Set the padding bit 63 of the first mask word (the universe has 5 items)."""
    array[0, 0] |= np.uint64(1) << np.uint64(63)
    return array


def swap_second_and_third(array):
    array[[1, 2]] = array[[2, 1]]
    return array


#: ``(array, mutation)`` pairs that leave an index array out of range, or
#: a column of the ``lux`` basis (stored as columns) out of contract.  On
#: the Fig. 1 store the frequent family has 15 rows, the last one
#: ``abce`` (no proper subset of any frequent itemset), and the closed
#: family 5; the context has 5 objects over 5 items.
OUT_OF_RANGE = {
    "edge-row-past-n": ("order__rows", set_first(99)),
    "edge-col-past-n": ("order__cols", set_first(99)),
    "edge-not-upward": ("order__rows", lambda rows: rows[::-1].copy()),
    "edge-arrays-unequal": ("order__cols", lambda cols: cols[:-1]),
    "closure-index-past-n": ("generators__closure_index", set_first(99)),
    "closure-index-negative": ("generators__closure_index", set_first(-1)),
    "pair-union-row-past-family": ("rules__all__union_rows", set_first(10**5)),
    "pair-union-row-negative": ("rules__luxenburger__union_rows", set_first(-1)),
    "pair-antecedent-row-past-family": (
        "rules__luxenburger__antecedent_rows", set_first(5)
    ),
    "pair-antecedent-below-marker": ("rules__dg__antecedent_rows", set_first(-2)),
    "pair-rows-unequal": ("rules__all__union_rows", lambda rows: rows[:-1]),
    "pair-antecedent-not-proper-subset": (
        "rules__all__antecedent_rows", set_first(14)
    ),
    "context-indptr-decreasing": ("context__indptr", swap_second_and_third),
    "context-indptr-past-item-ids": ("context__indptr", set_cell(-1, 99)),
    "context-item-id-past-items": ("context__item_ids", set_first(9)),
    "column-confidence-above-one": ("rules__lux__confidence", set_cell(0, 7.5)),
    "column-confidence-zero": ("rules__lux__confidence", set_cell(0, 0.0)),
    "column-confidence-nan": ("rules__lux__confidence", set_cell(0, np.nan)),
    "column-support-negative": ("rules__lux__support", set_cell(0, -0.25)),
    "column-support-infinite": ("rules__lux__support", set_cell(0, np.inf)),
    "column-support-count-below-marker": (
        "rules__lux__support_count", set_cell(0, -2)
    ),
    "column-antecedent-padding-bit": ("rules__lux__antecedents", set_bit_63),
    "column-consequent-padding-bit": ("rules__lux__consequents", set_bit_63),
    "column-sides-overlap": ("rules__lux__consequents", set_cell(0, 0b11111)),
    "column-empty-consequent": ("rules__lux__consequents", set_cell(0, 0)),
}


def rewrite_manifest(source, dest, mutate):
    """Rewrite the manifest of *source* into *dest* as *mutate(manifest)*."""

    def replace(name, payload):
        if name != "manifest.npy":
            return payload
        header_end = payload.index(b"\n") + 1
        manifest = mutate(json.loads(bytes(payload[header_end:])))
        buffer = io.BytesIO()
        body = json.dumps(manifest, sort_keys=True).encode("utf-8")
        np.save(buffer, np.frombuffer(body, dtype=np.uint8))
        return buffer.getvalue()

    rezip(source, dest, replace)
    return dest


def listed_arrays(path) -> dict[str, str]:
    return read_manifest(path)["integrity"]["arrays"]


class TestDigestsInManifest:
    def test_saved_manifest_lists_every_array(self, store_path):
        manifest = read_manifest(store_path)
        integrity = manifest["integrity"]
        assert integrity["algorithm"] == "sha256"
        with zipfile.ZipFile(store_path) as archive:
            members = {
                name.removesuffix(".npy")
                for name in archive.namelist()
                if name != "manifest.npy"
            }
        assert set(integrity["arrays"]) == members

    def test_full_verify_round_trip(self, store_path):
        run = load_run(store_path, verify="full")
        assert run.name == "fig1"

    def test_bad_verify_mode_rejected(self, store_path):
        with pytest.raises(InvalidParameterError, match="verify"):
            load_run(store_path, verify="paranoid")


class TestCorruptionMatrix:
    def test_truncated_container(self, store_path):
        data = store_path.read_bytes()
        store_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreIntegrityError):
            load_run(store_path)

    def test_flipped_byte_in_each_listed_array(self, store_path, tmp_path):
        """Silent bitrot in any array payload must fail ``verify="full"``.

        The flip happens on the *decompressed* bytes and the member is
        re-zipped, so zip CRCs are valid and only the digests disagree.
        Both stores: bases as row pairs, and a basis as bare columns;
        both the arrays a section reads and those none reads.
        """
        corrupt = tmp_path / "corrupt.npz"
        flipped = 0
        for source in (store_path, build_column_store(tmp_path / "lux.npz")):
            for key in listed_arrays(source):
                member = f"{key}.npy"

                def mutate(name, payload, member=member):
                    if name != member:
                        return payload
                    mutated = bytearray(payload)
                    mutated[-1] ^= 0x01  # last byte: array data, not header
                    return bytes(mutated)

                rezip(source, corrupt, mutate)
                if corrupt.read_bytes() == source.read_bytes():
                    continue  # zero-byte array; nothing to corrupt
                flipped += 1
                with pytest.raises(StoreIntegrityError, match=key):
                    load_run(corrupt, verify="full")
                with pytest.raises(StoreIntegrityError, match=key):
                    load_run(corrupt, verify="full", sections=())
        assert flipped > 0

    def test_missing_array(self, store_path, tmp_path):
        victim = next(iter(listed_arrays(store_path)))
        stripped = tmp_path / "stripped.npz"
        with zipfile.ZipFile(store_path) as archive:
            members = {
                name: archive.read(name)
                for name in archive.namelist()
                if name != f"{victim}.npy"
            }
        with zipfile.ZipFile(stripped, "w", zipfile.ZIP_DEFLATED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(StoreIntegrityError, match=victim):
            load_run(stripped)  # default verify="manifest" suffices

    def test_stale_digest(self, store_path, tmp_path):
        victim = next(iter(listed_arrays(store_path)))
        stale = tmp_path / "stale.npz"

        def mutate(name, payload):
            if name != "manifest.npy":
                return payload
            header_end = payload.index(b"\n") + 1
            manifest = json.loads(bytes(payload[header_end:]))
            manifest["integrity"]["arrays"][victim] = "0" * 64
            body = json.dumps(manifest, sort_keys=True).encode("utf-8")
            buffer = io.BytesIO()
            np.save(buffer, np.frombuffer(body, dtype=np.uint8))
            return buffer.getvalue()

        rezip(store_path, stale, mutate)
        with pytest.raises(StoreIntegrityError, match=victim):
            load_run(stale, verify="full")
        # Inventory-only verification does not recompute digests.
        assert load_run(stale, verify="manifest").name == "fig1"

    def test_legacy_store_without_digests(self, store_path, tmp_path):
        """A pre-integrity container fails closed, with an escape hatch."""
        legacy = tmp_path / "legacy.npz"

        def mutate(name, payload):
            if name != "manifest.npy":
                return payload
            header_end = payload.index(b"\n") + 1
            manifest = json.loads(bytes(payload[header_end:]))
            del manifest["integrity"]
            body = json.dumps(manifest, sort_keys=True).encode("utf-8")
            buffer = io.BytesIO()
            np.save(buffer, np.frombuffer(body, dtype=np.uint8))
            return buffer.getvalue()

        rezip(store_path, legacy, mutate)
        with pytest.raises(StoreIntegrityError, match="verify='off'"):
            load_run(legacy)
        assert load_run(legacy, verify="off").name == "fig1"

    def test_integrity_error_is_a_store_format_error(self):
        assert issubclass(StoreIntegrityError, StoreFormatError)


class TestIndexRanges:
    @pytest.mark.parametrize("case", OUT_OF_RANGE)
    @pytest.mark.parametrize("retain_containment", [True, False])
    def test_out_of_range_index_rejected(
        self, request, tmp_path, case, retain_containment
    ):
        key, mutate = OUT_OF_RANGE[case]
        source = store_holding(key, request)
        bad = rewrite_array(source, tmp_path / "bad.npz", key, mutate)
        with pytest.raises(StoreFormatError, match=key) as excinfo:
            load_run(bad, verify="full", retain_containment=retain_containment)
        # The digests were recomputed: only the range check can catch it.
        assert not isinstance(excinfo.value, StoreIntegrityError)

    @pytest.mark.parametrize("retain_containment", [True, False])
    def test_pair_family_missing_from_store_rejected(
        self, store_path, tmp_path, retain_containment
    ):
        def rename(manifest):
            entry = next(e for e in manifest["bases"] if e["name"] == "dg")
            entry["pairs"]["union"] = "maximal"
            return manifest

        bad = rewrite_manifest(store_path, tmp_path / "bad.npz", rename)
        with pytest.raises(StoreFormatError, match="'maximal' family") as excinfo:
            load_run(bad, verify="full", retain_containment=retain_containment)
        assert not isinstance(excinfo.value, StoreIntegrityError)

    def test_pair_encoded_basis_has_no_float_column(self, store_path):
        with np.load(store_path) as data:
            rules = [key for key in data.files if key.startswith("rules__")]
            assert rules
            assert all(data[key].dtype.kind != "f" for key in rules)


class TestReloadKeepsOldGeneration:
    def test_corrupt_replacement_keeps_serving(self, store_path):
        app = ServeApp(store_path, watch=False)
        status, healthy = app.handle("GET", "/healthz")
        assert status == 200 and healthy["generation"] == 1

        data = store_path.read_bytes()
        store_path.write_bytes(data[: len(data) // 2])
        app.request_reload()  # what the SIGHUP handler calls
        status, payload = app.handle("GET", "/healthz")
        assert status == 200 and payload["generation"] == 1

        status, metrics = app.handle("GET", "/metrics")
        assert metrics["reload_failures"] == 1
        assert metrics["integrity_failures"] == 1
        assert "readable" in metrics["last_reload_error"]

        # ... and the repaired store reloads fine afterwards.
        store_path.write_bytes(data)
        app.request_reload()
        status, payload = app.handle("GET", "/healthz")
        assert status == 200 and payload["generation"] == 2


    @pytest.mark.parametrize(
        "key, mutate",
        [
            pytest.param(key, mutate, id=key)
            for key, mutate in (
                ("order__rows", set_first(10**5)),
                ("rules__all__union_rows", set_first(10**5)),
                ("rules__lux__antecedents", set_bit_63),
            )
        ],
    )
    def test_watcher_keeps_serving_after_out_of_range_replacement(
        self, request, tmp_path, key, mutate
    ):
        store_path = store_holding(key, request)
        app = ServeApp(store_path, watch=True)
        bad = rewrite_array(store_path, tmp_path / "bad.npz", key, mutate)
        stat = store_path.stat()
        store_path.write_bytes(bad.read_bytes())
        os.utime(store_path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        for _ in range(2):
            status, payload = app.handle("GET", "/healthz")
            assert status == 200 and payload["generation"] == 1
        status, metrics = app.handle("GET", "/metrics")
        assert status == 200
        assert metrics["reload_failures"] == 1
        assert key in metrics["last_reload_error"]


class TestAtomicWrite:
    def test_success_is_visible_whole(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target, "w", encoding="utf-8") as handle:
            handle.write("hello\n")
        assert target.read_text(encoding="utf-8") == "hello\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_write(target, "w", encoding="utf-8") as handle:
                handle.write("partial")
                raise RuntimeError("crash mid-write")
        assert target.read_text(encoding="utf-8") == "original"
        assert list(tmp_path.iterdir()) == [target]

    def test_append_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            with atomic_write(tmp_path / "x", "a"):
                pass


class TestFaultSpecParsing:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="valid:"):
            FaultInjector("serve.request:explode")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="point:action"):
            FaultInjector("serve.request")

    def test_non_numeric_argument_rejected(self):
        with pytest.raises(ValueError, match="number"):
            FaultInjector("serve.request:slow:fast")

    def test_empty_spec_arms_nothing(self):
        assert not FaultInjector(None)
        assert not FaultInjector("")

    def test_accept_error_is_transient(self):
        injector = FaultInjector("serve.accept:error:2")
        for _ in range(2):
            with pytest.raises(OSError, match="injected"):
                injector.fire("serve.accept")
        injector.fire("serve.accept")  # budget exhausted: no-op

    def test_truncate_is_one_shot(self, tmp_path):
        victim = tmp_path / "store.npz"
        victim.write_bytes(b"x" * 100)
        injector = FaultInjector("store.load:truncate")
        injector.fire("store.load", path=victim)
        assert victim.stat().st_size == 50
        injector.fire("store.load", path=victim)
        assert victim.stat().st_size == 50  # second fire is a no-op
