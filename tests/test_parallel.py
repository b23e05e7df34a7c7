"""The parallel execution layer: executor semantics and byte-identity.

The determinism contract of :mod:`repro.core.parallel` is that a worker
count only changes *where* block computations run, never what they
compute: any ``workers`` value must produce output byte-identical to the
serial oracle.  This suite pins that contract at every level the seam
touches — the executor primitives themselves, the packed containment /
Hasse kernels (hypothesis-checked against the dense numpy oracle,
including uint64 word-boundary widths), the closure engine, the lattices
and all nine registered rule bases — plus the thread-safety of the
shared caches and the CSR-only ``retain_containment=False`` store mode.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bases.registry import registered_names
from repro.core.bitmatrix import BitMatrix, packed_containment
from repro.core.families import ClosedItemsetFamily
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice
from repro.core.luxenburger import LuxenburgerBasis
from repro.core.parallel import (
    WORKERS_ENV_VAR,
    KernelExecutor,
    get_executor,
    resolve_workers,
    shard_spans,
)
from repro.data.synthetic import make_rule_dense_family, make_star_closed_family
from repro.engine import ClosureEngine
from repro.errors import InvalidParameterError
from repro.experiments.harness import build_rule_artifacts, mine_itemsets
from repro.store import load_run, save_run

from oracles import reference_lattice

WORKER_COUNTS = (1, 2, 8)

ALL_BASES = ",".join(sorted(registered_names()))


# ----------------------------------------------------------------------
# Executor primitives
# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(None) == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(2) == 2

    def test_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_negative_raises(self):
        with pytest.raises(InvalidParameterError):
            resolve_workers(-1)

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(InvalidParameterError):
            resolve_workers(None)


class TestKernelExecutor:
    def test_serial_backend_below_two_workers(self):
        assert KernelExecutor(1).is_serial
        assert not KernelExecutor(2).is_serial

    def test_nonpositive_workers_raise(self):
        with pytest.raises(InvalidParameterError):
            KernelExecutor(0)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_map_preserves_submission_order(self, workers):
        executor = get_executor(workers)
        items = list(range(97))
        assert executor.map(lambda x: x * x, items) == [x * x for x in items]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_imap_preserves_submission_order(self, workers):
        executor = get_executor(workers)
        items = list(range(53))
        assert list(executor.imap(lambda x: -x, items)) == [-x for x in items]

    def test_imap_is_lazy_with_bounded_prefetch(self):
        executor = get_executor(2)
        produced: list[int] = []

        def work(x: int) -> int:
            produced.append(x)
            return x

        iterator = executor.imap(work, range(100), prefetch=3)
        first = next(iterator)
        assert first == 0
        # At most prefetch results may have been computed ahead of the
        # single one consumed (plus one in-flight submission).
        assert len(produced) <= 1 + 3 + 1

    def test_imap_rejects_nonpositive_prefetch(self):
        with pytest.raises(InvalidParameterError):
            list(get_executor(2).imap(lambda x: x, [1], prefetch=0))

    def test_shard_size_spreads_rows(self):
        executor = KernelExecutor(4)
        size = executor.shard_size(1000)
        assert 1 <= size <= 1000
        assert len(shard_spans(1000, size)) >= 4

    def test_shard_spans_partition(self):
        spans = shard_spans(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
        with pytest.raises(InvalidParameterError):
            shard_spans(10, 0)

    def test_get_executor_caches_per_count(self):
        assert get_executor(2) is get_executor(2)
        assert get_executor(1) is not get_executor(2)

    def test_get_executor_passes_instances_through(self):
        executor = get_executor(2)
        assert get_executor(executor) is executor


# ----------------------------------------------------------------------
# Sharded packed containment == dense numpy (hypothesis property)
# ----------------------------------------------------------------------
@st.composite
def distinct_bool_rows(draw):
    """A (n, m) bool matrix with pairwise-distinct rows, m around word edges."""
    n_cols = draw(st.integers(min_value=1, max_value=130))
    n_rows = draw(st.integers(min_value=1, max_value=24))
    row_masks = draw(
        st.sets(
            st.integers(min_value=0, max_value=(1 << n_cols) - 1),
            min_size=1,
            max_size=n_rows,
        )
    )
    presence = np.zeros((len(row_masks), n_cols), dtype=bool)
    for row, mask in enumerate(sorted(row_masks)):
        for col in range(n_cols):
            if mask >> col & 1:
                presence[row, col] = True
    return presence


@settings(max_examples=60, deadline=None)
@given(presence=distinct_bool_rows(), workers=st.sampled_from([1, 2, 5]))
def test_sharded_containment_matches_dense_numpy(presence, workers):
    masks = BitMatrix.from_dense(presence).words
    expected = np.all(~presence[:, None, :] | presence[None, :, :], axis=2)
    np.fill_diagonal(expected, False)
    result = packed_containment(masks, executor=get_executor(workers))
    assert np.array_equal(result.to_dense(), expected)


# ----------------------------------------------------------------------
# Lattices, Hasse edges and all nine bases: workers in {1, 2, 8}
# ----------------------------------------------------------------------
def chain_family(n_items: int) -> ClosedItemsetFamily:
    """A prefix-chain closed family over exactly ``n_items`` items.

    Sized to probe the uint64 word boundaries: the top member packs into
    ``ceil(n_items / 64)`` words with ``n_items % 64`` pad bits.
    """
    supports = {
        Itemset(range(size)): n_items + 1 - size for size in range(1, n_items + 1)
    }
    return ClosedItemsetFamily(supports, n_objects=n_items + 1, minsup_count=1)


@pytest.mark.parametrize("n_items", [63, 64, 65])
def test_lattice_workers_byte_identical_word_boundaries(n_items):
    family = chain_family(n_items)
    serial = IcebergLattice(family, workers=1)
    sharded = [IcebergLattice(family, workers=w) for w in WORKER_COUNTS[1:]]
    for lattice in [*sharded, reference_lattice(family)]:
        for side in (0, 1):
            assert np.array_equal(
                lattice.hasse_edge_indices()[side], serial.hasse_edge_indices()[side]
            )
            assert np.array_equal(
                lattice.containment_indices()[side],
                serial.containment_indices()[side],
            )
        assert (
            lattice.order_core.packed_containment_matrix().words.tobytes()
            == serial.order_core.packed_containment_matrix().words.tobytes()
        )


def test_lattice_workers_byte_identical_star_family():
    family = make_star_closed_family(402, n_objects=60)
    serial = IcebergLattice(family, workers=1)
    assert serial.edge_count() == 2 * 400
    for workers in WORKER_COUNTS[1:]:
        lattice = IcebergLattice(family, workers=workers)
        for side in (0, 1):
            assert np.array_equal(
                lattice.hasse_edge_indices()[side], serial.hasse_edge_indices()[side]
            )


def assert_rule_arrays_identical(result, oracle, label):
    assert (
        result.antecedents.words.tobytes() == oracle.antecedents.words.tobytes()
    ), label
    assert (
        result.consequents.words.tobytes() == oracle.consequents.words.tobytes()
    ), label
    assert np.array_equal(result.support, oracle.support), label
    assert np.array_equal(result.confidence, oracle.confidence), label
    assert np.array_equal(result.support_count, oracle.support_count), label
    assert result.universe == oracle.universe, label


def assert_artifacts_identical(mining, minconf):
    serial = build_rule_artifacts(mining, minconf, bases=ALL_BASES, workers=1)
    assert len(serial.bases) == 9
    for workers in WORKER_COUNTS[1:]:
        parallel = build_rule_artifacts(
            mining, minconf, bases=ALL_BASES, workers=workers
        )
        for name, built in serial.bases.items():
            assert_rule_arrays_identical(
                parallel.bases[name].rule_arrays,
                built.rule_arrays,
                f"{name} workers={workers}",
            )


def test_all_nine_bases_byte_identical_toy(toy_db):
    assert_artifacts_identical(mine_itemsets(toy_db, 0.4), 0.5)


def test_all_nine_bases_byte_identical_random(random_db):
    assert_artifacts_identical(mine_itemsets(random_db, 0.2), 0.3)


@pytest.mark.parametrize("reduced", [True, False])
def test_rule_dense_emitters_byte_identical(reduced):
    from repro.core.informative import InformativeBasis

    closed, generators = make_rule_dense_family(40, 2)
    lattice = IcebergLattice(closed)
    # Tiny forced blocks so every worker count really streams many blocks.
    serial_lux = LuxenburgerBasis(
        closed, 0.0, transitive_reduction=reduced, lattice=lattice, block_rows=17
    )
    serial_inf = InformativeBasis(
        generators, 0.0, reduced=reduced, lattice=lattice, block_rows=17
    )
    for workers in WORKER_COUNTS[1:]:
        lux = LuxenburgerBasis(
            closed,
            0.0,
            transitive_reduction=reduced,
            lattice=lattice,
            block_rows=17,
            workers=workers,
        )
        inf = InformativeBasis(
            generators,
            0.0,
            reduced=reduced,
            lattice=lattice,
            block_rows=17,
            workers=workers,
        )
        assert_rule_arrays_identical(
            lux.rules.to_arrays(), serial_lux.rules.to_arrays(), f"lux w={workers}"
        )
        assert_rule_arrays_identical(
            inf.rules.to_arrays(), serial_inf.rules.to_arrays(), f"inf w={workers}"
        )


@pytest.mark.parametrize("reduced", [True, False])
def test_streamed_emitters_are_duplicate_free(reduced):
    """The ``assume_unique`` contract of the streamed CSR emitters.

    Both bases skip the ``RuleSet.from_arrays`` dedup pass because their
    (antecedent, consequent) keys are unique by construction; this pins
    that claim — ``deduplicated()`` returning the same object means the
    key sort found nothing to drop.
    """
    from repro.core.informative import InformativeBasis

    closed, generators = make_rule_dense_family(40, 3)
    lattice = IcebergLattice(closed)
    for basis in (
        LuxenburgerBasis(
            closed, 0.0, transitive_reduction=reduced, lattice=lattice, block_rows=17
        ),
        InformativeBasis(
            generators, 0.0, reduced=reduced, lattice=lattice, block_rows=17
        ),
    ):
        arrays = basis.rules.to_arrays()
        assert arrays.deduplicated() is arrays


def test_workers_env_var_applies(toy_db, monkeypatch):
    mining = mine_itemsets(toy_db, 0.4)
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    serial = build_rule_artifacts(mining, 0.5, bases=ALL_BASES)
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    enveloped = build_rule_artifacts(mining, 0.5, bases=ALL_BASES)
    for name, built in serial.bases.items():
        assert_rule_arrays_identical(
            enveloped.bases[name].rule_arrays, built.rule_arrays, name
        )


# ----------------------------------------------------------------------
# Closure engine: sharded batches and cache thread-safety
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_engine_parallel_closures_identical(toy_db, workers):
    from itertools import combinations

    candidates = [
        frozenset(combo)
        for size in range(0, 4)
        for combo in combinations(toy_db.items, size)
    ]
    serial = ClosureEngine(toy_db, workers=1)
    parallel = ClosureEngine(toy_db, workers=workers)
    assert serial.closures_and_supports(candidates) == parallel.closures_and_supports(
        candidates
    )
    assert serial.supports(candidates) == parallel.supports(candidates)
    assert serial.extents(candidates) == parallel.extents(candidates)


def test_engine_cache_is_thread_safe(toy_db):
    from itertools import combinations

    engine = ClosureEngine(toy_db, cache_size=4, workers=2)
    candidates = [
        frozenset(combo)
        for size in range(1, 4)
        for combo in combinations(toy_db.items, size)
    ]
    oracle = dict(
        zip(candidates, ClosureEngine(toy_db).closures_and_supports(candidates))
    )
    errors: list[BaseException] = []

    def hammer() -> None:
        try:
            for _ in range(20):
                for candidate, pair in zip(
                    candidates, engine.closures_and_supports(candidates)
                ):
                    assert pair == oracle[candidate]
                engine.cache_info()
        except BaseException as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


def test_family_closure_index_is_thread_safe(toy_closed):
    # Fresh family so the lazily built index races on first use.
    family = ClosedItemsetFamily(
        toy_closed.to_dict(),
        n_objects=toy_closed.n_objects,
        minsup_count=toy_closed.minsup_count,
    )
    targets = [member for member in family.itemsets()]
    oracle = {member: toy_closed.closure_of(member) for member in targets}
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def probe() -> None:
        try:
            barrier.wait()
            for _ in range(50):
                for member in targets:
                    assert family.closure_of(member) == oracle[member]
        except BaseException as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=probe) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


# ----------------------------------------------------------------------
# CSR-only edge store mode (retain_containment=False)
# ----------------------------------------------------------------------
def test_csr_only_core_answers_like_full(toy_closed):
    full = IcebergLattice(toy_closed)
    lean = IcebergLattice(toy_closed, retain_containment=False)
    assert full.order_core.retains_containment
    assert not lean.order_core.retains_containment
    for side in (0, 1):
        assert np.array_equal(
            lean.hasse_edge_indices()[side], full.hasse_edge_indices()[side]
        )
        assert np.array_equal(
            lean.containment_indices()[side], full.containment_indices()[side]
        )
    members = full.members
    for smaller in members:
        assert lean.proper_supersets(smaller) == full.proper_supersets(smaller)
        for larger in members:
            assert lean.is_ancestor(smaller, larger) == full.is_ancestor(
                smaller, larger
            )
            assert lean.confidence_between(smaller, larger) == full.confidence_between(
                smaller, larger
            )
    assert (
        lean.order_core.packed_containment_matrix().words.tobytes()
        == full.order_core.packed_containment_matrix().words.tobytes()
    )


def test_store_load_csr_only(tmp_path, toy_closed):
    lattice = IcebergLattice(toy_closed)
    path = save_run(tmp_path / "run.npz", closed=toy_closed, lattice=lattice)
    lean = load_run(path, retain_containment=False).lattice
    full = load_run(path).lattice
    assert full.order_core.retains_containment
    assert not lean.order_core.retains_containment
    for side in (0, 1):
        assert np.array_equal(
            lean.hasse_edge_indices()[side], lattice.hasse_edge_indices()[side]
        )
    for smaller in lattice.members:
        for larger in lattice.members:
            assert lean.is_ancestor(smaller, larger) == lattice.is_ancestor(
                smaller, larger
            )
    # The reduced Luxenburger rebuild of the serve warm start only needs
    # the Hasse edges — it must work on the CSR-only lattice.
    rebuilt = LuxenburgerBasis(
        lean.closed_family, minconf=0.0, transitive_reduction=True, lattice=lean
    )
    oracle = LuxenburgerBasis(
        toy_closed, minconf=0.0, transitive_reduction=True, lattice=lattice
    )
    assert_rule_arrays_identical(
        rebuilt.rules.to_arrays(), oracle.rules.to_arrays(), "csr-only serve rebuild"
    )


def test_serve_app_defaults_to_csr_only(tmp_path, toy_db):
    from repro.experiments.harness import save_artifacts
    from repro.serve import ServeApp

    mining = mine_itemsets(toy_db, 0.4)
    artifacts = build_rule_artifacts(mining, 0.5)
    path = save_artifacts(tmp_path / "store.npz", mining, artifacts)
    app = ServeApp(path, watch=False)
    derivation = app.loaded.derivation
    assert derivation is not None
    retained = ServeApp(path, watch=False, retain_containment=True)
    status, lean_answer = app.handle("GET", "/bases", {})
    status_r, full_answer = retained.handle("GET", "/bases", {})
    assert (status, lean_answer) == (status_r, full_answer)
