"""Micro-benchmarks of the individual miners and the closure engine.

Unlike the table/figure benchmarks (run once because a full grid is
expensive), these micro-benchmarks time a single mining task per
algorithm with pytest-benchmark's normal statistics, which makes them the
right place to watch for performance regressions of the library itself.

The ``engine``-named benchmarks time the batch closure path of
:mod:`repro.engine` on the dense Fig. 1 workload (MUSHROOM*): closing a
whole 1k/10k-candidate level in one engine call versus the equivalent
per-itemset closure loop; whole Apriori, Close and A-Close runs on a
sparse Quest context, which time the shared rank-array candidate kernel;
and the incremental repair of a 20-row append to that context, which
mines its damaged region on the same kernel.
CI's benchmark job records these with ``--benchmark-json`` and
``scripts/check_bench_regression.py`` flags any engine benchmark that
slows down more than 2x against the base branch.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from repro import AClose, Apriori, Charm, Close, TransactionDatabase
from repro.algorithms.rule_generation import generate_all_rules
from repro.core.derivation import BasisDerivation
from repro.core.dg_basis import build_duquenne_guigues_basis
from repro.core.informative import InformativeBasis
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice
from repro.core.luxenburger import LuxenburgerBasis
from repro.core.rules import RuleSet
from repro.data.benchmarks_data import make_mushroom
from repro.data.synthetic import (
    QuestGenerator,
    make_rule_dense_family,
    make_star_closed_family,
    rule_dense_expected_counts,
)
from repro.engine import ClosureEngine
from repro.experiments.harness import mine_itemsets
from repro.incremental import update_mining
from repro.recommend import Recommender

from oracles import (
    canonical_order_reference,
    hasse_edges_reference,
    informative_rules_reference,
    luxenburger_rules_reference,
)

MINSUP = 0.5


@pytest.fixture(scope="module")
def mushroom():
    return make_mushroom()


def make_candidates(database, n_candidates: int, seed: int = 42) -> list[Itemset]:
    """Deterministic random candidate itemsets (sizes 2–4) over the context."""
    rng = random.Random(seed)
    return [
        Itemset(rng.sample(database.items, rng.randint(2, 4)))
        for _ in range(n_candidates)
    ]


@pytest.fixture(scope="module")
def mined(mushroom):
    return mine_itemsets(mushroom, MINSUP)


@pytest.mark.parametrize("algorithm_class", [Apriori, Close, AClose, Charm])
def test_miner_runtime(benchmark, mushroom, algorithm_class):
    family = benchmark(lambda: algorithm_class(MINSUP).mine(mushroom))
    assert len(family) > 0


def test_luxenburger_reduced_basis_construction(benchmark, mined):
    basis = benchmark(
        lambda: LuxenburgerBasis(mined.closed, minconf=0.7, transitive_reduction=True)
    )
    assert len(basis) > 0


MUSHROOM_ALL_RULES_AT_07 = 58_721


def test_engine_all_rules(benchmark, mined):
    """Array-native ``all`` basis on MUSHROOM* at minconf 0.7 (gated).

    One vectorised subset pass over the packed frequent family: every
    proper non-empty subset of each frequent itemset is looked up by
    mask and the confidence window applied as one column.  The family is
    packed on the first round and cached on it, so later rounds time the
    selection and the streamed column emission.  The name matches the
    ``engine`` filter of the regression gate.
    """
    rules = benchmark(lambda: generate_all_rules(mined.frequent, minconf=0.7))
    assert len(rules) == MUSHROOM_ALL_RULES_AT_07


def test_serve_snapshot_kernels(benchmark, mined):
    """The kernels of a serve snapshot, on the MUSHROOM* ``all`` basis (gated).

    What every ``ServeApp`` boot and reload runs besides the store load:
    the canonical sort of the 58,721-rule ``all`` basis (byte-table bit
    reversal, then one lexsort), the recommender's antecedent index
    (built from runs of equal antecedents) and rank permutation, and the
    derivation built from the families (DG, the reduced Luxenburger
    basis, ``BasisDerivation``).  The lattice is shared, as the store
    provides it.  The name matches the ``serve`` filter of the
    regression gate.
    """
    arrays = generate_all_rules(mined.frequent, minconf=0.7).to_arrays()
    lattice = IcebergLattice(mined.closed)

    def snapshot():
        engine = Recommender(arrays.sorted_canonically(), assume_canonical=True)
        dg = build_duquenne_guigues_basis(mined.frequent, mined.closed)
        luxenburger = LuxenburgerBasis(
            mined.closed, minconf=0.0, transitive_reduction=True, lattice=lattice
        )
        return engine, BasisDerivation(dg, luxenburger, mined.closed.n_objects)

    engine, derivation = benchmark(snapshot)
    assert len(engine) == MUSHROOM_ALL_RULES_AT_07
    expected = arrays.support_count[canonical_order_reference(arrays)]
    assert np.array_equal(engine.arrays.support_count, expected)
    assert engine.index.postings.size == engine.arrays.antecedents.count()
    for closed, count in mined.closed.items_with_supports():
        assert derivation.support_count_of_closed(closed) == count


def test_engine_lattice_construction(benchmark, mined):
    """Vectorised iceberg-lattice build on the MUSHROOM* closed family.

    This is the packed containment + gather/OR-reduce transitive
    reduction of ``repro.core.order``; the regression gate watches it (the
    name matches the ``engine`` filter).  The ratio against
    ``test_lattice_reference_builder`` is the vectorisation speedup
    (>= 3x on this workload).
    """
    lattice = benchmark(lambda: IcebergLattice(mined.closed))
    assert lattice.edge_count() > 0


def test_lattice_reference_builder(benchmark, mined):
    """The pre-vectorisation per-pair Hasse builder (baseline, not gated).

    The oracle lives in ``tests/oracles.py``; the benchmark conftest puts
    ``tests/`` on the import path.
    """
    edges = benchmark(lambda: hasse_edges_reference(mined.closed))
    assert len(edges) > 0


def test_engine_lattice_packed_large(benchmark):
    """Bit-packed lattice build on a 16k-node synthetic closed family.

    Times the :mod:`repro.core.bitmatrix` order core (blocked packed
    containment + gather/OR-reduce transitive reduction) on a family two
    dense bool matrices would spend ~0.5 GB on.  The star family's Hasse
    structure is known analytically, so the result is asserted
    edge-for-edge.  Gated by the CI regression check (the name matches
    the ``engine`` filter).
    """
    family = make_star_closed_family(16_386)
    lattice = benchmark(lambda: IcebergLattice(family))
    assert lattice.edge_count() == 2 * 16_384


RULE_DENSE_CHAIN = 250
RULE_DENSE_MULTIPLICITY = 2


@pytest.fixture(scope="module")
def rule_dense():
    """The clone-chain rule-dense workload (~93k informative+Luxenburger rules).

    Families are built analytically (``make_rule_dense_family`` equals the
    mined output, asserted in the data-generator tests) and the lattice is
    prebuilt, so both rule benchmarks time exactly the rule layer.
    """
    closed, generators = make_rule_dense_family(
        RULE_DENSE_CHAIN, RULE_DENSE_MULTIPLICITY
    )
    return closed, generators, IcebergLattice(closed)


def test_engine_rule_materialization(benchmark, rule_dense):
    """Array-native basis build on the rule-dense workload (gated).

    Full informative + full Luxenburger at ``minconf = 0``: the rules are
    assembled as columnar ``RuleArrays`` gathers from the lattice masks
    and counted without materialising one rule object.  The regression
    gate watches this (the name matches the ``engine`` filter); the
    ratio against ``test_rule_materialization_object_baseline`` is the
    columnar speedup (>= 10x required, ~100x typical).
    """
    closed, generators, lattice = rule_dense
    expected = rule_dense_expected_counts(RULE_DENSE_CHAIN, RULE_DENSE_MULTIPLICITY)

    def build() -> int:
        luxenburger = LuxenburgerBasis(
            closed, minconf=0.0, transitive_reduction=False, lattice=lattice
        )
        informative = InformativeBasis(
            generators, minconf=0.0, reduced=False, lattice=lattice
        )
        return len(luxenburger.rules) + len(informative.rules)

    total = benchmark(build)
    assert total == expected["luxenburger_full"] + expected["informative_full"]


def test_rule_materialization_object_baseline(benchmark, rule_dense):
    """The pre-columnar object pipeline on the same workload (baseline).

    Materialises every rule through the per-rule oracles of
    ``tests/oracles.py`` into a plain ``RuleSet`` — one
    ``AssociationRule`` plus two Itemset set operations per rule.  Single
    round (it is two orders of magnitude slower than the columnar path);
    not gated.
    """
    closed, generators, lattice = rule_dense
    luxenburger = LuxenburgerBasis(
        closed, minconf=0.0, transitive_reduction=False, lattice=lattice
    )
    informative = InformativeBasis(
        generators, minconf=0.0, reduced=False, lattice=lattice
    )

    def build() -> int:
        return len(
            RuleSet(luxenburger_rules_reference(lattice, 0.0, reduced=False))
        ) + len(
            RuleSet(informative_rules_reference(generators, lattice, 0.0, reduced=False))
        )

    total = benchmark.pedantic(build, rounds=1, iterations=1)
    assert total == len(luxenburger.rules) + len(informative.rules)


def test_engine_rule_streaming_blocks(benchmark, rule_dense):
    """Streamed informative expansion with deliberately small blocks (gated).

    Forces ``block_rows=4096`` (vs the auto size of ~32k rows on this
    universe) so the per-block Python overhead of the streamed CSR
    expansion is visible to the regression gate; the output is asserted
    equal to the analytic rule count.  The ratio against
    ``test_engine_rule_materialization`` (auto blocks) is the streaming
    overhead, which should stay within noise.
    """
    closed, generators, lattice = rule_dense
    expected = rule_dense_expected_counts(RULE_DENSE_CHAIN, RULE_DENSE_MULTIPLICITY)

    def build() -> int:
        return len(
            InformativeBasis(
                generators,
                minconf=0.0,
                reduced=False,
                lattice=lattice,
                block_rows=4096,
            ).rules
        )

    total = benchmark(build)
    assert total == expected["informative_full"]


PARALLEL_STAR_MEMBERS = 50_002
PARALLEL_RULE_CHAIN = 1_000


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "4workers"])
def test_engine_parallel_lattice(benchmark, workers):
    """Packed lattice build, serial vs 4 worker threads (gated pair).

    A 50k-node star family — large enough that the blocked containment
    and Hasse kernels dominate and the per-shard dispatch overhead is
    noise.  The two parametrised variants land as distinct fullnames in
    the regression gate; their ratio is the thread-pool speedup on the
    runner (the packed kernels release the GIL inside numpy, so on a
    multi-core runner the 4-worker build should be >= 2x the serial
    one).  The star's Hasse structure is known analytically, so each
    build is asserted edge-for-edge regardless of worker count.
    """
    family = make_star_closed_family(PARALLEL_STAR_MEMBERS)

    def build():
        return IcebergLattice(family, workers=workers)

    lattice = benchmark.pedantic(build, rounds=1, iterations=1)
    assert lattice.edge_count() == 2 * (PARALLEL_STAR_MEMBERS - 2)


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "4workers"])
def test_engine_parallel_rule_emit(benchmark, workers):
    """Streamed informative emission of ~10^6 rules, serial vs 4 threads.

    A 1000-link clone chain at multiplicity 2 expands to 999,000 full
    informative rules; the lattice is prebuilt and shared, so the pair
    times exactly the ordered-imap CSR block emitter.  Gated like the
    lattice pair; the serial/4-worker ratio is the emitter's thread
    speedup (>= 1.5x expected on a multi-core runner — the gathers
    release the GIL, the per-block bookkeeping does not).
    """
    closed, generators = make_rule_dense_family(PARALLEL_RULE_CHAIN, 2)
    lattice = IcebergLattice(closed)
    expected = rule_dense_expected_counts(PARALLEL_RULE_CHAIN, 2)["informative_full"]

    def build() -> int:
        return len(
            InformativeBasis(
                generators,
                minconf=0.0,
                reduced=False,
                lattice=lattice,
                workers=workers,
            ).rules
        )

    total = benchmark.pedantic(build, rounds=1, iterations=1)
    assert total == expected


RECOMMEND_BASKET_DEPTHS = (1, 2, 3, 5, 8)
RECOMMEND_QUERIES = 200
RECOMMEND_K = 5


def test_engine_recommend_throughput(benchmark):
    """Top-k recommendation over the 10^6-rule clone-chain store.

    Builds the 999,000-rule informative-full basis of the 1000-link
    clone chain once, wraps it in a :class:`Recommender`, and times one
    ``recommend_many`` batch of 200 prefix baskets (depths cycling over
    1/2/3/5/8).  Gated like the other engine benchmarks; dividing
    ``RECOMMEND_QUERIES`` by the recorded time gives queries/second in
    the trajectory artifact.

    The chain's analytic structure pins every answer exactly, without
    the (quadratic) object oracle: for a basket holding all clones of
    levels ``1..d``, the rank-``i`` recommendation is the clones of
    levels ``d+1..d+1+i``, won by a level-``d`` generator rule with
    confidence ``(L-d-i)/(L-d+1)`` — strictly decreasing in rank — and
    the basket matches ``2dL - d(d+1)`` rules.
    """
    chain = PARALLEL_RULE_CHAIN
    closed, generators = make_rule_dense_family(chain, 2)
    lattice = IcebergLattice(closed)
    arrays = InformativeBasis(
        generators, minconf=0.0, reduced=False, lattice=lattice, workers=0
    ).rules.to_arrays()
    assert len(arrays) == rule_dense_expected_counts(chain, 2)["informative_full"]
    engine = Recommender(arrays, workers=1, assume_canonical=True)
    depths = [
        RECOMMEND_BASKET_DEPTHS[i % len(RECOMMEND_BASKET_DEPTHS)]
        for i in range(RECOMMEND_QUERIES)
    ]
    baskets = [
        [f"c{level:04d}_{clone}" for level in range(1, depth + 1) for clone in range(2)]
        for depth in depths
    ]

    answers = benchmark.pedantic(
        lambda: engine.recommend_many(baskets, k=RECOMMEND_K),
        rounds=1,
        iterations=1,
    )

    assert len(answers) == RECOMMEND_QUERIES
    for depth, result in zip(depths, answers):
        assert result.matched_rules == 2 * depth * chain - depth * (depth + 1)
        assert len(result.recommendations) == RECOMMEND_K
        for rank, rec in enumerate(result.recommendations):
            top = depth + 1 + rank
            assert rec.items == tuple(
                f"c{level:04d}_{clone}"
                for level in range(depth + 1, top + 1)
                for clone in range(2)
            )
            assert rec.antecedent in ((f"c{depth:04d}_0",), (f"c{depth:04d}_1",))
            assert rec.confidence == pytest.approx(
                (chain - depth - rank) / (chain - depth + 1), rel=1e-12
            )


def test_store_roundtrip_rule_dense(benchmark, rule_dense, tmp_path):
    """NPZ save + load of families, order core and a ~50k-rule basis.

    Times one full persist/rehydrate cycle of the artifact store on the
    rule-dense workload — the mine-once/serve-many path.  The built basis
    is saved with its row pairs, as ``repro save`` writes it, so the load
    re-assembles its columns.  Not gated (disk I/O dominates and varies
    by runner); tracked in the trajectory artifact.
    """
    from repro.store import load_run, save_run

    closed, generators, lattice = rule_dense
    luxenburger = LuxenburgerBasis(
        closed, minconf=0.0, transitive_reduction=False, lattice=lattice
    )
    arrays = luxenburger.rules.to_arrays()
    path = tmp_path / "bench.npz"

    def roundtrip() -> int:
        save_run(
            path,
            closed=closed,
            generators=generators,
            lattice=lattice,
            rule_arrays={"luxenburger": arrays},
            row_pairs={"luxenburger": luxenburger.row_pairs},
        )
        return len(load_run(path).rule_arrays["luxenburger"])

    total = benchmark(roundtrip)
    assert total == len(arrays)


def test_store_save_all_basis(benchmark, mined, tmp_path):
    """Save + load of MUSHROOM* at 0.45/0.7 with the default bases (advisory).

    The naive ``all`` basis (141,128 rules) dominates the rule count; as
    row pairs into the stored frequent family the whole store stays
    under 0.25 MiB.  Not gated.
    """
    from repro.experiments.harness import build_rule_artifacts, save_artifacts
    from repro.store import load_run

    mining = mine_itemsets(mined.database, 0.45)
    artifacts = build_rule_artifacts(mining, minconf=0.7)
    path = tmp_path / "all.npz"

    def roundtrip() -> int:
        save_artifacts(path, mining, artifacts)
        return len(load_run(path).rule_arrays["all"])

    assert benchmark(roundtrip) == len(artifacts["all"].rules) == 141_128
    assert path.stat().st_size < 0.25 * 1024 * 1024


def test_closure_computation(benchmark, mushroom):
    items = mushroom.items[:3]
    result = benchmark(lambda: mushroom.closure_and_support(items))
    assert result[1] >= 0


# ----------------------------------------------------------------------
# Engine microbenchmarks (gated by scripts/check_bench_regression.py)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_candidates", [1_000, 10_000])
def test_engine_batch_closures(benchmark, mushroom, n_candidates):
    """One batched closures_and_supports() call over a full candidate level."""
    candidates = make_candidates(mushroom, n_candidates)
    engine = ClosureEngine(mushroom, cache_size=0)
    result = benchmark(lambda: engine.closures_and_supports(candidates))
    assert len(result) == n_candidates


def test_engine_per_itemset_closure_loop(benchmark, mushroom):
    """The pre-batch baseline: one engine call per candidate, 1k candidates.

    The ratio between this and ``test_engine_batch_closures[1000]``
    is the batch speedup the engine subsystem exists for (>= 3x on this
    dense workload).
    """
    candidates = make_candidates(mushroom, 1_000)
    engine = ClosureEngine(mushroom, cache_size=0)
    result = benchmark(
        lambda: [engine.closure_and_support(candidate) for candidate in candidates]
    )
    assert len(result) == 1_000


#: ``(itemsets found, candidates, database passes)`` of each level-wise
#: miner on the sparse Quest input below: the counters the paper's
#: figures plot, pinned so a faster kernel cannot do different work.
LEVELWISE_COUNTERS = {
    "Apriori": (3_310, 46_739, 6),
    "Close": (3_309, 46_738, 6),
    "AClose": (3_309, 46_739, 7),
}


@pytest.fixture(scope="module")
def quest_sparse():
    """Quest T10I4, 2,000 objects: build-sparse's context before renaming."""
    return QuestGenerator(avg_transaction_size=10.0, avg_pattern_size=4.0).generate(2000)


@pytest.mark.parametrize(
    "algorithm_class", [Apriori, Close, AClose], ids=lambda cls: cls.__name__
)
def test_engine_levelwise_miners(benchmark, quest_sparse, algorithm_class):
    """A whole level-wise run on the rank-array candidate kernel, minsup 0.006.

    ~47k candidates over six levels, 7% of them frequent: the join and
    prune, popcount supports and (Close) closing only the frequent
    candidates are the whole cost.
    """
    run = benchmark(lambda: algorithm_class(0.006).run(quest_sparse))
    statistics = run.statistics
    counters = (
        statistics.itemsets_found,
        statistics.candidates_generated,
        statistics.database_passes,
    )
    assert counters == LEVELWISE_COUNTERS[algorithm_class.__name__]


@pytest.fixture(scope="module")
def quest_append():
    """The Quest input above mined at minsup 0.006, and its next 20 rows."""
    quest = QuestGenerator(avg_transaction_size=10.0, avg_pattern_size=4.0)
    rows = [list(row.as_frozenset()) for row in quest.generate(2020).transactions()]
    return mine_itemsets(TransactionDatabase(rows[:2000]), 0.006), rows[2000:]


def test_engine_incremental_update_mining(benchmark, quest_append):
    """The incremental repair of a 20-row append, minsup 0.006.

    Delta counts on the packed families, the damaged region on the
    level-wise kernel, the generator re-derivation and the result
    assembly; the counters pin the work done.
    """
    mining, batch = quest_append
    result = benchmark(lambda: update_mining(mining, batch, damage_threshold=1.0))
    statistics = result.statistics
    counters = (
        statistics.mode,
        statistics.damaged_closed,
        statistics.reclosed,
        statistics.new_frequent,
        statistics.dropped_frequent,
    )
    assert counters == ("incremental", 560, 561, 1, 410)


def test_engine_batch_supports(benchmark, mushroom):
    """Support-only batch counting of a 10k-candidate level."""
    candidates = make_candidates(mushroom, 10_000)
    engine = ClosureEngine(mushroom, cache_size=0)
    result = benchmark(lambda: engine.supports(candidates))
    assert len(result) == 10_000


def test_engine_closure_cache_hit_rate(benchmark, mushroom):
    """Repeated closure of a warm level: the LRU cache should answer."""
    candidates = make_candidates(mushroom, 1_000)
    engine = ClosureEngine(mushroom)
    engine.closures(candidates)  # warm the cache
    result = benchmark(lambda: engine.closures(candidates))
    assert len(result) == 1_000


@pytest.fixture(scope="module")
def serve_daemon(mined, tmp_path_factory):
    """A live `repro serve` daemon over a saved MUSHROOM* store."""
    import http.client

    from repro.experiments.harness import build_rule_artifacts, save_artifacts
    from repro.serve import ServeApp, serve_in_thread

    artifacts = build_rule_artifacts(mined, minconf=0.7)
    path = tmp_path_factory.mktemp("serve-bench") / "run.npz"
    save_artifacts(path, mined, artifacts)
    app = ServeApp(path, watch=False)
    server, _ = serve_in_thread(app)
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    yield connection
    connection.close()
    server.shutdown()
    server.server_close()


def test_serve_query_throughput(benchmark, serve_daemon):
    """A keep-alive client's mixed query round against the live daemon.

    Times the serve-many half of the pipeline end to end — HTTP parse,
    columnar filtering, pagination, JSON render — over one persistent
    connection, with the answer cache on (the steady-state daemon
    workload).  Gated in CI alongside the engine benchmarks via
    ``check_bench_regression.py --filter serve``.
    """
    connection = serve_daemon
    paths = [
        "/bases",
        "/bases/dg/rules?limit=50",
        "/bases/luxenburger/rules?min_confidence=0.8&limit=50",
        "/bases/all/rules?limit=25&offset=25",
        "/healthz",
    ]

    def query_round() -> int:
        answered = 0
        for path in paths * 4:
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            answered += 1
        return answered

    assert benchmark(query_round) == 20


@pytest.fixture(scope="module")
def serve_store(mined, tmp_path_factory):
    """A saved MUSHROOM* store file for daemon-subprocess benchmarks."""
    from repro.experiments.harness import build_rule_artifacts, save_artifacts

    artifacts = build_rule_artifacts(mined, minconf=0.7)
    path = tmp_path_factory.mktemp("serve-bench-mp") / "run.npz"
    save_artifacts(path, mined, artifacts)
    return path


MULTIPROCESS_CLIENTS = 8
MULTIPROCESS_REQUESTS_PER_CLIENT = 40


@pytest.mark.parametrize("processes", [1, 4], ids=["1p", "4p"])
def test_serve_multiprocess_throughput(benchmark, serve_store, processes):
    """A client swarm against the supervised daemon, 1 vs 4 workers.

    Boots a real ``repro serve --processes N`` supervisor subprocess
    (fork-after-load workers, kernel ``SO_REUSEPORT`` load balancing)
    and times 8 keep-alive client threads draining a fixed request
    budget.  The two variants land as distinct fullnames in the
    regression gate; their ratio is the multi-process scale-out on the
    runner.  Only meaningful on a multi-core runner — on one CPU the
    variants time the same work plus fork overhead.
    """
    import http.client
    import os
    import re
    import signal
    import subprocess
    import sys
    import threading

    from repro.testing import wait_until_healthy

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--store", str(serve_store), "--port", "0",
            "--processes", str(processes),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        banner = proc.stdout.readline()
        port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
        wait_until_healthy("127.0.0.1", port, timeout=120)
        paths = [
            "/bases/dg/rules?limit=50",
            "/bases/luxenburger/rules?min_confidence=0.8&limit=50",
            "/bases/all/rules?limit=25&offset=25",
        ]

        def client(counts: list, index: int) -> None:
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=60
            )
            answered = 0
            try:
                for i in range(MULTIPROCESS_REQUESTS_PER_CLIENT):
                    connection.request("GET", paths[i % len(paths)])
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200
                    answered += 1
            finally:
                connection.close()
            counts[index] = answered

        def swarm() -> int:
            counts = [0] * MULTIPROCESS_CLIENTS
            threads = [
                threading.Thread(target=client, args=(counts, index))
                for index in range(MULTIPROCESS_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return sum(counts)

        total = benchmark.pedantic(swarm, rounds=1, iterations=1)
        assert total == MULTIPROCESS_CLIENTS * MULTIPROCESS_REQUESTS_PER_CLIENT
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
