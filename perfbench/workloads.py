"""The four workloads, each a real user path from inputs made from the seed.

Every workload goes from a dataset to served answers:

``build-dense`` / ``build-sparse``
    ``repro save`` in-process, repeated: mine → default bases → store.
    Then the built store is served for a short light-rate phase.
``serve-read``
    ``repro serve`` over a seven-basis MUSHROOM* store; open-loop reads at
    a light and a heavy rate, then a rate ladder.
``update-stream``
    ``repro serve`` over a Quest store while a writer process appends
    batches through ``update_store``; reads run at the light rate.

A :class:`Run` collects end-to-end metrics (untraced runs) and per-layer
metrics (traced runs), counts attempted and failed operations, and runs
the oracles of :mod:`perfbench.oracles`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.algorithms import Apriori, Close
from repro.bases import build_bases, resolve_basis_names
from repro.core.derivation import BasisDerivation
from repro.core.dg_basis import build_duquenne_guigues_basis
from repro.core.luxenburger import LuxenburgerBasis
from repro.data import TransactionDatabase, load_basket_file
from repro.experiments.harness import (
    ItemsetMiningResult,
    RuleArtifacts,
    build_rule_artifacts,
    mine_itemsets,
    save_artifacts,
)
from repro.recommend import Recommender
from repro.store import load_run

from . import inputs, loadgen, oracles, spans, speed, stats
from .daemon import Daemon

MIB = 1024.0 * 1024.0

#: Timed ``load_basket_file`` calls before each build of a build run; the
#: median of all of them is ``setup_s``.  Spread over the build phase, they
#: see the same machine the builds see.
LOADS_PER_BUILD = 25
#: Daemon boots of a serving run before and after its measured phases
#: (the serving daemon's own boot is one more); their median is ``setup_s``.
BOOTS_BEFORE, BOOTS_AFTER = 1, 2
#: Builds per run, at least; build runs add more while their build share lasts.
MIN_BUILDS = 3
#: More builds of update-stream's base after its phase, so its ``build_s``
#: samples span the run as its ``setup_s`` samples do.
BUILDS_AFTER = 2
#: Seconds between update-stream's batch hand-overs.  An update cycle
#: (``update_store``, reload, first answer of the new generation) took a
#: median 0.8 s, so cycles three times as slow still keep to the schedule.
BATCH_PERIOD = 2.5
#: Seconds of the phase left after the last hand-over, to apply and serve it.
BATCH_TAIL = 3.5
#: Share of ``--seconds`` the build runs spend building (the rest serves).
BUILD_SHARE = 0.7
#: Served answers per run whose body is checked by an oracle.
CHECKED_ANSWERS = 40
#: Repeats of each in-process store-layer measurement of a traced run.
LAYER_REPEATS = 5
#: End-to-end metrics a traced run compares with the untraced median.
TRACE_COMPARED = ("setup_s", "build_s", "cpu_ms_per_req")


@dataclass
class Run:
    """One benchmark run: settings, the metrics it measured, its checks."""

    root: Path
    work: Path
    name: str
    seed: int
    seconds: float
    trace: bool
    settings: dict
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    checks: oracles.Checks = field(default_factory=oracles.Checks)
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.started = time.perf_counter()
        self.spec = self.settings["workloads"][self.name]
        self.tracer = spans.Tracer(self.trace)
        self.speed = speed.Speed(self.settings["reference_ms"])
        self.work.mkdir(parents=True, exist_ok=True)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.notes.append(f"{name} = {value:.6g} {unit}{'  ' + note if note else ''}")

    def timing(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A timing metric, reported at the reference machine speed (:mod:`.speed`).

        The scale comes from every reference sample of the run so far.
        """
        scale = self.speed.scale()
        self.metric(name, value * scale, unit,
                    f"{note + '  ' if note else ''}(measured {value:.6g} {unit}, times {scale:.4f}"
                    f" from {len(self.speed.samples)} reference samples)")

    def layer(self, name: str, value: float) -> None:
        self.layers[name] = float(value)

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")

    def trace_file(self, label: str) -> Path | None:
        return self.work / f"spans-{label}.json" if self.trace else None


# ----------------------------------------------------------------------
# Inputs and the build path
# ----------------------------------------------------------------------
def _dataset(spec: dict, seed: int, n_stream: int = 0) -> inputs.Dataset:
    if spec["dataset"] == "mushroom":
        return inputs.dense_rows(seed, spec["n_objects"])
    return inputs.quest_rows(seed, spec["n_objects"], n_stream)


def build_store(run: Run, database, store: Path, request: int):
    """The ``repro save`` path; returns ``(seconds, mining, artifacts)``.

    Untraced it calls :func:`mine_itemsets`, :func:`build_rule_artifacts`
    and :func:`save_artifacts` exactly as ``repro save`` does.  Traced it
    makes the same calls one layer at a time, each inside a span.
    """
    spec = run.spec
    minsup, minconf = spec["minsup"], spec["minconf"]
    selection = resolve_basis_names(spec["bases"])
    start = time.perf_counter()
    if not run.trace:
        mining = mine_itemsets(database, minsup)
        artifacts = build_rule_artifacts(mining, minconf, bases=selection)
        save_artifacts(store, mining, artifacts)
        return time.perf_counter() - start, mining, artifacts
    tracer = run.tracer
    with tracer.span("build", request=request):
        with tracer.span("algorithms.apriori"):
            apriori = Apriori(minsup).run(database)
        tracer.count("algorithms.apriori.itemsets", len(apriori.family))
        close = Close(minsup)
        engine = database.engine()
        before = engine.cache_info()
        with tracer.span("algorithms.close"):
            close_run = close.run(database)
        after = engine.cache_info()
        misses, hits = after.misses - before.misses, after.hits - before.hits
        tracer.count("algorithms.close.candidates", close_run.statistics.candidates_generated)
        tracer.count("algorithms.close.closed_per_candidate",
                     len(close_run.family) / max(1, close_run.statistics.candidates_generated))
        tracer.count("engine.closures", misses)
        tracer.count("engine.cache_hit_ratio", hits / max(1, hits + misses))
        mining = ItemsetMiningResult(database=database, minsup=minsup, apriori_run=apriori,
                                     close_run=close_run,
                                     generators_by_closure=close.generators_by_closure)
        context = mining.basis_context(minconf)
        with tracer.span("core.lattice"):
            lattice = context.lattice
        tracer.count("core.lattice.nodes", len(lattice))
        tracer.count("core.lattice.edges", lattice.edge_count())
        bases = {}
        for name in selection:
            with tracer.span(f"bases.{name}"):
                built = bases[name] = build_bases(context, [name])[name]
                # Object-built bases pack their columns lazily; without this
                # the packing would land in store.save.
                built.rule_arrays
            tracer.count(f"bases.{name}.rules", len(built))
        artifacts = RuleArtifacts(database_name=database.name, minsup=minsup,
                                  minconf=minconf, bases=bases, context=context)
        with tracer.span("store.save"):
            save_artifacts(store, mining, artifacts)
        tracer.count("store.bytes", store.stat().st_size)
    return time.perf_counter() - start, mining, artifacts


def repeated_builds(run: Run, basket: Path, store: Path, builds: list,
                    count: int = MIN_BUILDS, until: float = 0.0, loads: list | None = None):
    """Build the store *count* times, and more until *until*.

    Appends each build's seconds to *builds*; returns the last
    ``(mining, artifacts)``.  Each build mines a freshly loaded database:
    closure engines cache per database.  Given a *loads* list,
    :data:`LOADS_PER_BUILD` loads precede each build and their times are
    appended to it.  The machine speed is sampled before each build and
    after the last.
    """
    done = 0
    while done < count or time.perf_counter() < until:
        # Drop the previous build before the next, as separate saves would.
        mining = artifacts = database = None
        run.speed.sample()
        for attempt in range(1 if loads is None else LOADS_PER_BUILD):
            database = None
            with run.tracer.span("data.load", request=("load", len(builds), attempt)):
                start = time.perf_counter()
                database = load_basket_file(basket)
                seconds = time.perf_counter() - start
            if loads is not None:
                loads.append(seconds)
        seconds, mining, artifacts = build_store(run, database, store, len(builds))
        builds.append(seconds)
        done += 1
        run.operation(True, "build")
    run.speed.sample()
    return mining, artifacts


def report_builds(run: Run, builds: list) -> None:
    run.timing("build_s", stats.median(builds), "s", f"(median of {len(builds)} builds)")


def check_build(run: Run, store: Path, mining, artifacts):
    """The build oracles; returns the store as reloaded under ``verify="full"``."""
    oracles.check_families(run.checks, mining.frequent, mining.closed)
    counts = {name: len(built) for name, built in artifacts.bases.items()}
    stored = oracles.check_store(run.checks, store, counts)
    oracles.check_rule_sample(run.checks, artifacts["all"].rule_arrays, mining.frequent,
                              run.seed)
    if run.seed == run.settings["default_seed"] and "digests" in run.spec:
        oracles.check_digests(run.checks, stored.rule_arrays, run.spec["digests"])
    return stored


# ----------------------------------------------------------------------
# Serving helpers
# ----------------------------------------------------------------------
def start_daemon(run: Run, store: Path, label: str) -> Daemon:
    daemon = Daemon(run.root, store, trace_out=run.trace_file(f"daemon-{label}"))
    run.operation(True, "daemon boot")
    return daemon


def boot_and_stop(run: Run, store: Path, count: int, boots: list) -> None:
    """Boot *count* daemons on *store* one at a time, adding each boot time to *boots*.

    The machine speed is sampled after each boot.
    """
    for _ in range(count):
        daemon = start_daemon(run, store, f"boot{len(boots)}")
        boots.append(daemon.boot_s)
        daemon.stop()
        run.speed.sample()


def report_boots(run: Run, boots: list) -> None:
    run.timing("setup_s", stats.median(boots), "s",
               f"(median of {len(boots)} boots, spawn to first healthz 200)")


def first_distinct(draws, count: int) -> list[int]:
    """The first *count* distinct query ids of a draw sequence."""
    seen: dict[int, None] = {}
    for qid in draws:
        seen.setdefault(int(qid), None)
        if len(seen) == count:
            break
    return list(seen)


def record_phase(run: Run, phase: loadgen.Phase) -> None:
    """Count a phase's requests; phases of one name (ladder steps) add up."""
    run.attempted += phase.attempted
    run.failed += phase.failed
    for _, what in phase.failures[:5]:
        run.notes.append(f"FAILED: {phase.name}: {what}")
    for field_name, count in (("sent", phase.attempted), ("succeeded", phase.succeeded),
                              ("failed", phase.failed)):
        name = f"loadgen.{phase.name}.{field_name}"
        run.layer(name, run.layers.get(name, 0.0) + count)


def report_latency(run: Run, phase: loadgen.Phase) -> None:
    """Median and tail of a phase's due-time latency (per-layer and printed)."""
    latencies = phase.latencies_ms()
    percent, value, n = stats.tail(latencies)
    run.layer(f"loadgen.{phase.name}.p50_ms", stats.median(latencies))
    run.layer(f"loadgen.{phase.name}.p99_ms", value)
    run.notes.append(f"{phase.name} at {phase.rate:g} req/s: p50 {stats.median(latencies):.4g} ms,"
                     f" p{percent:g} {value:.4g} ms (n={n}; the highest percentile with"
                     f" >= {stats.MIN_BEYOND} samples beyond it)")


def check_answers(run: Run, phases, stored, queries) -> None:
    """Check every kept answer body against the store the daemon served."""
    served = oracles.ServedAnswers(stored)
    for phase in phases:
        for qid, (status, body) in phase.bodies.items():
            served.check(run.checks, queries[qid], status, body)


def cache_layers(run: Run, daemon: Daemon) -> None:
    status, payload = daemon.get("/metrics")
    run.operation(status == 200, "GET /metrics")
    cache = payload["cache"]
    lookups = cache["hits"] + cache["misses"]
    run.layer("serve.cache.hit_ratio", cache["hits"] / max(1, lookups))
    run.layer("serve.cache.evictions", cache["evictions"])
    run.layer("serve.rejected", payload["rejected_total"])


def store_layers(run: Run, store: Path, queries, draws) -> None:
    """Traced runs: time the store-read and snapshot layers from outside.

    Called on the store a daemon is about to boot on, before it boots.
    These are the calls ``ServeApp`` makes when it loads a snapshot, made
    here one at a time: ``load_run`` without and with full verification
    (CSR-only, as the daemon loads), the canonical sort of every basis,
    the recommender index, and the derivation constructors.  Then every
    recommend query of the population's first draws runs in-process.
    """
    tracer = run.tracer
    for repeat in range(LAYER_REPEATS):
        with tracer.span("store.load", request=("layers", repeat)):
            load_run(store, verify="off", retain_containment=False)
        with tracer.span("store.load_full", request=("layers", repeat)):
            stored = load_run(store, verify="full", retain_containment=False)
        for name, arrays in stored.rule_arrays.items():
            with tracer.span("rulearrays.sort", request=("layers", repeat)):
                canonical = arrays.sorted_canonically()
            with tracer.span("recommend.index", request=("layers", repeat)):
                Recommender(canonical, assume_canonical=True)
        with tracer.span("core.derivation_build", request=("layers", repeat)):
            dg = build_duquenne_guigues_basis(stored.frequent, stored.closed)
            luxenburger = LuxenburgerBasis(stored.closed, minconf=0.0,
                                           transitive_reduction=True,
                                           lattice=stored.lattice)
            BasisDerivation(dg, luxenburger, n_objects=stored.closed.n_objects)
    recommenders = {name: Recommender(arrays) for name, arrays in stored.rule_arrays.items()}
    asked = [queries[qid] for qid in first_distinct(draws, 2000)
             if queries[qid].kind == "recommend"][:200]
    for number, query in enumerate(asked):
        body = json.loads(query.body)
        with tracer.span("recommend.query", request=("recommend", number)):
            result = recommenders[body["basis"]].query(body["basket"], body["k"])
        tracer.count("recommend.matched_rules", result.matched_rules)


def serve_light(run: Run, store: Path, stored, dataset, seconds: float) -> None:
    """Serve the built store for *seconds* at the light rate (build runs)."""
    queries = inputs.query_population(stored, dataset, run.spec["population"])
    draws = inputs.zipf_draws(len(queries), 1_000_000, run.seed)
    sample = first_distinct(draws, CHECKED_ANSWERS)
    rng = np.random.default_rng(run.seed)
    if run.trace:
        store_layers(run, store, queries, draws)
    daemon = start_daemon(run, store, "serve")
    try:
        generator = loadgen.LoadGenerator("127.0.0.1", daemon.port, queries, sample=sample)
        try:
            run.speed.sample()
            cpu = daemon.cpu_seconds()
            phase = generator.run("light", run.settings["light_rps"], seconds, draws, rng)
            cpu = daemon.cpu_seconds() - cpu
        finally:
            generator.close()
        cache_layers(run, daemon)
    finally:
        daemon.stop()
    run.speed.sample()
    record_phase(run, phase)
    report_latency(run, phase)
    run.timing("cpu_ms_per_req", 1000.0 * cpu / max(1, phase.succeeded), "ms")
    run.layer("loadgen.late_ms.p99", stats.tail(phase.late_ms())[1])
    check_answers(run, [phase], stored, queries)
    if run.trace:
        summarize_trace(run, [phase])


def _recorded(path: Path | None) -> dict:
    if path is None or not path.exists():
        return {"spans": [], "counts": []}
    return json.loads(path.read_text())


def summarize_trace(run: Run, phases) -> None:
    """Traced runs: per-layer self times and counts from every traced process.

    Layer times are the median over requests (builds, loads, repeats) of
    the self time summed per request; route handle times exclude the
    reloads they triggered.  The tracing overhead is reported twice:
    measured, as each end-to-end metric of this traced run over the
    untraced median recorded for the workload (``trace.vs_untraced.*``,
    which shows what the traced path does differently, within the
    run-to-run spread); and estimated, as the cost of recording one span,
    per traced process, times the spans it recorded, as a share of the
    run's time (``trace.span_cost_pct``).
    """
    own = run.tracer.spans
    daemon = _recorded(run.trace_file("daemon-serve"))
    writer = _recorded(run.trace_file("writer"))

    bases = sorted({r[spans.NAME] for r in own if r[spans.NAME].startswith("bases.")})
    for name in ["data.load", "algorithms.apriori", "algorithms.close", "core.lattice",
                 "store.save", "store.load", "rulearrays.sort", "recommend.index",
                 "core.derivation_build", "build", *bases]:
        values = spans.per_request(own, name)
        if values:
            run.layer("build.self_s" if name == "build" else f"{name}_s",
                      stats.median(values))
    full = spans.per_request(own, "store.load_full")
    if full:
        # Paired per repeat: the two loads of one repeat ran back to back.
        off = spans.per_request(own, "store.load")
        run.layer("store.verify_s", stats.median([f - o for f, o in zip(full, off)]))
        boot = spans.per_request(daemon["spans"], "serve.boot", self_only=False)
        if boot:
            run.layer("serve.snapshot_s", boot[0] - stats.median(full))
    counts: dict[str, list[float]] = {}
    for name, value, _ in run.tracer.counts:
        counts.setdefault(name, []).append(value)
    for name, values in counts.items():
        run.layer(name, stats.median(values) if name != "recommend.matched_rules"
                  else sum(values) / len(values))
    queries_ms = [1000.0 * t for t in spans.per_request(own, "recommend.query")]
    if queries_ms:
        run.layer("recommend.query_ms.p50", stats.median(queries_ms))
        run.layer("recommend.query_ms.p99", stats.tail(queries_ms)[1])
    handles = []
    for route in ("rules", "derive", "recommend", "bases"):
        times = [1000.0 * t for t in
                 spans.per_request(daemon["spans"], f"serve.handle.{route}")]
        handles += times
        if times:
            run.layer(f"serve.handle_ms.{route}.p50", stats.median(times))
            run.layer(f"serve.handle_ms.{route}.p99", stats.tail(times)[1])
    service = [ms for phase in phases for ms in phase.service_ms()]
    if handles and service:
        run.layer("serve.transport_ms", stats.median(service) - stats.median(handles))
    reloads = spans.per_request(daemon["spans"], "serve.reload", self_only=False)
    if reloads:
        run.layer("serve.reload_s", stats.median(reloads))
    cost = spans.span_cost_seconds()
    daemon_cost = [v for name, v, _ in daemon["counts"] if name == "trace.span_cost_s"]
    recorded = len(own) + len(daemon["spans"]) + len(writer["spans"])
    overhead = cost * (len(own) + len(writer["spans"]))
    overhead += (daemon_cost[0] if daemon_cost else cost) * len(daemon["spans"])
    run.layer("trace.spans", recorded)
    run.layer("trace.span_cost_pct", 100.0 * overhead / (time.perf_counter() - run.started))
    untraced = run.spec.get("steadiness", {}).get("metrics", {})
    for name in TRACE_COMPARED:
        if name in run.metrics and name in untraced:
            run.layer(f"trace.vs_untraced.{name}",
                      run.metrics[name][0] / untraced[name]["median"])


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
def build_workload(run: Run) -> None:
    """``build-dense`` and ``build-sparse``: repeated in-process builds, then serve."""
    dataset = _dataset(run.spec, run.seed)
    basket = inputs.write_basket(dataset.rows, run.work / "dataset.basket")
    store = run.work / "store.npz"
    deadline = time.perf_counter() + BUILD_SHARE * run.seconds
    builds, loads = [], []
    mining, artifacts = repeated_builds(run, basket, store, builds, until=deadline, loads=loads)
    report_builds(run, builds)
    run.metric("store_mb", store.stat().st_size / MIB, "MB")
    run.operation(True, "load_basket_file")
    run.timing("setup_s", stats.median(loads), "s",
               f"(median of {len(loads)} load_basket_file calls, {LOADS_PER_BUILD}"
               " before each build)")
    run.metric("peak_rss_mb", loadgen.peak_rss_mb(), "MB", "(the building process)")
    stored = check_build(run, store, mining, artifacts)
    serve_light(run, store, stored, dataset, max(1.0, (1.0 - BUILD_SHARE) * run.seconds))


def _serving_store(run: Run, rows, builds: list) -> tuple[Path, Path, object]:
    """Build the served store, adding to *builds*, and check it.

    Returns the basket, the store and the store as loaded by the oracle.
    """
    basket = inputs.write_basket(rows, run.work / "dataset.basket")
    store = run.work / "store.npz"
    mining, artifacts = repeated_builds(run, basket, store, builds)
    run.metric("store_mb", store.stat().st_size / MIB, "MB")
    return basket, store, check_build(run, store, mining, artifacts)


def serve_read(run: Run) -> None:
    """``serve-read``: light and heavy fixed rates, then the rate ladder."""
    settings = run.settings
    dataset = _dataset(run.spec, run.seed)
    builds = []
    _, store, stored = _serving_store(run, dataset.rows, builds)
    report_builds(run, builds)
    queries = inputs.query_population(stored, dataset, run.spec["population"])
    draws = inputs.zipf_draws(len(queries), 1_000_000, run.seed)
    sample = first_distinct(draws, CHECKED_ANSWERS)
    rng = np.random.default_rng(run.seed)
    if run.trace:
        store_layers(run, store, queries, draws)
    boots = []
    boot_and_stop(run, store, BOOTS_BEFORE, boots)
    daemon = start_daemon(run, store, "serve")
    boots.append(daemon.boot_s)
    phases = []
    try:
        generator = loadgen.LoadGenerator("127.0.0.1", daemon.port, queries, sample=sample)
        position = 0

        def phase(name: str, rate: float, seconds: float) -> loadgen.Phase:
            nonlocal position
            result = generator.run(name, rate, seconds, draws[position:], rng)
            position += result.attempted
            return result

        try:
            warm = phase("warm", settings["light_rps"], 1.0)
            run.speed.sample()
            cpu = daemon.cpu_seconds()
            light = phase("light", settings["light_rps"], 0.3 * run.seconds)
            heavy = phase("heavy", settings["heavy_rps"], 0.3 * run.seconds)
            phases = [light, heavy]
            best = heavy if heavy.meets(settings["latency_limit_ms"]) else light
            step_seconds = 0.4 * run.seconds / len(settings["ladder_rps"])
            for rate in settings["ladder_rps"]:
                step = phase("ladder", rate, step_seconds)
                phases.append(step)
                if not step.meets(settings["latency_limit_ms"]):
                    break
                best = step
            cpu = daemon.cpu_seconds() - cpu
        finally:
            generator.close()
        cache_layers(run, daemon)
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    run.speed.sample()
    boot_and_stop(run, store, BOOTS_AFTER, boots)
    report_boots(run, boots)
    for item in [warm, *phases]:
        record_phase(run, item)
    report_latency(run, light)
    report_latency(run, heavy)
    run.timing("cpu_ms_per_req", 1000.0 * cpu / max(1, sum(p.succeeded for p in phases)),
               "ms")
    run.metric("peak_rss_mb", peak, "MB", "(the daemon)")
    run.layer("loadgen.max_rate_rps", best.succeeded / best.seconds)
    run.layer("loadgen.late_ms.p99", stats.tail([ms for p in phases for ms in p.late_ms()])[1])
    run.notes.append(f"max_rate {best.succeeded / best.seconds:.1f} req/s: the highest of "
                     f"{[p.rate for p in phases]} req/s meeting p99 <= "
                     f"{settings['latency_limit_ms']} ms without a growing backlog")
    check_answers(run, phases, stored, queries)
    if run.trace:
        summarize_trace(run, phases)


def update_stream(run: Run) -> None:
    """``update-stream``: appends through ``update_store`` beside light-rate reads."""
    spec, settings = run.spec, run.settings
    dataset = _dataset(spec, run.seed, spec["batch"] * spec["max_batches"])
    base, stream = dataset.rows, dataset.stream
    builds = []
    basket, store, stored = _serving_store(run, base, builds)
    queries = inputs.query_population(stored, dataset, spec["population"])
    draws = inputs.zipf_draws(len(queries), 1_000_000, run.seed)
    rng = np.random.default_rng(run.seed)
    batches = [stream[i: i + spec["batch"]] for i in range(0, len(stream), spec["batch"])]
    if run.trace:
        store_layers(run, store, queries, draws)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.root / "src"), str(run.root)]))
    command = [sys.executable, "-m", "perfbench.writer", "--store", str(store)]
    if run.trace:
        command += ["--trace-out", str(run.trace_file("writer"))]
    # The writer replaces the store; the boots after the phase boot a copy
    # of the store every other boot saw.
    booted = shutil.copyfile(store, run.work / "booted.npz")
    boots = []
    boot_and_stop(run, booted, BOOTS_BEFORE, boots)
    daemon = start_daemon(run, store, "serve")
    boots.append(daemon.boot_s)
    writer = None
    try:
        run.speed.sample()
        writer = subprocess.Popen(command, cwd=run.root, env=env, text=True,
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if json.loads(writer.stdout.readline()).get("ready") is not True:
            raise RuntimeError("the writer did not start")
        feeder = _Feeder(writer, batches)
        generator = loadgen.LoadGenerator("127.0.0.1", daemon.port, queries)
        try:
            cpu = daemon.cpu_seconds()
            phase = generator.run("light", settings["light_rps"], run.seconds, draws, rng,
                                  started=feeder.start_with)
            feeder.join(timeout=120)
            cpu = daemon.cpu_seconds() - cpu
        finally:
            generator.close()
        writer.stdin.close()
        run.operation(writer.wait(timeout=60) == 0, f"writer exited with {writer.returncode}")
        cache_layers(run, daemon)
        peak = daemon.peak_rss_mb()
        status, health = daemon.get("/healthz")
        final = load_run(store, verify="full")
        asked = _ask(daemon, queries, first_distinct(draws, CHECKED_ANSWERS))
    finally:
        if writer is not None and writer.poll() is None:
            writer.kill()
            writer.wait(timeout=30)
        daemon.stop()
    run.speed.sample()
    boot_and_stop(run, booted, BOOTS_AFTER, boots)
    report_boots(run, boots)
    repeated_builds(run, basket, run.work / "rebuilt.npz", builds, count=BUILDS_AFTER)
    report_builds(run, builds)
    record_phase(run, phase)
    reports, freshness = feeder.reports, feeder.freshness
    record_updates(run, feeder.handed, reports)
    applied = len(reports)
    run.checks.check(applied >= 1 and len(freshness) == applied,
                     f"{applied} batches applied, {len(freshness)} seen served")
    report_latency(run, phase)
    run.timing("cpu_ms_per_req", 1000.0 * cpu / max(1, phase.succeeded), "ms")
    run.metric("peak_rss_mb", peak, "MB", "(the daemon)")
    run.layer("loadgen.late_ms.p99", stats.tail(phase.late_ms())[1])
    if reports:
        update_s = [r["update_s"] for r in reports]
        mining_s = [r["wall_clock_seconds"] for r in reports]
        run.layer("incremental.update_s", stats.median(update_s))
        run.layer("incremental.update_mining_s", stats.median(mining_s))
        run.layer("incremental.rebuild_s",
                  stats.median([u - m for u, m in zip(update_s, mining_s)]))
        run.layer("incremental.damage_ratio", stats.median([r["damage_ratio"] for r in reports]))
        run.layer("incremental.reclosed", stats.median([r["reclosed"] for r in reports]))
        run.layer("incremental.remine_count", sum(r["mode"] == "remine" for r in reports))
        run.notes.append(f"{applied} batches: update_s {stats.median(update_s):.4f} s, modes "
                         f"{sorted({r['mode'] for r in reports})}")
    if freshness:
        run.layer("incremental.freshness_s", stats.median(freshness))
        run.notes.append(f"freshness_s {stats.median(freshness):.4f} s")
    # The final store must equal a fresh mine of base + appended rows, the
    # daemon must serve its generation, and answers must come from it.
    appended = [row for batch in batches[:applied] for row in batch]
    fresh = mine_itemsets(TransactionDatabase(base + appended), spec["minsup"])
    run.checks.check(final.frequent.same_contents(fresh.frequent),
                     "final frequent family differs from a fresh mine")
    run.checks.check(final.closed.same_contents(fresh.closed),
                     "final closed family differs from a fresh mine")
    run.checks.check(status == 200 and health["generation"] == 1 + applied
                     and health["n_objects"] == len(base) + len(appended),
                     f"daemon serves {health}, expected generation {1 + applied}")
    served = oracles.ServedAnswers(final)
    for query, answer_status, body in asked:
        run.operation(loadgen.expected_status(query, answer_status), query.path)
        served.check(run.checks, query, answer_status, body)
    if run.trace:
        summarize_trace(run, [phase])


def record_updates(run: Run, handed: int, reports: list) -> None:
    """Count each batch handed to the writer as one ``update_store`` operation.

    A batch without a report (the writer died on it) failed.
    """
    for number in range(handed):
        mode = reports[number].get("mode") if number < len(reports) else None
        run.operation(mode in ("incremental", "remine"), f"update_store of batch {number}: {mode}")


def _ask(daemon: Daemon, queries, qids) -> list:
    """Ask each query once, in order, on one connection (closed loop)."""
    connection = loadgen.Connection("127.0.0.1", daemon.port)
    try:
        return [(queries[qid], *connection.fetch(queries[qid])) for qid in qids]
    finally:
        connection.close()


class _Feeder(threading.Thread):
    """Hands batches to the writer one at a time while a phase runs.

    Batch *k* is due :data:`BATCH_PERIOD` times *k* seconds into the phase,
    and handed over then, or once the previous one is served if that is
    later; its freshness is the time from hand-over until the first answer
    that carries the generation it produced.  The schedule is fixed, so
    every run applies the same batches whatever the machine's speed, and
    the daemon reloads as often.  Only the first batch is due less than
    :data:`BATCH_TAIL` seconds before the phase ends.
    """

    def __init__(self, writer, batches) -> None:
        super().__init__(daemon=True)
        self.writer, self.batches = writer, batches
        self.handed = 0
        self.reports: list[dict] = []
        self.freshness: list[float] = []
        self.phase = None

    def start_with(self, phase) -> None:
        self.phase = phase
        self.start()

    def run(self) -> None:
        phase = self.phase
        end = phase.origin + phase.seconds
        for number, batch in enumerate(self.batches):
            due = phase.origin + number * BATCH_PERIOD
            if number and end - due < BATCH_TAIL:
                return
            time.sleep(max(0.0, due - time.perf_counter()))
            handed = time.perf_counter()
            self.handed += 1
            self.writer.stdin.write(json.dumps(batch) + "\n")
            self.writer.stdin.flush()
            line = self.writer.stdout.readline()
            if not line:
                return
            self.reports.append(json.loads(line))
            generation = number + 2
            while time.perf_counter() < end and generation not in phase.first_seen:
                time.sleep(0.001)
            if generation not in phase.first_seen:
                return
            self.freshness.append(phase.origin + phase.first_seen[generation] - handed)


WORKLOADS = {
    "build-dense": build_workload,
    "build-sparse": build_workload,
    "serve-read": serve_read,
    "update-stream": update_stream,
}
