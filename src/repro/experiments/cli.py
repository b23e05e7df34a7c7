"""Command-line interface: ``repro`` (also installed as ``repro-mine``).

The CLI gives quick terminal access to the things users do most:

* ``repro stats`` — dataset characteristics of the benchmark suite;
* ``repro mine --dataset <file> --minsup 0.3`` — mine a basket file
  and print the frequent closed itemsets;
* ``repro bases --dataset <file> --minsup 0.3 --minconf 0.7`` — mine
  a basket file and print the Duquenne-Guigues and Luxenburger bases with
  the reduction report; ``--bases dg,generic,...`` selects any subset of
  the registered rule bases by name and ``repro list-bases`` lists them;
* ``repro experiment T3`` — regenerate one of the paper tables
  (T1–T6, F1–F3, A1–A2) on the benchmark-scale datasets; T6 is the
  columnar per-basis statistics table added with the array-native rule
  layer;
* ``repro save --dataset <file> --out run.npz`` — mine once and persist
  the context, families, packed lattice order core and rule columns to
  a versioned NPZ artifact store;
* ``repro bases --from-store run.npz`` — warm-start the bases from a
  store instead of re-mining (byte-identical output);
* ``repro load run.npz`` — summarize a store's manifest and sections;
* ``repro export run.npz --basis dg --out dg.parquet`` — export a
  stored basis's rule columns as Parquet/Arrow (needs ``pyarrow``);
* ``repro serve --store run.npz --port 8000`` — boot the read-only
  rule-serving daemon over a store (see ``docs/serving.md``);
* ``repro recommend --store run.npz --basket b,c`` — top-k consequent
  recommendations for a partial basket, one-shot or ``--interactive``
  (see ``docs/recommend.md``).

Every subcommand carries a one-line description and an epilog example;
the full help output is golden-pinned by ``tests/test_cli_golden.py``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from collections.abc import Sequence

from ..algorithms.close import Close
from ..bases import DEFAULT_BASES, available_bases, get_basis, resolve_basis_names
from ..data.io import load_basket_file
from ..errors import InvalidParameterError, ReproError
from . import tables
from .config import all_specs, smoke_specs
from .harness import (
    build_rule_artifacts,
    build_rule_artifacts_from_store,
    mine_itemsets,
    save_artifacts,
)
from .report import render_text_table

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "T1": tables.table1_dataset_characteristics,
    "T2": tables.table2_itemset_counts,
    "T3": tables.table3_exact_rules,
    "T4": tables.table4_approximate_rules,
    "T5": tables.table5_total_reduction,
    "T6": tables.table6_basis_statistics,
    "F1": tables.figure1_dense_runtimes,
    "F2": tables.figure2_sparse_runtimes,
    "F3": tables.figure3_rules_vs_minconf,
    "A1": tables.ablation_transitive_reduction,
    "A2": tables.ablation_closed_miners,
}


class _CommandHelpFormatter(argparse.HelpFormatter):
    """Wrap descriptions normally but keep epilog examples verbatim."""

    def _fill_text(self, text: str, width: int, indent: str) -> str:
        if text.startswith("example:"):
            return "".join(indent + line for line in text.splitlines(keepends=True))
        return super()._fill_text(text, width, indent)


def _add_command(
    subparsers,
    name: str,
    help_text: str,
    description: str,
    example: str,
) -> argparse.ArgumentParser:
    """Register one subcommand with a description and an epilog example.

    Keeps the ``repro <verb> --help`` surface uniform: every verb shows
    the same one-line summary in the top-level listing (*help_text*), a
    fuller *description* on its own help page and a copy-pasteable
    *example* invocation as the epilog.
    """
    return subparsers.add_parser(
        name,
        help=help_text,
        description=description,
        epilog=f"example:\n  {example}",
        formatter_class=_CommandHelpFormatter,
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mining bases for association rules using closed sets "
        "(ICDE 2000 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = _add_command(
        subparsers,
        "stats",
        help_text="print the characteristics of the benchmark datasets",
        description="Print objects/items/density characteristics of the "
        "benchmark-scale datasets (paper table T1).",
        example="repro stats --smoke",
    )
    stats.add_argument(
        "--smoke", action="store_true", help="use the tiny smoke-test datasets"
    )

    mine = _add_command(
        subparsers,
        "mine",
        help_text="mine the frequent closed itemsets of a basket file",
        description="Run the Close miner on a basket file and print the "
        "frequent closed itemsets with their supports.",
        example="repro mine --dataset my.basket --minsup 0.3",
    )
    mine.add_argument("--dataset", required=True, help="path to a basket-format file")
    mine.add_argument("--minsup", type=float, default=0.1, help="relative minsup")
    mine.add_argument(
        "--limit", type=int, default=50, help="print at most this many itemsets"
    )

    bases = _add_command(
        subparsers,
        "bases",
        help_text="mine a basket file (or load a store) and print the rule bases",
        description="Build any selection of the registered rule bases — from "
        "a fresh mining run (--dataset) or warm-started from an artifact "
        "store (--from-store) — and print the rules plus the reduction "
        "report.",
        example="repro bases --dataset my.basket --minsup 0.3 --minconf 0.7",
    )
    bases.add_argument(
        "--dataset",
        default=None,
        help="path to a basket-format file (or use --from-store)",
    )
    bases.add_argument(
        "--from-store",
        default=None,
        metavar="PATH",
        help="warm-start from a `repro save` artifact store instead of mining "
        "(the stored minsup applies; --minconf still selects the threshold)",
    )
    bases.add_argument("--minsup", type=float, default=0.1, help="relative minsup")
    bases.add_argument(
        "--minconf",
        type=float,
        default=None,
        help="relative minconf (default: 0.7 when mining; the stored "
        "threshold with --from-store)",
    )
    bases.add_argument(
        "--limit", type=int, default=30, help="print at most this many rules per basis"
    )
    bases.add_argument(
        "--bases",
        default=None,
        metavar="NAME,NAME",
        help="comma-separated registered bases to build "
        f"(default: {','.join(DEFAULT_BASES)}; see `list-bases`)",
    )
    bases.add_argument(
        "--block-rows",
        type=int,
        default=None,
        metavar="N",
        help="row-block size of the streamed rule-column assembly "
        "(default: auto-sized from the working-set budget; purely a "
        "peak-memory knob, output is identical)",
    )
    bases.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for the sharded lattice/rule kernels "
        "(0 = all cores; default: the REPRO_NUM_WORKERS environment "
        "variable, else serial; output is identical at any count)",
    )

    _add_command(
        subparsers,
        "list-bases",
        help_text="list the registered rule bases and their descriptions",
        description="List every registered rule basis with its kind and a "
        "one-line description of the construction.",
        example="repro list-bases",
    )

    save = _add_command(
        subparsers,
        "save",
        help_text="mine a basket file and persist context, families, lattice "
        "order core and rule columns to an NPZ artifact store",
        description="Mine a basket file once and persist everything the run "
        "produced — context, frequent/closed families, generators, packed "
        "lattice order core and per-basis rule columns — to a versioned NPZ "
        "artifact store (see docs/store-format.md).",
        example="repro save --dataset my.basket --minsup 0.05 --out run.npz",
    )
    save.add_argument("--dataset", required=True, help="path to a basket-format file")
    save.add_argument("--out", required=True, help="path of the .npz store to write")
    save.add_argument("--minsup", type=float, default=0.1, help="relative minsup")
    save.add_argument("--minconf", type=float, default=0.7, help="relative minconf")
    save.add_argument(
        "--bases",
        default=None,
        metavar="NAME,NAME",
        help="comma-separated registered bases whose rule columns to store "
        f"(default: {','.join(DEFAULT_BASES)})",
    )
    save.add_argument(
        "--no-context",
        action="store_true",
        help="omit the raw transaction context from the store",
    )

    load = _add_command(
        subparsers,
        "load",
        help_text="summarize an artifact store's manifest and sections",
        description="Read an artifact store's manifest and print the dataset "
        "identity, stored sections and per-basis rule counts.",
        example="repro load run.npz",
    )
    load.add_argument("store", help="path of a `repro save` .npz container")

    update = _add_command(
        subparsers,
        "update",
        help_text="append a transaction batch to a store and repair the "
        "mined artifacts incrementally",
        description="Extend a stored context with a basket-file batch and "
        "delta-maintain the mined artifacts: only itemsets contained in a "
        "changed row are re-evaluated, the lattice order core is repaired "
        "edge-locally, the stored bases are rebuilt and the store is "
        "rewritten atomically (a serving daemon watching the file "
        "hot-reloads the repaired generation). Past --damage-threshold the "
        "update falls back to a full re-mine.",
        example="repro update --store run.npz --append batch.basket",
    )
    update.add_argument(
        "--store", required=True, help="path of a `repro save` .npz container"
    )
    update.add_argument(
        "--append",
        required=True,
        metavar="PATH",
        help="basket-format file with the transactions to append",
    )
    update.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="sliding-window capacity: evict the oldest objects so at most "
        "N remain after the append (default: keep every object)",
    )
    update.add_argument(
        "--damage-threshold",
        type=float,
        default=0.5,
        metavar="R",
        help="fall back to a full re-mine when more than this fraction of "
        "the stored closed itemsets is damaged (default: 0.5)",
    )
    update.add_argument(
        "--verify",
        choices=["off", "oracle"],
        default="off",
        help="oracle re-mines the extended context and asserts the repaired "
        "artifacts match it exactly (slow; default: off)",
    )
    update.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for the packed kernels (0 = all cores; "
        "default: the REPRO_NUM_WORKERS environment variable, else serial)",
    )

    export = _add_command(
        subparsers,
        "export",
        help_text="export a stored basis's rule columns as Parquet/Arrow "
        "(requires the optional pyarrow package)",
        description="Stream one stored basis's rule columns out as a "
        "Parquet or Feather table (list<string> sides + numeric statistics); "
        "needs the optional pyarrow package.",
        example="repro export run.npz --basis dg --out dg.parquet",
    )
    export.add_argument("store", help="path of a `repro save` .npz container")
    export.add_argument("--out", required=True, help="output file path")
    export.add_argument(
        "--basis",
        default=None,
        help="stored basis to export (default: the only stored basis; "
        "required when several are stored)",
    )
    export.add_argument(
        "--format",
        choices=["parquet", "feather"],
        default=None,
        help="output format (default: inferred from the --out suffix)",
    )

    serve = _add_command(
        subparsers,
        "serve",
        help_text="serve a store read-only over HTTP/JSON (mine once, "
        "serve many)",
        description="Boot the long-lived read-only rule-serving daemon over "
        "an artifact store: GET /healthz, /bases, /bases/<name>/rules and "
        "/metrics plus POST /derive and POST /recommend, with an LRU answer "
        "cache and SIGHUP/mtime-triggered store reloads (see "
        "docs/serving.md).",
        example="repro serve --store run.npz --port 8000",
    )
    serve.add_argument(
        "--store", required=True, help="path of a `repro save` .npz container"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8000, help="TCP port to bind (0 = ephemeral)"
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="LRU answer-cache capacity in entries (0 disables caching)",
    )
    serve.add_argument(
        "--no-watch",
        action="store_true",
        help="do not reload automatically when the store file is replaced "
        "(SIGHUP still reloads)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for the warm-start basis kernels "
        "(0 = all cores; default: the REPRO_NUM_WORKERS environment "
        "variable, else serial)",
    )
    serve.add_argument(
        "--log-requests",
        action="store_true",
        help="log one line per request to stderr (default: metrics only)",
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (>1 = supervised fork-after-load serving: "
        "crashed workers restart with backoff, SIGTERM drains gracefully; "
        "see docs/operations.md)",
    )
    serve.add_argument(
        "--verify",
        choices=["off", "manifest", "full"],
        default="full",
        help="store integrity checking at (re)load: 'manifest' checks the "
        "array inventory, 'full' also recomputes per-array sha256 digests "
        "(default: full)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; over-budget requests abort with a 503 "
        "deadline_exceeded error (default: no deadline)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="bound on concurrently handled requests; excess requests get "
        "an immediate 503 overloaded + Retry-After instead of queueing "
        "(default: unbounded)",
    )

    recommend = _add_command(
        subparsers,
        "recommend",
        help_text="top-k consequent recommendations for a partial basket",
        description="Answer top-k consequent queries over one stored rule "
        "basis: rules whose antecedent is contained in the basket, ranked "
        "by confidence (support breaks ties), with consequents the basket "
        "already holds filtered out (see docs/recommend.md).",
        example="repro recommend --store run.npz --basket b,c -k 3",
    )
    recommend.add_argument(
        "--store", required=True, help="path of a `repro save` .npz container"
    )
    recommend.add_argument(
        "--basket",
        default=None,
        metavar="ITEMS",
        help="comma-separated basket items (required unless --interactive)",
    )
    recommend.add_argument(
        "-k",
        "--top",
        type=int,
        default=5,
        metavar="N",
        dest="top",
        help="number of consequents to return (default: 5)",
    )
    recommend.add_argument(
        "--basis",
        default=None,
        help="stored basis to recommend from (default: the first stored "
        "basis in the documented preference order, informative first)",
    )
    recommend.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for the scoring kernel (0 = all cores; "
        "default: the REPRO_NUM_WORKERS environment variable, else serial)",
    )
    recommend.add_argument(
        "--interactive",
        action="store_true",
        help="read baskets from stdin, one per line, answering each "
        "(blank line or EOF quits)",
    )

    experiment = _add_command(
        subparsers,
        "experiment",
        help_text="regenerate one of the paper tables / figures",
        description="Regenerate one of the paper's tables (T1-T6), runtime "
        "figures (F1-F3) or ablations (A1-A2) on the benchmark-scale "
        "datasets.",
        example="repro experiment T5 --smoke",
    )
    experiment.add_argument(
        "id", choices=sorted(_EXPERIMENTS), help="experiment identifier (see DESIGN.md)"
    )
    experiment.add_argument(
        "--smoke", action="store_true", help="use the tiny smoke-test datasets"
    )
    return parser


def _command_stats(args: argparse.Namespace) -> int:
    specs = smoke_specs() if args.smoke else all_specs()
    rows = tables.table1_dataset_characteristics(specs)
    print(render_text_table(rows, title="T1 — dataset characteristics"))
    return 0


def _command_mine(args: argparse.Namespace) -> int:
    database = load_basket_file(args.dataset)
    run = Close(args.minsup).run(database)
    print(
        f"{database.name}: {database.n_objects} objects, {database.n_items} items; "
        f"{len(run.family)} frequent closed itemsets at minsup={args.minsup}"
    )
    for itemset, count in list(run.family.items_with_supports())[: args.limit]:
        print(f"  {itemset}  (support={count / database.n_objects:.3f})")
    remaining = len(run.family) - args.limit
    if remaining > 0:
        print(f"  ... and {remaining} more")
    return 0


def _command_bases(args: argparse.Namespace) -> int:
    if (args.dataset is None) == (args.from_store is None):
        raise InvalidParameterError(
            "pass exactly one of --dataset (mine) or --from-store (warm start)"
        )
    selection = resolve_basis_names(args.bases)
    if args.from_store is not None:
        from .. import store

        stored = store.load_run(
            args.from_store, sections=("frequent", "closed", "generators", "order")
        )
        artifacts = build_rule_artifacts_from_store(
            stored,
            minconf=args.minconf,
            bases=selection,
            block_rows=args.block_rows,
            workers=args.workers,
        )
        dataset_name = stored.name
        minsup = artifacts.minsup
        n_frequent = len(stored.frequent) if stored.frequent is not None else "?"
        n_closed = len(stored.require("closed"))
    else:
        database = load_basket_file(args.dataset)
        mining = mine_itemsets(database, args.minsup)
        artifacts = build_rule_artifacts(
            mining,
            minconf=args.minconf if args.minconf is not None else 0.7,
            bases=selection,
            block_rows=args.block_rows,
            workers=args.workers,
        )
        dataset_name = database.name
        minsup = args.minsup
        n_frequent = len(mining.frequent)
        n_closed = len(mining.closed)

    print(f"Dataset {dataset_name}: minsup={minsup}, minconf={artifacts.minconf}")
    print(
        f"  frequent itemsets: {n_frequent}, "
        f"frequent closed itemsets: {n_closed}"
    )
    if set(DEFAULT_BASES) <= set(selection):
        report = artifacts.report
        print(
            f"  all rules: {report.all_rules} "
            f"(exact {report.all_exact_rules}, "
            f"approximate {report.all_approximate_rules})"
        )
        print(
            f"  bases: Duquenne-Guigues {report.dg_basis_size}, "
            f"Luxenburger reduced {report.luxenburger_reduced_size} "
            f"(total reduction x{report.total_reduction_factor:.1f})"
        )
    else:
        for name in selection:
            built = artifacts[name]
            print(f"  {name} [{built.kind}]: {len(built)} rules")

    if args.bases is None:
        # The classic output: the paper's two minimal bases, in full.
        sections = [
            ("Duquenne-Guigues basis (exact rules)", artifacts["dg"]),
            (
                "Luxenburger reduced basis (approximate rules)",
                artifacts["luxenburger-reduced"],
            ),
        ]
    else:
        sections = [
            (f"{name} [{artifacts[name].kind}] — {get_basis(name).description}",
             artifacts[name])
            for name in selection
        ]
    for title, built in sections:
        print(f"\n{title}:")
        for rule in built.rules.sorted_rules()[: args.limit]:
            print(f"  {rule}")
        remaining = len(built) - args.limit
        if args.bases is not None and remaining > 0:
            print(f"  ... and {remaining} more")
    return 0


def _command_save(args: argparse.Namespace) -> int:
    database = load_basket_file(args.dataset)
    mining = mine_itemsets(database, args.minsup)
    selection = resolve_basis_names(args.bases)
    artifacts = build_rule_artifacts(mining, minconf=args.minconf, bases=selection)
    path = save_artifacts(
        args.out, mining, artifacts, include_context=not args.no_context
    )
    lattice = artifacts.context.lattice
    print(
        f"saved {database.name} (minsup={args.minsup}, minconf={args.minconf}) "
        f"to {path}"
    )
    print(
        f"  closed itemsets: {len(mining.closed)}, lattice edges: "
        f"{lattice.edge_count()}, bases: {', '.join(artifacts.names)}"
    )
    return 0


def _command_load(args: argparse.Namespace) -> int:
    from .. import store

    run = store.load_run(args.store)
    manifest = run.manifest
    print(f"{args.store}: {manifest['format']} v{manifest['version']}")
    print(
        f"  dataset {run.name}: minsup={run.minsup}, minconf={run.minconf}, "
        f"sections: {', '.join(run.sections)}"
    )
    if run.database is not None:
        print(
            f"  context: {run.database.n_objects} objects x "
            f"{run.database.n_items} items"
        )
    if run.frequent is not None:
        print(f"  frequent itemsets: {len(run.frequent)}")
    if run.closed is not None:
        print(f"  frequent closed itemsets: {len(run.closed)}")
    if run.generators is not None:
        print(f"  generator closures: {len(run.generators)}")
    if run.lattice is not None:
        print(
            f"  lattice: {len(run.lattice)} nodes, "
            f"{run.lattice.edge_count()} edges"
        )
    for name, arrays in run.rule_arrays.items():
        kind = run.basis_kinds.get(name, "?")
        print(f"  basis {name} [{kind}]: {len(arrays)} rules")
    return 0


def _command_update(args: argparse.Namespace) -> int:
    from ..incremental.store import update_store

    batch_db = load_basket_file(args.append)
    batch = [row.as_frozenset() for row in batch_db.transactions()]
    path, result = update_store(
        args.store,
        batch,
        window=args.window,
        damage_threshold=args.damage_threshold,
        verify=args.verify,
        workers=args.workers,
    )
    stats = result.statistics
    print(
        f"updated {path}: +{stats.n_appended} objects"
        + (f", -{stats.n_removed} evicted" if stats.n_removed else "")
        + f" ({stats.mode})"
    )
    if stats.mode == "incremental":
        print(
            f"  damaged {stats.damaged_closed}/{stats.old_closed} closed "
            f"itemsets (ratio {stats.damage_ratio:.2f}), "
            f"{stats.reclosed} closures recomputed"
        )
    elif stats.fallback_reason:
        print(f"  full re-mine: {stats.fallback_reason}")
    print(
        f"  frequent itemsets: +{stats.new_frequent} new, "
        f"-{stats.dropped_frequent} dropped; "
        f"now {len(result.mining.frequent)} frequent, "
        f"{len(result.mining.closed)} closed"
    )
    return 0


def _command_export(args: argparse.Namespace) -> int:
    from .. import store

    run = store.load_run(args.store, sections=("rules",))
    if not run.rule_arrays:
        raise InvalidParameterError(
            f"store {args.store} holds no rule columns to export"
        )
    basis = args.basis
    if basis is None:
        if len(run.rule_arrays) > 1:
            raise InvalidParameterError(
                "several bases are stored; pick one with --basis "
                f"({', '.join(run.rule_arrays)})"
            )
        basis = next(iter(run.rule_arrays))
    if basis not in run.rule_arrays:
        raise InvalidParameterError(
            f"basis {basis!r} is not in the store; stored: "
            f"{', '.join(run.rule_arrays)}"
        )
    arrays = run.rule_arrays[basis]
    path = store.export_rule_arrays(arrays, args.out, format=args.format)
    print(f"exported {len(arrays)} {basis} rules to {path}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from ..serve import RuleServer, ServeApp

    app_kwargs = dict(
        cache_size=args.cache_size,
        watch=not args.no_watch,
        workers=args.workers,
        verify=args.verify,
        request_timeout=args.request_timeout,
        max_inflight=args.max_inflight,
    )
    if args.processes > 1:
        from ..serve import Supervisor

        return Supervisor(
            args.store,
            host=args.host,
            port=args.port,
            processes=args.processes,
            app_kwargs=app_kwargs,
            log_requests=args.log_requests,
        ).run()
    app = ServeApp(args.store, **app_kwargs)
    server = RuleServer(
        (args.host, args.port),
        app,
        log_requests=args.log_requests,
        socket_timeout=30.0,
    )
    # Track handler threads so server_close() drains in-flight requests
    # on SIGTERM (socketserver only joins non-daemon threads).
    server.daemon_threads = False
    if hasattr(signal, "SIGTERM"):
        try:
            signal.signal(
                signal.SIGTERM,
                lambda *_: threading.Thread(
                    target=server.shutdown, daemon=True
                ).start(),
            )
        except ValueError:  # pragma: no cover - not in the main thread
            pass
    if hasattr(signal, "SIGHUP"):
        try:
            signal.signal(signal.SIGHUP, lambda *_: app.request_reload())
        except ValueError:  # pragma: no cover - not in the main thread
            pass
    loaded = app.loaded
    host, port = server.server_address[:2]
    print(f"serving {loaded.name} ({args.store}) on http://{host}:{port}")
    print(
        f"  bases: {', '.join(sorted(loaded.bases)) or '(none)'}; "
        f"derivation: "
        f"{'ready' if loaded.derivation is not None else 'unavailable'}"
    )
    print(
        "  endpoints: /healthz /bases /bases/<name>/rules /derive "
        "/recommend /metrics"
    )
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    return 0


def _parse_basket_line(raw: str) -> list[str]:
    """Split one basket spec on commas and whitespace, dropping blanks."""
    return [token for token in raw.replace(",", " ").split() if token]


def _print_recommendations(engine, basket, k: int) -> None:
    """Run one basket query and print the ranked consequents."""
    result = engine.query(basket, k)
    label = ", ".join(str(item) for item in result.known_items) or "(empty)"
    ignored = len(set(basket)) - len(result.known_items)
    note = f"; {ignored} unknown item(s) ignored" if ignored else ""
    print(f"basket {{{label}}}: {result.matched_rules} rule(s) matched{note}")
    if not result.recommendations:
        print("  (nothing to recommend)")
        return
    for rank, rec in enumerate(result.recommendations, start=1):
        items = ", ".join(str(item) for item in rec.items)
        antecedent = ", ".join(str(item) for item in rec.antecedent)
        consequent = ", ".join(str(item) for item in rec.consequent)
        count = "" if rec.support_count is None else f"  count={rec.support_count}"
        print(
            f"  {rank}. {{{items}}}  confidence={rec.confidence:.3f}  "
            f"support={rec.support:.3f}{count}  "
            f"[{{{antecedent}}} -> {{{consequent}}}]"
        )


def _command_recommend(args: argparse.Namespace) -> int:
    from .. import store
    from ..recommend import Recommender, preferred_basis

    if args.basket is None and not args.interactive:
        raise InvalidParameterError(
            "pass --basket ITEMS for a one-shot query or --interactive "
            "to read baskets from stdin"
        )
    if args.top < 1:
        raise InvalidParameterError(f"-k must be positive, got {args.top}")
    run = store.load_run(args.store, sections=("rules",))
    stored = run.rule_arrays or {}
    basis = args.basis if args.basis is not None else preferred_basis(stored)
    if basis is None:
        raise InvalidParameterError(
            f"store {args.store} holds no rule basis to recommend from"
        )
    if basis not in stored:
        raise InvalidParameterError(
            f"basis {basis!r} is not in the store; stored: "
            f"{', '.join(sorted(stored)) or '(none)'}"
        )
    engine = Recommender(stored[basis], workers=args.workers)
    print(
        f"recommending from basis {basis!r} "
        f"({len(engine)} rules, {len(engine.universe)} items)"
    )
    if args.basket is not None:
        _print_recommendations(engine, _parse_basket_line(args.basket), args.top)
    if args.interactive:
        prompt = sys.stdin.isatty()
        while True:
            if prompt:
                print("basket> ", end="", file=sys.stderr, flush=True)
            line = sys.stdin.readline()
            if not line or not line.strip():
                break
            _print_recommendations(engine, _parse_basket_line(line), args.top)
    return 0


def _command_list_bases(args: argparse.Namespace) -> int:
    for name, description in available_bases().items():
        kind = get_basis(name).kind
        print(f"{name:<22} [{kind:<11}] {description}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    function = _EXPERIMENTS[args.id]
    specs = smoke_specs() if args.smoke else None
    rows = function(specs) if specs is not None else function()
    print(render_text_table(rows, title=f"{args.id} — {function.__doc__.splitlines()[0]}"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` / ``repro-mine`` console scripts."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "stats": _command_stats,
        "mine": _command_mine,
        "bases": _command_bases,
        "list-bases": _command_list_bases,
        "experiment": _command_experiment,
        "save": _command_save,
        "load": _command_load,
        "update": _command_update,
        "export": _command_export,
        "serve": _command_serve,
        "recommend": _command_recommend,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream consumer closed the pipe (e.g. `repro bases | head`):
        # not an error.  Point stdout at devnull so the interpreter's
        # shutdown flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:
        # Library errors (bad parameters, unreadable datasets/stores,
        # missing optional deps) are user errors at the CLI surface:
        # report them like argparse does, not as a traceback.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
