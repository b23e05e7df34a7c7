"""Experiment harness: one place that wires miners, bases and reports together.

The benchmark modules under ``benchmarks/`` and the command-line interface
both go through this harness so that "what exactly was run" has a single
definition.  Three building blocks cover every table and figure:

* :func:`mine_itemsets` — run Apriori and Close on one dataset at one
  threshold, returning both families (plus the minimal generators Close
  discovered on the way) and the timing/counting statistics;
* :func:`build_rule_artifacts` — from the mined families, build any
  selection of the registered rule bases by name (default: the four
  artefacts of the paper's reduction tables) plus the reduction report
  comparing their sizes;
* :func:`time_algorithms` — run a list of miners over a support sweep and
  record wall-clock times (the execution-time figures).

Rule bases are selected through the string-keyed registry of
:mod:`repro.bases` (``"all"``, ``"dg"``, ``"luxenburger-reduced"``, …)
instead of one hard-coded attribute per basis; the classic attribute
accessors (``artifacts.dg_basis`` and friends) remain as thin views over
the selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..algorithms.aclose import AClose
from ..algorithms.apriori import Apriori
from ..algorithms.base import MiningAlgorithm, MiningRun
from ..algorithms.charm import Charm
from ..algorithms.close import Close
from ..bases import DEFAULT_BASES, BasisContext, BuiltBasis, build_bases
from ..core.dg_basis import DuquenneGuiguesBasis
from ..core.families import ClosedItemsetFamily, ItemsetFamily
from ..core.generators import GeneratorFamily
from ..core.luxenburger import LuxenburgerBasis
from ..core.redundancy import ReductionReport
from ..core.rules import RuleSet
from ..data.context import TransactionDatabase
from ..errors import InvalidParameterError

__all__ = [
    "ItemsetMiningResult",
    "RuleArtifacts",
    "mine_itemsets",
    "build_rule_artifacts",
    "build_rule_artifacts_from_store",
    "save_artifacts",
    "time_algorithms",
    "default_algorithms",
    "DEFAULT_BASES",
]


@dataclass
class ItemsetMiningResult:
    """Frequent and frequent-closed itemsets mined from one dataset/threshold."""

    database: TransactionDatabase
    minsup: float
    apriori_run: MiningRun
    close_run: MiningRun
    #: Minimal generators per closed itemset, recorded by the Close run
    #: (consumed by the generator-backed bases).
    generators_by_closure: dict = field(default_factory=dict)

    @property
    def frequent(self) -> ItemsetFamily:
        """All frequent itemsets (Apriori output)."""
        return self.apriori_run.family

    @property
    def closed(self) -> ClosedItemsetFamily:
        """The frequent closed itemsets (Close output)."""
        return self.close_run.family  # type: ignore[return-value]

    @cached_property
    def generator_family(self) -> GeneratorFamily:
        """The minimal generators as a validated :class:`GeneratorFamily`."""
        return GeneratorFamily(self.closed, self.generators_by_closure)

    def basis_context(
        self,
        minconf: float,
        block_rows: int | None = None,
        workers: int | None = None,
    ) -> BasisContext:
        """A :class:`BasisContext` over the mined families.

        The generator family is attached lazily so selections without a
        generator-backed basis never build or validate it.
        ``block_rows`` forces the row-block size of the streamed
        rule-column assembly (``None`` = auto-sized blocks); ``workers``
        shards the lattice and rule-emission kernels (``None`` = the
        ``REPRO_NUM_WORKERS`` environment variable, else serial).
        """
        return BasisContext(
            closed=self.closed,
            minconf=minconf,
            frequent=self.frequent,
            generators_factory=lambda: self.generator_family,
            block_rows=block_rows,
            workers=workers,
        )


@dataclass
class RuleArtifacts:
    """The rule bases built for one (dataset, minsup, minconf) cell.

    ``bases`` maps registry names to built bases, in selection order.  The
    classic attribute accessors (:attr:`all_rules`, :attr:`dg_basis`,
    :attr:`luxenburger_reduced`, …) are views over that mapping and raise
    a clear error when the corresponding basis was not selected.
    """

    database_name: str
    minsup: float
    minconf: float
    bases: dict[str, BuiltBasis]
    #: The shared build context (kept so consumers like the artifact
    #: store can reach the single iceberg lattice the bases were built
    #: on); ``None`` for artifacts assembled outside the harness.
    context: BasisContext | None = field(default=None, repr=False, compare=False)

    @property
    def names(self) -> tuple[str, ...]:
        """The selected basis names, in selection order."""
        return tuple(self.bases)

    def basis_summaries(self) -> list[dict[str, object]]:
        """One vectorised statistics row per built basis (selection order).

        Counts and averages come from numpy reductions over the columnar
        rule store (:func:`repro.analysis.metrics.summarize_rules`), so
        summarising even a million-rule basis never materialises a rule
        object.
        """
        from ..analysis.metrics import summarize_rules

        rows: list[dict[str, object]] = []
        for name, built in self.bases.items():
            row: dict[str, object] = {
                "dataset": self.database_name,
                "minsup": self.minsup,
                "minconf": self.minconf,
                "basis": name,
                "kind": built.kind,
            }
            row.update(summarize_rules(built.rules))
            rows.append(row)
        return rows

    def __getitem__(self, name: str) -> BuiltBasis:
        return self._get(name)

    def _get(self, name: str) -> BuiltBasis:
        try:
            return self.bases[name]
        except KeyError:
            raise InvalidParameterError(
                f"basis {name!r} was not built; selected bases: "
                f"{', '.join(self.bases) or '(none)'}"
            ) from None

    # ------------------------------------------------------------------
    # Classic accessors (the pre-registry harness surface)
    # ------------------------------------------------------------------
    @property
    def all_rules(self) -> RuleSet:
        """Every valid rule above minconf (the naive baseline)."""
        return self._get("all").rules

    @cached_property
    def all_exact(self) -> RuleSet:
        """The exact subset of :attr:`all_rules`."""
        return self.all_rules.exact_rules()

    @cached_property
    def all_approximate(self) -> RuleSet:
        """The approximate subset of :attr:`all_rules`."""
        return self.all_rules.approximate_rules()

    @property
    def dg_basis(self) -> DuquenneGuiguesBasis:
        """The Duquenne-Guigues basis construction."""
        return self._get("dg").source  # type: ignore[return-value]

    @property
    def luxenburger_full(self) -> LuxenburgerBasis:
        """The full (non-reduced) Luxenburger basis construction."""
        return self._get("luxenburger").source  # type: ignore[return-value]

    @property
    def luxenburger_reduced(self) -> LuxenburgerBasis:
        """The transitively reduced Luxenburger basis construction."""
        return self._get("luxenburger-reduced").source  # type: ignore[return-value]

    @property
    def report(self) -> ReductionReport:
        """Size-comparison report (one row of the reduction tables).

        Needs the four classic bases (``all``, ``dg``, ``luxenburger``,
        ``luxenburger-reduced``) in the selection; the exact/approximate
        splits reuse the cached :attr:`all_exact` / :attr:`all_approximate`
        views rather than re-filtering the full rule set per access.
        """
        return ReductionReport(
            dataset=self.database_name,
            minsup=self.minsup,
            minconf=self.minconf,
            all_exact_rules=len(self.all_exact),
            dg_basis_size=len(self._get("dg").rules),
            all_approximate_rules=len(self.all_approximate),
            luxenburger_full_size=len(self._get("luxenburger").rules),
            luxenburger_reduced_size=len(self._get("luxenburger-reduced").rules),
        )


def mine_itemsets(
    database: TransactionDatabase,
    minsup: float,
    apriori_max_size: int | None = None,
) -> ItemsetMiningResult:
    """Mine all frequent itemsets (Apriori) and the closed ones (Close).

    ``apriori_max_size`` optionally caps the itemset length explored by
    Apriori; the rule experiments never set it (the full frequent family is
    needed), but the runtime figures may when a dense dataset at a very low
    threshold would otherwise dominate the whole benchmark session.
    """
    apriori_run = Apriori(minsup, max_size=apriori_max_size).run(database)
    close = Close(minsup)
    close_run = close.run(database)
    return ItemsetMiningResult(
        database=database,
        minsup=minsup,
        apriori_run=apriori_run,
        close_run=close_run,
        generators_by_closure=close.generators_by_closure,
    )


def build_rule_artifacts(
    mining: ItemsetMiningResult,
    minconf: float,
    bases: str | tuple[str, ...] | list[str] | None = None,
    block_rows: int | None = None,
    workers: int | None = None,
) -> RuleArtifacts:
    """Build a selection of rule bases for one (dataset, minsup, minconf) cell.

    ``bases`` names the registered bases to build (a comma-separated
    string or a sequence; ``None`` selects the paper's four classic
    artefacts).  All selected bases share one :class:`BasisContext`, and
    therefore one vectorised iceberg-lattice construction.
    ``block_rows`` forces the row-block size of the streamed rule
    expansion (``None`` = auto-sized blocks; purely a peak-memory knob,
    the built rules are byte-identical either way).  ``workers`` shards
    the lattice construction and the streamed rule emitters across
    threads; the built bases are byte-identical for any worker count.
    """
    context = mining.basis_context(minconf, block_rows=block_rows, workers=workers)
    return RuleArtifacts(
        database_name=mining.database.name,
        minsup=mining.minsup,
        minconf=minconf,
        bases=build_bases(context, bases),
        context=context,
    )


def save_artifacts(
    path,
    mining: ItemsetMiningResult | None,
    artifacts: RuleArtifacts | None = None,
    include_context: bool = True,
):
    """Persist one harness run into a :mod:`repro.store` container.

    Saves whatever the run produced: the transaction context (unless
    ``include_context=False``), the frequent and closed families, the
    minimal generators, the shared iceberg-lattice order core of
    *artifacts* (built lazily if no selected basis needed one yet) and
    every built basis — as row pairs into those families when it has
    them, else as rule columns.  Returns the written path.
    """
    from .. import store

    database = mining.database if mining is not None else None
    # Saved even when empty: the generic and informative bases' row
    # pairs index it whatever the run mined.
    generators = mining.generator_family if mining is not None else None
    lattice = None
    rule_arrays = {}
    row_pairs = {}
    basis_kinds = {}
    basis_metadata = {}
    if artifacts is not None:
        if artifacts.context is not None:
            lattice = artifacts.context.lattice
        rule_arrays = {
            name: built.rule_arrays for name, built in artifacts.bases.items()
        }
        row_pairs = {
            name: built.row_pairs
            for name, built in artifacts.bases.items()
            if built.row_pairs is not None
        }
        basis_kinds = {name: built.kind for name, built in artifacts.bases.items()}
        basis_metadata = {
            name: built.metadata for name, built in artifacts.bases.items()
        }
    return store.save_run(
        path,
        database=database if include_context else None,
        frequent=mining.frequent if mining is not None else None,
        closed=mining.closed if mining is not None else None,
        generators=generators,
        lattice=lattice,
        rule_arrays=rule_arrays,
        row_pairs=row_pairs,
        basis_kinds=basis_kinds,
        basis_metadata=basis_metadata,
        name=database.name if database is not None else None,
        minsup=mining.minsup if mining is not None else None,
        minconf=artifacts.minconf if artifacts is not None else None,
    )


def build_rule_artifacts_from_store(
    stored,
    minconf: float | None = None,
    bases: str | tuple[str, ...] | list[str] | None = None,
    block_rows: int | None = None,
    workers: int | None = None,
) -> RuleArtifacts:
    """Warm-start the basis construction from a loaded artifact store.

    The stored closed/frequent/generator families and — crucially — the
    stored lattice order core replace the mining and lattice-construction
    steps entirely; only the (cheap, array-native) per-basis assembly
    runs.  Built output is byte-identical to a cold run of
    :func:`build_rule_artifacts` on the same dataset and thresholds.
    ``minconf=None`` reuses the threshold recorded at save time.
    """
    closed = stored.require("closed")
    if minconf is None:
        minconf = stored.minconf
    if minconf is None:
        raise InvalidParameterError(
            "the store records no minconf; pass minconf= explicitly"
        )
    context = BasisContext(
        closed=closed,
        minconf=minconf,
        frequent=stored.frequent,
        generators=stored.generators,
        block_rows=block_rows,
        workers=workers,
        _lattice=stored.lattice,
    )
    minsup = stored.minsup
    if minsup is None:
        minsup = closed.minsup
    return RuleArtifacts(
        database_name=stored.name,
        minsup=minsup,
        minconf=minconf,
        bases=build_bases(context, bases),
        context=context,
    )


def default_algorithms(minsup: float) -> list[MiningAlgorithm]:
    """The algorithm line-up of the execution-time figures."""
    return [Apriori(minsup), Close(minsup), AClose(minsup), Charm(minsup)]


def time_algorithms(
    database: TransactionDatabase,
    minsups: tuple[float, ...] | list[float],
    algorithm_factories: list[type[MiningAlgorithm]] | None = None,
) -> list[dict[str, object]]:
    """Run each algorithm over a support sweep and collect timing rows.

    Returns one row per ``(algorithm, minsup)`` pair with the wall-clock
    time, the number of itemsets found and the candidate / database-pass
    counters — the quantities plotted by the original execution-time
    figures.
    """
    factories = algorithm_factories or [Apriori, Close, AClose, Charm]
    rows: list[dict[str, object]] = []
    for minsup in minsups:
        for factory in factories:
            run = factory(minsup).run(database)
            rows.append(
                {
                    "dataset": database.name,
                    "algorithm": run.algorithm,
                    "minsup": minsup,
                    "itemsets": len(run.family),
                    "seconds": round(run.statistics.wall_clock_seconds, 4),
                    "db_passes": run.statistics.database_passes,
                    "candidates": run.statistics.candidates_generated,
                }
            )
    return rows
