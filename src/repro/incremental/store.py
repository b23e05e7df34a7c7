"""Incremental update of an on-disk artifact store.

The store-facing face of :mod:`repro.incremental`: load a ``repro
save`` container, extend its context with a transaction batch, repair
the mined sections through
:func:`~repro.incremental.update.update_mining`, rebuild the stored
rule bases on the repaired lattice, and rewrite the container.  The
rewrite goes through :func:`repro.store.save_run`, whose
:func:`repro.ioutils.atomic_write` temp-file/fsync/rename discipline
means a serving daemon watching the file either keeps the old
generation or hot-reloads the complete repaired one — never a torn
half-write.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from ..algorithms.base import MiningRun
from ..bases.base import BasisContext
from ..bases.registry import build_bases
from ..core.itemset import Item
from ..errors import InvalidParameterError
from ..experiments.harness import (
    ItemsetMiningResult,
    RuleArtifacts,
    save_artifacts,
)
from .update import IncrementalUpdateResult, update_mining

__all__ = ["update_store"]


def _mining_from_store(stored) -> ItemsetMiningResult:
    """Rehydrate a mining result from a loaded store's sections."""
    database = stored.require("context")
    frequent = stored.require("frequent")
    closed = stored.require("closed")
    generator_family = stored.require("generators")
    minsup = stored.minsup
    if minsup is None:
        raise InvalidParameterError(
            "the store records no minsup; it cannot be updated incrementally"
        )
    generators_by_closure = {
        closure: list(generator_family.generators_of(closure))
        for closure in generator_family.closed_itemsets()
    }
    return ItemsetMiningResult(
        database=database,
        minsup=minsup,
        apriori_run=MiningRun(
            algorithm="Apriori[store]",
            database_name=database.name,
            minsup=minsup,
            family=frequent,
        ),
        close_run=MiningRun(
            algorithm="Close[store]",
            database_name=database.name,
            minsup=minsup,
            family=closed,
        ),
        generators_by_closure=generators_by_closure,
    )


def update_store(
    path: str | Path,
    batch: Iterable[Iterable[Item]],
    *,
    window: int | None = None,
    damage_threshold: float = 0.5,
    verify: str = "off",
    workers: int | None = None,
) -> tuple[Path, IncrementalUpdateResult]:
    """Append *batch* to the store at *path* and rewrite it repaired.

    The store must carry the context, frequent, closed and generators
    sections (everything ``repro save`` writes by default; a
    ``--no-context`` store cannot be extended).  The stored lattice is
    repaired incrementally when present; the stored bases are rebuilt on
    the repaired artifacts at the stored ``minconf``.

    Parameters
    ----------
    path:
        A ``repro save`` container; rewritten in place (atomically).
    batch:
        Transactions to append.
    window:
        Optional sliding-window capacity: the oldest objects are evicted
        so that at most this many remain after the append.
    damage_threshold, verify, workers:
        Forwarded to :func:`~repro.incremental.update.update_mining`.

    Returns
    -------
    tuple[Path, IncrementalUpdateResult]
        The written path and the full update result.
    """
    from .. import store

    stored = store.load_run(path)
    mining = _mining_from_store(stored)
    batch_rows = [frozenset(t) for t in batch]
    removed_count = 0
    if window is not None:
        if window < 1:
            raise InvalidParameterError(
                f"window capacity must be positive, got {window}"
            )
        removed_count = max(
            0, mining.database.n_objects + len(batch_rows) - window
        )
        if removed_count > mining.database.n_objects:
            raise InvalidParameterError(
                f"batch of {len(batch_rows)} objects exceeds the window "
                f"capacity {window}"
            )
    result = update_mining(
        mining,
        batch_rows,
        removed_count=removed_count,
        damage_threshold=damage_threshold,
        verify=verify,
        lattice=stored.lattice,
        workers=workers,
    )
    artifacts = None
    basis_names = list(stored.basis_kinds) or None
    if stored.minconf is not None:
        context = BasisContext(
            closed=result.mining.closed,
            minconf=stored.minconf,
            frequent=result.mining.frequent,
            generators_factory=lambda: result.mining.generator_family,
            workers=workers,
            _lattice=result.lattice,
        )
        artifacts = RuleArtifacts(
            database_name=result.mining.database.name,
            minsup=result.mining.minsup,
            minconf=stored.minconf,
            bases=build_bases(context, basis_names),
            context=context,
        )
    written = save_artifacts(path, result.mining, artifacts, include_context=True)
    return written, result
