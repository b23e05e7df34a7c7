"""Incremental update of an on-disk artifact store.

The store-facing face of :mod:`repro.incremental`: load the sections of
a ``repro save`` container that the update rebuilds from (context,
frequent and closed families, generators), extend its context with a
transaction batch, repair the mined families through
:func:`~repro.incremental.update.update_mining`, build the lattice and
the stored rule bases from the repaired closed family as ``repro save``
does, and rewrite the container.  The rewrite goes through
:func:`repro.store.save_run`, whose :func:`repro.ioutils.atomic_write`
temp-file/fsync/rename discipline means a serving daemon watching the
file either keeps the old generation or hot-reloads the complete
repaired one — never a torn half-write.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from ..algorithms.base import MiningRun
from ..core.itemset import Item
from ..errors import InvalidParameterError
from ..experiments.harness import (
    ItemsetMiningResult,
    build_rule_artifacts,
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
    ``--no-context`` store cannot be extended); only those four are
    read.  The lattice and the stored bases are rebuilt from the
    repaired families at the stored ``minconf``, so the rewritten store
    is the one a fresh ``repro save`` of the extended context writes.

    Parameters
    ----------
    path:
        A ``repro save`` container; rewritten in place (atomically).
    batch:
        Transactions to append.
    window:
        Optional sliding-window capacity: the oldest objects are evicted
        so that at most this many remain after the append.
    damage_threshold, verify:
        Forwarded to :func:`~repro.incremental.update.update_mining`.
    workers:
        Worker threads for the lattice and rule-emission kernels of the
        rebuild; the written store is byte-identical for any count.

    Returns
    -------
    tuple[Path, IncrementalUpdateResult]
        The written path and the full update result.
    """
    from .. import store

    stored = store.load_run(
        path, sections=("context", "frequent", "closed", "generators")
    )
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
    )
    artifacts = None
    if stored.minconf is not None:
        basis_names = [
            entry["name"]
            for entry in stored.manifest.get("bases", [])
            if entry.get("kind")
        ]
        artifacts = build_rule_artifacts(
            result.mining, stored.minconf, basis_names or None, workers=workers
        )
    written = save_artifacts(path, result.mining, artifacts, include_context=True)
    return written, result
