"""Delta maintenance of mined artifacts when the context changes.

The paper's pipeline is mine-once/serve-compact, but a live context is
not frozen: transactions arrive (and, in a sliding window, expire).  A
full re-mine on every batch throws away almost everything the previous
run established, because a small batch can only perturb a small part of
the concept lattice.  This module repairs the mined artifacts instead.

The maintenance algebra
-----------------------
Call an itemset ``X`` **damaged** when it is contained in some *changed*
row (appended or removed).  Damage is downward closed, and an undamaged
``X`` keeps both its support and its closure: no changed row contains
``X``, so its cover gains/loses nothing, and if the old closure ``h(X)``
were contained in a changed row then ``X ⊆ h(X)`` would be too.  This is
FUP's premise (Cheung, Han, Ng, Wong, ICDE 1996); the repair therefore
only re-evaluates the damaged part of each artifact:

* **damage and delta counts** — the appended and removed covers of every
  old frequent member are counted on the family's cached
  :meth:`~repro.core.families.ItemsetFamily.packed` rows, one packed-word
  containment pass per changed row (vectorised over members), giving the
  damaged members and ``support' = support + add − del`` without touching
  the engine;
* **the damaged region** — the frequent itemsets of the extended context
  that lie inside a changed row are mined with the miners' level-wise
  kernel (:mod:`repro.algorithms.levelwise`) on the extended context's
  engine.  Level 1 is the changed rows' items; each level is one
  ``evaluate_level(..., close_at=threshold)`` batch, which gives the
  supports and the closures together; the next level is the
  ``join_level`` of the rows that stayed frequent, kept where a changed
  row contains them.  The region is the damaged members that stay
  frequent plus every newcomer: an itemset newly reaching the threshold
  occurs in an appended row (its support could not have risen
  otherwise);
* **closed itemsets** — undamaged closed members survive verbatim; the
  closures of the damaged region are exactly the closed sets whose
  extents meet a changed object;
* **generators** — Close's recorded generators are exactly the frequent
  singletons (full-support ones recorded as ``∅``) plus the larger
  itemsets whose immediate subsets all have strictly larger support, a
  predicate the repaired support table answers by pure dict arithmetic.

The iceberg lattice and the rule bases are not repaired: consumers
build them from the repaired closed family, as after a fresh mine (the
order core builds from the packed rows in milliseconds), so every
lattice comes from one construction.

When the update is not a pure gain (the context shrank, the absolute
threshold dropped) or the damage ratio exceeds the configurable
threshold, the repair falls back to a full re-mine — correct by
construction, just slower.  ``verify="oracle"`` additionally asserts
every repaired artifact equal to a from-scratch mine of the extended
context (the oracle pattern used throughout this repository), and an
always-on internal check compares the delta-counted supports of the
damaged members with the kernel's counts.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace
from itertools import compress

import numpy as np

from ..algorithms.base import MiningRun, MiningStatistics
from ..algorithms.levelwise import ItemOrder, decode_packed, join_level
from ..core.bitmatrix import BitMatrix
from ..core.families import ClosedItemsetFamily, ItemsetFamily, PackedFamily
from ..core.itemset import Item, Itemset
from ..data.context import TransactionDatabase
from ..errors import InvalidParameterError, OracleMismatchError
from ..experiments.harness import ItemsetMiningResult, mine_itemsets

__all__ = ["IncrementalUpdateResult", "UpdateStatistics", "update_mining"]

#: Accepted values of the ``verify`` option.
VERIFY_MODES = ("off", "oracle")


@dataclass(frozen=True)
class UpdateStatistics:
    """What one incremental update did (and why, when it fell back)."""

    #: ``"incremental"`` (artifacts repaired in place) or ``"remine"``
    #: (full fresh mine of the extended context).
    mode: str
    #: Human-readable reason of a fallback, ``None`` on the fast path.
    fallback_reason: str | None
    #: Appended / removed object counts of this update.
    n_appended: int
    n_removed: int
    #: Old closed family size and how much of it was damaged.
    old_closed: int
    damaged_closed: int
    damage_ratio: float
    #: Damaged frequent itemsets whose closures were recomputed.
    reclosed: int
    #: Frequent itemsets that entered / left the family.
    new_frequent: int
    dropped_frequent: int
    wall_clock_seconds: float = 0.0

    def as_dict(self) -> dict:
        """The statistics as a JSON-ready mapping."""
        return asdict(self)


@dataclass
class IncrementalUpdateResult:
    """An updated mining result plus the bookkeeping of how it was made."""

    #: The mining result of the extended context (same shape as
    #: :func:`repro.experiments.harness.mine_itemsets` returns, so every
    #: downstream consumer — lattice, bases, store, serve — works
    #: unchanged).
    mining: ItemsetMiningResult
    statistics: UpdateStatistics


def _fresh_statistics(
    stats: "UpdateStatistics", started: float
) -> UpdateStatistics:
    return replace(stats, wall_clock_seconds=time.perf_counter() - started)


def _containing_rows(packed: PackedFamily, rows: np.ndarray, column: dict) -> np.ndarray:
    """How many of *rows* contain each member of *packed*.

    *rows* is a bool matrix over the extended context's columns and
    *column* maps an item to its column.  One packed-word containment
    pass per row, vectorised over the members.
    """
    words = packed.matrix.words
    counts = np.zeros(len(words), dtype=np.int64)
    if len(rows) and len(words):
        masks = BitMatrix.from_dense(rows[:, [column[item] for item in packed.universe]])
        for mask in masks.words:
            counts += ~np.any(words & ~mask, axis=1)
    return counts


def _damaged_region(
    database: TransactionDatabase, changed: np.ndarray, threshold: int
) -> tuple[list[Itemset], np.ndarray, list[Itemset], int]:
    """The itemsets of *database* reaching *threshold* inside a *changed* row.

    Returns ``(itemsets, supports, closures, candidates)``: the itemsets
    in canonical order, their supports and closures, and how many
    candidates the kernel evaluated.  *changed* is a bool matrix over
    the database's columns.
    """
    engine = database.engine()
    order = ItemOrder(database)
    level = np.sort(order.ranks[np.flatnonzero(changed.any(axis=0))])[:, None]
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    evaluated = 0
    while len(level):
        evaluated += len(level)
        counts, closures = engine.evaluate_level(order.columns[level], close_at=threshold)
        frequent = counts >= threshold
        level = level[frequent]
        found.append((level, counts[frequent], closures))
        # Damage is downward closed: a candidate outside every changed
        # row is not in the region, whatever its support.
        candidates, _ = join_level(level)
        columns = order.columns[candidates]
        inside = np.zeros(len(candidates), dtype=bool)
        for row in changed:
            inside |= row[columns].all(axis=1)
        level = candidates[inside]
    if not found:
        return [], np.zeros(0, dtype=np.int64), [], 0
    itemsets = [itemset for level, _, _ in found for itemset in order.itemsets(level)]
    supports = np.concatenate([counts for _, counts, _ in found])
    closures = decode_packed(
        np.concatenate([closures for _, _, closures in found]), order.items
    )
    return itemsets, supports, closures, evaluated


def update_mining(
    mining: ItemsetMiningResult,
    batch: Iterable[Iterable[Item]],
    *,
    removed_count: int = 0,
    damage_threshold: float = 0.5,
    verify: str = "off",
) -> IncrementalUpdateResult:
    """Update *mining* for a context extended by *batch* transactions.

    Parameters
    ----------
    mining:
        The previous mining result; its database is the base context.
        Never mutated.
    batch:
        Transactions to append (each an iterable of items; may introduce
        items new to the universe).
    removed_count:
        Number of *oldest* objects evicted before appending (the sliding
        window's eviction pattern).  ``0`` means pure append, in which
        case the extended context shares the base context's packed
        relation prefix, and its engine's packed views when it has one.
    damage_threshold:
        Fall back to a full re-mine when more than this fraction of the
        old closed family is damaged (contained in a changed row); the
        repair would then redo most of the work anyway, with overhead.
    verify:
        ``"oracle"`` asserts every repaired artifact equal to a fresh
        mine of the extended context; ``"off"`` (default) trusts the
        maintenance algebra (an internal support consistency check stays
        on either way).

    Returns
    -------
    IncrementalUpdateResult
        The new mining result (over the extended database) and the
        update statistics.  Its lattice and bases are built from the
        repaired closed family, e.g. through
        :meth:`~repro.experiments.harness.ItemsetMiningResult.basis_context`.
    """
    if not 0.0 <= damage_threshold <= 1.0:
        raise InvalidParameterError(
            f"damage_threshold must lie in [0, 1], got {damage_threshold}"
        )
    if verify not in VERIFY_MODES:
        raise InvalidParameterError(
            f"verify must be one of {VERIFY_MODES}, got {verify!r}"
        )
    old_db = mining.database
    if not 0 <= removed_count <= old_db.n_objects:
        raise InvalidParameterError(
            f"removed_count must lie in [0, {old_db.n_objects}], "
            f"got {removed_count}"
        )
    started = time.perf_counter()
    batch_rows = [frozenset(t) for t in batch]
    minsup = mining.minsup

    if removed_count == 0:
        new_db = old_db.extended(batch_rows)
    else:
        survivors = old_db.transactions()[removed_count:]
        next_id = old_db.n_objects
        new_db = TransactionDatabase(
            [row.as_frozenset() for row in survivors] + batch_rows,
            item_order=old_db.items,
            object_ids=list(old_db.object_ids[removed_count:])
            + list(range(next_id, next_id + len(batch_rows))),
            name=old_db.name,
        )

    frequent = mining.frequent
    old_closed = mining.closed

    def fallback(reason: str, damaged: int = 0, ratio: float = 0.0):
        fresh = mine_itemsets(new_db, minsup)
        stats = UpdateStatistics(
            mode="remine",
            fallback_reason=reason,
            n_appended=len(batch_rows),
            n_removed=removed_count,
            old_closed=len(old_closed),
            damaged_closed=damaged,
            damage_ratio=ratio,
            reclosed=0,
            new_frequent=0,
            dropped_frequent=0,
        )
        return IncrementalUpdateResult(
            mining=fresh, statistics=_fresh_statistics(stats, started)
        )

    if new_db.n_objects < old_db.n_objects:
        return fallback("context shrank (more objects removed than appended)")
    thresh_new = new_db.minsup_count(minsup)
    if thresh_new < frequent.minsup_count:
        return fallback("absolute support threshold dropped")
    if not all(member in frequent for member in old_closed):
        # A size-capped Apriori run: the repair needs the complete
        # frequent family as its survivor base.
        return fallback("old frequent family is incomplete")
    if len(old_closed) and not mining.generators_by_closure:
        return fallback("old result carries no generator records")

    # ------------------------------------------------------------------
    # Damage and delta counts on the families' packed rows.  The changed
    # rows are over the extended context's columns, of which the old
    # context's are a prefix.
    # ------------------------------------------------------------------
    n_new = new_db.n_objects
    appended = new_db.matrix[n_new - len(batch_rows):]
    removed = np.zeros((removed_count, new_db.n_items), dtype=bool)
    removed[:, : old_db.n_items] = old_db.matrix[:removed_count]
    changed = np.concatenate([appended, removed])
    column = {item: c for c, item in enumerate(new_db.items)}

    closed_packed = old_closed.packed()
    closed_damaged = _containing_rows(closed_packed, changed, column) > 0
    damaged_closed = int(closed_damaged.sum())
    damage_ratio = damaged_closed / len(old_closed) if len(old_closed) else 0.0
    if damage_ratio > damage_threshold:
        return fallback(
            f"damage ratio {damage_ratio:.3f} exceeds threshold "
            f"{damage_threshold}",
            damaged=damaged_closed,
            ratio=damage_ratio,
        )

    packed = frequent.packed()
    add_counts = _containing_rows(packed, appended, column)
    del_counts = _containing_rows(packed, removed, column)
    delta_supports = packed.counts + add_counts - del_counts
    survives = delta_supports >= thresh_new
    damaged = (add_counts > 0) | (del_counts > 0)
    damaged_survivors = np.flatnonzero(damaged & survives)

    # ------------------------------------------------------------------
    # The damaged region, mined level-wise on the extended engine: its
    # old members must agree with their delta-counted supports, and the
    # rest are the newcomers.
    # ------------------------------------------------------------------
    region, region_supports, region_closures, evaluated = _damaged_region(
        new_db, changed, thresh_new
    )
    in_old = np.array([itemset in frequent for itemset in region], dtype=bool)
    expected = [packed.members[i] for i in damaged_survivors.tolist()]
    if list(compress(region, in_old)) != expected or not np.array_equal(
        region_supports[in_old], delta_supports[damaged_survivors]
    ):
        raise OracleMismatchError(
            "delta-counted supports of the damaged frequent itemsets disagree "
            "with the engine counts"
        )

    new_supports: dict[Itemset, int] = dict(
        zip(compress(packed.members, survives), delta_supports[survives].tolist())
    )
    newcomers = ~in_old
    new_supports.update(
        zip(compress(region, newcomers), region_supports[newcomers].tolist())
    )
    frequent_new = ItemsetFamily(
        new_supports, new_db.n_objects, minsup_count=thresh_new
    )

    # ------------------------------------------------------------------
    # Closed family: undamaged members survive verbatim; the closures of
    # the damaged region come with it.
    # ------------------------------------------------------------------
    kept = ~closed_damaged & (closed_packed.counts >= thresh_new)
    closed_supports: dict[Itemset, int] = dict(
        zip(compress(closed_packed.members, kept), closed_packed.counts[kept].tolist())
    )
    closure_map = dict(zip(region, region_closures))
    closed_supports.update(zip(region_closures, region_supports.tolist()))
    closed_new = ClosedItemsetFamily(
        closed_supports, new_db.n_objects, minsup_count=thresh_new
    )

    # ------------------------------------------------------------------
    # Generators: re-derive Close's recorded entries from the repaired
    # support table; closures come from the region (damaged) or the old
    # records (undamaged — their closure is unchanged).
    # ------------------------------------------------------------------
    old_generator_closure: dict[Itemset, Itemset] = {}
    for closure, generators in mining.generators_by_closure.items():
        for generator in generators:
            if len(generator):
                old_generator_closure[generator] = closure
    grouped: dict[Itemset, set[Itemset]] = {}
    for itemset, support in new_supports.items():
        if len(itemset) == 1:
            recorded = Itemset.empty() if support == n_new else itemset
        else:
            if any(
                new_supports[subset] == support
                for subset in itemset.immediate_subsets()
            ):
                continue
            recorded = itemset
        closure = closure_map.get(itemset)
        if closure is None:
            closure = old_generator_closure.get(itemset)
        if closure is None:
            closure = old_closed.closure_of(itemset)
        grouped.setdefault(closure, set()).add(recorded)
    generators_new = {
        closure: sorted(recorded) for closure, recorded in grouped.items()
    }

    # ------------------------------------------------------------------
    # Assemble a result interchangeable with a fresh mine's.
    # ------------------------------------------------------------------
    levels = max((len(m) for m in new_supports), default=0)
    apriori_run = MiningRun(
        algorithm="Apriori[delta]",
        database_name=new_db.name,
        minsup=minsup,
        family=frequent_new,
        statistics=MiningStatistics(
            database_passes=1,
            candidates_generated=evaluated,
            itemsets_found=len(frequent_new),
            levels=levels,
        ),
    )
    close_run = MiningRun(
        algorithm="Close[delta]",
        database_name=new_db.name,
        minsup=minsup,
        family=closed_new,
        statistics=MiningStatistics(
            database_passes=1,
            candidates_generated=len(region),
            itemsets_found=len(closed_new),
            levels=levels,
        ),
    )
    mining_new = ItemsetMiningResult(
        database=new_db,
        minsup=minsup,
        apriori_run=apriori_run,
        close_run=close_run,
        generators_by_closure=generators_new,
    )

    if verify == "oracle":
        _verify_against_oracle(mining_new)

    stats = UpdateStatistics(
        mode="incremental",
        fallback_reason=None,
        n_appended=len(batch_rows),
        n_removed=removed_count,
        old_closed=len(old_closed),
        damaged_closed=damaged_closed,
        damage_ratio=damage_ratio,
        reclosed=len(region),
        new_frequent=int(newcomers.sum()),
        dropped_frequent=len(packed.members) - int(survives.sum()),
    )
    return IncrementalUpdateResult(
        mining=mining_new, statistics=_fresh_statistics(stats, started)
    )


def _verify_against_oracle(mining: ItemsetMiningResult) -> None:
    """Assert the repaired artifacts equal a fresh mine of the context."""
    fresh = mine_itemsets(mining.database, mining.minsup)
    if not mining.frequent.same_contents(fresh.frequent):
        raise OracleMismatchError(
            "repaired frequent family differs from the fresh-mine oracle"
        )
    if not mining.closed.same_contents(fresh.closed):
        raise OracleMismatchError(
            "repaired closed family differs from the fresh-mine oracle"
        )
    if mining.generators_by_closure != fresh.generators_by_closure:
        raise OracleMismatchError(
            "repaired generators differ from the fresh-mine oracle"
        )
