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
were contained in a changed row then ``X ⊆ h(X)`` would be too.  The
repair therefore only re-evaluates the damaged part of each artifact:

* **supports** — for every old frequent member, the appended/removed
  covers are counted with one packed-word containment pass per changed
  row (vectorised over members), giving ``support' = support + add −
  del`` without touching the engine;
* **new frequent itemsets** — any itemset newly reaching the threshold
  must occur in an appended row (its support could not have risen
  otherwise), so candidate discovery runs level-wise from the appended
  rows only, seeded by the add-damaged survivors;
* **closed itemsets** — undamaged closed members survive verbatim;
  the closures of the damaged frequent itemsets are recomputed in one
  batch on the extended context's (warm-started) engine — exactly the
  closed sets whose extents intersect the appended objects;
* **generators** — Close's recorded generators are exactly the frequent
  singletons (full-support ones recorded as ``∅``) plus the larger
  itemsets whose immediate subsets all have strictly larger support, a
  predicate the repaired support table answers by pure dict arithmetic;
* **lattice** — see :mod:`repro.incremental.lattice`.

When the update is not a pure gain (the context shrank, the absolute
threshold dropped) or the damage ratio exceeds the configurable
threshold, the repair falls back to a full re-mine — correct by
construction, just slower.  ``verify="oracle"`` additionally asserts
every repaired artifact equal to a from-scratch mine of the extended
context (the oracle pattern used throughout this repository), and an
always-on internal check compares the delta-counted supports of the
damaged itemsets with the engine's counts.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..algorithms.apriori import apriori_candidates
from ..algorithms.base import MiningRun, MiningStatistics
from ..core.families import ClosedItemsetFamily, ItemsetFamily
from ..core.itemset import Item, Itemset
from ..core.lattice import IcebergLattice
from ..core.rulearrays import pack_itemset_words, pack_itemsets_into, sorted_universe
from ..data.context import TransactionDatabase
from ..errors import InvalidParameterError, OracleMismatchError
from ..experiments.harness import ItemsetMiningResult, mine_itemsets
from .lattice import repair_lattice

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
        return {
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "n_appended": self.n_appended,
            "n_removed": self.n_removed,
            "old_closed": self.old_closed,
            "damaged_closed": self.damaged_closed,
            "damage_ratio": self.damage_ratio,
            "reclosed": self.reclosed,
            "new_frequent": self.new_frequent,
            "dropped_frequent": self.dropped_frequent,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


@dataclass
class IncrementalUpdateResult:
    """An updated mining result plus the bookkeeping of how it was made."""

    #: The mining result of the extended context (same shape as
    #: :func:`repro.experiments.harness.mine_itemsets` returns, so every
    #: downstream consumer — bases, store, serve — works unchanged).
    mining: ItemsetMiningResult
    statistics: UpdateStatistics
    #: The repaired iceberg lattice, when the caller passed the old one
    #: and the incremental path ran; ``None`` otherwise (consumers then
    #: rebuild it lazily through :class:`repro.bases.BasisContext`).
    lattice: IcebergLattice | None = None


def _fresh_statistics(
    stats: "UpdateStatistics", started: float
) -> UpdateStatistics:
    return UpdateStatistics(
        mode=stats.mode,
        fallback_reason=stats.fallback_reason,
        n_appended=stats.n_appended,
        n_removed=stats.n_removed,
        old_closed=stats.old_closed,
        damaged_closed=stats.damaged_closed,
        damage_ratio=stats.damage_ratio,
        reclosed=stats.reclosed,
        new_frequent=stats.new_frequent,
        dropped_frequent=stats.dropped_frequent,
        wall_clock_seconds=time.perf_counter() - started,
    )


def update_mining(
    mining: ItemsetMiningResult,
    batch: Iterable[Iterable[Item]],
    *,
    removed_count: int = 0,
    damage_threshold: float = 0.5,
    verify: str = "off",
    lattice: IcebergLattice | None = None,
    workers: int | None = None,
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
        relation prefix and warm engine views.
    damage_threshold:
        Fall back to a full re-mine when more than this fraction of the
        old closed family is damaged (contained in a changed row); the
        repair would then redo most of the work anyway, with overhead.
    verify:
        ``"oracle"`` asserts every repaired artifact equal to a fresh
        mine of the extended context; ``"off"`` (default) trusts the
        maintenance algebra (an internal support consistency check stays
        on either way).
    lattice:
        The old iceberg lattice; when given (and the incremental path
        runs) the repaired lattice is returned on the result.
    workers:
        Worker threads for the packed lattice kernels.

    Returns
    -------
    IncrementalUpdateResult
        The new mining result (over the extended database), the update
        statistics, and the repaired lattice when applicable.
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

    # Warm the old engine first so the extension inherits its packed
    # views, then build the extended context.
    old_engine = old_db.engine()
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

    added = [Itemset(row) for row in batch_rows]
    removed = list(old_db.transactions()[:removed_count])
    old_closed = mining.closed
    closed_members = old_closed.itemsets()

    def fallback(reason: str, damaged: int = 0, ratio: float = 0.0):
        fresh = mine_itemsets(new_db, minsup)
        stats = UpdateStatistics(
            mode="remine",
            fallback_reason=reason,
            n_appended=len(added),
            n_removed=len(removed),
            old_closed=len(closed_members),
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
    thresh_old = mining.frequent.minsup_count
    thresh_new = new_db.minsup_count(minsup)
    if thresh_new < thresh_old:
        return fallback("absolute support threshold dropped")

    old_supports = mining.frequent.to_dict()
    members = mining.frequent.itemsets()
    member_index = {member: i for i, member in enumerate(members)}
    if any(member not in member_index for member in closed_members):
        # A size-capped Apriori run: the repair needs the complete
        # frequent family as its survivor base.
        return fallback("old frequent family is incomplete")
    if closed_members and not mining.generators_by_closure:
        return fallback("old result carries no generator records")

    # ------------------------------------------------------------------
    # Delta counts of the old frequent members (one packed containment
    # pass per changed row, vectorised over members).
    # ------------------------------------------------------------------
    add_counts = np.zeros(len(members), dtype=np.int64)
    del_counts = np.zeros(len(members), dtype=np.int64)
    changed = added + removed
    if members and changed:
        universe = sorted_universe(
            item for group in (members, changed) for itemset in group
            for item in itemset
        )
        packed = pack_itemsets_into(members, universe)
        words = packed.words
        position = {item: i for i, item in enumerate(universe)}
        for counts, rows in ((add_counts, added), (del_counts, removed)):
            for row in rows:
                row_words = pack_itemset_words(row, position, packed.n_words)
                counts += ~np.any(words & ~row_words, axis=1)
    damaged_flags = (add_counts > 0) | (del_counts > 0)

    damaged_closed = sum(
        1 for member in closed_members if damaged_flags[member_index[member]]
    )
    damage_ratio = damaged_closed / len(closed_members) if closed_members else 0.0
    if damage_ratio > damage_threshold:
        return fallback(
            f"damage ratio {damage_ratio:.3f} exceeds threshold "
            f"{damage_threshold}",
            damaged=damaged_closed,
            ratio=damage_ratio,
        )

    # ------------------------------------------------------------------
    # Frequent family: survivors by delta arithmetic, newcomers by a
    # level-wise scan seeded from the appended rows.
    # ------------------------------------------------------------------
    new_supports: dict[Itemset, int] = {}
    dropped_frequent = 0
    for i, member in enumerate(members):
        support = old_supports[member] + int(add_counts[i]) - int(del_counts[i])
        if support >= thresh_new:
            new_supports[member] = support
        else:
            dropped_frequent += 1

    old_item_set = set(old_db.items)

    def admit(candidates: list[Itemset]) -> list[Itemset]:
        """Keep the candidates that are frequent in the extended context.

        A newcomer's support is its (old-engine-counted) base support
        plus the appended-cover count minus the removed-cover count; a
        candidate absent from every appended row cannot have gained
        support and is pruned outright.
        """
        in_old = [
            c for c in candidates if all(item in old_item_set for item in c)
        ]
        base = dict(zip(in_old, old_engine.supports(in_old))) if in_old else {}
        kept: list[Itemset] = []
        for candidate in candidates:
            adds = sum(1 for row in added if candidate.issubset(row))
            if adds == 0:
                continue
            dels = sum(1 for row in removed if candidate.issubset(row))
            support = base.get(candidate, 0) + adds - dels
            if support >= thresh_new:
                new_supports[candidate] = support
                kept.append(candidate)
        return kept

    old_add_damaged_by_size: dict[int, list[Itemset]] = {}
    for i, member in enumerate(members):
        if add_counts[i] > 0 and member in new_supports:
            old_add_damaged_by_size.setdefault(len(member), []).append(member)

    batch_items: set = set()
    for row in added:
        batch_items.update(row)
    level_candidates = sorted(
        singleton
        for singleton in (Itemset([item]) for item in batch_items)
        if singleton not in old_supports
    )
    new_by_size: dict[int, list[Itemset]] = {1: admit(level_candidates)}
    candidates_evaluated = len(level_candidates)
    size = 2
    while True:
        join_base = old_add_damaged_by_size.get(size - 1, []) + new_by_size.get(
            size - 1, []
        )
        if not join_base:
            break
        fresh_candidates = [
            candidate
            for candidate in apriori_candidates(join_base)
            if candidate not in old_supports and candidate not in new_supports
        ]
        candidates_evaluated += len(fresh_candidates)
        new_by_size[size] = admit(fresh_candidates)
        size += 1
    new_members = [m for level in new_by_size.values() for m in level]
    frequent_new = ItemsetFamily(
        new_supports, new_db.n_objects, minsup_count=thresh_new
    )

    # ------------------------------------------------------------------
    # Closed family: undamaged members survive verbatim; the damaged
    # frequent itemsets are re-closed in one batch on the new engine.
    # ------------------------------------------------------------------
    damaged_frequent = sorted(
        [
            member
            for i, member in enumerate(members)
            if damaged_flags[i] and member in new_supports
        ]
        + new_members
    )
    new_engine = new_db.engine()
    closure_pairs = new_engine.closures_and_supports(damaged_frequent)
    closure_map: dict[Itemset, Itemset] = {}
    closed_supports: dict[Itemset, int] = {}
    for member in closed_members:
        if not damaged_flags[member_index[member]] and member in new_supports:
            closed_supports[member] = new_supports[member]
    for itemset, (closure, count) in zip(damaged_frequent, closure_pairs):
        if count != new_supports[itemset]:
            raise OracleMismatchError(
                f"delta-counted support {new_supports[itemset]} of {itemset} "
                f"disagrees with the engine count {count}"
            )
        closure_map[itemset] = closure
        closed_supports[closure] = count
    closed_new = ClosedItemsetFamily(
        closed_supports, new_db.n_objects, minsup_count=thresh_new
    )

    # ------------------------------------------------------------------
    # Generators: re-derive Close's recorded entries from the repaired
    # support table; closures come from the batch above (damaged) or the
    # old records (undamaged — their closure is unchanged).
    # ------------------------------------------------------------------
    old_generator_closure: dict[Itemset, Itemset] = {}
    for closure, generators in mining.generators_by_closure.items():
        for generator in generators:
            if len(generator):
                old_generator_closure[generator] = closure
    n_new = new_db.n_objects
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
            candidates_generated=candidates_evaluated,
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
            candidates_generated=len(damaged_frequent),
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

    repaired_lattice = None
    if lattice is not None:
        repaired_lattice = repair_lattice(lattice, closed_new, workers=workers)

    if verify == "oracle":
        _verify_against_oracle(mining_new, repaired_lattice, workers=workers)

    stats = UpdateStatistics(
        mode="incremental",
        fallback_reason=None,
        n_appended=len(added),
        n_removed=len(removed),
        old_closed=len(closed_members),
        damaged_closed=damaged_closed,
        damage_ratio=damage_ratio,
        reclosed=len(damaged_frequent),
        new_frequent=len(new_members),
        dropped_frequent=dropped_frequent,
    )
    return IncrementalUpdateResult(
        mining=mining_new,
        statistics=_fresh_statistics(stats, started),
        lattice=repaired_lattice,
    )


def _verify_against_oracle(
    mining: ItemsetMiningResult,
    lattice: IcebergLattice | None,
    workers: int | None,
) -> None:
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
    if lattice is not None:
        oracle = IcebergLattice(fresh.closed, workers=workers)
        ours_rows, ours_cols = lattice.hasse_edge_indices()
        oracle_rows, oracle_cols = oracle.hasse_edge_indices()
        if not (
            np.array_equal(ours_rows, oracle_rows)
            and np.array_equal(ours_cols, oracle_cols)
        ):
            raise OracleMismatchError(
                "repaired lattice edges differ from the fresh-mine oracle"
            )
        if not lattice.order_core.packed_containment_matrix().equals(
            oracle.order_core.packed_containment_matrix()
        ):
            raise OracleMismatchError(
                "repaired containment relation differs from the oracle"
            )
