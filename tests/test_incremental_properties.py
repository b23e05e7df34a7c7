"""Property-based checks of the incremental maintenance path.

Hypothesis generates random base contexts and random batches (with and
without eviction, with and without items new to the universe); on every
one of them the repaired artifacts must be *exactly* the ones a fresh
full mine of the extended context produces.  The comparison itself is
``update_mining(..., verify="oracle")``, which raises
:class:`~repro.errors.OracleMismatchError` the moment any repaired
family or generator map disagrees with the oracle — so
every property here is "the update runs and nothing raises", plus a few
explicit cross-checks on the fly.

Two case families stress the kernel's item order: batch items that sort
before and between the base items (``extended()`` appends their columns
after the old ones, out of canonical order), and an item in every row
(``h(∅) ≠ ∅``, recorded by Close as the ``∅`` generator).  The dedicated
63/64/65-item cases pin the packed-word boundary: one uint64 word
exactly full, one item short and one item over.  The repair reads no
closure cache: both contexts' engines end it with no hit and no miss.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.itemset import Itemset
from repro.data.context import TransactionDatabase
from repro.experiments.harness import mine_itemsets
from repro.incremental import SlidingWindow, update_mining

BASE_POOL = ["a", "b", "c", "d", "e", "f"]
# batches may introduce items the base universe never saw
BATCH_POOL = BASE_POOL + ["g", "h"]


def rows_strategy(pool, min_rows, max_rows):
    return st.lists(
        st.sets(st.sampled_from(pool), min_size=0, max_size=len(pool)),
        min_size=min_rows,
        max_size=max_rows,
    )


# Batch items sorting before and between the base items.
INTERLEAVED_BASE = ["b", "d", "f", "h"]
INTERLEAVED_BATCH = INTERLEAVED_BASE + ["a", "c", "e", "g"]
# An item of every base and batch row.
EVERYWHERE = "z"


@st.composite
def update_cases(draw, base_pool=BASE_POOL, batch_pool=BATCH_POOL, everywhere=None):
    base = draw(rows_strategy(base_pool, 1, 8))
    batch = draw(rows_strategy(batch_pool, 0, 4))
    if everywhere is not None:
        base = [row | {everywhere} for row in base]
        batch = [row | {everywhere} for row in batch]
    minsup = draw(st.sampled_from([0.1, 0.25, 0.5]))
    # cap the eviction at the batch size so the context never shrinks
    # (a shrinking context is a documented fallback, tested separately)
    removed = draw(st.integers(0, min(len(base) - 1, len(batch))))
    return base, batch, minsup, removed, base_pool


def repair_against_oracle(case):
    """Run the repair on *case* with the oracle check on; return the result."""
    base, batch, minsup, removed, item_order = case
    db = TransactionDatabase(base, item_order=item_order)
    mining = mine_itemsets(db, minsup)
    result = update_mining(
        mining,
        batch,
        removed_count=removed,
        damage_threshold=1.0,
        verify="oracle",
    )
    assert result.statistics.mode == "incremental"
    assert result.mining.database.n_objects == len(base) + len(batch) - removed
    # the repaired closed family backs the generator family (the store's
    # identity requirement)
    assert result.mining.generator_family.closed_family is result.mining.closed
    return result


@settings(max_examples=60, deadline=None)
@given(update_cases())
def test_repaired_artifacts_equal_fresh_mine(case):
    repair_against_oracle(case)


@settings(max_examples=40, deadline=None)
@given(update_cases(INTERLEAVED_BASE, INTERLEAVED_BATCH))
def test_batch_items_out_of_canonical_column_order(case):
    result = repair_against_oracle(case)
    items = result.mining.database.items
    if len(items) > len(INTERLEAVED_BASE):
        assert list(items) != sorted(items)


@settings(max_examples=40, deadline=None)
@given(update_cases(everywhere=EVERYWHERE))
def test_item_in_every_row(case):
    result = repair_against_oracle(case)
    rows = result.mining.database.transactions()
    bottom = Itemset(frozenset.intersection(*(row.as_frozenset() for row in rows)))
    assert EVERYWHERE in bottom and bottom in result.mining.closed
    assert Itemset.empty() in result.mining.generators_by_closure[bottom]


@pytest.mark.parametrize("removed", [0, 2])
def test_update_leaves_closure_caches_untouched(toy_transactions, removed):
    db = TransactionDatabase(toy_transactions)
    mining = mine_itemsets(db, 0.4)
    result = update_mining(
        mining,
        [list("abce"), list("bcf")],
        removed_count=removed,
        damage_threshold=1.0,
        verify="oracle",
    )
    assert result.statistics.mode == "incremental"
    for database in (db, result.mining.database):
        info = database.engine().cache_info()
        assert (info.hits, info.misses) == (0, 0)


@settings(max_examples=25, deadline=None)
@given(update_cases())
def test_repaired_bases_equal_fresh_bases(case):
    base, batch, minsup, _, item_order = case
    db = TransactionDatabase(base, item_order=item_order)
    result = update_mining(
        mine_itemsets(db, minsup), batch, damage_threshold=1.0, verify="oracle"
    )
    from repro.bases.registry import build_bases
    fresh = mine_itemsets(result.mining.database, minsup)
    repaired_bases = build_bases(result.mining.basis_context(minconf=0.6), ["dg", "all"])
    fresh_bases = build_bases(fresh.basis_context(minconf=0.6), ["dg", "all"])
    for name in ("dg", "all"):
        assert (
            sorted(map(str, repaired_bases[name].rules))
            == sorted(map(str, fresh_bases[name].rules))
        )


@settings(max_examples=15, deadline=None)
@given(
    n_items=st.sampled_from([63, 64, 65]),
    data=st.data(),
)
def test_word_boundary_universes(n_items, data):
    pool = [f"i{j:02d}" for j in range(n_items)]
    wide_rows = st.lists(
        st.sets(st.sampled_from(pool), min_size=1, max_size=12),
        min_size=2,
        max_size=6,
    )
    base = data.draw(wide_rows)
    batch = data.draw(
        st.lists(st.sets(st.sampled_from(pool), min_size=1, max_size=12),
                 min_size=1, max_size=3)
    )
    db = TransactionDatabase(base, item_order=pool)
    mining = mine_itemsets(db, 0.2)
    result = update_mining(
        mining,
        batch,
        damage_threshold=1.0,
        verify="oracle",
    )
    assert result.statistics.mode == "incremental"
    assert result.mining.database.n_items == n_items


@settings(max_examples=20, deadline=None)
@given(
    base=rows_strategy(BASE_POOL, 2, 6),
    batches=st.lists(rows_strategy(BATCH_POOL, 1, 3), min_size=1, max_size=3),
)
def test_sliding_window_stays_exact_over_many_steps(base, batches):
    window = SlidingWindow(
        TransactionDatabase(base, item_order=BASE_POOL),
        0.25,
        capacity=len(base) + 3,
        damage_threshold=1.0,
        verify="oracle",
    )
    for batch in batches:
        window.append(batch)
        assert len(window) <= window.capacity
        assert window.lattice.closed_family is window.closed
