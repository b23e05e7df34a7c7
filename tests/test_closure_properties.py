"""Property-based tests of the Galois connection and closure operator.

These tests verify, on randomly generated small contexts, the mathematical
properties Section 2 of the paper relies on:

* ``h`` is extensive, monotone and idempotent;
* ``support(X) == support(h(X))`` (the keystone of Definition 1);
* ``f`` and ``g`` are antitone and form a Galois connection;
* the closure computed through the database equals the closure computed by
  brute force (intersection of covering transactions);
* ``h(∅)`` read off a mined closed family (its member of full support)
  equals the per-item definition and the intersection of all objects.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import AClose, Charm, Close, TransactionDatabase
from repro.core.closure import GaloisConnection
from repro.core.itemset import Itemset
from repro.experiments.harness import mine_itemsets
from repro.incremental import update_mining
from repro.store import load_run, save_run

from oracles import bottom_closure_reference

ITEM_POOL = ["a", "b", "c", "d", "e", "f"]


@st.composite
def contexts(draw) -> TransactionDatabase:
    """Random small mining contexts (1–12 objects over 6 items)."""
    n_rows = draw(st.integers(min_value=1, max_value=12))
    rows = [
        draw(st.sets(st.sampled_from(ITEM_POOL), min_size=0, max_size=len(ITEM_POOL)))
        for _ in range(n_rows)
    ]
    return TransactionDatabase(rows, item_order=ITEM_POOL)


@st.composite
def context_and_itemset(draw):
    db = draw(contexts())
    itemset = Itemset(
        draw(st.sets(st.sampled_from(ITEM_POOL), min_size=0, max_size=4))
    )
    return db, itemset


@st.composite
def context_and_two_itemsets(draw):
    db = draw(contexts())
    first = draw(st.sets(st.sampled_from(ITEM_POOL), min_size=0, max_size=4))
    extra = draw(st.sets(st.sampled_from(ITEM_POOL), min_size=0, max_size=2))
    return db, Itemset(first), Itemset(set(first) | set(extra))


def brute_force_closure(db: TransactionDatabase, itemset: Itemset) -> Itemset:
    """Reference closure: intersect the transactions containing the itemset."""
    covering = [row for row in db if itemset.issubset(row)]
    if not covering:
        return db.item_universe
    result = covering[0]
    for row in covering[1:]:
        result = result.intersection(row)
    return result


@settings(max_examples=150, deadline=None)
@given(context_and_itemset())
def test_closure_is_extensive(payload):
    db, itemset = payload
    assert itemset.issubset(db.closure(itemset))


@settings(max_examples=150, deadline=None)
@given(context_and_two_itemsets())
def test_closure_is_monotone(payload):
    db, smaller, larger = payload
    assert db.closure(smaller).issubset(db.closure(larger))


@settings(max_examples=150, deadline=None)
@given(context_and_itemset())
def test_closure_is_idempotent(payload):
    db, itemset = payload
    once = db.closure(itemset)
    assert db.closure(once) == once


@settings(max_examples=150, deadline=None)
@given(context_and_itemset())
def test_closure_matches_brute_force(payload):
    db, itemset = payload
    assert db.closure(itemset) == brute_force_closure(db, itemset)


@settings(max_examples=150, deadline=None)
@given(context_and_itemset())
def test_support_of_closure_equals_support(payload):
    db, itemset = payload
    assert db.support_count(itemset) == db.support_count(db.closure(itemset))


@settings(max_examples=150, deadline=None)
@given(context_and_itemset())
def test_cover_of_closure_equals_cover(payload):
    db, itemset = payload
    assert db.cover(itemset) == db.cover(db.closure(itemset))


@settings(max_examples=100, deadline=None)
@given(context_and_two_itemsets())
def test_extent_is_antitone(payload):
    db, smaller, larger = payload
    connection = GaloisConnection(db)
    assert connection.g(larger) <= connection.g(smaller)


@settings(max_examples=100, deadline=None)
@given(context_and_itemset())
def test_galois_connection_property(payload):
    """``X ⊆ f(T)  iff  T ⊆ g(X)`` for the extent T = g(X)."""
    db, itemset = payload
    connection = GaloisConnection(db)
    extent = connection.g(itemset)
    assert itemset.issubset(connection.f(extent))
    assert connection.objectset_closure(extent) == extent


@settings(max_examples=100, deadline=None)
@given(contexts())
def test_closed_itemsets_are_exactly_fixed_points(db):
    """The exhaustive closed-itemset enumeration equals the fixed points of h."""
    connection = GaloisConnection(db)
    enumerated = set(connection.closed_itemsets())
    # Every enumerated itemset is a fixed point.
    for itemset in enumerated:
        assert db.closure(itemset) == itemset
    # Every fixed point over the (small) powerset is enumerated.
    universe = list(db.item_universe)
    from itertools import combinations

    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            candidate = Itemset(combo)
            if db.closure(candidate) == candidate:
                assert candidate in enumerated


@settings(max_examples=30, deadline=None)
@given(
    n_items=st.sampled_from([63, 64, 65]),
    universal=st.booleans(),
    minsup=st.sampled_from([0.25, 0.5]),
    data=st.data(),
)
def test_bottom_closure_is_the_member_of_full_support(n_items, universal, minsup, data):
    """Close, A-Close, CHARM, an update and a store round trip all agree."""
    pool = [f"i{j:02d}" for j in range(n_items)]
    rows_of = st.lists(
        st.sets(st.sampled_from(pool), min_size=1, max_size=8), min_size=2, max_size=6
    )
    base, batch = data.draw(rows_of), data.draw(rows_of)
    if universal:  # h(∅) ≠ ∅ whatever the draw
        base = [row | {pool[-1]} for row in base]
        batch = [row | {pool[-1]} for row in batch]
    db = TransactionDatabase(base, item_order=pool)
    updated = update_mining(mine_itemsets(db, minsup), batch, damage_threshold=1.0)
    closed = Close(minsup).mine(db)
    with tempfile.TemporaryDirectory() as scratch:
        stored = load_run(save_run(Path(scratch) / "run.npz", closed=closed)).closed
    families = [
        (db, closed),
        (db, AClose(minsup).mine(db)),
        (db, Charm(minsup).mine(db)),
        (db, stored),
        (updated.mining.database, updated.mining.closed),
    ]
    for context, family in families:
        bottom = Itemset(frozenset.intersection(*map(frozenset, context)))
        assert family.bottom_closure() == bottom_closure_reference(family) == bottom
        if universal:
            assert pool[-1] in bottom
