"""The rank-array level kernel against the Itemset loops it replaced.

Apriori, Close and A-Close run their level loops on sorted arrays of item
ranks (:mod:`repro.algorithms.levelwise`).  The references in
``oracles.py`` are the object loops the miners ran before: one
``Itemset`` join and prune per candidate, every Close candidate closed,
every support and closure computed on Python sets.  On every drawn
context the shipped miners must agree with them on everything they
expose: the families in iteration order, the generators and every
statistics counter the paper's figures plot, at one and at three kernel
workers.  CHARM, which searches the context's vertical tidsets, must
find Close's closed family, and those tidsets and the covers built from
them must equal the set-based reference.
"""

from __future__ import annotations

import os
import random
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AClose, Apriori, Charm, Close, TransactionDatabase
from repro.core.itemset import Itemset
from repro.core.parallel import WORKERS_ENV_VAR

from oracles import (
    GaloisReference,
    aclose_reference,
    apriori_reference,
    close_reference,
)

WORKER_COUNTS = ("1", "3")


def _ordered(family) -> list:
    """A family as its ``(items, support)`` pairs in iteration order."""
    return [(list(itemset), count) for itemset, count in family.to_dict().items()]


def _generators(mapping) -> list:
    return [
        (list(closure), [list(generator) for generator in generators])
        for closure, generators in mapping.items()
    ]


def _counters(statistics) -> dict:
    counters = statistics.as_dict()
    del counters["wall_clock_seconds"]
    return counters


def _random_rows(seed: int, items: list, n_objects: int, density: float) -> list:
    rng = random.Random(seed)
    return [[item for item in items if rng.random() < density] for _ in range(n_objects)]


@st.composite
def mining_inputs(draw) -> tuple[TransactionDatabase, float]:
    """A context and a threshold; every edge case of the level loop."""
    shape = draw(
        st.sampled_from(
            ["word-boundary", "small", "no-items", "empty-rows", "ubiquitous", "extended"]
        )
    )
    seed = draw(st.integers(0, 2**16))
    if shape == "word-boundary":
        # Integer items; 63/64/65 columns and objects straddle one packed word.
        n_items = draw(st.sampled_from([63, 64, 65]))
        n_objects = draw(st.sampled_from([63, 64, 65]))
        density = draw(st.sampled_from([0.03, 0.1, 0.2]))
        rows = _random_rows(seed, list(range(n_items)), n_objects, density)
        database = TransactionDatabase(rows, item_order=range(n_items))
        return database, draw(st.sampled_from([0.1, 0.2, 0.3]))
    minsup = draw(st.sampled_from([0.0, 0.2, 0.4, 0.6, 1.0]))
    n_objects = draw(st.integers(1, 12))
    if shape == "no-items":
        return TransactionDatabase([[]] * n_objects), minsup
    if shape == "empty-rows":
        return TransactionDatabase([[]] * n_objects, item_order=["a", "b"]), minsup
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    rows = _random_rows(seed, list("defgh"), n_objects, density)
    if shape == "small":
        return TransactionDatabase(rows), minsup
    if shape == "ubiquitous":
        # Items in every object: Close records the empty generator for them.
        everywhere = draw(st.sampled_from([["x"], ["c", "x"]]))
        return TransactionDatabase([row + everywhere for row in rows]), minsup
    # Appended items sort before the old ones, so the extended context's
    # column order is not the canonical item order.
    base = TransactionDatabase(rows)
    if draw(st.booleans()):
        base.engine()  # carried over warm
    batch = _random_rows(seed + 1, list("abcdefgh"), draw(st.integers(1, 6)), density)
    return base.extended(batch), minsup


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=mining_inputs(), max_size=st.sampled_from([None, 0, 1, 2, 3]))
def test_level_kernel_matches_itemset_loops(case, max_size):
    database, minsup = case
    apriori = apriori_reference(database, minsup, max_size)
    close = close_reference(database, minsup)
    aclose = aclose_reference(database, minsup)
    for workers in WORKER_COUNTS:
        context = f"workers={workers}"
        with mock.patch.dict(os.environ, {WORKERS_ENV_VAR: workers}):
            apriori_run = Apriori(minsup, max_size=max_size).run(database)
            close_miner = Close(minsup)
            close_run = close_miner.run(database)
            aclose_miner = AClose(minsup)
            aclose_run = aclose_miner.run(database)
        assert _ordered(apriori_run.family) == _ordered(apriori.family), context
        assert _counters(apriori_run.statistics) == _counters(apriori.statistics)

        assert _ordered(close_run.family) == _ordered(close.family), context
        assert _generators(close_miner.generators_by_closure) == _generators(
            close.generators_by_closure
        ), context
        assert _counters(close_run.statistics) == _counters(close.statistics)

        assert _ordered(aclose_run.family) == _ordered(aclose.family), context
        assert _generators(aclose_miner.generators_by_closure) == _generators(
            aclose.generators_by_closure
        ), context
        assert [list(g) for g in aclose_miner.generators] == [
            list(g) for g in aclose.generators
        ], context
        assert _counters(aclose_run.statistics) == _counters(aclose.statistics)

    charm = Charm(minsup).mine(database)
    assert list(charm.items_with_supports()) == list(close.family.items_with_supports())

    reference = GaloisReference(database)
    assert database.vertical_bits() == reference.vertical_bits()
    probes = [Itemset.empty(), Itemset(database.items), *apriori.family.itemsets()]
    assert [database.cover_bits(probe) for probe in probes] == [
        reference.cover_bits(probe) for probe in probes
    ]
