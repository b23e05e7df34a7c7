"""Hypothesis property: every basis survives a store round trip bit for bit.

A saved basis is two row arrays into the stored families, and the loader
re-assembles its columns.  On random contexts of 63, 64 and 65 items —
the widths that straddle the packed uint64 word boundary — with or
without items common to every object (``h(∅) ≠ ∅``, which puts the
``∅ → h(∅)`` rule, antecedent row ``-1``, into the Duquenne-Guigues
basis), every registered basis must load with the five columns and the
universe it was built with.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import store
from repro.bases import registered_names
from repro.data.context import TransactionDatabase
from repro.experiments.harness import build_rule_artifacts, mine_itemsets, save_artifacts


def random_context(n_items: int, n_common: int, n_objects: int, seed: int):
    """Each item in two random objects, the first *n_common* in every object."""
    rng = np.random.default_rng(seed)
    rows: list[set[str]] = [set() for _ in range(n_objects)]
    for item in range(n_items):
        label = f"i{item:02d}"
        holders = range(n_objects) if item < n_common else rng.choice(
            n_objects, size=2, replace=False
        )
        for row in holders:
            rows[int(row)].add(label)
    return TransactionDatabase([sorted(row) for row in rows], name="random")


@settings(max_examples=20, deadline=None)
@given(
    n_items=st.sampled_from((63, 64, 65)),
    n_common=st.integers(min_value=0, max_value=2),
    n_objects=st.integers(min_value=6, max_value=12),
    minconf=st.sampled_from((0.0, 0.4, 0.8)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_basis_round_trips_bit_identical(
    n_items, n_common, n_objects, minconf, seed
):
    database = random_context(n_items, n_common, n_objects, seed)
    mining = mine_itemsets(database, 2 / n_objects)
    artifacts = build_rule_artifacts(mining, minconf, bases=registered_names())
    if n_common:
        dg = artifacts["dg"]
        assert dg.row_pairs.antecedent_rows[0] == -1
    with tempfile.TemporaryDirectory() as directory:
        path = save_artifacts(Path(directory) / "run.npz", mining, artifacts)
        loaded = store.load_run(path, verify="full")
    for name in registered_names():
        built = artifacts[name].rule_arrays
        stored = loaded.rule_arrays[name]
        assert stored.universe == built.universe, name
        for left, right in (
            (stored.antecedents.words, built.antecedents.words),
            (stored.consequents.words, built.consequents.words),
            (stored.support, built.support),
            (stored.confidence, built.confidence),
            (stored.support_count, built.support_count),
        ):
            assert left.dtype == right.dtype and np.array_equal(left, right), name
