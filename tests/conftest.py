"""Shared fixtures for the test-suite.

The fixtures revolve around three kinds of data:

* the classic five-transaction context used in the Close / A-Close papers
  (``toy_db``) whose frequent and closed itemsets are known by hand;
* tiny edge-case contexts (an item present everywhere, identical rows,
  a single transaction);
* small seeded random and generated datasets for cross-checking the
  algorithms against brute-force oracles.

It also holds :func:`rule_arrays_cases`, the hypothesis strategy of
random rule collections shared by the snapshot-kernel properties.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import Apriori, Close, TransactionDatabase
from repro.core.bitmatrix import BitMatrix
from repro.core.rulearrays import RuleArrays

from oracles import canonical_order_reference
from repro.data.benchmarks_data import make_categorical_dataset
from repro.data.synthetic import make_quest_dataset


@pytest.fixture(scope="session")
def toy_transactions() -> list[list[str]]:
    """The five-transaction example context of the Close paper."""
    return [
        ["a", "c", "d"],
        ["b", "c", "e"],
        ["a", "b", "c", "e"],
        ["b", "e"],
        ["a", "b", "c", "e"],
    ]


@pytest.fixture(scope="session")
def toy_db(toy_transactions) -> TransactionDatabase:
    """The classic example database (5 objects, 5 items, item d infrequent)."""
    return TransactionDatabase(toy_transactions, name="toy")


@pytest.fixture(scope="session")
def toy_frequent(toy_db):
    """All frequent itemsets of the toy database at minsup 0.4 (15 itemsets)."""
    return Apriori(minsup=0.4).mine(toy_db)


@pytest.fixture(scope="session")
def toy_closed(toy_db):
    """The 5 frequent closed itemsets of the toy database at minsup 0.4."""
    return Close(minsup=0.4).mine(toy_db)


@pytest.fixture(scope="session")
def allx_db() -> TransactionDatabase:
    """A context where item ``x`` occurs in every object (h(∅) = {x})."""
    return TransactionDatabase(
        [["x", "a"], ["x", "b"], ["x", "a", "b"], ["x"]], name="allx"
    )


@pytest.fixture(scope="session")
def single_row_db() -> TransactionDatabase:
    """A context with a single transaction (everything is closed and exact)."""
    return TransactionDatabase([["a", "b", "c"]], name="single")


@pytest.fixture(scope="session")
def identical_rows_db() -> TransactionDatabase:
    """Four identical transactions: exactly one closed itemset at any threshold."""
    return TransactionDatabase([["a", "b", "c"]] * 4, name="identical")


def make_random_db(
    seed: int, n_objects: int = 40, n_items: int = 8, max_row: int = 6
) -> TransactionDatabase:
    """Small random database used by the cross-check tests (seeded)."""
    rng = random.Random(seed)
    transactions = []
    for _ in range(n_objects):
        size = rng.randint(1, max_row)
        transactions.append(
            sorted({f"i{rng.randrange(n_items)}" for _ in range(size)})
        )
    return TransactionDatabase(transactions, name=f"random{seed}")


@pytest.fixture(params=[0, 1, 2, 3, 4])
def random_db(request) -> TransactionDatabase:
    """Five different small random databases (parametrised fixture)."""
    return make_random_db(request.param)


@pytest.fixture(scope="session")
def dense_smoke_db() -> TransactionDatabase:
    """A small but genuinely correlated categorical dataset."""
    return make_categorical_dataset(
        n_objects=120,
        n_attributes=6,
        values_per_attribute=4,
        n_latent_classes=3,
        class_fidelity=0.85,
        n_deterministic_attributes=2,
        n_constant_attributes=1,
        seed=5,
        name="dense-smoke",
    )


@pytest.fixture(scope="session")
def sparse_smoke_db() -> TransactionDatabase:
    """A small Quest-style sparse dataset."""
    return make_quest_dataset(
        avg_transaction_size=6,
        avg_pattern_size=3,
        n_transactions=150,
        n_items=30,
        n_patterns=15,
        seed=3,
        name="sparse-smoke",
    )


@st.composite
def rule_arrays_cases(draw):
    """Random ``RuleArrays`` for the serve-snapshot kernel properties.

    Universes of 0, 1, 63, 64, 65 and 130 items (each word boundary);
    0, 1 or many rows; antecedents drawn with repeats from a pool that
    may hold the empty one, so sorted rows form runs of equal
    antecedents; few distinct supports and confidences, so the rank
    order has ties.  Rows come shuffled or in canonical order (the
    reference sort's).
    """
    n_items = draw(st.sampled_from([0, 1, 63, 64, 65, 130]))
    n_rows = draw(st.sampled_from([0, 1]) | st.integers(min_value=2, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_distinct = int(rng.integers(1, max(1, n_rows) + 1))
    pool = np.zeros((n_distinct, n_items), dtype=bool)
    for row in range(n_distinct):
        size = int(rng.integers(0, min(n_items, 4) + 1))
        pool[row, rng.choice(n_items, size=size, replace=False)] = True
    antecedents = pool[rng.integers(0, n_distinct, size=n_rows)]
    consequents = (rng.random((n_rows, n_items)) < 3 / max(1, n_items)) & ~antecedents
    arrays = RuleArrays(
        BitMatrix.from_dense(antecedents),
        BitMatrix.from_dense(consequents),
        tuple(range(n_items)),
        rng.choice([0.2, 0.4, 0.6], size=n_rows),
        rng.choice([0.25, 0.5, 1.0], size=n_rows),
        rng.integers(-1, 50, size=n_rows),
    )
    if draw(st.booleans()):
        arrays = arrays.take(canonical_order_reference(arrays))
    return arrays
