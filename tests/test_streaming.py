"""Streamed-vs-one-shot equivalence of the rule-basis construction.

Every basis is assembled from row pairs by one streamed assembler,
:meth:`~repro.core.rulearrays.RuleArrays.from_row_pairs`, in bounded row
blocks (:func:`~repro.core.rulearrays.resolve_block_rows`) over any
number of workers; these tests pin the contract that the streaming is
*invisible*: the assembler equals a one-shot gather byte-for-byte for
any ``block_rows`` and ``workers``, every registered basis built with
any ``block_rows`` equals the default build, and the peak mask memory of
a streamed build stays bounded by the output plus O(block) temporaries
instead of growing with extra output-sized gathers.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro.algorithms.rule_generation import _naive_rules
from repro.bases import registered_names
from repro.core.bitmatrix import BitMatrix
from repro.core.informative import InformativeBasis
from repro.core.lattice import IcebergLattice
from repro.core.rulearrays import RuleArrays, resolve_block_rows
from repro.data.synthetic import make_rule_dense_family, rule_dense_expected_counts
from repro.errors import InvalidParameterError
from repro.experiments.harness import build_rule_artifacts, mine_itemsets

from conftest import make_random_db

#: The block sizes of the satellite contract: degenerate (1), odd (7),
#: one word (64) and the auto default (None).
BLOCK_SIZES = (1, 7, 64, None)


def assert_same_arrays(left: RuleArrays, right: RuleArrays) -> None:
    assert left.universe == right.universe
    assert np.array_equal(left.antecedents.words, right.antecedents.words)
    assert np.array_equal(left.consequents.words, right.consequents.words)
    assert np.array_equal(left.support, right.support)
    assert np.array_equal(left.confidence, right.confidence)
    assert np.array_equal(left.support_count, right.support_count)


# ----------------------------------------------------------------------
# RuleArrays block plumbing
# ----------------------------------------------------------------------
class TestBlockPlumbing:
    @pytest.fixture(scope="class")
    def arrays(self):
        closed, generators = make_rule_dense_family(12, 2)
        lattice = IcebergLattice(closed)
        basis = InformativeBasis(
            generators, minconf=0.0, reduced=False, lattice=lattice
        )
        return basis.rules.to_arrays()

    @pytest.mark.parametrize("block_rows", [1, 3, 64, None])
    def test_iter_blocks_from_blocks_round_trip(self, arrays, block_rows):
        rebuilt = RuleArrays.from_blocks(
            arrays.iter_blocks(block_rows), arrays.universe
        )
        assert_same_arrays(rebuilt, arrays)
        # The preallocating (capacity) path must agree too.
        rebuilt = RuleArrays.from_blocks(
            arrays.iter_blocks(block_rows), arrays.universe, n_rows=len(arrays)
        )
        assert_same_arrays(rebuilt, arrays)

    def test_iter_blocks_covers_every_row_once(self, arrays):
        sizes = [len(block) for block in arrays.iter_blocks(7)]
        assert sum(sizes) == len(arrays)
        assert all(size == 7 for size in sizes[:-1])

    def test_from_blocks_capacity_trims_filtered_blocks(self, arrays):
        kept = [
            block.select(block.confidence >= 0.5)
            for block in arrays.iter_blocks(5)
        ]
        rebuilt = RuleArrays.from_blocks(kept, arrays.universe, n_rows=len(arrays))
        assert_same_arrays(rebuilt, arrays.with_min_confidence(0.5))

    def test_from_blocks_rejects_universe_mismatch_and_overflow(self, arrays):
        with pytest.raises(InvalidParameterError):
            RuleArrays.from_blocks(arrays.iter_blocks(4), ("other",))
        with pytest.raises(InvalidParameterError):
            RuleArrays.from_blocks(
                arrays.iter_blocks(4), arrays.universe, n_rows=len(arrays) - 1
            )

    def test_from_blocks_empty(self, arrays):
        empty = RuleArrays.from_blocks([], arrays.universe)
        assert len(empty) == 0 and empty.universe == arrays.universe
        empty = RuleArrays.from_blocks([], arrays.universe, n_rows=0)
        assert len(empty) == 0

    def test_resolve_block_rows(self):
        assert resolve_block_rows(64, 4) == 64
        assert resolve_block_rows(None, 4) >= 1
        # Auto shrinks as rows widen: the block budget is in mask cells.
        assert resolve_block_rows(None, 64) < resolve_block_rows(None, 1)
        with pytest.raises(InvalidParameterError):
            resolve_block_rows(0, 4)


# ----------------------------------------------------------------------
# The assembler: streamed == one-shot, byte for byte
# ----------------------------------------------------------------------
def one_shot_gather(pairs, universe, n_objects) -> RuleArrays:
    """Every rule of *pairs* gathered at once over the family's own items."""
    x_rows, z_rows = pairs.antecedent_rows, pairs.union_rows
    x_family, z_family = pairs.antecedents.packed(), pairs.unions.packed()
    x = x_family.matrix.words[x_rows]
    z = z_family.matrix.words[z_rows]
    x_counts = x_family.counts[x_rows].astype(np.float64)
    z_counts = z_family.counts[z_rows]
    arrays = RuleArrays(
        BitMatrix(x, z_family.matrix.n_cols),
        BitMatrix(z & ~x, z_family.matrix.n_cols),
        z_family.universe,
        z_counts / n_objects,
        z_counts / x_counts,
        z_counts,
    )
    return arrays.project_to(universe)


class TestAssemblerStreaming:
    @pytest.fixture(scope="class")
    def bases(self):
        closed, generators = make_rule_dense_family(25, 2)
        informative = InformativeBasis(generators, minconf=0.0, reduced=False)
        dense = mine_itemsets(make_random_db(3, n_objects=60, max_row=7), 0.1)
        rules, all_pairs = _naive_rules(dense.frequent, 0.3)
        return [
            (informative.rules.to_arrays(), informative.row_pairs, closed.n_objects),
            (rules.to_arrays(), all_pairs, dense.frequent.n_objects),
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("block_rows", [1, 7, None])
    def test_blocks_and_workers_equal_one_shot_gather(self, bases, block_rows, workers):
        for built, pairs, n_objects in bases:
            assembled = RuleArrays.from_row_pairs(
                pairs.antecedents.packed(),
                pairs.antecedent_rows,
                pairs.unions.packed(),
                pairs.union_rows,
                built.universe,
                n_objects,
                block_rows=block_rows,
                workers=workers,
            )
            assert len(assembled) > 100
            assert_same_arrays(assembled, one_shot_gather(pairs, built.universe, n_objects))
            assert_same_arrays(assembled, built)


# ----------------------------------------------------------------------
# Every registered basis through the harness knob
# ----------------------------------------------------------------------
class TestHarnessBlockRows:
    @pytest.fixture(scope="class")
    def mining(self, toy_db_module):
        return mine_itemsets(toy_db_module, 0.4)

    @pytest.fixture(scope="class")
    def toy_db_module(self):
        from repro.data.context import TransactionDatabase

        return TransactionDatabase(
            [
                ["a", "c", "d"],
                ["b", "c", "e"],
                ["a", "b", "c", "e"],
                ["b", "e"],
                ["a", "b", "c", "e"],
            ],
            name="toy",
        )

    @pytest.fixture(scope="class")
    def baseline(self, mining):
        return build_rule_artifacts(mining, minconf=0.5, bases=registered_names())

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_every_basis_matches_default_build(self, mining, baseline, block_rows):
        artifacts = build_rule_artifacts(
            mining, minconf=0.5, bases=registered_names(), block_rows=block_rows
        )
        for name in registered_names():
            blocked = artifacts[name]
            reference = baseline[name]
            assert blocked.kind == reference.kind
            assert blocked.rules.same_rules_and_statistics(reference.rules), name
            assert_same_arrays(blocked.rule_arrays, reference.rule_arrays)


# ----------------------------------------------------------------------
# Peak mask memory stays O(output + block)
# ----------------------------------------------------------------------
def _streamed_peak_bytes(basis) -> tuple[int, int]:
    """(peak traced bytes of one streamed assembly, output bytes)."""
    output_bytes = basis.rules.to_arrays().nbytes
    tracemalloc.start()
    rebuilt = basis._build_arrays()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(rebuilt) == len(basis.rules)
    return peak, output_bytes


def test_streamed_build_peak_memory_is_output_plus_blocks():
    """Ungated smoke: the streamed expansion allocates ~one output copy.

    The materialized path gathers several output-sized temporaries (the
    expanded antecedent rows, the AND-NOT, the final filtered copy); the
    streamed path must stay within the output plus bounded block / pair
    index temporaries.
    """
    closed, generators = make_rule_dense_family(120, 2)
    lattice = IcebergLattice(closed)
    basis = InformativeBasis(generators, minconf=0.0, reduced=False, lattice=lattice)
    peak, output_bytes = _streamed_peak_bytes(basis)
    arrays = basis.rules.to_arrays()
    block = resolve_block_rows(None, arrays.antecedents.n_words)
    block_bytes = block * arrays.antecedents.n_words * 8
    # Generous constant for the O(pairs) index arrays and interpreter
    # noise; what matters is that no *second* output-sized mask gather
    # appears (which would double the bound on this ~14k-rule workload).
    assert peak <= output_bytes + 16 * block_bytes + 8 * 1024 * 1024, (
        f"streamed peak {peak / 1e6:.1f} MB exceeds output "
        f"{output_bytes / 1e6:.1f} MB + block budget"
    )


@pytest.mark.skipif(
    not os.environ.get("REPRO_MEMORY_TESTS"),
    reason="set REPRO_MEMORY_TESTS=1 to run the >=10^6-rule peak-memory gate",
)
def test_streamed_build_peak_memory_rule_dense_million():
    """Gated acceptance check: >=10^6 rules, peak mask memory O(block).

    On the L=1001 clone chain the full informative basis holds
    1 001 000 rules (~0.5 GB of packed mask columns); the streamed
    assembly's peak beyond the finished output must stay bounded by
    block-sized temporaries and the O(pairs) index arrays — not by
    additional output-sized gathers (the materialized path needs
    several).  Observed overhead in practice: ~20 MB over the output.
    """
    chain, multiplicity = 1001, 2
    closed, generators = make_rule_dense_family(chain, multiplicity)
    expected = rule_dense_expected_counts(chain, multiplicity)
    lattice = IcebergLattice(closed)
    basis = InformativeBasis(generators, minconf=0.0, reduced=False, lattice=lattice)
    assert len(basis.rules) == expected["informative_full"] >= 10**6
    peak, output_bytes = _streamed_peak_bytes(basis)
    arrays = basis.rules.to_arrays()
    block = resolve_block_rows(None, arrays.antecedents.n_words)
    block_bytes = block * arrays.antecedents.n_words * 8
    allowance = 64 * block_bytes + 128 * 1024 * 1024
    assert peak <= output_bytes + allowance, (
        f"streamed peak {peak / 1e6:.1f} MB exceeds output "
        f"{output_bytes / 1e6:.1f} MB + {allowance / 1e6:.1f} MB allowance"
    )
