"""Property tests of the bit-packed matrix against plain numpy bool ops.

Every :class:`~repro.core.bitmatrix.BitMatrix` operation must agree with
the corresponding dense numpy operation on random matrices (including
degenerate 0-row / 0-column shapes and widths straddling the 64-bit word
boundary), and the packed order constructions must agree with the dense
bool oracles of ``tests/oracles.py`` on random itemset families — both in
canonical (size-sorted) member order, which enables the pruned fast
path, and shuffled, which exercises the full-scan fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitmatrix import (
    BitMatrix,
    packed_containment,
    packed_hasse_reduction,
)
from repro.core.itemset import Itemset
from repro.core.rulearrays import pack_itemsets_into, sorted_universe

from oracles import containment_matrix, hasse_reduction


def _masks(members: list[Itemset]) -> np.ndarray:
    """The members' packed item-mask words over their sorted items."""
    universe = sorted_universe(item for member in members for item in member)
    return pack_itemsets_into(members, universe).words


@st.composite
def bool_matrices(draw, max_rows: int = 24, max_cols: int = 150) -> np.ndarray:
    """Random bool matrices; widths deliberately straddle the word size."""
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    n_cols = draw(st.integers(min_value=0, max_value=max_cols))
    bits = draw(
        st.lists(
            st.booleans(), min_size=n_rows * n_cols, max_size=n_rows * n_cols
        )
    )
    return np.array(bits, dtype=bool).reshape(n_rows, n_cols)


@st.composite
def matrix_pairs(draw):
    """Two equal-shape random bool matrices."""
    first = draw(bool_matrices())
    second = (
        np.array(
            draw(
                st.lists(
                    st.booleans(), min_size=first.size, max_size=first.size
                )
            ),
            dtype=bool,
        ).reshape(first.shape)
    )
    return first, second


@st.composite
def matmul_operands(draw):
    """Random bool matrices with compatible inner dimensions."""
    n, k, m = (draw(st.integers(min_value=0, max_value=20)) for _ in range(3))
    left = np.array(
        draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k)), dtype=bool
    ).reshape(n, k)
    right = np.array(
        draw(st.lists(st.booleans(), min_size=k * m, max_size=k * m)), dtype=bool
    ).reshape(k, m)
    return left, right


@st.composite
def itemset_families(draw):
    """Random distinct itemset families over a 16-item universe."""
    universe = list("abcdefghijklmnop")
    members = draw(
        st.sets(
            st.frozensets(st.sampled_from(universe), min_size=0, max_size=9),
            min_size=1,
            max_size=30,
        )
    )
    return sorted(Itemset(member) for member in members)


class TestBitMatrixVsDense:
    @settings(max_examples=80, deadline=None)
    @given(dense=bool_matrices())
    def test_pack_roundtrip_and_shape(self, dense):
        packed = BitMatrix.from_dense(dense)
        assert packed.shape == dense.shape
        assert np.array_equal(packed.to_dense(), dense)

    @settings(max_examples=80, deadline=None)
    @given(dense=bool_matrices())
    def test_popcount_statistics(self, dense):
        packed = BitMatrix.from_dense(dense)
        assert np.array_equal(packed.row_counts(), dense.sum(axis=1))
        assert np.array_equal(packed.column_counts(), dense.sum(axis=0))
        assert packed.count() == int(dense.sum())

    @settings(max_examples=80, deadline=None)
    @given(dense=bool_matrices())
    def test_row_and_column_views(self, dense):
        packed = BitMatrix.from_dense(dense)
        for row in range(dense.shape[0]):
            assert np.array_equal(packed.row_bool(row), dense[row])
            assert np.array_equal(
                packed.row_indices(row), np.nonzero(dense[row])[0]
            )
        for col in range(dense.shape[1]):
            assert np.array_equal(packed.column_bool(col), dense[:, col])
            assert np.array_equal(
                packed.column_indices(col), np.nonzero(dense[:, col])[0]
            )
        if dense.size:
            assert packed.get(0, 0) == bool(dense[0, 0])

    @settings(max_examples=80, deadline=None)
    @given(dense=bool_matrices())
    def test_nonzero_matches_numpy(self, dense):
        packed = BitMatrix.from_dense(dense)
        rows, cols = packed.nonzero()
        expected_rows, expected_cols = np.nonzero(dense)
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(cols, expected_cols)

    @settings(max_examples=80, deadline=None)
    @given(pair=matrix_pairs())
    def test_elementwise_ops(self, pair):
        first, second = pair
        left, right = BitMatrix.from_dense(first), BitMatrix.from_dense(second)
        assert np.array_equal((left & right).to_dense(), first & second)
        assert np.array_equal((left | right).to_dense(), first | second)
        assert np.array_equal(left.and_not(right).to_dense(), first & ~second)
        assert np.array_equal(left.logical_not().to_dense(), ~first)

    @settings(max_examples=80, deadline=None)
    @given(dense=bool_matrices())
    def test_logical_not_preserves_padding_invariant(self, dense):
        negated = BitMatrix.from_dense(dense).logical_not()
        # Popcounts would overcount if padding bits past n_cols leaked.
        assert negated.count() == int((~dense).sum())

    @settings(max_examples=80, deadline=None)
    @given(dense=bool_matrices())
    def test_clear_diagonal(self, dense):
        packed = BitMatrix.from_dense(dense)
        packed.clear_diagonal()
        expected = dense.copy()
        n = min(expected.shape)
        expected[np.arange(n), np.arange(n)] = False
        assert np.array_equal(packed.to_dense(), expected)

    @settings(max_examples=80, deadline=None)
    @given(operands=matmul_operands())
    def test_bool_matmul_matches_dense(self, operands):
        left, right = operands
        expected = (left.astype(np.int64) @ right.astype(np.int64)) > 0
        product = BitMatrix.from_dense(left).bool_matmul(
            BitMatrix.from_dense(right)
        )
        assert product.shape == expected.shape
        assert np.array_equal(product.to_dense(), expected)

    def test_shape_mismatch_raises(self):
        left = BitMatrix.zeros(2, 3)
        right = BitMatrix.zeros(2, 4)
        with pytest.raises(ValueError):
            left & right  # noqa: B018 - the op itself is the assertion
        with pytest.raises(ValueError):
            left.bool_matmul(right)

    def test_copy_is_independent(self):
        original = BitMatrix.from_dense(np.ones((2, 2), dtype=bool))
        duplicate = original.copy()
        duplicate.clear_diagonal()
        assert original.count() == 4
        assert duplicate.count() == 2


class TestPackedOrderConstruction:
    @settings(max_examples=60, deadline=None)
    @given(members=itemset_families())
    def test_containment_matches_dense(self, members):
        masks = _masks(members)
        assert np.array_equal(
            packed_containment(masks).to_dense(), containment_matrix(masks)
        )

    @settings(max_examples=60, deadline=None)
    @given(members=itemset_families(), seed=st.integers(0, 2**16))
    def test_containment_unsorted_fallback(self, members, seed):
        # Shuffled member order disables the size-pruned fast path; the
        # full-scan fallback must give the same relation.
        shuffled = list(members)
        np.random.default_rng(seed).shuffle(shuffled)
        masks = _masks(shuffled)
        assert np.array_equal(
            packed_containment(masks).to_dense(), containment_matrix(masks)
        )

    @settings(max_examples=60, deadline=None)
    @given(members=itemset_families())
    def test_hasse_reduction_matches_dense(self, members):
        masks = _masks(members)
        dense_proper = containment_matrix(masks)
        packed_proper = packed_containment(masks)
        assert np.array_equal(
            packed_hasse_reduction(packed_proper).to_dense(),
            hasse_reduction(dense_proper),
        )
