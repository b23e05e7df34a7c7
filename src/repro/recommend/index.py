"""The packed inverted index from antecedent items to rule rows.

One :class:`AntecedentIndex` is built per rule collection and reused for
every query.  It generalizes the size-bucketed containment index
prototype of ``ClosedItemsetFamily.closure_of``: instead of bucketing
whole itemsets by cardinality, it stores CSR postings per *item* plus
the antecedent cardinality per *row*, so a subset probe against a basket
touches only the rows whose antecedent shares at least one item with the
basket — never the full collection.
"""

from __future__ import annotations

import numpy as np

from ..core.bitmatrix import BitMatrix
from ..core.rulearrays import RuleArrays

__all__ = ["AntecedentIndex"]


class AntecedentIndex:
    """CSR postings from universe item positions to antecedent rows.

    For a basket ``B`` (a set of universe item positions) the matching
    rows — rules whose antecedent mask is a subset of ``B``'s mask — are
    exactly the rows whose posting multiplicity across ``B``'s lists
    equals their antecedent cardinality, plus the empty-antecedent rows,
    which match every basket.

    Parameters
    ----------
    arrays : RuleArrays
        The rule collection to index.  Row numbers reported by
        :meth:`matching_rows` refer to this collection's row order; pass
        canonically sorted arrays when deterministic tie-breaking across
        rebuilds matters (``Recommender`` does).

    Attributes
    ----------
    arrays : RuleArrays
        The indexed collection (shared, not copied).
    indptr : numpy.ndarray
        Int64 CSR offsets, one slot per universe position plus one: the
        postings of item position ``p`` are
        ``postings[indptr[p]:indptr[p + 1]]``.
    postings : numpy.ndarray
        Int64 row ids, ascending within each item's slice.
    antecedent_sizes : numpy.ndarray
        Int64 antecedent cardinality per row (packed popcount).
    always_rows : numpy.ndarray
        Rows with an *empty* antecedent (the Duquenne-Guigues basis
        legitimately holds such rules); they match every basket,
        including the empty one.
    max_antecedent_size : int
        Largest antecedent cardinality; ``<= 1`` enables the no-count
        fast path of :meth:`matching_rows`.
    """

    __slots__ = (
        "arrays",
        "indptr",
        "postings",
        "antecedent_sizes",
        "always_rows",
        "max_antecedent_size",
    )

    def __init__(self, arrays: RuleArrays) -> None:
        self.arrays = arrays
        words = arrays.antecedents.words
        sizes = arrays.antecedents.row_counts()
        # Equal antecedents are adjacent in canonical order: expand the
        # items of one row per run, then post each run as a row range.
        run_start = np.ones(len(words), dtype=bool)
        run_start[1:] = (words[1:] != words[:-1]).any(axis=1)
        starts = np.flatnonzero(run_start)
        runs, cols = BitMatrix(words[starts], arrays.antecedents.n_cols).nonzero()
        # Stable sort by item position: nonzero() emits runs in row order,
        # so rows stay ascending within each item's postings slice.
        order = np.argsort(cols, kind="stable")
        runs = runs[order]
        lengths = np.diff(starts, append=len(words))[runs]
        ends = np.cumsum(lengths)
        self.postings = np.repeat(starts[runs] + lengths - ends, lengths)
        self.postings += np.arange(len(self.postings))
        # Item p's slice starts where the postings of the items below p end.
        items = np.arange(len(arrays.universe) + 1)
        self.indptr = np.append(0, ends)[np.searchsorted(cols[order], items)]
        self.antecedent_sizes = sizes
        self.always_rows = np.flatnonzero(sizes == 0).astype(np.int64)
        self.max_antecedent_size = int(sizes.max()) if sizes.size else 0
        for array in (
            self.indptr,
            self.postings,
            self.antecedent_sizes,
            self.always_rows,
        ):
            array.setflags(write=False)

    def __repr__(self) -> str:
        """Summarize the index as rule, item and posting counts."""
        return (
            f"AntecedentIndex(rules={len(self.arrays)}, "
            f"items={len(self.arrays.universe)}, "
            f"postings={self.postings.size})"
        )

    @property
    def nbytes(self) -> int:
        """Resident bytes of the index arrays (the shared rules excluded)."""
        return sum(
            array.nbytes
            for array in (
                self.indptr,
                self.postings,
                self.antecedent_sizes,
                self.always_rows,
            )
        )

    def matching_rows(self, positions: np.ndarray) -> np.ndarray:
        """Rows whose antecedent is contained in the given basket positions.

        Parameters
        ----------
        positions : numpy.ndarray
            Distinct universe item positions present in the basket (any
            order; items outside the universe must already be dropped —
            they cannot satisfy any antecedent bit).

        Returns
        -------
        numpy.ndarray
            Matching row ids, ascending int64.  Empty-antecedent rows
            are always included, so the empty basket returns exactly
            :attr:`always_rows`.
        """
        slices = [
            self.postings[self.indptr[p] : self.indptr[p + 1]] for p in positions
        ]
        slices = [s for s in slices if s.size]
        if not slices:
            return self.always_rows
        cat = np.concatenate(slices)
        if self.max_antecedent_size <= 1:
            # Single-item antecedents: every posting row is fully
            # covered by its one basket item and appears exactly once,
            # so the multiplicity count is a no-op.
            matched = np.sort(cat)
        else:
            candidates, multiplicity = np.unique(cat, return_counts=True)
            matched = candidates[multiplicity == self.antecedent_sizes[candidates]]
        if self.always_rows.size:
            matched = np.concatenate([self.always_rows, matched])
            matched.sort()
        return matched
