"""The containment order core over a family of itemsets.

This module is the numeric core of the iceberg-lattice construction: given
a family of itemsets as rows of uint64 item-masks (the little-endian
``np.packbits`` layout of :meth:`~repro.core.families.ItemsetFamily.packed`),
it computes the full strict-containment relation as a bit-packed
:class:`~repro.core.bitmatrix.BitMatrix` and derives the Hasse diagram by
its transitive reduction.

The containment relation of a family of *distinct* sets is a strict
partial order and hence already transitively closed, so the Hasse edges
are exactly ``proper & ~(proper @ proper)`` — a pair is immediate iff no
third member lies strictly in between.  :class:`OrderCore` holds that
relation packed ``n**2 / 8`` bytes (one uint64 word per 64 members),
builds it with the blocked passes of :mod:`repro.core.bitmatrix` and
answers every order query of the lattice; the lattice wrapper attaches
itemset semantics (members, supports, accessors) on top.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from .bitmatrix import BitMatrix, packed_containment, packed_hasse_reduction
from .parallel import get_executor

__all__ = ["OrderCore"]


class OrderCore:
    """Strict containment order of an indexed family, bit-packed.

    Answers the order queries the lattice needs about ``n`` family
    members (identified by their canonical index): the Hasse edge
    arrays, immediate successors/predecessors, degree vectors, full-order
    rows and single-pair ancestry tests.

    Peak memory is two packed matrices of ``n**2 / 8`` bytes (containment
    and, transiently, the reduction) plus bounded unpack/gather blocks,
    which is what lets 50k+-node families load at all.  The packed Hasse
    matrix is dropped after the edge arrays are extracted; containment
    queries pop words out of the retained packed order.  Edge arrays are
    sorted row-major (by ``(smaller, larger)`` index) and frozen.

    ``workers`` shards the two construction passes across the kernel
    executor of :mod:`repro.core.parallel` (``None`` = serial unless the
    ``REPRO_NUM_WORKERS`` environment variable says otherwise); the
    built core is byte-identical for any worker count.

    ``retain_containment=False`` is the CSR-only edge-store mode for
    query-only consumers (the ``repro serve`` warm start): the packed
    containment words are dropped once the Hasse edges are extracted,
    cutting steady-state memory from ``n**2 / 8`` bytes to the
    ``O(n x words)`` member masks plus the edge arrays.  Containment
    queries then re-probe the masks (one masked compare per ancestry
    test, one vectorised family pass per full-order row) and
    :meth:`packed_containment_matrix` recomputes the relation on demand.
    """

    def __init__(
        self,
        masks: np.ndarray,
        workers: int | None = None,
        retain_containment: bool = True,
    ) -> None:
        executor = get_executor(workers)
        masks = np.ascontiguousarray(masks, dtype=np.uint64)
        proper = packed_containment(masks, executor=executor)
        rows, cols = packed_hasse_reduction(proper, executor=executor).nonzero()
        self._adopt(
            rows, cols, proper.n_rows, proper if retain_containment else None, masks
        )

    def _adopt(
        self,
        hasse_rows: np.ndarray,
        hasse_cols: np.ndarray,
        n: int,
        proper: BitMatrix | None,
        masks: np.ndarray | None,
    ) -> None:
        hasse_rows = np.asarray(hasse_rows, dtype=np.int64)
        hasse_cols = np.asarray(hasse_cols, dtype=np.int64)
        order = np.lexsort((hasse_cols, hasse_rows))
        self._rows = hasse_rows[order]
        self._cols = hasse_cols[order]
        self._n = int(n)
        self._proper = proper
        self._masks = masks
        for array in (self._rows, self._cols, masks):
            if array is not None:
                array.setflags(write=False)
        if proper is not None:
            proper.words.setflags(write=False)
        self._col_sorted: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def _rehydrate(
        cls,
        hasse_rows: np.ndarray,
        hasse_cols: np.ndarray,
        n: int,
        proper: BitMatrix | None = None,
        masks: np.ndarray | None = None,
    ) -> "OrderCore":
        """Adopt computed parts after checking the edges index the order.

        Members are in canonical (size, lexicographic) order, so every
        proper subset precedes its supersets and a valid Hasse edge
        always satisfies ``0 <= smaller < larger < n``.
        """
        hasse_rows = np.asarray(hasse_rows)
        hasse_cols = np.asarray(hasse_cols)
        if hasse_rows.ndim != 1 or hasse_rows.shape != hasse_cols.shape:
            raise InvalidParameterError(
                f"Hasse edge arrays must be two equal-length vectors, got "
                f"shapes {hasse_rows.shape} and {hasse_cols.shape}"
            )
        if hasse_rows.size and not (
            hasse_rows.min() >= 0
            and hasse_cols.max() < n
            and bool(np.all(hasse_rows < hasse_cols))
        ):
            raise InvalidParameterError(
                f"Hasse edges must satisfy 0 <= smaller < larger < {n}"
            )
        core = cls.__new__(cls)
        core._adopt(hasse_rows, hasse_cols, n, proper, masks)
        return core

    @classmethod
    def from_parts(
        cls,
        proper: BitMatrix,
        hasse_rows: np.ndarray,
        hasse_cols: np.ndarray,
    ) -> "OrderCore":
        """Rehydrate a core from already computed parts.

        The load path of :mod:`repro.store`: the stored packed
        containment words and Hasse edge index arrays are adopted as-is,
        skipping both construction passes (the whole point of persisting
        a mined lattice).  *proper* must be square and the edges must
        index into it (both checked); deeper consistency (that the edges
        really are the transitive reduction of *proper*) is the saver's
        contract.
        """
        if proper.n_cols != proper.n_rows:
            raise InvalidParameterError(
                f"containment relation must be square, got {proper.shape}"
            )
        return cls._rehydrate(hasse_rows, hasse_cols, proper.n_rows, proper=proper)

    @classmethod
    def from_edges(
        cls,
        masks: np.ndarray,
        hasse_rows: np.ndarray,
        hasse_cols: np.ndarray,
    ) -> "OrderCore":
        """Rehydrate a CSR-only core: Hasse edges plus member masks.

        The ``retain_containment=False`` counterpart of
        :meth:`from_parts`, used by the store's memory-lean load mode:
        no packed ``n**2 / 8``-byte relation is adopted (or even read);
        containment queries probe the ``O(n x words)`` masks instead.
        """
        masks = np.ascontiguousarray(masks, dtype=np.uint64)
        return cls._rehydrate(hasse_rows, hasse_cols, masks.shape[0], masks=masks)

    @property
    def n(self) -> int:
        """Number of family members the order is over."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of Hasse edges."""
        return int(len(self._rows))

    @property
    def retains_containment(self) -> bool:
        """``True`` when the packed ``n x n`` relation is held in memory."""
        return self._proper is not None

    def hasse_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Hasse edges as ``(smaller, larger)`` index arrays, row-major."""
        return self._rows, self._cols

    def successors(self, index: int) -> np.ndarray:
        """Immediate successors of member *index* (ascending indices)."""
        start, stop = np.searchsorted(self._rows, [index, index + 1])
        return self._cols[start:stop]

    def _by_column(self) -> tuple[np.ndarray, np.ndarray]:
        if self._col_sorted is None:
            order = np.lexsort((self._rows, self._cols))
            self._col_sorted = (self._cols[order], self._rows[order])
        return self._col_sorted

    def predecessors(self, index: int) -> np.ndarray:
        """Immediate predecessors of member *index* (ascending indices)."""
        cols, rows = self._by_column()
        start, stop = np.searchsorted(cols, [index, index + 1])
        return rows[start:stop]

    def in_degrees(self) -> np.ndarray:
        """Immediate-predecessor count per member."""
        return np.bincount(self._cols, minlength=self._n)

    def out_degrees(self) -> np.ndarray:
        """Immediate-successor count per member."""
        return np.bincount(self._rows, minlength=self._n)

    def is_ancestor(self, smaller: int, larger: int) -> bool:
        """``True`` iff member *smaller* is a proper subset of *larger*."""
        if self._proper is not None:
            return self._proper.get(smaller, larger)
        if smaller == larger:
            return False
        small = self._masks[smaller]
        return bool(np.all((small & self._masks[larger]) == small))

    def order_row(self, index: int) -> np.ndarray:
        """Indices of every member strictly containing member *index*."""
        if self._proper is not None:
            return self._proper.row_indices(index)
        row = self._masks[index]
        subset = np.all((row[None, :] & self._masks) == row[None, :], axis=1)
        subset[index] = False
        return np.nonzero(subset)[0]

    def containment_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Every comparable pair as ``(smaller, larger)`` index arrays."""
        return self.packed_containment_matrix().nonzero()

    def packed_containment_matrix(self) -> BitMatrix:
        """The strict-containment relation as a packed :class:`BitMatrix`.

        What :mod:`repro.store` persists: the retained matrix, or the
        relation recomputed from the member masks by a CSR-only core.
        """
        if self._proper is not None:
            return self._proper
        return packed_containment(self._masks)
