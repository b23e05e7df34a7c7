"""Classical generation of *all* valid association rules.

This is the baseline the bases are measured against: given the family of
frequent itemsets (from Apriori), enumerate every rule ``X → Z \\ X``
with ``Z`` frequent, ``X`` a non-empty proper subset of ``Z`` and
confidence ``supp(Z) / supp(X)`` at least ``minconf``.  The number of
such rules explodes on dense data — that explosion, and the redundancy
it carries, is precisely the problem statement of the ICDE 2000 paper.

The generation is array-native, two passes over the frequent family
packed once in canonical order (:meth:`ItemsetFamily.packed
<repro.core.families.ItemsetFamily.packed>`):

* **selection** — for each group of itemsets ``Z`` of one size ``k``,
  the masks of all ``2^k - 2`` proper non-empty subsets ``X`` are built
  in ``itertools.combinations`` (size, lexicographic) order with one
  integer product per mask word (the bits are distinct, so the sum is
  the OR); each ``X`` is looked up with ``searchsorted`` over the sorted
  mask rows and the confidence window is applied to the whole candidate
  column.  The work is output-sensitive: ``Σ (2^|Z| - 2)`` lookups, not
  a pairwise subset scan of the family;
* **emission** — the kept ``(X, Z)`` row pairs are assembled into
  :class:`~repro.core.rulearrays.RuleArrays` columns by the assembler
  every basis shares,
  :meth:`~repro.core.rulearrays.RuleArrays.from_row_pairs`.

Rows come out in row-major ``(Z, X)`` order, which is the order of the
classical per-rule loop, and the columns are packed over the items the
rules use.

Two refinements are exposed because the experiment tables need them
separately; both are confidence splits of the same selection pass:

* :func:`generate_exact_rules` — only the 100 %-confidence rules;
* :func:`generate_approximate_rules` — only the rules with confidence in
  ``[minconf, 1)``.

Supports come from the provided :class:`~repro.core.families.ItemsetFamily`;
no database access is needed.
"""

from __future__ import annotations

import numpy as np

from ..core.bitmatrix import BitMatrix
from ..core.constants import EPSILON
from ..core.families import ItemsetFamily
from ..core.parallel import get_executor
from ..core.rulearrays import RowPairs, RuleArrays, resolve_block_rows, used_universe
from ..core.rules import RuleSet
from ..errors import InvalidParameterError

__all__ = [
    "generate_all_rules",
    "generate_exact_rules",
    "generate_approximate_rules",
]


def _validate_minconf(minconf: float) -> None:
    if not 0.0 <= minconf <= 1.0:
        raise InvalidParameterError(f"minconf must lie in [0, 1], got {minconf}")


def _subset_patterns(size: int) -> np.ndarray:
    """The proper non-empty subsets of ``range(size)`` as uint64 0/1 rows.

    Rows follow ``itertools.combinations`` order: subset size first, then
    lexicographic on the chosen positions — for equal sizes, descending
    on the bit-reversed subset mask (the lowest differing position
    belongs to the earlier subset).
    """
    masks = np.arange(1, (1 << size) - 1, dtype=np.uint64)
    bits = (masks[:, None] >> np.arange(size, dtype=np.uint64)) & np.uint64(1)
    reversed_masks = bits @ (np.uint64(1) << np.arange(size, dtype=np.uint64)[::-1])
    return bits[np.lexsort((~reversed_masks, bits.sum(axis=1)))]


def _row_keys(words: np.ndarray) -> np.ndarray:
    """Each packed mask row as one opaque key that sorts and compares whole."""
    words = np.ascontiguousarray(words)
    return words.view(np.dtype((np.void, 8 * words.shape[1]))).reshape(-1)


def _select(
    frequent: ItemsetFamily, minconf: float, block_rows: int | None, workers: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every rule above *minconf* as ``(Z rows, X rows, confidences)``.

    Rows index :meth:`ItemsetFamily.packed` and come in row-major
    ``(Z, X)`` order.  Each task covers rows of one size and at most
    ``block_rows`` candidate subsets, so the subset masks of only one
    task per worker are ever live.
    """
    packed = frequent.packed()
    words = packed.matrix.words
    counts = packed.counts
    sizes = packed.matrix.row_counts()
    budget = resolve_block_rows(block_rows, words.shape[1])
    tasks = []
    # Not np.unique: it imports numpy.ma, which then pins memory for good.
    for size in range(2, int(sizes.max(initial=0)) + 1):
        start, stop = np.searchsorted(sizes, [size, size + 1])
        if start == stop:
            continue
        patterns = _subset_patterns(size)
        step = max(1, budget // len(patterns))
        tasks += [
            (low, min(low + step, stop), patterns) for low in range(start, stop, step)
        ]
    empty = np.zeros(0, dtype=np.int64)
    if not tasks:
        return empty, empty, np.zeros(0, dtype=np.float64)
    keys = _row_keys(words)
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def select(task: tuple[int, int, np.ndarray]) -> tuple[np.ndarray, ...]:
        low, high, patterns = task
        _, positions = BitMatrix(words[low:high], packed.matrix.n_cols).nonzero()
        positions = positions.reshape(high - low, patterns.shape[1])
        values = np.uint64(1) << (positions & 63).astype(np.uint64)
        subsets = np.zeros((high - low, len(patterns), words.shape[1]), dtype=np.uint64)
        for word in range(words.shape[1]):
            in_word = positions >> 6 == word
            if in_word.any():
                subsets[:, :, word] = np.where(in_word, values, np.uint64(0)) @ patterns.T
        queries = _row_keys(subsets.reshape(-1, words.shape[1]))
        found = np.minimum(np.searchsorted(sorted_keys, queries), len(order) - 1)
        x_rows = order[found]
        body = np.where(sorted_keys[found] == queries, counts[x_rows], 0)
        x_rows = x_rows.reshape(high - low, len(patterns))
        body = body.reshape(x_rows.shape)
        confidence = np.zeros(x_rows.shape)
        np.divide(counts[low:high, None], body, out=confidence, where=body > 0)
        z_local, x_local = np.nonzero((body > 0) & (confidence >= minconf - EPSILON))
        return low + z_local, x_rows[z_local, x_local], confidence[z_local, x_local]

    parts = get_executor(workers).map(select, tasks)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _naive_rules(
    frequent: ItemsetFamily,
    minconf: float,
    kind: str = "all",
    *,
    block_rows: int | None = None,
    workers: int | None = None,
) -> tuple[RuleSet, RowPairs]:
    """One naive rule set and the ``(X, Z)`` frequent rows it was assembled from.

    *kind* is ``"all"`` (every rule above *minconf*), ``"exact"`` (the
    confidence-1 rules; *minconf* is ignored) or ``"approximate"``
    (confidence in ``[minconf, 1)``, split off the selection before any
    column is emitted).  The columns are packed over the items the rules
    use; ``block_rows`` and ``workers`` drive both passes and never
    change the output.
    """
    if kind == "exact":
        minconf = 1.0
    _validate_minconf(minconf)
    z_rows, x_rows, confidences = _select(frequent, minconf, block_rows, workers)
    if kind == "approximate":
        keep = confidences < 1.0 - EPSILON
        z_rows, x_rows = z_rows[keep], x_rows[keep]
    packed = frequent.packed()
    arrays = RuleArrays.from_row_pairs(
        packed,
        x_rows,
        packed,
        z_rows,
        used_universe(packed, z_rows),
        frequent.n_objects,
        block_rows=block_rows,
        workers=workers,
    )
    # Keys are unique by construction: Z = X ∪ (Z \ X) identifies the pair.
    rules = RuleSet.from_arrays(arrays, assume_unique=True)
    return rules, RowPairs(frequent, x_rows, frequent, z_rows)


def generate_all_rules(
    frequent: ItemsetFamily,
    minconf: float,
    *,
    block_rows: int | None = None,
    workers: int | None = None,
) -> RuleSet:
    """Generate every valid association rule from the frequent itemsets.

    Parameters
    ----------
    frequent:
        Family of frequent itemsets with their supports (typically the
        output of :class:`~repro.algorithms.apriori.Apriori`).
    minconf:
        Minimum confidence threshold in ``[0, 1]``.
    block_rows:
        Row-block size of both passes (candidate subsets per selection
        task, rules per emitted block); ``None`` sizes them from the
        shared working-set budget.  Purely a peak-memory knob.
    workers:
        Worker count of both passes; ``None`` defers to
        ``REPRO_NUM_WORKERS``, else serial.  Purely a wall-clock knob.

    Returns
    -------
    RuleSet
        All rules ``X → Y`` with non-empty, disjoint sides, ``X ∪ Y``
        frequent and ``confidence ≥ minconf``, as an array-backed set.
    """
    return _naive_rules(frequent, minconf, block_rows=block_rows, workers=workers)[0]


def generate_exact_rules(
    frequent: ItemsetFamily,
    *,
    block_rows: int | None = None,
    workers: int | None = None,
) -> RuleSet:
    """Generate every exact (100 %-confidence) association rule.

    A rule ``X → Y`` is exact iff ``support(X ∪ Y) = support(X)``, i.e. the
    antecedent never occurs without the consequent.
    """
    return _naive_rules(
        frequent, 1.0, "exact", block_rows=block_rows, workers=workers
    )[0]


def generate_approximate_rules(
    frequent: ItemsetFamily,
    minconf: float,
    *,
    block_rows: int | None = None,
    workers: int | None = None,
) -> RuleSet:
    """Generate every approximate rule with confidence in ``[minconf, 1)``.

    The exact rules are split off the selection before any column is
    emitted, not generated and filtered afterwards.
    """
    return _naive_rules(
        frequent, minconf, "approximate", block_rows=block_rows, workers=workers
    )[0]
