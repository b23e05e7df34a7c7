"""The match → score → rank recommendation kernel and its object oracle.

Semantics (shared, bit for bit, by :class:`Recommender` and
:func:`recommend_reference` — the oracle is the specification):

1. **Match** — a rule is a candidate when its antecedent is a subset of
   the basket (empty antecedents match every basket).  Basket items
   outside the rule universe are ignored: they can satisfy no antecedent
   bit and appear in no consequent.
2. **Score** — the *novel consequent* of a candidate is its consequent
   minus the basket.  Candidates whose novel consequent is empty are
   dropped (they would recommend what the basket already holds).
3. **Rank** — candidates sharing a novel consequent are collapsed onto
   the best rule: highest confidence, then highest support, then lowest
   row number in the canonically sorted collection.  The distinct novel
   consequents are ordered by the same ``(confidence desc, support
   desc, row asc)`` key of their best rule and the first *k* are
   returned.

Confidence and support comparisons are exact float64 comparisons — both
pipelines read the same frozen columns, so no epsilon is involved and
equality with the oracle is bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.parallel import KernelExecutor, get_executor, shard_spans
from ..core.rulearrays import RuleArrays, pack_itemset_words
from ..errors import InvalidParameterError
from .index import AntecedentIndex

__all__ = [
    "BASIS_PREFERENCE",
    "BasketQueryResult",
    "Recommendation",
    "Recommender",
    "preferred_basis",
    "recommend_reference",
]

#: Candidate-row count below which per-query scoring stays in-line even
#: when a thread pool is available — sharding µs-scale work would drown
#: the kernel in scheduling overhead.
PARALLEL_MIN_ROWS = 8192

#: Default-basis preference when a store holds several rule bases: the
#: first of these that is stored answers recommendation queries.  The
#: informative bases rank highest — they are the paper's user-facing
#: artefact (minimal antecedents, maximal consequents), so they answer
#: basket queries with the fewest, strongest rules.
BASIS_PREFERENCE = (
    "informative",
    "informative-reduced",
    "generic",
    "all",
    "luxenburger",
    "luxenburger-reduced",
    "approximate",
    "exact",
    "dg",
)


def preferred_basis(names) -> str | None:
    """Pick the default recommendation basis among stored basis *names*.

    Parameters
    ----------
    names : iterable of str
        Basis names available in a store.

    Returns
    -------
    str or None
        The first :data:`BASIS_PREFERENCE` entry present in *names*,
        falling back to the alphabetically first name; ``None`` when
        *names* is empty.
    """
    available = set(names)
    for name in BASIS_PREFERENCE:
        if name in available:
            return name
    return min(available) if available else None


@dataclass(frozen=True)
class Recommendation:
    """One ranked consequent suggestion for a basket.

    Attributes
    ----------
    items : tuple
        The novel consequent — the items being recommended, i.e. the
        winning rule's consequent minus the basket — in canonical
        universe order.
    confidence : float
        Confidence of the winning rule.
    support : float
        Support of the winning rule.
    support_count : int or None
        Absolute support count of the winning rule (``None`` when the
        stored collection does not carry counts).
    antecedent : tuple
        Antecedent of the winning rule, canonical universe order.
    consequent : tuple
        Full consequent of the winning rule (may overlap the basket).
    rule_row : int
        Row of the winning rule in the recommender's (canonically
        sorted) rule collection — the final tie-break key.
    """

    items: tuple
    confidence: float
    support: float
    support_count: int | None
    antecedent: tuple
    consequent: tuple
    rule_row: int


@dataclass(frozen=True)
class BasketQueryResult:
    """The full answer to one basket query.

    Attributes
    ----------
    recommendations : tuple[Recommendation, ...]
        The top-k distinct novel consequents, best first.
    matched_rules : int
        Candidate rules whose antecedent the basket contained (before
        the empty-novel-consequent drop) — the denominator a caller
        needs to judge how much evidence backed the answer.
    known_items : tuple
        Basket items that exist in the rule universe, canonical order;
        the items the match actually ran against.
    """

    recommendations: tuple[Recommendation, ...]
    matched_rules: int
    known_items: tuple


class Recommender:
    """Top-k consequent queries over one indexed rule collection.

    Parameters
    ----------
    arrays : RuleArrays
        The rule collection to serve.  Sorted canonically at
        construction unless ``assume_canonical`` says it already is —
        tie-breaks are defined over canonical row order, so rebuilding
        the recommender from the same rules always answers identically.
    workers : int, optional
        Worker count for the sharded scoring kernel and for
        :meth:`recommend_many` query batches (``None`` = the
        ``REPRO_NUM_WORKERS`` environment variable, else serial;
        ``0`` = all cores).  Answers are identical for any worker count.
    assume_canonical : bool
        Skip the canonical sort when the caller guarantees it (the
        serve layer shares its already-sorted snapshot columns
        copy-on-write).

    Examples
    --------
    >>> from repro.recommend import Recommender
    >>> engine = Recommender(arrays)                    # doctest: +SKIP
    >>> engine.recommend(["bread", "butter"], k=3)      # doctest: +SKIP
    """

    def __init__(
        self,
        arrays: RuleArrays,
        workers: int | None = None,
        assume_canonical: bool = False,
    ) -> None:
        if not assume_canonical:
            arrays = arrays.sorted_canonically()
        self._arrays = arrays
        self._index = AntecedentIndex(arrays)
        self._workers = workers
        self._position = {item: pos for pos, item in enumerate(arrays.universe)}
        # Global ranking permutation, precomputed once: the ranking key
        # (confidence desc, support desc, row asc) is a property of the
        # rules alone — the basket only *filters* candidates and drops
        # empty novel consequents.  Sorting a query's matched rows by
        # this precomputed rank lets the kernel scan candidates
        # best-first and stop as soon as k distinct novel consequents
        # have appeared, instead of scoring and deduplicating the whole
        # matched set.  lexsort is stable, so equal keys keep row order.
        n_rows = len(arrays)
        self._row_of_rank = np.lexsort(
            (-arrays.support, -arrays.confidence)
        ).astype(np.int64, copy=False)
        self._rank_of_row = np.empty(n_rows, dtype=np.int64)
        self._rank_of_row[self._row_of_rank] = np.arange(n_rows, dtype=np.int64)

    @classmethod
    def from_store(
        cls,
        path: str | Path,
        basis: str,
        workers: int | None = None,
    ) -> "Recommender":
        """Build a recommender from one basis of a ``repro save`` store.

        Parameters
        ----------
        path : str or Path
            A store container written by :func:`repro.store.save_run`.
        basis : str
            Name of the stored basis to serve (``"informative"``, ...).
        workers : int, optional
            Forwarded to the constructor.

        Returns
        -------
        Recommender
            Engine over the named basis's rule columns.

        Raises
        ------
        InvalidParameterError
            When the store holds no basis of that name.
        """
        from ..store import load_run

        run = load_run(path, sections=("rules",))
        arrays = (run.rule_arrays or {}).get(basis)
        if arrays is None:
            stored = ", ".join(sorted(run.rule_arrays or {})) or "(none)"
            raise InvalidParameterError(
                f"store {path} holds no basis {basis!r}; stored bases: {stored}"
            )
        return cls(arrays, workers=workers)

    @property
    def arrays(self) -> RuleArrays:
        """RuleArrays: The served collection, canonical row order."""
        return self._arrays

    @property
    def index(self) -> AntecedentIndex:
        """AntecedentIndex: The underlying inverted index."""
        return self._index

    @property
    def universe(self) -> tuple:
        """tuple: The item universe of the served collection."""
        return self._arrays.universe

    def __len__(self) -> int:
        """Return the number of rules served by this engine."""
        return len(self._arrays)

    def __repr__(self) -> str:
        """Summarize the engine as rule and universe counts."""
        return (
            f"Recommender(rules={len(self._arrays)}, "
            f"items={len(self._arrays.universe)})"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, basket, k: int = 5) -> BasketQueryResult:
        """Answer one basket query with the full result envelope.

        Parameters
        ----------
        basket : iterable
            The partial basket's items.  Duplicates collapse; items
            outside the rule universe are ignored (reported through
            ``known_items``).
        k : int
            Maximum number of distinct consequents to return (fewer
            when fewer candidates exist).

        Returns
        -------
        BasketQueryResult
            Top-k recommendations plus the matched-rule count.
        """
        return self._query(basket, k, get_executor(self._workers))

    def recommend(self, basket, k: int = 5) -> list[Recommendation]:
        """Return just the ranked top-k list for one basket."""
        return list(self.query(basket, k).recommendations)

    def recommend_many(self, baskets, k: int = 5) -> list[BasketQueryResult]:
        """Answer a batch of basket queries, sharded across workers.

        Queries are independent, so the batch is split into contiguous
        spans and each span runs the serial per-query kernel on one
        worker — the throughput lever of the serve-side bulk workload.
        Results keep the input order and are identical to calling
        :meth:`query` per basket.

        Parameters
        ----------
        baskets : sequence of iterables
            One basket per query.
        k : int
            Top-k size shared by every query.

        Returns
        -------
        list[BasketQueryResult]
            One result per basket, in input order.
        """
        baskets = list(baskets)
        executor = get_executor(self._workers)
        serial = get_executor(1)
        if executor.is_serial or len(baskets) < 2:
            return [self._query(basket, k, serial) for basket in baskets]
        spans = shard_spans(len(baskets), executor.shard_size(len(baskets)))

        def run_span(span: tuple[int, int]) -> list[BasketQueryResult]:
            start, stop = span
            return [self._query(basket, k, serial) for basket in baskets[start:stop]]

        chunks = executor.map(run_span, spans)
        return [result for chunk in chunks for result in chunk]

    # ------------------------------------------------------------------
    # Kernel stages
    # ------------------------------------------------------------------
    def _query(self, basket, k: int, executor: KernelExecutor) -> BasketQueryResult:
        """Run match → score → rank for one basket on *executor*."""
        if k < 1:
            raise InvalidParameterError(f"k must be positive, got {k}")
        known = sorted(
            {
                pos
                for pos in (self._position.get(item) for item in basket)
                if pos is not None
            }
        )
        positions = np.asarray(known, dtype=np.int64)
        basket_words = pack_itemset_words(
            [self._arrays.universe[pos] for pos in known],
            self._position,
            self._arrays.antecedents.n_words,
        )
        matched = self._index.matching_rows(positions)
        recommendations = self._rank_scan(matched, basket_words, k, executor)
        return BasketQueryResult(
            recommendations=tuple(recommendations),
            matched_rules=int(matched.size),
            known_items=tuple(self._arrays.universe[pos] for pos in known),
        )

    def _novel_masks(
        self,
        rows: np.ndarray,
        basket_words: np.ndarray,
        executor: KernelExecutor,
    ) -> np.ndarray:
        """Packed novel-consequent masks (consequent minus basket) per row.

        The row-block shards are disjoint and concatenated in order, so
        the sharded result is byte-identical to the serial one.
        """
        consequents = self._arrays.consequents.words
        if executor.is_serial or rows.size < PARALLEL_MIN_ROWS:
            return consequents[rows] & ~basket_words
        spans = shard_spans(rows.size, executor.shard_size(rows.size, minimum=1024))

        def score_span(span: tuple[int, int]) -> np.ndarray:
            start, stop = span
            return consequents[rows[start:stop]] & ~basket_words

        blocks = executor.map(score_span, spans)
        return np.concatenate(blocks)

    def _rank_scan(
        self,
        matched: np.ndarray,
        basket_words: np.ndarray,
        k: int,
        executor: KernelExecutor,
    ) -> list[Recommendation]:
        """Score candidates best-first, collapse onto novel keys, take top k.

        Reorders *matched* by the precomputed global ranking key, then
        scores geometrically growing prefix chunks: each chunk's novel
        masks are computed, empties dropped, and the kept masks
        deduplicated (first occurrence in rank order = that consequent's
        best rule).  Once the scanned prefix holds at least *k* distinct
        masks the remaining candidates can only rank behind them, so the
        scan stops — in the common case the full matched set is never
        scored.  Answers are identical to scoring everything.
        """
        if matched.size == 0:
            return []
        rows_ranked = self._row_of_rank[np.sort(self._rank_of_row[matched])]
        n_words = self._arrays.consequents.n_words
        if n_words == 0:
            # Degenerate empty universe: every novel consequent is empty.
            return []
        void_dtype = np.dtype((np.void, n_words * 8))
        kept_masks: list[np.ndarray] = []
        kept_rows: list[np.ndarray] = []
        start, chunk = 0, max(64, 4 * k)
        while start < rows_ranked.size:
            stop = min(rows_ranked.size, start + chunk)
            rows_chunk = rows_ranked[start:stop]
            novel = self._novel_masks(rows_chunk, basket_words, executor)
            keep = novel.any(axis=1)
            if keep.any():
                kept_masks.append(novel[keep])
                kept_rows.append(rows_chunk[keep])
                masks = np.ascontiguousarray(np.concatenate(kept_masks))
                keys = masks.view(void_dtype).ravel()
                if np.unique(keys).size >= k:
                    break
            start, chunk = stop, chunk * 2
        if not kept_masks:
            return []
        masks = np.ascontiguousarray(np.concatenate(kept_masks))
        rows_kept = np.concatenate(kept_rows)
        keys = masks.view(void_dtype).ravel()
        # First occurrence per distinct mask in ranked order is that
        # consequent's best rule; the occurrence positions, ascending,
        # are already the final ranking.
        _, first = np.unique(keys, return_index=True)
        selected = np.sort(first)[:k]
        results = []
        for position in selected:
            row = int(rows_kept[position])
            count = int(self._arrays.support_count[row])
            results.append(
                Recommendation(
                    items=self._items_from_words(masks[position]),
                    confidence=float(self._arrays.confidence[row]),
                    support=float(self._arrays.support[row]),
                    support_count=None if count < 0 else count,
                    antecedent=tuple(
                        self._arrays.universe[i]
                        for i in self._arrays.antecedents.row_indices(row)
                    ),
                    consequent=tuple(
                        self._arrays.universe[i]
                        for i in self._arrays.consequents.row_indices(row)
                    ),
                    rule_row=row,
                )
            )
        return results

    def _items_from_words(self, words: np.ndarray) -> tuple:
        """Decode one packed mask row to its items, canonical order."""
        universe = self._arrays.universe
        items = []
        for word_index, word in enumerate(words):
            value = int(word)
            while value:
                bit = value & -value
                items.append(universe[(word_index << 6) + bit.bit_length() - 1])
                value ^= bit
        return tuple(items)


def recommend_reference(arrays: RuleArrays, basket, k: int = 5) -> BasketQueryResult:
    """The slow object-level oracle of :meth:`Recommender.query`.

    Materialises every row of *arrays* as an
    :class:`~repro.core.rules.AssociationRule` and applies the module's
    match/score/rank semantics with plain Python sets — no index, no
    packing, no vectorisation.  ``Recommender(arrays).query(basket, k)``
    must return exactly this (the caller passes the recommender's own
    canonically sorted ``arrays`` so row-number tie-breaks line up).

    Parameters
    ----------
    arrays : RuleArrays
        Rule collection in the row order that defines tie-breaking.
    basket : iterable
        The partial basket's items.
    k : int
        Maximum number of distinct consequents to return.

    Returns
    -------
    BasketQueryResult
        Identical envelope to the vectorized engine.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be positive, got {k}")
    position = {item: pos for pos, item in enumerate(arrays.universe)}
    known = {item for item in basket if item in position}
    matched = 0
    best: dict[frozenset, tuple] = {}
    for row, rule in enumerate(arrays.iter_rules()):
        if not set(rule.antecedent) <= known:
            continue
        matched += 1
        novel = frozenset(rule.consequent) - known
        if not novel:
            continue
        candidate = (-rule.confidence, -rule.support, row)
        current = best.get(novel)
        if current is None or candidate < current[0]:
            best[novel] = (candidate, row, rule)
    ranked = sorted(best.items(), key=lambda entry: entry[1][0])[:k]
    recommendations = tuple(
        Recommendation(
            items=tuple(sorted(novel, key=position.__getitem__)),
            confidence=rule.confidence,
            support=rule.support,
            support_count=rule.support_count,
            antecedent=tuple(sorted(rule.antecedent, key=position.__getitem__)),
            consequent=tuple(sorted(rule.consequent, key=position.__getitem__)),
            rule_row=row,
        )
        for novel, (_, row, rule) in ranked
    )
    return BasketQueryResult(
        recommendations=recommendations,
        matched_rules=matched,
        known_items=tuple(sorted(known, key=position.__getitem__)),
    )
