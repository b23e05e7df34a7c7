"""Frequent pseudo-closed itemsets (the antecedents of the Duquenne-Guigues basis).

Theorem 1 of the paper defines a *frequent pseudo-closed itemset* as a
frequent itemset ``P`` that is **not** closed and that **contains the
closure of every frequent pseudo-closed itemset strictly included in it**.
The Duquenne-Guigues basis for exact rules then contains exactly one rule
``P → h(P) \\ P`` per frequent pseudo-closed itemset ``P``.

The definition is recursive but well-founded (the condition only refers to
strictly smaller pseudo-closed sets), so the computation processes the
frequent itemsets in non-decreasing cardinality and maintains the list of
pseudo-closed sets discovered so far:

    for each frequent itemset ``I`` in size order:
        if ``I`` is closed: skip
        if for every already-found pseudo-closed ``P ⊂ I``: ``h(P) ⊆ I``:
            record ``I`` as pseudo-closed

The inner condition used to be an ``O(|frequent| · |found|)`` loop of
per-pair Python subset calls; it now runs against the packed
itemset/closure masks of the sets found so far, batched one cardinality
level at a time: only strictly smaller pseudo-closed sets can influence
a candidate, so within a level the comparison prefix is fixed and the
whole level is tested in a handful of word-wise compares (blocked so
the bool temporaries stay bounded).  The pre-vectorisation per-pair loop
is the oracle of the equivalence tests, in ``tests/oracles.py``.

The empty itemset needs explicit care: it is always frequent (support
``|O|``) and it is pseudo-closed exactly when it is not closed, i.e. when
some item belongs to every object.  Standard Apriori output does not list
the empty itemset, so the functions below always consider it first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from .families import ClosedItemsetFamily, ItemsetFamily
from .itemset import Itemset

__all__ = ["PseudoClosedItemset", "frequent_pseudo_closed_itemsets"]


@dataclass(frozen=True, order=True)
class PseudoClosedItemset:
    """A frequent pseudo-closed itemset together with its closure and support.

    Attributes
    ----------
    itemset:
        The pseudo-closed itemset ``P`` itself.
    closure:
        Its Galois closure ``h(P)`` (a frequent closed itemset, strictly
        larger than ``P`` since ``P`` is not closed).
    support_count:
        Absolute support of ``P`` — which equals the support of ``h(P)``,
        by the fundamental support-of-closure property.
    """

    itemset: Itemset
    closure: Itemset
    support_count: int

    def __post_init__(self) -> None:
        if not self.itemset.is_proper_subset(self.closure):
            raise InvalidParameterError(
                f"a pseudo-closed itemset must be strictly contained in its closure; "
                f"got {self.itemset} with closure {self.closure}"
            )


def _check_same_database(frequent: ItemsetFamily, closed: ClosedItemsetFamily) -> None:
    if frequent.n_objects != closed.n_objects:
        raise InvalidParameterError(
            "the frequent and closed families refer to different databases "
            f"({frequent.n_objects} vs {closed.n_objects} objects)"
        )


#: Bound (in matrix cells) on the candidate x found bool temporaries of
#: the level-batched violation pass.
_LEVEL_BLOCK_CELLS = 1 << 22


class _FoundMasks:
    """Growing packed-mask store of the pseudo-closed sets found so far.

    Keeps two aligned uint64 blocks — the itemsets ``P`` and their
    closures ``h(P)`` — with capacity doubling, so a whole cardinality
    level of candidates is tested in one vectorised pass over the live
    prefix.
    """

    def __init__(self, n_words: int) -> None:
        self._n_words = n_words
        self._itemsets = np.zeros((8, n_words), dtype=np.uint64)
        self._closures = np.zeros((8, n_words), dtype=np.uint64)
        self.count = 0

    def append(self, itemset_words: np.ndarray, closure_words: np.ndarray) -> None:
        if self.count == len(self._itemsets):
            grown = max(16, 2 * len(self._itemsets))
            for name in ("_itemsets", "_closures"):
                block = np.zeros((grown, self._n_words), dtype=np.uint64)
                block[: self.count] = getattr(self, name)[: self.count]
                setattr(self, name, block)
        self._itemsets[self.count] = itemset_words
        self._closures[self.count] = closure_words
        self.count += 1

    def level_violations(self, candidate_words: np.ndarray, prefix: int) -> np.ndarray:
        """Per-candidate flag: some found ``P ⊂ candidate``, ``h(P) ⊄ candidate``.

        *candidate_words* holds one cardinality level of packed candidate
        rows; *prefix* restricts the test to the strictly-smaller found
        entries (so the subset test needs no properness check).  The
        whole level is answered with word-wise compares against the
        prefix, in row blocks bounded by :data:`_LEVEL_BLOCK_CELLS`.
        """
        n_candidates = len(candidate_words)
        out = np.zeros(n_candidates, dtype=bool)
        if not prefix or not n_candidates:
            return out
        itemsets = self._itemsets[:prefix]
        closures = self._closures[:prefix]
        block = max(1, _LEVEL_BLOCK_CELLS // max(1, prefix))
        for start in range(0, n_candidates, block):
            rows = candidate_words[start : start + block]
            contained = np.ones((len(rows), prefix), dtype=bool)
            closure_ok = np.ones((len(rows), prefix), dtype=bool)
            for word in range(self._n_words):
                column = rows[:, word][:, None]
                contained &= (column & itemsets[None, :, word]) == itemsets[
                    None, :, word
                ]
                closure_ok &= (column & closures[None, :, word]) == closures[
                    None, :, word
                ]
            out[start : start + len(rows)] = np.any(contained & ~closure_ok, axis=1)
        return out


def frequent_pseudo_closed_itemsets(
    frequent: ItemsetFamily,
    closed: ClosedItemsetFamily,
) -> list[PseudoClosedItemset]:
    """Compute the frequent pseudo-closed itemsets of a mined context.

    Parameters
    ----------
    frequent:
        Every frequent itemset with its support (Apriori output).  The
        family must be downward closed and mined at the same threshold as
        *closed*; the empty itemset may be omitted (it is handled
        explicitly).
    closed:
        The frequent closed itemsets (Close / A-Close / CHARM output), used
        both to test closedness and to obtain closures.

    Returns
    -------
    list[PseudoClosedItemset]
        The pseudo-closed itemsets in canonical (size, lexicographic)
        order, each with its closure and support.

    Notes
    -----
    The number of returned itemsets equals the number of rules of the
    Duquenne-Guigues basis — the minimum possible number of exact rules,
    by the classical result of Guigues & Duquenne (1986).
    """
    from .rulearrays import pack_itemset_words, pack_itemsets_into, sorted_universe

    _check_same_database(frequent, closed)

    candidates = frequent.itemsets()  # canonical: non-decreasing cardinality
    bottom = closed.bottom_closure()
    universe = sorted_universe(
        [item for candidate in candidates for item in candidate]
        + [item for member in closed for item in member]
        + list(bottom)
    )
    item_position = {item: position for position, item in enumerate(universe)}
    candidate_matrix = pack_itemsets_into(candidates, universe)
    n_words = candidate_matrix.n_words

    found_masks = _FoundMasks(n_words)
    found: list[PseudoClosedItemset] = []

    def record(
        candidate: Itemset,
        closure: Itemset,
        support_count: int,
        candidate_words: np.ndarray,
    ) -> None:
        found.append(
            PseudoClosedItemset(
                itemset=candidate, closure=closure, support_count=support_count
            )
        )
        found_masks.append(
            candidate_words, pack_itemset_words(closure, item_position, n_words)
        )

    # The empty itemset first: frequent by definition, pseudo-closed iff
    # not closed (iff h(∅) is non-empty).
    if bottom:
        record(
            Itemset.empty(),
            bottom,
            frequent.n_objects,
            np.zeros(n_words, dtype=np.uint64),
        )

    sizes = np.array([len(candidate) for candidate in candidates], dtype=np.int64)
    start = 0
    n_candidates = len(candidates)
    while start < n_candidates:
        # One whole cardinality level at a time: only strictly smaller
        # pseudo-closed sets constrain a candidate, so the comparison
        # prefix is fixed across the level and the inner condition
        # vectorises over all of its candidates at once.
        stop = int(np.searchsorted(sizes, sizes[start], side="right"))
        prefix = found_masks.count
        violations = found_masks.level_violations(
            candidate_matrix.words[start:stop], prefix
        )
        for position in range(start, stop):
            candidate = candidates[position]
            if not candidate:
                continue  # already handled explicitly
            # Closedness test first: membership in the closed family is
            # O(1), whereas looking up the closure probes the packed
            # index — only pay that cost for the (few) itemsets that
            # turn out to be pseudo-closed.
            if candidate in closed:
                continue
            if violations[position - start]:
                continue
            closure = closed.closure_of(candidate)
            if closure is None:
                # Not covered by any frequent closed itemset: the candidate
                # is not frequent at the closed family's threshold — skip it
                # (this only happens when the two families were mined at
                # slightly different thresholds; the guard keeps the basis
                # sound).
                continue
            if closure == candidate:
                continue
            record(
                candidate,
                closure,
                frequent.support_count(candidate),
                candidate_matrix.words[position],
            )
        start = stop

    return sorted(found, key=lambda p: p.itemset)
