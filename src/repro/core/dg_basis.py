"""The Duquenne-Guigues basis for exact association rules (Theorem 1).

The Duquenne-Guigues basis (Guigues & Duquenne, 1986), adapted to frequent
itemsets by the paper, is the set of rules

    ``P → h(P) \\ P``   for every frequent pseudo-closed itemset ``P``,

each with confidence 1 and support equal to the support of ``h(P)``.  It
is a *minimum-size* generating set for the exact association rules: every
exact rule between frequent itemsets can be deduced from it (see
:mod:`repro.core.derivation`), and no strictly smaller set of exact rules
has that property.

The basis is represented by :class:`DuquenneGuiguesBasis`, which keeps the
underlying pseudo-closed structure around so that derivation and the
experiment reports can use it directly.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import InvalidParameterError
from .families import ClosedItemsetFamily, ItemsetFamily
from .itemset import Itemset
from .pseudo_closed import PseudoClosedItemset, frequent_pseudo_closed_itemsets
from .rulearrays import RowPairs, RuleArrays, sorted_universe
from .rules import AssociationRule, RuleSet

__all__ = ["DuquenneGuiguesBasis", "build_duquenne_guigues_basis"]


class DuquenneGuiguesBasis:
    """The Duquenne-Guigues basis of exact rules of a mined context.

    Parameters
    ----------
    pseudo_closed:
        The frequent pseudo-closed itemsets with their closures and
        supports (one rule per entry).
    frequent, closed:
        The families the pseudo-closed sets and their closures were
        taken from; every record must be a member (``∅`` aside, which is
        antecedent row ``-1``).  Rule supports are relative to
        ``frequent.n_objects``.

    Attributes
    ----------
    row_pairs:
        The rules as frequent rows and closed rows
        (:class:`~repro.core.rulearrays.RowPairs`).
    """

    def __init__(
        self,
        pseudo_closed: list[PseudoClosedItemset],
        frequent: ItemsetFamily,
        closed: ClosedItemsetFamily,
    ) -> None:
        self._pseudo_closed = sorted(pseudo_closed, key=lambda p: p.itemset)
        self._n_objects = frequent.n_objects
        self._rules = RuleSet.from_arrays(self._build_arrays(frequent, closed))

    def _build_arrays(
        self, frequent: ItemsetFamily, closed: ClosedItemsetFamily
    ) -> RuleArrays:
        """One rule ``P → h(P) \\ P`` per pseudo-closed record, as row pairs."""
        entries = self._pseudo_closed
        x_rows = frequent.packed().rows_of(entry.itemset for entry in entries)
        z_rows = closed.packed().rows_of(entry.closure for entry in entries)
        # Row -1 is only the ∅ marker: every other P and every h(P) must
        # be a member.
        nonempty = np.array([len(entry.itemset) > 0 for entry in entries], dtype=bool)
        absent = (z_rows < 0) | (nonempty & (x_rows < 0))
        if absent.any():
            entry = entries[int(np.argmax(absent))]
            raise InvalidParameterError(
                f"pseudo-closed {entry.itemset} or its closure {entry.closure} "
                "is not a member of the frequent or closed family"
            )
        self.row_pairs = RowPairs(frequent, x_rows, closed, z_rows)
        universe = sorted_universe(
            item for entry in entries for item in entry.closure
        )
        return RuleArrays.from_row_pairs(
            frequent.packed(),
            x_rows,
            closed.packed(),
            z_rows,
            universe,
            self._n_objects,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        """Number of objects of the originating database."""
        return self._n_objects

    @property
    def pseudo_closed_itemsets(self) -> list[PseudoClosedItemset]:
        """The pseudo-closed itemsets, one per rule, in canonical order."""
        return list(self._pseudo_closed)

    @property
    def rules(self) -> RuleSet:
        """The basis as a :class:`~repro.core.rules.RuleSet` of exact rules."""
        return self._rules

    @property
    def metadata(self) -> dict[str, object]:
        """Shape metadata for the reduction reports."""
        return {"pseudo_closed_itemsets": len(self._pseudo_closed)}

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[AssociationRule]:
        return iter(self._rules)

    def __repr__(self) -> str:
        return f"DuquenneGuiguesBasis({len(self._rules)} rules)"

    # ------------------------------------------------------------------
    # Semantic closure under the basis (Armstrong-style inference)
    # ------------------------------------------------------------------
    def implied_closure(self, itemset: Itemset) -> Itemset:
        """Return the closure of *itemset* under the basis' implications.

        Starting from *itemset*, repeatedly apply every rule whose
        antecedent is included in the current set by adding its consequent,
        until a fixpoint is reached.  For every frequent itemset this
        fixpoint equals the Galois closure ``h(itemset)`` — that equality
        is exactly what makes the basis a generating set for the exact
        rules, and it is verified by the property-based tests.
        """
        current = Itemset.coerce(itemset)
        changed = True
        while changed:
            changed = False
            for rule in self._rules:
                if rule.antecedent.issubset(current) and not rule.consequent.issubset(
                    current
                ):
                    current = current.union(rule.consequent)
                    changed = True
        return current

    def derives(self, antecedent: Itemset, consequent: Itemset) -> bool:
        """Return ``True`` if the exact rule ``antecedent → consequent`` follows.

        The rule is derivable iff the consequent is included in the
        implied closure of the antecedent.
        """
        return Itemset.coerce(consequent).issubset(
            self.implied_closure(Itemset.coerce(antecedent))
        )

    def is_non_redundant(self) -> bool:
        """Check that no rule of the basis is derivable from the others.

        This is the minimality property claimed by the paper ("minimal
        non-redundant sets of association rules"); it holds by construction
        for pseudo-closed antecedents and is re-verified here for tests.
        """
        for rule in self._rules:
            others = RuleSet(r for r in self._rules if r is not rule)
            reduced = DuquenneGuiguesBasis.__new__(DuquenneGuiguesBasis)
            reduced._pseudo_closed = []
            reduced._n_objects = self._n_objects
            reduced._rules = others
            if reduced.derives(rule.antecedent, rule.consequent):
                return False
        return True


def build_duquenne_guigues_basis(
    frequent: ItemsetFamily,
    closed: ClosedItemsetFamily,
) -> DuquenneGuiguesBasis:
    """Build the Duquenne-Guigues basis from mined itemset families.

    Parameters
    ----------
    frequent:
        All frequent itemsets with supports (Apriori output).
    closed:
        The frequent closed itemsets (Close / A-Close / CHARM output),
        mined at the same support threshold.

    Returns
    -------
    DuquenneGuiguesBasis
        One exact rule ``P → h(P) \\ P`` per frequent pseudo-closed
        itemset ``P``.
    """
    pseudo = frequent_pseudo_closed_itemsets(frequent, closed)
    return DuquenneGuiguesBasis(pseudo, frequent, closed)
