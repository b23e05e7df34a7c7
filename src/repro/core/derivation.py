"""Deriving all association rules from the two bases.

The central claim of the paper is that the Duquenne-Guigues basis and the
Luxenburger basis (or its transitive reduction) are *generating sets*:

* every exact association rule, with its support, can be deduced from the
  Duquenne-Guigues basis together with the frequent closed itemsets;
* every approximate association rule, with its support **and** its
  confidence, can be deduced from the Luxenburger basis (or its
  reduction).

:class:`BasisDerivation` implements that deduction.  It only uses the
two bases, the frequent closed itemsets with their supports and the
number of objects — what Theorems 1 and 2 assume; in particular it never
goes back to the transaction database, which is what makes the
round-trip tests in ``tests/test_derivation.py`` meaningful: rules
derived here must match, rule for rule and statistic for statistic, the
rules generated naively from the frequent itemsets.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import DerivationError, InvalidParameterError
from .constants import EPSILON
from .dg_basis import DuquenneGuiguesBasis
from .families import ItemsetFamily
from .itemset import Item, Itemset
from .luxenburger import LuxenburgerBasis
from .rules import AssociationRule, RuleSet

__all__ = ["BasisDerivation"]


class BasisDerivation:
    """Reconstructs arbitrary association rules from the two bases.

    Parameters
    ----------
    dg_basis:
        The Duquenne-Guigues basis of exact rules.  Its implications define
        the closure operator on frequent itemsets (``implied_closure``),
        which maps any frequent itemset to its frequent-closed closure.
    luxenburger:
        A Luxenburger basis built on the same closed family (reduced or
        full).  Its closed family carries the support of every frequent
        closed itemset, and its lattice the edge confidences used to
        reconstruct arbitrary confidences.
    n_objects:
        Number of objects of the context (to convert counts to relative
        supports).

    Notes
    -----
    The derivation needs the support of the *minimal* frequent closed
    itemset (the closure of the empty set).  When no item is in every
    object that closure is the empty itemset, which no family lists; its
    support is ``n_objects`` by definition.  Otherwise it is a member of
    the closed family like any other.  Neither case touches the database.
    """

    def __init__(
        self,
        dg_basis: DuquenneGuiguesBasis,
        luxenburger: LuxenburgerBasis,
        n_objects: int,
    ) -> None:
        if n_objects <= 0:
            raise InvalidParameterError("n_objects must be positive")
        self._dg = dg_basis
        self._lux = luxenburger
        self._n_objects = n_objects

    # ------------------------------------------------------------------
    # Primitive queries
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        """Number of objects of the context."""
        return self._n_objects

    def closure(self, itemset: Itemset | Iterable[Item]) -> Itemset:
        """Closure of a frequent itemset, computed from the exact basis only."""
        return self._dg.implied_closure(Itemset.coerce(itemset))

    def support_count_of_closed(self, closed: Itemset) -> int:
        """Absolute support of a frequent closed itemset.

        Read from the frequent closed family the Luxenburger basis was
        built on, which holds every support as an exact count: the
        paper's deduction framework assumes the frequent closed itemsets
        (the minimal generating set for all supports) alongside the
        bases.  The closure of the empty set is no member when it is the
        empty itemset; its support is then ``n_objects``.
        """
        count = self._lux.closed_family.get(closed)
        if count is not None:
            return count
        if not closed and not self.closure(closed):
            return self._n_objects
        raise DerivationError(
            f"the support of closed itemset {closed} is not recoverable from "
            "the bases; the itemset is probably not frequent at the mining "
            "threshold"
        )

    def support_count(self, itemset: Itemset | Iterable[Item]) -> int:
        """Absolute support of an arbitrary frequent itemset (via its closure)."""
        return self.support_count_of_closed(self.closure(itemset))

    def support(self, itemset: Itemset | Iterable[Item]) -> float:
        """Relative support of an arbitrary frequent itemset."""
        return self.support_count(itemset) / self._n_objects

    def confidence(
        self,
        antecedent: Itemset | Iterable[Item],
        consequent: Itemset | Iterable[Item],
    ) -> float:
        """Confidence of ``antecedent → consequent`` reconstructed from the bases.

        The confidence equals ``supp(h(X ∪ Y)) / supp(h(X))``.  When the two
        closures differ, that ratio is recovered as the product of the edge
        confidences along a lattice path of the Luxenburger basis, which is
        exactly the deduction mechanism described with Theorem 2.  The one
        closure no path can start from is ``h(∅) = ∅`` (no item is in every
        object), which is no lattice node; its support is ``n_objects``.
        """
        antecedent = Itemset.coerce(antecedent)
        consequent = Itemset.coerce(consequent)
        lower = self.closure(antecedent)
        upper = self.closure(antecedent.union(consequent))
        if lower == upper:
            return 1.0
        path_confidence = self._lux.path_confidence(lower, upper)
        if path_confidence is None and not lower:
            return self.support_count_of_closed(upper) / self._n_objects
        if path_confidence is None:
            raise DerivationError(
                f"no Luxenburger path between {lower} and {upper}; "
                "the rule is not derivable at this support threshold"
            )
        return path_confidence

    # ------------------------------------------------------------------
    # Rule derivation
    # ------------------------------------------------------------------
    def derive_rule(
        self,
        antecedent: Itemset | Iterable[Item],
        consequent: Itemset | Iterable[Item],
    ) -> AssociationRule:
        """Reconstruct the rule ``antecedent → consequent`` with its statistics.

        Parameters
        ----------
        antecedent : Itemset or iterable of items
            The rule body (may be empty).
        consequent : Itemset or iterable of items
            The rule head.

        Returns
        -------
        AssociationRule
            The candidate rule carrying the support, confidence and
            absolute support count reconstructed from the bases alone.

        Raises
        ------
        DerivationError
            When the rule is not derivable — its itemsets are not
            frequent at the mining threshold, or no Luxenburger path
            connects the two closures.
        """
        antecedent = Itemset.coerce(antecedent)
        consequent = Itemset.coerce(consequent)
        count = self.support_count(antecedent.union(consequent))
        return AssociationRule(
            antecedent=antecedent,
            consequent=consequent,
            support=count / self._n_objects,
            confidence=self.confidence(antecedent, consequent),
            support_count=count,
        )

    def derive_exact_rules(self, frequent: ItemsetFamily) -> RuleSet:
        """Derive every exact rule with non-empty sides among frequent itemsets.

        The *frequent* family is used only to enumerate candidate itemsets
        (which itemsets exist); the decision "is this rule exact?" and the
        rule supports come exclusively from the bases.
        """
        rules = RuleSet()
        for itemset in frequent.itemsets():
            if len(itemset) < 2:
                continue
            for antecedent in itemset.nonempty_proper_subsets():
                closure = self.closure(antecedent)
                if itemset.issubset(closure):
                    count = self.support_count_of_closed(closure)
                    rules.add(
                        AssociationRule(
                            antecedent=antecedent,
                            consequent=itemset.difference(antecedent),
                            support=count / self._n_objects,
                            confidence=1.0,
                            support_count=count,
                        )
                    )
        return rules

    def derive_approximate_rules(
        self, frequent: ItemsetFamily, minconf: float
    ) -> RuleSet:
        """Derive every approximate rule with confidence in ``[minconf, 1)``.

        As for :meth:`derive_exact_rules`, the frequent family only supplies
        the candidate itemsets; supports and confidences are reconstructed
        from the bases (closure via the Duquenne-Guigues implications,
        confidence via Luxenburger path products).
        """
        if not 0.0 <= minconf <= 1.0:
            raise InvalidParameterError(f"minconf must lie in [0, 1], got {minconf}")
        rules = RuleSet()
        for itemset in frequent.itemsets():
            if len(itemset) < 2:
                continue
            upper = self.closure(itemset)
            upper_count = self.support_count_of_closed(upper)
            for antecedent in itemset.nonempty_proper_subsets():
                lower = self.closure(antecedent)
                if itemset.issubset(lower):
                    continue  # exact rule, not approximate
                confidence = self._lux.path_confidence(lower, upper)
                if confidence is None:
                    raise DerivationError(
                        f"no Luxenburger path between {lower} and {upper}"
                    )
                if confidence >= minconf - EPSILON and confidence < 1.0 - EPSILON:
                    rules.add(
                        AssociationRule(
                            antecedent=antecedent,
                            consequent=itemset.difference(antecedent),
                            support=upper_count / self._n_objects,
                            confidence=confidence,
                            support_count=upper_count,
                        )
                    )
        return rules

    def derive_all_rules(self, frequent: ItemsetFamily, minconf: float) -> RuleSet:
        """Derive every rule (exact and approximate) above *minconf*."""
        combined = self.derive_exact_rules(frequent)
        combined.update(self.derive_approximate_rules(frequent, minconf))
        return combined
