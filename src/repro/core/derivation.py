"""Deriving all association rules from the two bases.

The central claim of the paper is that the Duquenne-Guigues basis and the
Luxenburger basis (or its transitive reduction) are *generating sets*:

* every exact association rule, with its support, can be deduced from the
  Duquenne-Guigues basis together with the frequent closed itemsets;
* every approximate association rule, with its support **and** its
  confidence, can be deduced from the Luxenburger basis (or its
  reduction).

:class:`BasisDerivation` implements that deduction.  It only uses
information carried by the bases themselves (rule sides, supports,
confidences) plus the number of objects; in particular it never goes back
to the transaction database, which is what makes the round-trip tests in
``tests/test_derivation.py`` meaningful: rules derived here must match,
rule for rule and statistic for statistic, the rules generated naively
from the frequent itemsets.
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
        full).  Its rules carry the supports of the closed itemsets and
        the edge confidences used to reconstruct arbitrary confidences.
    n_objects:
        Number of objects of the context (to convert counts to relative
        supports).

    Notes
    -----
    The derivation needs the support of the *minimal* frequent closed
    itemset (the closure of the empty set), which by definition never
    appears as the head of a Luxenburger rule when it has no predecessor.
    Its support is always ``n_objects`` when the closure of the empty set
    is the empty set; otherwise it equals the support carried by the
    Duquenne-Guigues rule ``∅ → h(∅)``.  Both cases are handled without
    touching the database.
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
        self._closed_supports = self._recover_closed_supports()

    # ------------------------------------------------------------------
    # Support recovery from the bases alone
    # ------------------------------------------------------------------
    def _recover_closed_supports(self) -> dict[Itemset, int]:
        """Recover the support of every frequent closed itemset from the bases."""
        supports: dict[Itemset, int] = {}

        # Every Luxenburger rule C1 → C2\C1 carries supp(C2) as its support
        # count, and supp(C1) = supp(C2) / confidence.
        for rule in self._lux.rules:
            head = rule.antecedent.union(rule.consequent)
            count = rule.support_count
            if count is None:
                count = round(rule.support * self._n_objects)
            supports[head] = int(count)
            antecedent_count = int(round(count / rule.confidence))
            supports.setdefault(rule.antecedent, antecedent_count)

        # Exact rules carry supp(h(P)) for their closures.
        for rule in self._dg.rules:
            closure = rule.antecedent.union(rule.consequent)
            count = rule.support_count
            if count is None:
                count = round(rule.support * self._n_objects)
            supports.setdefault(closure, int(count))

        # The closure of the empty set: if it is the empty itemset it never
        # appears above; its support is the whole database by definition.
        bottom = self.closure(Itemset.empty())
        supports.setdefault(bottom, self._n_objects)
        return supports

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

        The support is first looked up among the values carried by the basis
        rules themselves.  When the Luxenburger basis was built with a
        confidence filter, some closed itemsets may head no surviving rule;
        their support is then read from the frequent closed family attached
        to the basis — which is legitimate, since the paper's deduction
        framework always assumes the frequent closed itemsets (the minimal
        generating set for all supports) are available alongside the bases.
        """
        count = self._closed_supports.get(closed)
        if count is not None:
            return count
        family = self._lux.closed_family
        if closed in family:
            return family.support_count(closed)
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
            return self.support_count_of_closed(upper) / self._closed_supports[lower]
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
