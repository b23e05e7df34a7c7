"""Reference constructions the shipped array-native code is checked against.

These are the classical per-rule object loops the library used before
its columnar emitters.  They live with the tests, not in the package:
slow and obviously correct, they exist only to be compared with.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.constants import EPSILON
from repro.core.families import ItemsetFamily
from repro.core.rules import AssociationRule, RuleSet


def _reference_rules(frequent: ItemsetFamily, keep: Callable[[float], bool]) -> RuleSet:
    """Every rule ``X → Z \\ X`` of the family whose confidence passes *keep*.

    One :class:`AssociationRule` per ``(Z, X)`` pair: ``Z`` in canonical
    order, ``X`` over ``Z``'s non-empty proper subsets in size order.
    """
    rules = RuleSet()
    n_objects = frequent.n_objects
    for itemset, count in frequent.items_with_supports():
        support = count / n_objects if n_objects else 0.0
        for antecedent in itemset.nonempty_proper_subsets():
            antecedent_count = frequent.get(antecedent)
            if not antecedent_count:
                continue  # cannot happen for a downward-closed family
            confidence = count / antecedent_count
            if keep(confidence):
                rules.add(
                    AssociationRule(
                        antecedent,
                        itemset.difference(antecedent),
                        support=support,
                        confidence=confidence,
                        support_count=count,
                    )
                )
    return rules


def all_rules_reference(frequent: ItemsetFamily, minconf: float) -> RuleSet:
    """Every valid rule with confidence at least *minconf*."""
    return _reference_rules(frequent, lambda confidence: confidence >= minconf - EPSILON)


def exact_rules_reference(frequent: ItemsetFamily) -> RuleSet:
    """Every confidence-1 rule."""
    return all_rules_reference(frequent, 1.0)


def approximate_rules_reference(frequent: ItemsetFamily, minconf: float) -> RuleSet:
    """Every rule with confidence in ``[minconf, 1)``."""
    return _reference_rules(
        frequent,
        lambda confidence: minconf - EPSILON <= confidence < 1.0 - EPSILON,
    )
