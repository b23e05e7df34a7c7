"""Tests for the columnar rule store and the lazy array-backed RuleSet.

Three layers of guarantees:

* :class:`RuleArrays` round-trips rule objects exactly (including
  ``support_count=None`` and empty antecedents) and its vectorised
  dedup / sort / filter / concat / set operations agree with the object
  implementations — also at the 63/64/65-item word-boundary widths;
* an array-backed :class:`RuleSet` answers sizes, filters, statistics
  and set operations without materialising a single rule object, and
  materialises into exactly the same rules when iterated;
* the array-native basis constructions equal the kept object-pipeline
  oracles (``tests/oracles.py``) rule-for-rule and statistic-for-
  statistic on toy, random and rule-dense contexts.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.metrics import summarize_rules
from repro.core.bitmatrix import BitMatrix
from repro.core.informative import GenericBasis, InformativeBasis
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice
from repro.core.luxenburger import LuxenburgerBasis
from repro.core.rulearrays import (
    RuleArrays,
    _reversed_bit_rows,
    mask_to_itemset,
    pack_itemsets_into,
)
from repro.core.rules import AssociationRule, RuleSet
from repro.data.synthetic import make_rule_dense_family
from repro.errors import InvalidParameterError

from conftest import rule_arrays_cases
from oracles import (
    canonical_order_reference,
    dg_rules_reference,
    generic_rules_reference,
    informative_rules_reference,
    luxenburger_rules_reference,
    reversed_bit_rows_reference,
)


def make_rule(antecedent, consequent, support=0.4, confidence=0.8, count=None):
    return AssociationRule(
        Itemset(antecedent),
        Itemset(consequent),
        support=support,
        confidence=confidence,
        support_count=count,
    )


def random_rules(seed: int, n_rules: int, n_items: int) -> list[AssociationRule]:
    """Seeded random rules over an integer-item universe (duplicates kept)."""
    rng = random.Random(seed)
    rules = []
    items = list(range(n_items))
    while len(rules) < n_rules:
        body = rng.sample(items, rng.randint(2, min(n_items, 8)))
        split = rng.randint(1, len(body) - 1)
        antecedent = body[:split] if rng.random() < 0.9 else []
        consequent = body[split:]
        rules.append(
            make_rule(
                antecedent,
                consequent,
                support=rng.randint(1, 10) / 10,
                confidence=rng.randint(1, 10) / 10,
                count=rng.choice([None, rng.randint(1, 50)]),
            )
        )
    return rules


class TestRoundTrip:
    def test_exact_round_trip_with_none_counts_and_empty_antecedent(self):
        rules = [
            make_rule("a", "bc", 0.4, 2 / 3, count=2),
            make_rule("", "x", 1.0, 1.0, count=None),
            make_rule("b", "c", 0.2, 0.5, count=1),
        ]
        arrays = RuleArrays.from_rules(rules)
        back = list(arrays.iter_rules())
        assert len(back) == len(rules)
        for original, rebuilt in zip(rules, back):
            assert original.same_statistics(rebuilt)
            assert original.support_count == rebuilt.support_count

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_round_trip(self, seed):
        rules = random_rules(seed, 60, 12)
        lazy = RuleSet.from_arrays(RuleArrays.from_rules(rules))
        assert lazy.same_rules_and_statistics(RuleSet(rules))

    @pytest.mark.parametrize("n_items", [63, 64, 65, 127, 129])
    def test_word_boundary_widths(self, n_items):
        """Antecedents spanning exactly / just past uint64 word boundaries."""
        universe = list(range(n_items))
        rules = [
            # Full-width antecedent minus the last item.
            make_rule(universe[:-1], universe[-1:], 0.5, 0.5, count=3),
            # Antecedent holding only the last (highest-bit) item.
            make_rule(universe[-1:], universe[:1], 0.5, 0.5),
            # A straddling split around the first word boundary.
            make_rule(universe[:33], universe[33:], 0.25, 0.75, count=1),
        ]
        arrays = RuleArrays.from_rules(rules, universe=universe)
        assert arrays.antecedents.n_cols == n_items
        assert arrays.validate() == []
        assert RuleSet.from_arrays(arrays).same_rules_and_statistics(RuleSet(rules))
        # Canonical sort agrees with the object sort at every width.
        expected = [rule.key() for rule in RuleSet(rules).sorted_rules()]
        got = [rule.key() for rule in arrays.sorted_canonically().iter_rules()]
        assert got == expected


class TestVectorisedOps:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_dedup_first_wins_and_preserves_order(self, seed):
        rules = random_rules(seed, 40, 6)  # small universe forces duplicates
        arrays = RuleArrays.from_rules(rules).deduplicated()
        expected = list(RuleSet(rules))  # dict semantics: first wins
        assert [r.key() for r in arrays.iter_rules()] == [r.key() for r in expected]
        for mine, theirs in zip(arrays.iter_rules(), expected):
            assert mine.same_statistics(theirs)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_canonical_sort_matches_object_sort(self, seed):
        rules = list(RuleSet(random_rules(seed, 50, 10)))
        arrays = RuleArrays.from_rules(rules).sorted_canonically()
        expected = sorted(rules)
        assert [r.key() for r in arrays.iter_rules()] == [r.key() for r in expected]

    @pytest.mark.parametrize("seed", [7, 8])
    def test_filters_match_object_filters(self, seed):
        ruleset = RuleSet(random_rules(seed, 50, 10))
        arrays = ruleset.to_arrays()
        for minconf in (0.0, 0.5, 0.9, 1.0):
            expected = ruleset.filter(lambda r: r.confidence >= minconf - 1e-12)
            assert RuleSet.from_arrays(
                arrays.with_min_confidence(minconf)
            ).same_rules_and_statistics(expected)
        for minsup in (0.2, 0.7):
            expected = ruleset.filter(lambda r: r.support >= minsup - 1e-12)
            assert RuleSet.from_arrays(
                arrays.with_min_support(minsup)
            ).same_rules_and_statistics(expected)
        assert arrays.count_exact() == sum(1 for r in ruleset if r.is_exact)
        assert arrays.count_approximate() == sum(
            1 for r in ruleset if r.is_approximate
        )

    def test_concat_and_set_operations(self):
        first = RuleArrays.from_rules(
            [make_rule("a", "b"), make_rule("a", "c", 0.3, 0.6)]
        )
        second = RuleArrays.from_rules(
            [make_rule("a", "c", 0.9, 0.9), make_rule("b", "c")]
        )
        assert len(first.concat(second)) == 4
        union = first.union(second)
        assert len(union) == 3
        # self's statistics win on the duplicate key.
        kept = {r.key(): r for r in union.iter_rules()}
        assert kept[(Itemset("a"), Itemset("c"))].support == pytest.approx(0.3)
        difference = first.difference(second)
        assert [r.key() for r in difference.iter_rules()] == [
            (Itemset("a"), Itemset("b"))
        ]
        intersection = first.intersection(second)
        assert [r.key() for r in intersection.iter_rules()] == [
            (Itemset("a"), Itemset("c"))
        ]
        assert intersection.support[0] == pytest.approx(0.3)

    def test_set_operations_align_different_universes(self):
        first = RuleArrays.from_rules([make_rule("a", "b")])
        second = RuleArrays.from_rules([make_rule("a", "b"), make_rule("x", "y")])
        assert first.universe != second.universe
        assert len(second.difference(first)) == 1
        assert len(first.union(second)) == 2
        assert len(first.intersection(second)) == 1

    def test_project_to_rejects_missing_items(self):
        arrays = RuleArrays.from_rules([make_rule("a", "b")])
        with pytest.raises(InvalidParameterError):
            arrays.project_to(("a",))

    def test_validate_flags_malformed_rows(self):
        universe = ("a", "b")
        overlapping = RuleArrays(
            pack_itemsets_into([Itemset("ab")], universe),
            pack_itemsets_into([Itemset("b")], universe),
            universe,
            np.array([0.5]),
            np.array([0.5]),
        )
        assert any("overlap" in problem for problem in overlapping.validate())
        empty_consequent = RuleArrays(
            pack_itemsets_into([Itemset("a")], universe),
            pack_itemsets_into([Itemset()], universe),
            universe,
            np.array([0.5]),
            np.array([0.5]),
        )
        assert any("empty" in problem for problem in empty_consequent.validate())

    def test_validate_flags_out_of_contract_values(self):
        universe = ("a", "b")
        base = dict(
            antecedents=pack_itemsets_into([Itemset("a")], universe),
            consequents=pack_itemsets_into([Itemset("b")], universe),
            universe=universe,
            support=np.array([0.5]),
            confidence=np.array([0.5]),
            support_count=np.array([3]),
        )
        assert RuleArrays(**base).validate() == []
        padded = base["antecedents"].words.copy()
        padded[0, 0] |= np.uint64(1) << np.uint64(63)
        cases = {
            "antecedents": dict(antecedents=BitMatrix(padded, 2)),
            "support": dict(support=np.array([np.nan])),
            "confidence": dict(confidence=np.array([0.0])),
            "support_count": dict(support_count=np.array([-2])),
        }
        for column, change in cases.items():
            (problem,) = RuleArrays(**{**base, **change}).validate()
            assert problem.startswith(f"{column}: row 0:")

    def test_mask_to_itemset(self):
        universe = ("a", "b", "c")
        matrix = pack_itemsets_into([Itemset("ac")], universe)
        assert mask_to_itemset(matrix, 0, universe) == Itemset("ac")


class TestLazyRuleSet:
    def test_counting_and_filtering_never_materialises(self):
        arrays = RuleArrays.from_rules(random_rules(9, 30, 10))
        ruleset = RuleSet.from_arrays(arrays)
        assert not ruleset.is_materialized()
        assert len(ruleset) == len(arrays.deduplicated())
        assert bool(ruleset)
        exact = ruleset.exact_rules()
        approx = ruleset.approximate_rules()
        assert len(exact) + len(approx) == len(ruleset)
        ruleset.with_min_confidence(0.5)
        ruleset.with_min_support(0.5)
        ruleset.count_exact(), ruleset.average_confidence(), ruleset.average_support()
        assert not ruleset.is_materialized()
        assert not exact.is_materialized()

    def test_array_set_operations_stay_lazy(self):
        first = RuleSet.from_arrays(RuleArrays.from_rules(random_rules(10, 20, 8)))
        second = RuleSet.from_arrays(RuleArrays.from_rules(random_rules(11, 20, 8)))
        union = first.union(second)
        difference = first.difference(second)
        intersection = first.intersection(second)
        assert not any(
            s.is_materialized() for s in (first, second, union, difference, intersection)
        )
        assert len(difference) + len(intersection) == len(first)
        assert len(union) == len(second) + len(difference)

    def test_statistics_match_object_path(self):
        rules = random_rules(12, 40, 10)
        lazy = RuleSet.from_arrays(RuleArrays.from_rules(rules))
        eager = RuleSet(rules)
        assert lazy.average_confidence() == pytest.approx(eager.average_confidence())
        assert lazy.average_support() == pytest.approx(eager.average_support())
        assert lazy.count_exact() == eager.count_exact()
        assert lazy.count_approximate() == eager.count_approximate()
        summary = summarize_rules(lazy)
        assert summary["rules"] == len(eager)
        assert summary["exact_rules"] == eager.count_exact()
        assert summary["average_support"] == pytest.approx(eager.average_support())

    def test_mutation_materialises_and_drops_stale_columns(self):
        arrays = RuleArrays.from_rules([make_rule("a", "b")])
        ruleset = RuleSet.from_arrays(arrays)
        assert ruleset.add(make_rule("a", "c"))
        assert ruleset.is_materialized()
        assert len(ruleset) == 2
        # to_arrays after mutation re-packs and reflects the new rule.
        assert len(ruleset.to_arrays()) == 2
        assert ruleset.discard(make_rule("a", "b"))
        assert len(ruleset.to_arrays()) == 1

    def test_to_arrays_is_cached_on_array_backed_sets(self):
        arrays = RuleArrays.from_rules([make_rule("a", "b")])
        ruleset = RuleSet.from_arrays(arrays)
        assert ruleset.to_arrays() is ruleset.to_arrays()


class TestBasisOracleEquivalence:
    """Array-native constructions equal the kept object pipelines."""

    @staticmethod
    def contexts(toy_db):
        from repro import Apriori, Close
        from repro.core.generators import GeneratorFamily

        close = Close(0.4)
        closed = close.mine(toy_db)
        generators = GeneratorFamily(closed, close.generators_by_closure)
        frequent = Apriori(0.4).mine(toy_db)
        return frequent, closed, generators

    @pytest.mark.parametrize("minconf", [0.0, 0.5, 0.9])
    def test_luxenburger_matches_reference(self, toy_db, minconf):
        _, closed, _ = self.contexts(toy_db)
        for reduced in (False, True):
            basis = LuxenburgerBasis(closed, minconf, transitive_reduction=reduced)
            assert basis.rules.same_rules_and_statistics(
                RuleSet(luxenburger_rules_reference(basis.lattice, minconf, reduced))
            )

    @pytest.mark.parametrize("minconf", [0.0, 0.5])
    def test_informative_and_generic_match_reference(self, random_db, minconf):
        from repro import Close
        from repro.core.generators import GeneratorFamily

        close = Close(0.2)
        closed = close.mine(random_db)
        generators = GeneratorFamily(closed, close.generators_by_closure)
        generic = GenericBasis(generators)
        assert generic.rules.same_rules_and_statistics(
            RuleSet(generic_rules_reference(generators))
        )
        for reduced in (False, True):
            basis = InformativeBasis(generators, minconf, reduced=reduced)
            assert basis.rules.same_rules_and_statistics(
                RuleSet(
                    informative_rules_reference(
                        generators, basis.lattice, minconf, reduced
                    )
                )
            )

    def test_dg_matches_reference(self, random_db):
        from repro import Apriori, Close
        from repro.core.dg_basis import build_duquenne_guigues_basis

        frequent = Apriori(0.2).mine(random_db)
        closed = Close(0.2).mine(random_db)
        basis = build_duquenne_guigues_basis(frequent, closed)
        assert basis.rules.same_rules_and_statistics(
            RuleSet(dg_rules_reference(basis.pseudo_closed_itemsets, basis.n_objects))
        )

    def test_rule_dense_context_matches_references(self):
        closed, generators = make_rule_dense_family(25, 2)
        lattice = IcebergLattice(closed)
        for basis, reference in (
            (
                LuxenburgerBasis(closed, 0.0, transitive_reduction=False, lattice=lattice),
                luxenburger_rules_reference(lattice, 0.0, reduced=False),
            ),
            (
                LuxenburgerBasis(closed, 0.3, transitive_reduction=True, lattice=lattice),
                luxenburger_rules_reference(lattice, 0.3, reduced=True),
            ),
            (
                InformativeBasis(generators, 0.0, reduced=False, lattice=lattice),
                informative_rules_reference(generators, lattice, 0.0, reduced=False),
            ),
            (
                InformativeBasis(generators, 0.2, reduced=True, lattice=lattice),
                informative_rules_reference(generators, lattice, 0.2, reduced=True),
            ),
            (GenericBasis(generators), generic_rules_reference(generators)),
        ):
            assert not basis.rules.is_materialized()
            assert basis.rules.same_rules_and_statistics(RuleSet(reference))


# ----------------------------------------------------------------------
# Hypothesis: the byte-table canonical sort == the unpacked reference
# ----------------------------------------------------------------------
@given(arrays=rule_arrays_cases())
@settings(deadline=None, max_examples=120)
def test_property_canonical_order_equals_reference(arrays):
    for matrix in (arrays.antecedents, arrays.consequents):
        reversed_rows = _reversed_bit_rows(matrix)
        expected = reversed_bit_rows_reference(matrix)
        assert reversed_rows.dtype == expected.dtype
        assert np.array_equal(reversed_rows, expected)
    assert np.array_equal(arrays.canonical_order(), canonical_order_reference(arrays))
