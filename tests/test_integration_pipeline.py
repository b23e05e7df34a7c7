"""End-to-end integration tests on realistic (smoke-scale) datasets.

These tests run the complete pipeline — dataset generation, mining with
all four algorithms, basis construction, rule derivation and reporting —
exactly the way the benchmark harness does, and check the paper's
qualitative claims hold on data with the right structure.
"""

from __future__ import annotations

import pytest

from repro import (
    AClose,
    Apriori,
    BasisDerivation,
    Charm,
    Close,
    LuxenburgerBasis,
    build_duquenne_guigues_basis,
)
from repro.algorithms.rule_generation import generate_all_rules
from repro.core.generators import GeneratorFamily
from repro.core.informative import GenericBasis
from repro.experiments.harness import build_rule_artifacts, mine_itemsets

from oracles import generator_violations


class TestDensePipeline:
    MINSUP = 0.25
    MINCONF = 0.7

    @pytest.fixture(scope="class")
    def artifacts(self, dense_smoke_db):
        mining = mine_itemsets(dense_smoke_db, self.MINSUP)
        return mining, build_rule_artifacts(mining, minconf=self.MINCONF)

    def test_all_miners_agree(self, dense_smoke_db):
        reference = Close(self.MINSUP).mine(dense_smoke_db).to_dict()
        assert AClose(self.MINSUP).mine(dense_smoke_db).to_dict() == reference
        assert Charm(self.MINSUP).mine(dense_smoke_db).to_dict() == reference

    def test_closed_much_smaller_than_frequent(self, artifacts):
        mining, _ = artifacts
        assert len(mining.closed) * 2 < len(mining.frequent)

    def test_bases_much_smaller_than_all_rules(self, artifacts):
        _, rule_artifacts = artifacts
        report = rule_artifacts.report
        assert report.all_rules > 5 * report.bases_total
        assert report.exact_reduction_factor > 2.0

    def test_rules_derived_from_bases_match_naive_generation(
        self, dense_smoke_db, artifacts
    ):
        mining, rule_artifacts = artifacts
        derivation = BasisDerivation(
            rule_artifacts.dg_basis,
            rule_artifacts.luxenburger_reduced,
            n_objects=dense_smoke_db.n_objects,
        )
        naive = generate_all_rules(mining.frequent, minconf=self.MINCONF)
        derived = derivation.derive_all_rules(mining.frequent, self.MINCONF)
        assert naive.same_rules_and_statistics(derived)

    def test_generic_basis_also_covers_every_closure(self, dense_smoke_db):
        miner = Close(self.MINSUP)
        closed = miner.mine(dense_smoke_db)
        generators = GeneratorFamily(closed, miner.generators_by_closure)
        assert generator_violations(generators, dense_smoke_db) == []
        generic = GenericBasis(generators)
        # Every non-trivially-generated closed itemset appears as the union
        # of a generic rule's sides.
        covered = {rule.antecedent.union(rule.consequent) for rule in generic}
        expected = {
            closure
            for closure in generators.closed_itemsets()
            if generators.proper_generators_of(closure)
        }
        assert covered == expected


class TestSparsePipeline:
    MINSUP = 0.04
    MINCONF = 0.5

    def test_closed_roughly_equals_frequent(self, sparse_smoke_db):
        frequent = Apriori(self.MINSUP).mine(sparse_smoke_db)
        closed = Close(self.MINSUP).mine(sparse_smoke_db)
        assert len(frequent) > 0
        # Weak correlation: the gap between frequent and closed itemsets
        # stays small (no order-of-magnitude blow-up as on dense data).
        assert len(frequent) <= 3 * len(closed)

    def test_round_trip_still_holds(self, sparse_smoke_db):
        mining = mine_itemsets(sparse_smoke_db, self.MINSUP)
        frequent, closed = mining.frequent, mining.closed
        dg = build_duquenne_guigues_basis(frequent, closed)
        lux = LuxenburgerBasis(closed, minconf=self.MINCONF)
        derivation = BasisDerivation(dg, lux, n_objects=sparse_smoke_db.n_objects)
        naive = generate_all_rules(frequent, minconf=self.MINCONF)
        derived = derivation.derive_all_rules(frequent, self.MINCONF)
        assert naive.same_rules_and_statistics(derived)

    def test_bases_still_no_larger_than_all_rules(self, sparse_smoke_db):
        mining = mine_itemsets(sparse_smoke_db, self.MINSUP)
        artifacts = build_rule_artifacts(mining, minconf=self.MINCONF)
        report = artifacts.report
        assert report.bases_total <= max(report.all_rules, 1)
