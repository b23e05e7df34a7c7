"""Tests for the synthetic (Quest) and benchmark stand-in dataset generators."""

from __future__ import annotations

import pytest

from repro import Apriori, Close
from repro.data.benchmarks_data import (
    dense_benchmark_suite,
    make_c20d10k,
    make_c73d10k,
    make_categorical_dataset,
    make_census,
    make_mushroom,
)
from repro.data.synthetic import (
    QuestGenerator,
    make_quest_dataset,
    make_rule_dense_context,
    make_rule_dense_family,
    rule_dense_expected_counts,
)
from repro.errors import InvalidParameterError

from oracles import generator_violations


class TestQuestGenerator:
    def test_deterministic_given_seed(self):
        first = QuestGenerator(seed=42, n_items=50, n_patterns=10).generate(100)
        second = QuestGenerator(seed=42, n_items=50, n_patterns=10).generate(100)
        assert first.transactions() == second.transactions()

    def test_different_seeds_differ(self):
        first = QuestGenerator(seed=1, n_items=50, n_patterns=10).generate(100)
        second = QuestGenerator(seed=2, n_items=50, n_patterns=10).generate(100)
        assert first.transactions() != second.transactions()

    def test_shape_parameters_are_respected(self):
        db = QuestGenerator(
            n_items=60, n_patterns=15, avg_transaction_size=8.0, seed=9
        ).generate(300)
        assert db.n_objects == 300
        assert db.n_items <= 60
        assert 4.0 < db.avg_transaction_size < 14.0

    def test_default_name_encodes_parameters(self):
        generator = QuestGenerator(avg_transaction_size=10, avg_pattern_size=4, seed=1)
        assert generator.default_name(10_000) == "T10I4D10K"
        assert generator.default_name(2_500) == "T10I4D2500"

    def test_make_quest_dataset_helper(self):
        db = make_quest_dataset(
            avg_transaction_size=6,
            avg_pattern_size=3,
            n_transactions=120,
            n_items=40,
            n_patterns=10,
            seed=4,
        )
        assert db.n_objects == 120
        assert db.name == "T6I3D120"

    def test_every_transaction_is_non_empty(self):
        db = QuestGenerator(seed=5, n_items=30, n_patterns=8).generate(200)
        assert all(len(transaction) >= 1 for transaction in db)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            QuestGenerator(n_items=0)
        with pytest.raises(InvalidParameterError):
            QuestGenerator(correlation=1.5)
        with pytest.raises(InvalidParameterError):
            QuestGenerator(corruption_mean=1.0)
        with pytest.raises(InvalidParameterError):
            QuestGenerator().generate(0)

    def test_sparse_data_has_closed_close_to_frequent(self):
        """Weak correlation ⇒ closed ≈ frequent (the paper's sparse regime)."""
        db = make_quest_dataset(
            avg_transaction_size=6,
            avg_pattern_size=3,
            n_transactions=400,
            n_items=60,
            n_patterns=25,
            seed=11,
        )
        frequent = Apriori(0.03).mine(db)
        closed = Close(0.03).mine(db)
        assert len(frequent) > 0
        assert len(frequent) <= 1.3 * len(closed)


class TestCategoricalGenerators:
    def test_deterministic_given_seed(self):
        first = make_categorical_dataset(50, 5, 3, seed=7)
        second = make_categorical_dataset(50, 5, 3, seed=7)
        assert first.transactions() == second.transactions()

    def test_fixed_row_width(self):
        db = make_categorical_dataset(30, 6, 4, seed=1)
        assert all(len(row) == 6 for row in db)

    def test_constant_attribute_appears_everywhere(self):
        db = make_categorical_dataset(
            40, 5, 4, n_constant_attributes=1, seed=2
        )
        assert db.support_count(["a0=v0"]) == 40

    def test_deterministic_attributes_create_equal_supports(self):
        """Deterministic class attributes ⇒ frequent ≫ closed (dense regime)."""
        db = make_categorical_dataset(
            n_objects=150,
            n_attributes=6,
            values_per_attribute=4,
            n_latent_classes=3,
            class_fidelity=0.85,
            n_deterministic_attributes=3,
            n_constant_attributes=1,
            seed=13,
        )
        frequent = Apriori(0.3).mine(db)
        closed = Close(0.3).mine(db)
        assert len(frequent) > 2 * len(closed)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            make_categorical_dataset(0, 5, 3)
        with pytest.raises(InvalidParameterError):
            make_categorical_dataset(10, 5, 3, class_fidelity=1.5)
        with pytest.raises(InvalidParameterError):
            make_categorical_dataset(10, 5, 3, n_latent_classes=0)
        with pytest.raises(InvalidParameterError):
            make_categorical_dataset(
                10, 5, 3, n_deterministic_attributes=4, n_constant_attributes=2
            )

    def test_named_stand_ins(self):
        assert make_mushroom(n_objects=100, n_attributes=6).name == "MUSHROOM*"
        assert make_c20d10k(n_objects=100).name == "C20D10K*"
        assert make_c73d10k(n_objects=100).name == "C73D10K*"
        assert make_census(n_objects=50, n_attributes=5).name == "CENSUS*"

    def test_dense_suite_contains_three_datasets(self):
        suite = dense_benchmark_suite()
        assert [db.name for db in suite] == ["MUSHROOM*", "C20D10K*", "C73D10K*"]


class TestRuleDenseGenerator:
    """The clone-chain context and its analytic closed/generator families."""

    @pytest.mark.parametrize(("chain", "multiplicity"), [(6, 2), (10, 1), (8, 3)])
    def test_analytic_family_equals_mined_family(self, chain, multiplicity):
        from repro.core.generators import GeneratorFamily

        db = make_rule_dense_context(chain, multiplicity)
        close = Close(minsup=1e-9)
        mined_closed = close.mine(db)
        closed, generators = make_rule_dense_family(chain, multiplicity)
        assert mined_closed.to_dict() == closed.to_dict()
        mined = GeneratorFamily(mined_closed, close.generators_by_closure)
        assert mined.closed_itemsets() == generators.closed_itemsets()
        for member in generators.closed_itemsets():
            assert mined.generators_of(member) == generators.generators_of(member)
        assert generator_violations(generators, db) == []

    @pytest.mark.parametrize(("chain", "multiplicity"), [(12, 2), (7, 1)])
    def test_expected_counts_match_built_bases(self, chain, multiplicity):
        from repro.core.informative import GenericBasis, InformativeBasis
        from repro.core.lattice import IcebergLattice
        from repro.core.luxenburger import LuxenburgerBasis

        closed, generators = make_rule_dense_family(chain, multiplicity)
        expected = rule_dense_expected_counts(chain, multiplicity)
        assert len(closed) == expected["closed_itemsets"]
        lattice = IcebergLattice(closed)
        assert len(
            LuxenburgerBasis(closed, 0.0, transitive_reduction=False, lattice=lattice)
        ) == expected["luxenburger_full"]
        assert len(
            LuxenburgerBasis(closed, 0.0, transitive_reduction=True, lattice=lattice)
        ) == expected["luxenburger_reduced"]
        assert len(
            InformativeBasis(generators, 0.0, reduced=False, lattice=lattice)
        ) == expected["informative_full"]
        assert len(
            InformativeBasis(generators, 0.0, reduced=True, lattice=lattice)
        ) == expected["informative_reduced"]
        assert len(GenericBasis(generators)) == expected["generic"]

    def test_rule_volume_scales_into_the_e5_e6_band(self):
        # The documented knobs really reach the advertised rule volumes
        # (no bases built here — closed form only).
        default = rule_dense_expected_counts(250, 2)
        assert 9e4 < default["informative_full"] + default["luxenburger_full"] < 1e6
        large = rule_dense_expected_counts(1000, 2)
        assert 1e6 < large["informative_full"] + large["luxenburger_full"] < 2e6

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            make_rule_dense_context(1, 2)
        with pytest.raises(InvalidParameterError):
            make_rule_dense_context(5, 0)
        with pytest.raises(InvalidParameterError):
            make_rule_dense_family(0, 1)
