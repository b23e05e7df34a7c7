"""Tests of the top-k recommendation engine (:mod:`repro.recommend`).

Every assertion ultimately runs against :func:`recommend_reference`, the
slow object-level oracle — the edge-case matrix (empty basket, unknown
items, oversized k, word-boundary universes, ties at the k boundary),
the nine registered bases on the Fig. 1 context, and a hypothesis
property over random rule collections with sharded workers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bases import registered_names
from repro.core.bitmatrix import BitMatrix
from repro.core.rulearrays import RuleArrays
from repro.data.context import TransactionDatabase
from repro.errors import InvalidParameterError
from repro.experiments.harness import (
    build_rule_artifacts,
    mine_itemsets,
    save_artifacts,
)
from repro.recommend import (
    AntecedentIndex,
    Recommender,
    recommend_reference,
)

from conftest import rule_arrays_cases
from oracles import antecedent_index_reference, rank_permutation_reference

FIG1_TRANSACTIONS = [
    ["a", "c", "d"],
    ["b", "c", "e"],
    ["a", "b", "c", "e"],
    ["b", "e"],
    ["a", "b", "c", "e"],
]


def make_arrays(universe, rules):
    """Pack ``(antecedent, consequent, support, confidence[, count])`` rows."""
    universe = tuple(universe)
    position = {item: index for index, item in enumerate(universe)}
    n = len(rules)
    antecedents = np.zeros((n, len(universe)), dtype=bool)
    consequents = np.zeros((n, len(universe)), dtype=bool)
    support = np.zeros(n, dtype=np.float64)
    confidence = np.zeros(n, dtype=np.float64)
    counts = np.full(n, -1, dtype=np.int64)
    for row, (antecedent, consequent, sup, conf, *rest) in enumerate(rules):
        for item in antecedent:
            antecedents[row, position[item]] = True
        for item in consequent:
            consequents[row, position[item]] = True
        support[row] = sup
        confidence[row] = conf
        if rest:
            counts[row] = rest[0]
    return RuleArrays(
        BitMatrix.from_dense(antecedents),
        BitMatrix.from_dense(consequents),
        universe,
        support,
        confidence,
        counts,
    )


def assert_matches_oracle(engine, basket, k):
    """The vectorized answer must equal the object oracle, field for field."""
    actual = engine.query(basket, k)
    expected = recommend_reference(engine.arrays, basket, k)
    assert actual == expected
    return actual


@pytest.fixture(scope="module")
def fig1_bases():
    """All nine registered bases of the Fig. 1 context, as columns."""
    db = TransactionDatabase(FIG1_TRANSACTIONS, name="fig1")
    mining = mine_itemsets(db, 0.4)
    artifacts = build_rule_artifacts(mining, minconf=0.5, bases=registered_names())
    return {name: built.rule_arrays for name, built in artifacts.bases.items()}


# ----------------------------------------------------------------------
# The inverted index
# ----------------------------------------------------------------------
class TestAntecedentIndex:
    def test_postings_layout(self):
        arrays = make_arrays(
            "abcd",
            [
                ({"a", "b"}, {"c"}, 0.5, 0.8),
                ({"b"}, {"d"}, 0.5, 0.9),
                (set(), {"a"}, 0.4, 0.6),
            ],
        ).sorted_canonically()
        index = AntecedentIndex(arrays)
        assert index.indptr.shape == (5,)
        assert index.indptr[-1] == index.postings.size == 3
        # Postings of one item are ascending row ids.
        for pos in range(4):
            slice_ = index.postings[index.indptr[pos] : index.indptr[pos + 1]]
            assert list(slice_) == sorted(slice_)
        assert index.always_rows.size == 1
        assert index.antecedent_sizes[index.always_rows[0]] == 0
        assert index.max_antecedent_size == 2

    def test_empty_collection(self):
        index = AntecedentIndex(RuleArrays.empty(("a", "b")))
        assert index.matching_rows(np.array([0, 1], dtype=np.int64)).size == 0
        assert index.matching_rows(np.array([], dtype=np.int64)).size == 0

    def test_matching_rows_subset_semantics(self):
        arrays = make_arrays(
            "abcde",
            [
                ({"a"}, {"b"}, 0.5, 0.8),
                ({"a", "b"}, {"c"}, 0.5, 0.8),
                ({"a", "b", "c"}, {"d"}, 0.5, 0.8),
                ({"e"}, {"a"}, 0.5, 0.8),
            ],
        )
        index = AntecedentIndex(arrays)
        rows = index.matching_rows(np.array([0, 1], dtype=np.int64))  # {a, b}
        contained = [
            row
            for row in range(len(arrays))
            if set(arrays.antecedents.row_indices(row)) <= {0, 1}
        ]
        assert list(rows) == contained


# ----------------------------------------------------------------------
# The edge-case matrix, all against the oracle
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_empty_basket_matches_only_empty_antecedents(self):
        engine = Recommender(
            make_arrays(
                "abc",
                [
                    (set(), {"a"}, 0.6, 0.6),
                    ({"a"}, {"b"}, 0.5, 0.9),
                ],
            )
        )
        result = assert_matches_oracle(engine, [], k=5)
        assert result.matched_rules == 1
        assert [rec.items for rec in result.recommendations] == [("a",)]

    def test_empty_basket_no_empty_antecedent_rules(self):
        engine = Recommender(make_arrays("abc", [({"a"}, {"b"}, 0.5, 0.9)]))
        result = assert_matches_oracle(engine, [], k=3)
        assert result.matched_rules == 0
        assert result.recommendations == ()

    def test_unknown_items_are_ignored(self):
        engine = Recommender(
            make_arrays(
                "abc",
                [({"a"}, {"b"}, 0.5, 0.9), ({"b"}, {"c"}, 0.4, 0.8)],
            )
        )
        result = assert_matches_oracle(engine, ["a", "zz", "yy"], k=5)
        assert result.known_items == ("a",)
        assert [rec.items for rec in result.recommendations] == [("b",)]
        # An all-unknown basket behaves like the empty basket.
        assert_matches_oracle(engine, ["zz"], k=5)

    def test_k_larger_than_match_count(self):
        engine = Recommender(
            make_arrays(
                "abcde",
                [
                    ({"a"}, {"b"}, 0.5, 0.9),
                    ({"a"}, {"c"}, 0.4, 0.8),
                ],
            )
        )
        result = assert_matches_oracle(engine, ["a"], k=50)
        assert len(result.recommendations) == 2

    def test_consequent_already_in_basket_is_dropped(self):
        engine = Recommender(
            make_arrays(
                "abc",
                [
                    ({"a"}, {"b"}, 0.5, 0.9),
                    ({"a"}, {"b", "c"}, 0.4, 0.8),
                ],
            )
        )
        result = assert_matches_oracle(engine, ["a", "b"], k=5)
        # Rule 0's consequent is fully in the basket; rule 1 recommends
        # only its novel part.
        assert result.matched_rules == 2
        assert [rec.items for rec in result.recommendations] == [("c",)]

    @pytest.mark.parametrize("n_items", [63, 64, 65])
    def test_word_boundary_universes(self, n_items):
        universe = tuple(f"i{j:03d}" for j in range(n_items))
        last, prev, first = universe[-1], universe[-2], universe[0]
        rules = [
            ({first}, {last}, 0.5, 0.9),
            ({last}, {first}, 0.5, 0.8),
            ({first, prev}, {last}, 0.4, 1.0),
            (set(), {prev}, 0.3, 0.3),
            ({universe[31]}, {universe[32], last}, 0.2, 0.7),
        ]
        engine = Recommender(make_arrays(universe, rules))
        for basket in ([], [first], [last], [first, prev], [universe[31], last]):
            for k in (1, 2, 10):
                assert_matches_oracle(engine, basket, k)

    def test_ties_at_the_k_boundary(self):
        # Three single-item consequents with identical confidence and
        # support: ranking falls through to the canonical row number.
        engine = Recommender(
            make_arrays(
                "abcde",
                [
                    ({"a"}, {"d"}, 0.5, 0.8),
                    ({"a"}, {"c"}, 0.5, 0.8),
                    ({"a"}, {"b"}, 0.5, 0.8),
                    ({"a"}, {"e"}, 0.5, 0.9),
                ],
            )
        )
        result = assert_matches_oracle(engine, ["a"], k=2)
        assert len(result.recommendations) == 2
        assert result.recommendations[0].items == ("e",)  # higher confidence
        # The second slot is decided by canonical row order among the
        # 0.8-confidence ties; re-building the engine must reproduce it.
        rebuilt = Recommender(engine.arrays, assume_canonical=True)
        assert rebuilt.query(["a"], 2) == result

    def test_same_consequent_collapses_onto_best_rule(self):
        engine = Recommender(
            make_arrays(
                "abc",
                [
                    ({"a"}, {"c"}, 0.3, 0.7),
                    ({"b"}, {"c"}, 0.6, 0.9),
                ],
            )
        )
        result = assert_matches_oracle(engine, ["a", "b"], k=5)
        assert len(result.recommendations) == 1
        assert result.recommendations[0].confidence == 0.9

    def test_support_breaks_confidence_ties(self):
        engine = Recommender(
            make_arrays(
                "abc",
                [
                    ({"a"}, {"b"}, 0.2, 0.8),
                    ({"a"}, {"c"}, 0.6, 0.8),
                ],
            )
        )
        result = assert_matches_oracle(engine, ["a"], k=1)
        assert result.recommendations[0].items == ("c",)
        assert result.recommendations[0].support == 0.6

    def test_k_must_be_positive(self):
        engine = Recommender(make_arrays("ab", [({"a"}, {"b"}, 0.5, 0.9)]))
        with pytest.raises(InvalidParameterError):
            engine.query(["a"], 0)
        with pytest.raises(InvalidParameterError):
            recommend_reference(engine.arrays, ["a"], 0)


# ----------------------------------------------------------------------
# Real bases: all nine registered constructions on Fig. 1
# ----------------------------------------------------------------------
BASKETS = ([], ["a"], ["b", "c"], ["a", "b", "c", "e"], ["zz"], ["c", "zz"])


@pytest.mark.parametrize("name", registered_names())
def test_registered_bases_match_oracle(fig1_bases, name):
    engine = Recommender(fig1_bases[name])
    for basket in BASKETS:
        for k in (1, 3, 10):
            assert_matches_oracle(engine, basket, k)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_workers_answer_identically(fig1_bases, workers):
    serial = Recommender(fig1_bases["all"], workers=1)
    sharded = Recommender(fig1_bases["all"], workers=workers)
    for basket in BASKETS:
        assert sharded.query(basket, 3) == serial.query(basket, 3)


@pytest.mark.parametrize("workers", [1, 3])
def test_recommend_many_equals_per_query(fig1_bases, workers):
    engine = Recommender(fig1_bases["all"], workers=workers)
    batch = engine.recommend_many(BASKETS, k=3)
    assert batch == [engine.query(basket, 3) for basket in BASKETS]


def test_recommend_returns_plain_list(fig1_bases):
    engine = Recommender(fig1_bases["all"])
    top = engine.recommend(["b"], k=2)
    assert top == list(engine.query(["b"], 2).recommendations)


def test_sharded_scoring_path_matches_serial(fig1_bases):
    """Force the row-shard branch (matched >= threshold) explicitly."""
    import repro.recommend.engine as engine_module

    arrays = fig1_bases["all"]
    serial = Recommender(arrays, workers=1).query(["a", "b", "c", "e"], 5)
    sharded_engine = Recommender(arrays, workers=3)
    original = engine_module.PARALLEL_MIN_ROWS
    engine_module.PARALLEL_MIN_ROWS = 1
    try:
        assert sharded_engine.query(["a", "b", "c", "e"], 5) == serial
    finally:
        engine_module.PARALLEL_MIN_ROWS = original


# ----------------------------------------------------------------------
# Store round trip + CLI verb
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig1_store(tmp_path_factory):
    db = TransactionDatabase(FIG1_TRANSACTIONS, name="fig1")
    mining = mine_itemsets(db, 0.4)
    artifacts = build_rule_artifacts(mining, minconf=0.5)
    path = save_artifacts(
        tmp_path_factory.mktemp("recommend") / "fig1.npz", mining, artifacts
    )
    return path, artifacts


def test_from_store(fig1_store):
    path, artifacts = fig1_store
    engine = Recommender.from_store(path, "all")
    direct = Recommender(artifacts.bases["all"].rule_arrays)
    for basket in BASKETS:
        assert engine.query(basket, 3) == direct.query(basket, 3)
    with pytest.raises(InvalidParameterError, match="no basis"):
        Recommender.from_store(path, "nope")


class TestCli:
    def run(self, capsys, *args):
        from repro.experiments import cli

        code = cli.main(list(args))
        return code, capsys.readouterr()

    def test_one_shot_matches_oracle(self, fig1_store, capsys):
        path, artifacts = fig1_store
        code, captured = self.run(
            capsys, "recommend", "--store", str(path), "--basket", "b,c", "-k", "2"
        )
        assert code == 0
        engine = Recommender(artifacts.bases["all"].rule_arrays)
        expected = recommend_reference(engine.arrays, ["b", "c"], 2)
        lines = captured.out.splitlines()
        assert "basis 'all'" in lines[0]
        assert f"{expected.matched_rules} rule(s) matched" in lines[1]
        for rec, line in zip(expected.recommendations, lines[2:]):
            assert "{" + ", ".join(rec.items) + "}" in line
            assert f"confidence={rec.confidence:.3f}" in line

    def test_explicit_basis_and_unknown_items(self, fig1_store, capsys):
        path, _ = fig1_store
        code, captured = self.run(
            capsys, "recommend", "--store", str(path), "--basket", "a zz", "--basis", "dg"
        )
        assert code == 0
        assert "basis 'dg'" in captured.out
        assert "1 unknown item(s) ignored" in captured.out

    def test_interactive_loop(self, fig1_store, capsys, monkeypatch):
        import io

        path, _ = fig1_store
        monkeypatch.setattr("sys.stdin", io.StringIO("a\nb c\n\nignored\n"))
        code, captured = self.run(
            capsys, "recommend", "--store", str(path), "--interactive"
        )
        assert code == 0
        # Two answered baskets, then the blank line stops the loop.
        assert captured.out.count("rule(s) matched") == 2

    def test_user_errors_are_clean(self, fig1_store, capsys):
        path, _ = fig1_store
        for args in (
            ["recommend", "--store", str(path)],
            ["recommend", "--store", str(path), "--basket", "a", "--basis", "nope"],
            ["recommend", "--store", str(path), "--basket", "a", "-k", "0"],
        ):
            code, captured = self.run(capsys, *args)
            assert code == 2
            assert "error" in captured.err


# ----------------------------------------------------------------------
# Hypothesis: indexed + sharded top-k == brute-force object scan
# ----------------------------------------------------------------------
@st.composite
def recommendation_cases(draw):
    n_items = draw(st.integers(min_value=1, max_value=70))
    universe = tuple(f"i{j:03d}" for j in range(n_items))
    n_rules = draw(st.integers(min_value=0, max_value=25))
    rules = []
    for _ in range(n_rules):
        consequent = draw(
            st.sets(st.sampled_from(universe), min_size=1, max_size=min(4, n_items))
        )
        remaining = [item for item in universe if item not in consequent]
        antecedent = (
            draw(st.sets(st.sampled_from(remaining), max_size=3))
            if remaining
            else set()
        )
        # Tiny value pools force plenty of confidence/support ties, so
        # the row-order tie-break is exercised constantly.
        confidence = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
        support = draw(st.sampled_from([0.2, 0.4, 0.6]))
        rules.append((antecedent, consequent, support, confidence))
    basket = draw(st.sets(st.sampled_from(universe + ("zz_unknown",)), max_size=6))
    k = draw(st.integers(min_value=1, max_value=5))
    return universe, rules, basket, k


@given(case=recommendation_cases(), workers=st.sampled_from([1, 3]))
@settings(deadline=None, max_examples=60)
def test_property_topk_equals_bruteforce(case, workers):
    universe, rules, basket, k = case
    engine = Recommender(make_arrays(universe, rules), workers=workers)
    assert engine.query(basket, k) == recommend_reference(engine.arrays, basket, k)


# ----------------------------------------------------------------------
# Hypothesis: the run-built index and the rank permutation == references
# ----------------------------------------------------------------------
@given(arrays=rule_arrays_cases())
@settings(deadline=None, max_examples=120)
def test_property_index_and_rank_equal_reference(arrays):
    engine = Recommender(arrays, assume_canonical=True)
    expected = antecedent_index_reference(arrays)
    for name, array in expected._asdict().items():
        built = getattr(engine.index, name)
        assert built.dtype == array.dtype, name
        assert np.array_equal(built, array), name
    assert engine.index.max_antecedent_size == int(
        expected.antecedent_sizes.max(initial=0)
    )
    assert np.array_equal(engine._row_of_rank, rank_permutation_reference(arrays))
