"""The packed order core against the per-pair oracle, and large n.

Two groups of guarantees:

* the order core built by :class:`~repro.core.lattice.IcebergLattice` —
  with its packed containment retained, or CSR-only — produces the Hasse
  edges, containment pairs, neighbourhoods and basis output of the
  oracle lattice (``OrderCore.from_edges`` over the edges of
  ``hasse_edges_reference``) on toy and random contexts;
* the core loads a 50k-node synthetic family, with the analytically
  known star structure coming out exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Close
from repro.bases import BasisContext, build_bases
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice
from repro.data.synthetic import make_star_closed_family

from oracles import hasse_edges_reference, is_transitive_reduction, reference_lattice

#: The lattices every order query must agree on: the packed core built
#: with and without its containment words, and the oracle lattice.
BUILDERS = {
    "packed": IcebergLattice,
    "csr-only": lambda closed: IcebergLattice(closed, retain_containment=False),
    "reference": reference_lattice,
}


@pytest.fixture()
def mined_random(random_db):
    return Close(minsup=0.2).mine(random_db)


class TestMatchesReference:
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_toy_edges_identical(self, toy_closed, builder):
        lattice = BUILDERS[builder](toy_closed)
        baseline = reference_lattice(toy_closed)
        assert lattice.hasse_edges() == hasse_edges_reference(toy_closed)
        rows, cols = lattice.hasse_edge_indices()
        base_rows, base_cols = baseline.hasse_edge_indices()
        assert np.array_equal(rows, base_rows)
        assert np.array_equal(cols, base_cols)

    @pytest.mark.parametrize("builder", ("packed", "csr-only"))
    def test_random_context_edges_identical(self, mined_random, builder):
        baseline = reference_lattice(mined_random)
        lattice = BUILDERS[builder](mined_random)
        assert lattice.hasse_edges() == baseline.hasse_edges()
        assert sorted(lattice.comparable_pairs()) == sorted(
            baseline.comparable_pairs()
        )
        assert np.array_equal(
            lattice.edge_confidences(), baseline.edge_confidences()
        )
        assert np.array_equal(
            lattice.edge_confidences(full=True),
            baseline.edge_confidences(full=True),
        )
        assert is_transitive_reduction(lattice)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_neighbourhood_accessors_identical(self, mined_random, builder):
        baseline = reference_lattice(mined_random)
        lattice = BUILDERS[builder](mined_random)
        for member in lattice.members:
            assert lattice.children_of(member) == baseline.children_of(member)
            assert lattice.parents_of(member) == baseline.parents_of(member)
            assert lattice.proper_supersets(member) == baseline.proper_supersets(
                member
            )
        assert lattice.minimal_elements() == baseline.minimal_elements()
        assert lattice.maximal_elements() == baseline.maximal_elements()

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_ancestry_and_paths_identical(self, toy_closed, builder):
        lattice = BUILDERS[builder](toy_closed)
        assert lattice.is_ancestor(Itemset("c"), Itemset("abce"))
        assert not lattice.is_ancestor(Itemset("ac"), Itemset("be"))
        assert not lattice.is_ancestor(Itemset("c"), Itemset("c"))
        assert lattice.confidence_between(Itemset("c"), Itemset("ac")) == 0.75
        assert lattice.confidence_between(Itemset("ac"), Itemset("be")) is None
        path = lattice.path_between(Itemset("c"), Itemset("abce"))
        assert path is not None
        assert path[0] == Itemset("c") and path[-1] == Itemset("abce")
        for lower, upper in zip(path, path[1:]):
            assert (lower, upper) in lattice.hasse_edges()

    @pytest.mark.parametrize("builder", ("packed", "csr-only"))
    def test_basis_output_identical(self, toy_db, builder):
        from repro import Apriori, GeneratorFamily

        close = Close(minsup=0.4)
        closed = close.mine(toy_db)
        frequent = Apriori(minsup=0.4).mine(toy_db)
        selection = (
            "dg",
            "luxenburger",
            "luxenburger-reduced",
            "informative",
            "informative-reduced",
        )

        def build_on(lattice: IcebergLattice):
            context = BasisContext(
                closed=closed,
                minconf=0.5,
                frequent=frequent,
                generators=GeneratorFamily(closed, close.generators_by_closure),
                _lattice=lattice,
            )
            return build_bases(context, selection)

        baseline = build_on(reference_lattice(closed))
        candidate = build_on(BUILDERS[builder](closed))
        for name in selection:
            assert set(candidate[name].rules) == set(baseline[name].rules), name

    @pytest.mark.parametrize("builder", ("packed", "csr-only"))
    def test_basis_output_identical_random(self, mined_random, builder):
        from repro.core.luxenburger import LuxenburgerBasis

        for reduced in (True, False):
            baseline = LuxenburgerBasis(
                mined_random,
                minconf=0.3,
                transitive_reduction=reduced,
                lattice=reference_lattice(mined_random),
            )
            candidate = LuxenburgerBasis(
                mined_random,
                minconf=0.3,
                transitive_reduction=reduced,
                lattice=BUILDERS[builder](mined_random),
            )
            assert set(candidate.rules) == set(baseline.rules)


class TestLargeFamily:
    """The acceptance criterion: 50k+ nodes load."""

    N_MIDDLE = 50_000

    @pytest.fixture(scope="class")
    def star_family(self):
        return make_star_closed_family(self.N_MIDDLE + 2)

    def test_star_family_shape(self, star_family):
        assert len(star_family) == self.N_MIDDLE + 2

    def test_builds_50k_lattice(self, star_family):
        lattice = IcebergLattice(star_family)
        assert len(lattice) == self.N_MIDDLE + 2

        # The star structure is known analytically: bottom -> each middle
        # -> top, nothing else.
        assert lattice.edge_count() == 2 * self.N_MIDDLE
        assert lattice.height() == 2
        bottom = Itemset((0,))
        assert lattice.minimal_elements() == [bottom]
        (top,) = lattice.maximal_elements()
        assert len(lattice.children_of(bottom)) == self.N_MIDDLE
        assert len(lattice.parents_of(top)) == self.N_MIDDLE

        middle = lattice.children_of(bottom)[0]
        assert lattice.parents_of(middle) == [bottom]
        assert lattice.children_of(middle) == [top]
        assert lattice.is_ancestor(bottom, top)
        assert not lattice.is_ancestor(top, bottom)
        assert lattice.path_between(bottom, top) is not None
        assert lattice.confidence_between(middle, top) == pytest.approx(1 / 5)
