"""Reference constructions the shipped array-native code is checked against.

These are the classical per-rule object loops the library used before
its columnar emitters, the Galois operators computed on Python sets and
the brute-force generator and pseudo-closed checks.  They live with the
tests, not in the package: slow and obviously correct, they exist only
to be compared with.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import combinations
from typing import NamedTuple

import numpy as np

from repro.algorithms.base import MiningStatistics
from repro.core.bitmatrix import BitMatrix
from repro.core.constants import EPSILON
from repro.core.families import ClosedItemsetFamily, ItemsetFamily
from repro.core.generators import GeneratorFamily, is_minimal_generator
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice
from repro.core.order import OrderCore
from repro.core.pseudo_closed import PseudoClosedItemset, _check_same_database
from repro.core.rulearrays import RuleArrays, pack_itemsets_into, sorted_universe
from repro.core.rules import AssociationRule, RuleSet
from repro.data.context import TransactionDatabase


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


def luxenburger_rules_reference(
    lattice: IcebergLattice, minconf: float, reduced: bool
) -> Iterator[AssociationRule]:
    """The Luxenburger basis, one object and two set operations per pair."""
    rows, cols, confidences = lattice.confidence_window_pairs(minconf, reduced=reduced)
    members = lattice.members
    supports = lattice.support_counts()
    n_objects = lattice.closed_family.n_objects
    for row, col, confidence in zip(rows, cols, confidences):
        smaller = members[row]
        larger = members[col]
        larger_count = int(supports[col])
        yield AssociationRule(
            antecedent=smaller,
            consequent=larger.difference(smaller),
            support=larger_count / n_objects if n_objects else 0.0,
            confidence=float(confidence),
            support_count=larger_count,
        )


def generic_rules_reference(generators: GeneratorFamily) -> Iterator[AssociationRule]:
    """The generic basis: ``G → h(G) \\ G`` per proper generator."""
    closed_family = generators.closed_family
    n_objects = closed_family.n_objects
    for closed in generators.closed_itemsets():
        count = closed_family.support_count(closed)
        for generator in generators.proper_generators_of(closed):
            consequent = closed.difference(generator)
            if not consequent:
                continue
            yield AssociationRule(
                antecedent=generator,
                consequent=consequent,
                support=count / n_objects if n_objects else 0.0,
                confidence=1.0,
                support_count=count,
            )


def informative_rules_reference(
    generators: GeneratorFamily, lattice: IcebergLattice, minconf: float, reduced: bool
) -> Iterator[AssociationRule]:
    """The informative basis: ``G → C \\ G`` per generator and larger closed ``C``."""
    closed_family = generators.closed_family
    n_objects = closed_family.n_objects
    for closed in generators.closed_itemsets():
        lower_count = closed_family.support_count(closed)
        if reduced:
            targets = lattice.children_of(closed)
        else:
            targets = lattice.proper_supersets(closed)
        for target in targets:
            upper_count = closed_family.support_count(target)
            confidence = upper_count / lower_count if lower_count else 0.0
            if confidence < minconf - EPSILON:
                continue
            if confidence >= 1.0 - EPSILON:
                continue
            for generator in generators.generators_of(closed):
                consequent = target.difference(generator)
                if not consequent:
                    continue
                yield AssociationRule(
                    antecedent=generator,
                    consequent=consequent,
                    support=upper_count / n_objects if n_objects else 0.0,
                    confidence=confidence,
                    support_count=upper_count,
                )


def dg_rules_reference(pseudo_closed, n_objects: int) -> Iterator[AssociationRule]:
    """The Duquenne-Guigues basis: ``P → h(P) \\ P`` per pseudo-closed record."""
    for entry in pseudo_closed:
        yield AssociationRule(
            antecedent=entry.itemset,
            consequent=entry.closure.difference(entry.itemset),
            support=entry.support_count / n_objects if n_objects else 0.0,
            confidence=1.0,
            support_count=entry.support_count,
        )


def hasse_edges_reference(closed: ClosedItemsetFamily) -> list[tuple[Itemset, Itemset]]:
    """Hasse edges by the pre-vectorisation per-pair algorithm.

    The original pure-Python builder (inverted item index, then a
    per-pair immediate-successor scan), the oracle the packed order core
    is checked against and the baseline of the lattice microbenchmark.
    """
    members = closed.itemsets()
    index: dict[object, set[int]] = {}
    for position, member in enumerate(members):
        for item in member:
            index.setdefault(item, set()).add(position)
    all_positions = set(range(len(members)))

    def proper_supersets(member: Itemset) -> list[Itemset]:
        positions: set[int] | None = None
        for item in member:
            posting = index.get(item, set())
            positions = posting.copy() if positions is None else positions & posting
            if not positions:
                return []
        if positions is None:  # the empty itemset
            positions = set(all_positions)
        return [
            members[position]
            for position in positions
            if len(members[position]) > len(member)
        ]

    edges: list[tuple[Itemset, Itemset]] = []
    for smaller in members:
        successors = sorted(proper_supersets(smaller), key=len)
        immediate: list[Itemset] = []
        for candidate in successors:
            if not any(mid.is_proper_subset(candidate) for mid in immediate):
                immediate.append(candidate)
        edges.extend((smaller, successor) for successor in immediate)
    return sorted(edges)


def reference_lattice(closed: ClosedItemsetFamily) -> IcebergLattice:
    """The lattice of *closed* around the oracle's Hasse edges.

    A CSR-only :meth:`OrderCore.from_edges` core: the edges come from
    :func:`hasse_edges_reference`, containment queries probe the member
    masks, so nothing of the packed construction passes is involved.
    """
    members = closed.itemsets()
    position = {member: index for index, member in enumerate(members)}
    edges = hasse_edges_reference(closed)
    rows = np.array([position[smaller] for smaller, _ in edges], dtype=np.int64)
    cols = np.array([position[larger] for _, larger in edges], dtype=np.int64)
    universe = sorted_universe(item for member in members for item in member)
    masks = pack_itemsets_into(members, universe).words
    return IcebergLattice(closed, order_core=OrderCore.from_edges(masks, rows, cols))


def is_transitive_reduction(lattice: IcebergLattice) -> bool:
    """``True`` iff the lattice's Hasse edges reduce its full containment order.

    A comparable pair is a Hasse edge iff no third member lies strictly
    in between; checked pair by pair against :meth:`comparable_pairs`.
    """
    pairs = set(lattice.comparable_pairs())
    above: dict[Itemset, set[Itemset]] = {}
    for smaller, larger in pairs:
        above.setdefault(smaller, set()).add(larger)
    reduction = {
        (smaller, larger)
        for smaller, larger in pairs
        if not any((mid, larger) in pairs for mid in above[smaller])
    }
    return reduction == set(lattice.hasse_edges())


def containment_matrix(masks: np.ndarray) -> np.ndarray:
    """Dense strict-containment matrix of packed, pairwise distinct rows.

    ``result[i, j]`` is ``True`` iff row ``i`` is a proper subset of row
    ``j``: the bool reference of
    :func:`repro.core.bitmatrix.packed_containment`.
    """
    subset = ((masks[:, None, :] & masks[None, :, :]) == masks[:, None, :]).all(axis=2)
    np.fill_diagonal(subset, False)
    return subset


def hasse_reduction(proper: np.ndarray) -> np.ndarray:
    """Dense transitive reduction ``proper & ~(proper @ proper)``.

    The bool reference of
    :func:`repro.core.bitmatrix.packed_hasse_reduction`, with the
    two-step relation as an integer matrix product.
    """
    as_int = proper.astype(np.int64)
    return proper & ~((as_int @ as_int) > 0)


# ----------------------------------------------------------------------
# The Galois connection on sets: the reference of the closure engine
# ----------------------------------------------------------------------
class GaloisReference:
    """The Galois operators of a context, computed on Python sets.

    The cover of ``X`` is the objects whose row holds ``X``; the closure
    is the intersection of those rows, or the item universe when there
    are none.
    """

    def __init__(self, database: TransactionDatabase) -> None:
        self.items = database.items
        self.rows = [row.as_frozenset() for row in database]

    def cover(self, itemset) -> frozenset[int]:
        items = Itemset.coerce(itemset).as_frozenset()
        return frozenset(t for t, row in enumerate(self.rows) if items <= row)

    def cover_bits(self, itemset) -> int:
        return sum(1 << t for t in self.cover(itemset))

    def vertical_bits(self) -> dict:
        return {item: self.cover_bits(Itemset.of(item)) for item in self.items}

    def closure(self, itemset) -> Itemset:
        cover = self.cover(itemset)
        if not cover:
            return Itemset(self.items)
        return Itemset(frozenset.intersection(*(self.rows[t] for t in cover)))

    def supports(self, itemsets) -> list[int]:
        return [len(self.cover(itemset)) for itemset in itemsets]

    def closures_and_supports(self, itemsets) -> list[tuple[Itemset, int]]:
        return [(self.closure(x), len(self.cover(x))) for x in itemsets]

    def closures(self, itemsets) -> list[Itemset]:
        return [self.closure(itemset) for itemset in itemsets]


# ----------------------------------------------------------------------
# Level-wise miners: the Itemset loops the rank-array kernel replaced
# ----------------------------------------------------------------------
class MinerReference(NamedTuple):
    """What a reference miner returns: everything the shipped miner exposes."""

    family: ItemsetFamily
    statistics: MiningStatistics
    generators_by_closure: dict[Itemset, list[Itemset]]
    generators: list[Itemset]


def apriori_candidates_reference(level: list[Itemset]) -> list[Itemset]:
    """Apriori's join and prune over itemset objects, one candidate at a time."""
    frequent = set(level)
    ordered = sorted(level)
    candidates: list[Itemset] = []
    by_prefix: dict[tuple, list[Itemset]] = {}
    for itemset in ordered:
        items = itemset.as_tuple()
        by_prefix.setdefault(items[:-1], []).append(itemset)
    for prefix_group in by_prefix.values():
        for first, second in combinations(prefix_group, 2):
            candidate = first.union(second)
            if all(
                subset in frequent
                for subset in candidate.subsets_of_size(len(candidate) - 1)
            ):
                candidates.append(candidate)
    return sorted(candidates)


def apriori_reference(
    database: TransactionDatabase,
    minsup: float,
    max_size: int | None = None,
) -> MinerReference:
    """Apriori's level loop over itemset objects and set-based supports."""
    evaluator = GaloisReference(database)
    threshold = database.minsup_count(minsup)
    statistics = MiningStatistics(database_passes=1, levels=1)
    supports: dict[Itemset, int] = {}
    singles = [Itemset.of(item) for item in database.items]
    statistics.candidates_generated += len(singles)
    level: list[Itemset] = []
    for itemset, count in zip(singles, evaluator.supports(singles)):
        if count >= threshold:
            supports[itemset] = count
            level.append(itemset)
    while level:
        if max_size is not None and statistics.levels >= max_size:
            break
        candidates = apriori_candidates_reference(sorted(level))
        if not candidates:
            break
        statistics.database_passes += 1
        statistics.levels += 1
        statistics.candidates_generated += len(candidates)
        level = []
        for candidate, count in zip(candidates, evaluator.supports(candidates)):
            if count >= threshold:
                supports[candidate] = count
                level.append(candidate)
    family = ItemsetFamily(supports, database.n_objects, minsup_count=threshold)
    statistics.itemsets_found = len(family)
    return MinerReference(family, statistics, {}, [])


def close_reference(database: TransactionDatabase, minsup: float) -> MinerReference:
    """Close's level loop: every candidate closed, redundancy tested per subset."""
    evaluator = GaloisReference(database)
    threshold = database.minsup_count(minsup)
    statistics = MiningStatistics()
    closed_supports: dict[Itemset, int] = {}
    generators_by_closure: dict[Itemset, list[Itemset]] = {}
    closure_of_generator: dict[Itemset, Itemset] = {}
    candidates = [Itemset.of(item) for item in database.items]
    while candidates:
        statistics.database_passes += 1
        statistics.levels += 1
        survivors: list[Itemset] = []
        level = sorted(candidates)
        statistics.candidates_generated += len(level)
        for candidate, (closure, count) in zip(
            level, evaluator.closures_and_supports(level)
        ):
            if count < threshold:
                continue
            survivors.append(candidate)
            closure_of_generator[candidate] = closure
            recorded = candidate
            if count == database.n_objects and len(candidate) == 1:
                recorded = Itemset.empty()
            if closure not in closed_supports:
                closed_supports[closure] = count
                generators_by_closure[closure] = [recorded]
            elif recorded not in generators_by_closure[closure]:
                generators_by_closure[closure].append(recorded)
        candidates = [
            candidate
            for candidate in apriori_candidates_reference(survivors)
            if not any(
                subset in closure_of_generator
                and candidate.issubset(closure_of_generator[subset])
                for subset in candidate.immediate_subsets()
            )
        ]
    family = ClosedItemsetFamily(
        closed_supports, database.n_objects, minsup_count=threshold
    )
    statistics.itemsets_found = len(family)
    generators = {
        closure: sorted(members) for closure, members in generators_by_closure.items()
    }
    return MinerReference(family, statistics, generators, [])


def aclose_reference(database: TransactionDatabase, minsup: float) -> MinerReference:
    """A-Close's level loop: generator test per subset, then one closure batch."""
    evaluator = GaloisReference(database)
    threshold = database.minsup_count(minsup)
    n_objects = database.n_objects
    statistics = MiningStatistics(database_passes=1, levels=1)
    generator_supports: dict[Itemset, int] = {}
    level: dict[Itemset, int] = {}
    singles = [Itemset.of(item) for item in database.items]
    statistics.candidates_generated += len(singles)
    for candidate, count in zip(singles, evaluator.supports(singles)):
        if count >= threshold:
            level[candidate] = count
            generator_supports[candidate] = count
    while level:
        candidates = apriori_candidates_reference(sorted(level))
        if not candidates:
            break
        statistics.database_passes += 1
        statistics.levels += 1
        statistics.candidates_generated += len(candidates)
        next_level: dict[Itemset, int] = {}
        for candidate, count in zip(candidates, evaluator.supports(candidates)):
            if count < threshold:
                continue
            if all(
                level.get(subset) not in (None, count)
                for subset in candidate.immediate_subsets()
            ):
                next_level[candidate] = count
                generator_supports[candidate] = count
        level = next_level
    statistics.database_passes += 1
    closed_supports: dict[Itemset, int] = {}
    generators_by_closure: dict[Itemset, list[Itemset]] = {}
    ordered = sorted(generator_supports)
    for generator, closure in zip(ordered, evaluator.closures(ordered)):
        count = generator_supports[generator]
        closed_supports.setdefault(closure, count)
        recorded = generator
        if count == n_objects and len(generator) == 1:
            recorded = Itemset.empty()
        bucket = generators_by_closure.setdefault(closure, [])
        if recorded not in bucket:
            bucket.append(recorded)
    family = ClosedItemsetFamily(closed_supports, n_objects, minsup_count=threshold)
    statistics.itemsets_found = len(family)
    generators = {
        closure: sorted(members) for closure, members in generators_by_closure.items()
    }
    return MinerReference(family, statistics, generators, ordered)

# ----------------------------------------------------------------------
# Generators and pseudo-closed sets by brute force
# ----------------------------------------------------------------------
def minimal_generators_brute_force(
    database: TransactionDatabase, closed: Itemset
) -> list[Itemset]:
    """Enumerate the minimal generators of one closed itemset by brute force.

    Inspects every subset of *closed*, keeps those whose closure is
    *closed*, and retains the minimal ones with respect to set inclusion.
    """
    closed = Itemset.coerce(closed)
    with_same_closure = [
        subset
        for size in range(len(closed) + 1)
        for subset in closed.subsets_of_size(size)
        if database.closure(subset) == closed
    ]
    minimal: list[Itemset] = []
    for candidate in sorted(with_same_closure, key=len):
        if not any(existing.issubset(candidate) for existing in minimal):
            minimal.append(candidate)
    return sorted(minimal)


def generator_violations(
    generators: GeneratorFamily, database: TransactionDatabase
) -> list[str]:
    """Human-readable violations of *generators* in *database* (empty if none).

    Checks, for every recorded pair, that the generator's closure in
    *database* is its key and that the generator satisfies the minimal
    generator property.
    """
    problems: list[str] = []
    for closed in generators.closed_itemsets():
        for generator in generators.generators_of(closed):
            closure = database.closure(generator)
            if closure != closed:
                problems.append(
                    f"closure of {generator} is {closure}, recorded under {closed}"
                )
            if len(generator) > 0 and not is_minimal_generator(database, generator):
                problems.append(f"{generator} is not a minimal generator")
    return problems


def frequent_pseudo_closed_itemsets_reference(
    frequent: ItemsetFamily,
    closed: ClosedItemsetFamily,
) -> list[PseudoClosedItemset]:
    """The pre-vectorisation per-pair computation of the pseudo-closed sets.

    Same contract as
    :func:`repro.core.pseudo_closed.frequent_pseudo_closed_itemsets`; the
    inner condition is the original ``O(|frequent| · |found|)`` Python loop.
    """
    _check_same_database(frequent, closed)

    found: list[PseudoClosedItemset] = []
    bottom = closed.bottom_closure()

    def consider(candidate: Itemset, support_count: int) -> None:
        if candidate in closed:
            return  # closed, hence not pseudo-closed
        for previous in found:
            if previous.itemset.is_proper_subset(candidate) and not (
                previous.closure.issubset(candidate)
            ):
                return
        if not candidate:
            # The closure of the empty itemset is the set of items common to
            # every object; ``closure_of`` cannot be used here because the
            # miners never list h(∅) as a family member when it is empty.
            closure = bottom
        else:
            closure = closed.closure_of(candidate)
        if closure is None:
            return
        if closure == candidate:
            return
        found.append(
            PseudoClosedItemset(
                itemset=candidate, closure=closure, support_count=support_count
            )
        )

    empty = Itemset.empty()
    if bottom:
        consider(empty, frequent.n_objects)

    for candidate in frequent.itemsets():
        if not candidate:
            continue  # already handled explicitly
        consider(candidate, frequent.support_count(candidate))

    return sorted(found, key=lambda p: p.itemset)


# ----------------------------------------------------------------------
# Serve snapshot: the kernels the byte table, the antecedent runs and
# the stored closed family replaced
# ----------------------------------------------------------------------
def reversed_bit_rows_reference(matrix: BitMatrix) -> np.ndarray:
    """Each row's bit string reversed over the full padded word width.

    Unpacks every row to one byte per bit and packs it back reversed:
    the reference of the byte-table reversal in
    :mod:`repro.core.rulearrays`.
    """
    n_rows, n_words = matrix.words.shape
    if n_words == 0 or n_rows == 0:
        return np.empty((n_rows, n_words), dtype=np.uint64)
    raw = np.ascontiguousarray(matrix.words).view(np.uint8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    packed = np.packbits(bits[:, ::-1], axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def canonical_order_reference(arrays: RuleArrays) -> np.ndarray:
    """:meth:`RuleArrays.canonical_order` over the unpacked bit reversal."""
    keys: list[np.ndarray] = []
    for matrix in (arrays.consequents, arrays.antecedents):
        reversed_rows = reversed_bit_rows_reference(matrix)
        keys.extend(~reversed_rows[:, word] for word in range(reversed_rows.shape[1]))
        keys.append(matrix.row_counts())
    return np.lexsort(keys)


class AntecedentIndexReference(NamedTuple):
    """The arrays of an :class:`~repro.recommend.index.AntecedentIndex`."""

    indptr: np.ndarray
    postings: np.ndarray
    antecedent_sizes: np.ndarray
    always_rows: np.ndarray


def antecedent_index_reference(arrays: RuleArrays) -> AntecedentIndexReference:
    """The CSR postings from every set antecedent bit, one per rule.

    Expands each row's bits through ``BitMatrix.nonzero`` and sorts the
    postings by item with a stable sort, so rows stay ascending per item.
    """
    n_items = len(arrays.universe)
    sizes = arrays.antecedents.row_counts()
    rows, cols = arrays.antecedents.nonzero()
    postings = rows[np.argsort(cols, kind="stable")].astype(np.int64)
    indptr = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_items), out=indptr[1:])
    return AntecedentIndexReference(
        indptr, postings, sizes, np.flatnonzero(sizes == 0).astype(np.int64)
    )


def rank_permutation_reference(arrays: RuleArrays) -> np.ndarray:
    """Rows by confidence desc, support desc, then row asc, an explicit key."""
    return np.lexsort(
        (np.arange(len(arrays)), -arrays.support, -arrays.confidence)
    ).astype(np.int64)


def recover_closed_supports_reference(
    dg_basis, luxenburger, n_objects: int
) -> dict[Itemset, int]:
    """Closed supports decoded from the rules of the two bases.

    Each Luxenburger rule ``C1 → C2 \\ C1`` carries ``supp(C2)`` and
    gives ``supp(C1)`` as ``round(count / confidence)``; each
    Duquenne-Guigues rule carries the support of its closure; ``h(∅)``
    gets ``n_objects`` when no rule names it.
    """
    supports: dict[Itemset, int] = {}
    for rule in luxenburger.rules:
        count = rule.support_count
        if count is None:
            count = round(rule.support * n_objects)
        supports[rule.antecedent.union(rule.consequent)] = int(count)
        supports.setdefault(rule.antecedent, int(round(count / rule.confidence)))
    for rule in dg_basis.rules:
        count = rule.support_count
        if count is None:
            count = round(rule.support * n_objects)
        supports.setdefault(rule.antecedent.union(rule.consequent), int(count))
    supports.setdefault(dg_basis.implied_closure(Itemset.empty()), n_objects)
    return supports
