"""IBM Quest-style synthetic transaction generator.

The sparse datasets of the evaluation (T10I4D100K, T20I6D100K, ...) were
produced with the IBM Almaden *Quest* generator, which is no longer
distributable.  :class:`QuestGenerator` re-implements its published
procedure (Agrawal & Srikant, VLDB 1994, §4.1):

1. draw a pool of *potentially frequent itemsets* ("patterns"); the size
   of each pattern is Poisson-distributed around ``avg_pattern_size``, and
   successive patterns share a fraction of their items (governed by
   ``correlation``) so that frequent itemsets overlap as in real data;
2. assign each pattern a weight (exponentially distributed, normalised to
   sum to one) and a *corruption level*: when a pattern is inserted into a
   transaction, each of its items is dropped with that probability, so
   that supersets are systematically rarer than their subsets;
3. build each transaction by drawing its size from a Poisson distribution
   around ``avg_transaction_size`` and packing weighted, corrupted
   patterns into it until the size is reached.

The naming convention follows the original: ``T`` is the average
transaction size, ``I`` the average size of the potential itemsets and
``D`` the number of transactions — e.g. ``T10I4D100K``.  The benchmark
configuration scales ``D`` down (10K–25K) so that the full experiment grid
runs on a laptop, as announced in DESIGN.md; the generative process, and
therefore the sparse/weakly-correlated *shape* of the data, is unchanged.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from .context import TransactionDatabase

__all__ = [
    "QuestGenerator",
    "make_quest_dataset",
    "make_star_closed_family",
    "make_rule_dense_context",
    "make_rule_dense_family",
    "rule_dense_expected_counts",
]


class QuestGenerator:
    """Re-implementation of the IBM Quest synthetic transaction generator.

    Parameters
    ----------
    n_items:
        Size of the item universe (``N`` in the original paper; 1 000 by
        default, against 10 000 originally, to keep scaled-down runs dense
        enough to contain frequent itemsets at the benchmark thresholds).
    n_patterns:
        Number of potentially frequent itemsets (``|L|``; 2 000 originally,
        200 by default at the reduced scale).
    avg_pattern_size:
        Average size ``I`` of the potential itemsets.
    avg_transaction_size:
        Average transaction size ``T``.
    correlation:
        Fraction of items a pattern inherits from the previous pattern
        (0.5 in the original generator).
    corruption_mean:
        Mean of the per-pattern corruption level (0.5 originally).
    seed:
        Seed of the underlying pseudo-random generator; every dataset used
        by tests and benchmarks fixes it for reproducibility.
    """

    def __init__(
        self,
        n_items: int = 1000,
        n_patterns: int = 200,
        avg_pattern_size: float = 4.0,
        avg_transaction_size: float = 10.0,
        correlation: float = 0.5,
        corruption_mean: float = 0.5,
        seed: int = 7,
    ) -> None:
        if n_items <= 0 or n_patterns <= 0:
            raise InvalidParameterError("n_items and n_patterns must be positive")
        if avg_pattern_size <= 0 or avg_transaction_size <= 0:
            raise InvalidParameterError("average sizes must be positive")
        if not 0.0 <= correlation <= 1.0:
            raise InvalidParameterError("correlation must lie in [0, 1]")
        if not 0.0 <= corruption_mean < 1.0:
            raise InvalidParameterError("corruption_mean must lie in [0, 1)")
        self._n_items = n_items
        self._n_patterns = n_patterns
        self._avg_pattern_size = avg_pattern_size
        self._avg_transaction_size = avg_transaction_size
        self._correlation = correlation
        self._corruption_mean = corruption_mean
        self._seed = seed

    # ------------------------------------------------------------------
    # Pattern pool
    # ------------------------------------------------------------------
    def _build_patterns(
        self, rng: np.random.Generator
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Draw the pool of potentially frequent itemsets.

        Returns the patterns (arrays of item ids), their normalised
        weights and their corruption levels.
        """
        # Item popularity is skewed (exponential), as in the original tool,
        # so that some items are much more frequent than others.
        item_weights = rng.exponential(scale=1.0, size=self._n_items)
        item_weights /= item_weights.sum()

        patterns: list[np.ndarray] = []
        previous: np.ndarray | None = None
        for _ in range(self._n_patterns):
            size = max(1, int(rng.poisson(self._avg_pattern_size)))
            size = min(size, self._n_items)
            chosen: list[int] = []
            if previous is not None and len(previous) > 0:
                n_inherited = int(round(self._correlation * size))
                n_inherited = min(n_inherited, len(previous))
                if n_inherited > 0:
                    chosen.extend(
                        rng.choice(previous, size=n_inherited, replace=False).tolist()
                    )
            while len(chosen) < size:
                item = int(rng.choice(self._n_items, p=item_weights))
                if item not in chosen:
                    chosen.append(item)
            pattern = np.array(sorted(chosen), dtype=np.int64)
            patterns.append(pattern)
            previous = pattern

        weights = rng.exponential(scale=1.0, size=self._n_patterns)
        weights /= weights.sum()
        corruption = np.clip(
            rng.normal(self._corruption_mean, 0.1, size=self._n_patterns), 0.0, 0.95
        )
        return patterns, weights, corruption

    # ------------------------------------------------------------------
    # Transaction generation
    # ------------------------------------------------------------------
    def generate(self, n_transactions: int, name: str | None = None) -> TransactionDatabase:
        """Generate *n_transactions* transactions and return them as a database."""
        if n_transactions <= 0:
            raise InvalidParameterError("n_transactions must be positive")
        rng = np.random.default_rng(self._seed)
        patterns, weights, corruption = self._build_patterns(rng)

        transactions: list[list[str]] = []
        for _ in range(n_transactions):
            target_size = max(1, int(rng.poisson(self._avg_transaction_size)))
            contents: set[int] = set()
            attempts = 0
            while len(contents) < target_size and attempts < 4 * target_size:
                attempts += 1
                index = int(rng.choice(self._n_patterns, p=weights))
                pattern = patterns[index]
                keep = rng.random(len(pattern)) >= corruption[index]
                kept_items = pattern[keep]
                if len(kept_items) == 0:
                    continue
                # The original generator drops a pattern half of the time if
                # it would overflow the transaction; we mimic that behaviour.
                if len(contents) + len(kept_items) > target_size and rng.random() < 0.5:
                    continue
                contents.update(int(i) for i in kept_items)
            if not contents:
                contents.add(int(rng.choice(self._n_items, p=None)))
            transactions.append([f"i{item}" for item in sorted(contents)])

        label = name or self.default_name(n_transactions)
        return TransactionDatabase(transactions, name=label)

    def default_name(self, n_transactions: int) -> str:
        """Return the ``T..I..D..`` style name of a generated dataset."""
        thousands = n_transactions / 1000.0
        if thousands >= 1 and float(thousands).is_integer():
            count = f"{int(thousands)}K"
        else:
            count = str(n_transactions)
        return (
            f"T{int(round(self._avg_transaction_size))}"
            f"I{int(round(self._avg_pattern_size))}"
            f"D{count}"
        )


def make_quest_dataset(
    avg_transaction_size: float = 10.0,
    avg_pattern_size: float = 4.0,
    n_transactions: int = 10_000,
    n_items: int = 1000,
    n_patterns: int = 200,
    seed: int = 7,
    name: str | None = None,
) -> TransactionDatabase:
    """One-call helper building a Quest-style dataset with sensible defaults.

    ``make_quest_dataset(10, 4, 10_000)`` is the scaled-down analogue of
    the paper's T10I4D100K; ``make_quest_dataset(20, 6, 10_000)`` of
    T20I6D100K.
    """
    generator = QuestGenerator(
        n_items=n_items,
        n_patterns=n_patterns,
        avg_pattern_size=avg_pattern_size,
        avg_transaction_size=avg_transaction_size,
        seed=seed,
    )
    return generator.generate(n_transactions, name=name)


def make_star_closed_family(
    n_members: int = 50_002,
    n_objects: int = 1_000,
    mid_support: int = 5,
    top_support: int = 1,
) -> "ClosedItemsetFamily":
    """A synthetic closed family whose lattice shape is known analytically.

    The family is a three-level "star": one bottom closure ``{0}``
    (present in every object), ``n_members - 2`` pairwise-incomparable
    middle sets ``{0, a, b}`` (size-3 sets are never subsets of each
    other), and one top set containing the whole universe.  Its Hasse
    diagram is therefore exactly bottom → each middle → top, i.e.
    ``2 * (n_members - 2)`` edges — which makes the generator the right
    probe for the large-``n`` lattice order core: arbitrarily many
    closed itemsets with a structure a test can assert edge-for-edge,
    without mining a context of that size first.

    Used by the 50k-node lattice acceptance test and by the
    ``test_engine_lattice_packed_large`` microbenchmark.
    """
    from ..core.families import ClosedItemsetFamily
    from ..core.itemset import Itemset

    if n_members < 3:
        raise InvalidParameterError(
            f"a star family needs at least 3 members, got {n_members}"
        )
    n_mids = n_members - 2
    # Smallest universe 1..m with enough unordered pairs for the middles;
    # at least 3 so the top set {0..m} is a strict superset of every
    # middle (m = 2 would make the only middle {0, 1, 2} collide with it).
    m = 3
    while m * (m - 1) // 2 < n_mids:
        m += 1
    supports: dict["Itemset", int] = {Itemset((0,)): n_objects}
    count = 0
    for first in range(1, m + 1):
        for second in range(first + 1, m + 1):
            supports[Itemset((0, first, second))] = mid_support
            count += 1
            if count == n_mids:
                break
        if count == n_mids:
            break
    supports[Itemset(range(m + 1))] = top_support
    return ClosedItemsetFamily(
        supports, n_objects=n_objects, minsup_count=top_support
    )


def _rule_dense_level_items(level: int, multiplicity: int) -> list[str]:
    """The clone items of one chain level (zero-padded for stable order)."""
    return [f"c{level:04d}_{clone}" for clone in range(multiplicity)]


def make_rule_dense_context(
    chain_length: int = 250,
    generator_multiplicity: int = 2,
) -> TransactionDatabase:
    """A context whose rule bases are huge but analytically known.

    The transactions realise a *clone chain*: level ``j`` (``1..L``)
    contributes ``generator_multiplicity`` perfectly correlated clone
    items, and transaction ``t_j`` contains every item of levels
    ``1..j``; one extra transaction holds a single unrelated item so
    that no item is universal (``h(∅) = ∅``).  The frequent closed
    itemsets at ``minsup_count = 1`` are then exactly the ``L`` chain
    prefixes plus the singleton ``{solo}``, each prefix having one
    minimal generator per clone — which makes the rule bases explode
    combinatorially while mining stays trivial:

    * full Luxenburger basis (``minconf = 0``): ``L·(L-1)/2`` rules,
    * full informative basis: ``g·L·(L-1)/2`` rules,
    * generic basis: ``g·L`` rules (``g ≥ 2``),

    so the defaults give ~10⁵ informative+Luxenburger rules and
    ``chain_length = 1000`` ~1.5·10⁶ (see
    :func:`rule_dense_expected_counts`).  This is the workload of the
    rule-materialisation microbenchmark and of the array-vs-object
    equivalence tests; :func:`make_rule_dense_family` builds the same
    closed/generator families directly, without mining.
    """
    if chain_length < 2:
        raise InvalidParameterError("chain_length must be at least 2")
    if generator_multiplicity < 1:
        raise InvalidParameterError("generator_multiplicity must be at least 1")
    transactions: list[list[str]] = [["solo"]]
    prefix: list[str] = []
    for level in range(1, chain_length + 1):
        prefix = prefix + _rule_dense_level_items(level, generator_multiplicity)
        transactions.append(list(prefix))
    name = f"rule-dense-L{chain_length}-g{generator_multiplicity}"
    return TransactionDatabase(transactions, name=name)


def make_rule_dense_family(
    chain_length: int = 250,
    generator_multiplicity: int = 2,
) -> tuple["ClosedItemsetFamily", "GeneratorFamily"]:
    """The closed family and minimal generators of the clone-chain context.

    Built directly from the analytic structure (no mining): prefix ``j``
    has support ``L - j + 1`` and one minimal generator per clone of its
    last level; the ``{solo}`` singleton has support 1 and is its own
    generator.  Equality with the mined families is asserted by the
    data-generator tests, so benchmarks can skip the (slower) mining
    step without drifting from the real pipeline.
    """
    from ..core.families import ClosedItemsetFamily
    from ..core.generators import GeneratorFamily
    from ..core.itemset import Itemset

    if chain_length < 2:
        raise InvalidParameterError("chain_length must be at least 2")
    if generator_multiplicity < 1:
        raise InvalidParameterError("generator_multiplicity must be at least 1")
    n_objects = chain_length + 1
    supports: dict[Itemset, int] = {Itemset(["solo"]): 1}
    generators_by_closure: dict[Itemset, list[Itemset]] = {
        Itemset(["solo"]): [Itemset(["solo"])]
    }
    prefix: list[str] = []
    for level in range(1, chain_length + 1):
        level_items = _rule_dense_level_items(level, generator_multiplicity)
        prefix = prefix + level_items
        closed = Itemset(prefix)
        supports[closed] = chain_length - level + 1
        generators_by_closure[closed] = [Itemset([item]) for item in level_items]
    family = ClosedItemsetFamily(supports, n_objects=n_objects, minsup_count=1)
    return family, GeneratorFamily(family, generators_by_closure)


def rule_dense_expected_counts(
    chain_length: int, generator_multiplicity: int
) -> dict[str, int]:
    """Closed-form basis sizes of the clone-chain context at ``minconf = 0``."""
    pairs = chain_length * (chain_length - 1) // 2
    return {
        "closed_itemsets": chain_length + 1,
        "luxenburger_full": pairs,
        "luxenburger_reduced": chain_length - 1,
        "informative_full": generator_multiplicity * pairs,
        "informative_reduced": generator_multiplicity * (chain_length - 1),
        "generic": generator_multiplicity * chain_length
        - (1 if generator_multiplicity == 1 else 0),
    }
