"""Mining algorithms: Apriori (baseline), Close, A-Close and CHARM."""

from .aclose import AClose
from .apriori import Apriori
from .base import MiningAlgorithm, MiningRun, MiningStatistics
from .charm import Charm
from .close import Close
from .rule_generation import (
    generate_all_rules,
    generate_approximate_rules,
    generate_exact_rules,
)

__all__ = [
    "MiningAlgorithm",
    "MiningRun",
    "MiningStatistics",
    "Apriori",
    "Close",
    "AClose",
    "Charm",
    "generate_all_rules",
    "generate_exact_rules",
    "generate_approximate_rules",
]
