"""repro — Mining bases for association rules using frequent closed itemsets.

Reproduction of Taouil, Pasquier, Bastide, Lakhal, *"Mining Bases for
Association Rules Using Closed Sets"*, ICDE 2000.

The package is organised in five sub-packages:

* :mod:`repro.core` — itemsets, the Galois connection, closed/pseudo-closed
  itemsets, the Duquenne-Guigues and Luxenburger bases, rule derivation;
* :mod:`repro.data` — the transaction-database substrate, dataset I/O and
  the synthetic dataset generators used by the experiments;
* :mod:`repro.engine` — the batch closure engine (packed uint64 words)
  every algorithm evaluates covers/closures on;
* :mod:`repro.algorithms` — Apriori (baseline), Close, A-Close and CHARM;
* :mod:`repro.analysis` — interestingness metrics and dataset statistics;
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the evaluation, plus the ``repro`` CLI.

Quickstart
----------
>>> from repro import TransactionDatabase, Close, Apriori
>>> from repro import build_duquenne_guigues_basis, LuxenburgerBasis
>>> db = TransactionDatabase([["a", "c", "d"], ["b", "c", "e"],
...                           ["a", "b", "c", "e"], ["b", "e"],
...                           ["a", "b", "c", "e"]])
>>> closed = Close(minsup=0.4).mine(db)
>>> frequent = Apriori(minsup=0.4).mine(db)
>>> dg = build_duquenne_guigues_basis(frequent, closed)
>>> lux = LuxenburgerBasis(closed, minconf=0.5)
"""

from ._version import __version__
from .algorithms.aclose import AClose
from .algorithms.apriori import Apriori
from .algorithms.charm import Charm
from .algorithms.close import Close
from .algorithms.rule_generation import (
    generate_all_rules,
    generate_approximate_rules,
    generate_exact_rules,
)
from .bases import (
    BasisContext,
    BuiltBasis,
    RuleBasis,
    available_bases,
    build_bases,
    register_basis,
)
from .core.closure import GaloisConnection
from .core.concept import FormalConcept, enumerate_concepts
from .core.derivation import BasisDerivation
from .core.dg_basis import DuquenneGuiguesBasis, build_duquenne_guigues_basis
from .core.families import ClosedItemsetFamily, ItemsetFamily
from .core.generators import GeneratorFamily
from .core.informative import GenericBasis, InformativeBasis
from .core.itemset import Itemset
from .core.lattice import IcebergLattice
from .core.luxenburger import LuxenburgerBasis, build_luxenburger_basis
from .core.pseudo_closed import PseudoClosedItemset, frequent_pseudo_closed_itemsets
from .core.rules import AssociationRule, RuleSet
from .data.context import TransactionDatabase
from .data.io import load_basket_file, load_tabular_file, save_basket_file
from .engine import ClosureEngine
from .data.synthetic import QuestGenerator, make_quest_dataset
from .errors import (
    DatasetFormatError,
    DerivationError,
    EmptyDatabaseError,
    InconsistentRuleError,
    InvalidItemsetError,
    InvalidParameterError,
    MissingDependencyError,
    ReproError,
    StoreFormatError,
)

__all__ = [
    "__version__",
    # core types
    "Itemset",
    "AssociationRule",
    "RuleSet",
    "ItemsetFamily",
    "ClosedItemsetFamily",
    "GaloisConnection",
    "FormalConcept",
    "enumerate_concepts",
    "IcebergLattice",
    "GeneratorFamily",
    # bases
    "PseudoClosedItemset",
    "frequent_pseudo_closed_itemsets",
    "DuquenneGuiguesBasis",
    "build_duquenne_guigues_basis",
    "LuxenburgerBasis",
    "build_luxenburger_basis",
    "GenericBasis",
    "InformativeBasis",
    "BasisDerivation",
    # bases registry
    "BasisContext",
    "BuiltBasis",
    "RuleBasis",
    "available_bases",
    "build_bases",
    "register_basis",
    # engine
    "ClosureEngine",
    # data
    "TransactionDatabase",
    "load_basket_file",
    "load_tabular_file",
    "save_basket_file",
    "QuestGenerator",
    "make_quest_dataset",
    # algorithms
    "Apriori",
    "Close",
    "AClose",
    "Charm",
    "generate_all_rules",
    "generate_exact_rules",
    "generate_approximate_rules",
    # errors
    "ReproError",
    "InvalidParameterError",
    "InvalidItemsetError",
    "EmptyDatabaseError",
    "DatasetFormatError",
    "InconsistentRuleError",
    "DerivationError",
    "StoreFormatError",
    "MissingDependencyError",
]
