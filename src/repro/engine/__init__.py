"""Batch closure engines — the vectorised hot path of the library.

Architecture
------------
Every algorithm of the reproduction — Apriori's support counting, the
generator/closure passes of Close and A-Close, CHARM's tidset tree, the
DG/Luxenburger basis constructions — reduces to repeated evaluation of
the Galois operators ``g`` (cover), ``f`` (common items) and the closure
``h = f ∘ g`` over one mining context.  This package concentrates those
evaluations behind one abstraction:

* :class:`~repro.engine.base.ClosureEngine` — the abstract contract: batch
  ``closures() / supports() / extents() / closures_and_supports()`` over a
  sequence of candidate itemsets, plus the single-itemset convenience
  wrappers and a shared LRU closure cache keyed on canonical itemsets;
  and ``evaluate_level()``, the level-wise miners' entry point, which
  takes a candidate level as an array of item column indices, returns
  every support and the packed closures of the rows reaching a
  threshold, and bypasses the cache.
* :class:`~repro.engine.numpy_engine.NumpyClosureEngine` (``"numpy"``) —
  packed-word backend; evaluates a whole candidate level with two bulk
  AND-reductions over uint64 words (the covers, from the per-item object
  rows; then the closures, from the per-object item rows of each
  distinct cover), chunked to bound memory.  The default, and by far the
  fastest on the dense correlated contexts of the paper's figures.
* :class:`~repro.engine.bitset_engine.BitsetClosureEngine` (``"bitset"``)
  — vertical backend; owns the per-item tidset bitsets (arbitrary
  precision integers, one bit per object) and the dual per-object item
  bitsets.  Covers are early-exit AND-reductions, supports are popcounts.
  This is the representation CHARM's search tree consumes directly,
  promoted from a special case inside ``TransactionDatabase`` to a
  first-class engine.
* :mod:`~repro.engine.bitops` — the shared integer-bitset primitives
  (popcount, bit iteration, packbits conversions) used by both the bitset
  engine and the vertical algorithms.

Choosing an engine
------------------
``TransactionDatabase.engine(name)`` returns the lazily built, cached
engine of that context (``name in {"numpy", "bitset"}``; ``None`` means
the database default, normally ``"numpy"``).  Every miner accepts an
``engine=`` keyword and the experiment harness forwards an ``engine``
choice from its configuration, so a whole experiment grid can be flipped
between backends::

    db = TransactionDatabase(transactions)
    eng = db.engine("numpy")                    # explicit engine handle
    closures = eng.closures(candidate_itemsets) # one vectorised pass
    Close(minsup=0.3, engine="bitset").mine(db) # per-miner override

Rules of thumb: keep the default ``"numpy"`` for dense/correlated data
and closure-heavy algorithms (Close, A-Close); prefer ``"bitset"`` for
sparse contexts, support-only workloads, and the vertical miners (CHARM
uses it unconditionally — its search state *is* the bitset view).

The engine microbenchmarks in ``benchmarks/bench_algorithms_micro.py``
time batch closures of 1k/10k-candidate levels against the equivalent
per-itemset loop on the dense Fig. 1 workload, and whole Apriori, Close
and A-Close runs through ``evaluate_level`` on a sparse Quest context;
CI's benchmark job tracks them via ``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import CacheInfo, ClosureEngine
from .bitset_engine import BitsetClosureEngine
from .numpy_engine import NumpyClosureEngine

if TYPE_CHECKING:  # pragma: no cover
    from ..data.context import TransactionDatabase

__all__ = [
    "CacheInfo",
    "ClosureEngine",
    "NumpyClosureEngine",
    "BitsetClosureEngine",
    "ENGINES",
    "DEFAULT_ENGINE",
    "make_engine",
    "resolve_engine_name",
]

#: Registry of the available engine backends, keyed by their public name.
ENGINES: dict[str, type[ClosureEngine]] = {
    NumpyClosureEngine.name: NumpyClosureEngine,
    BitsetClosureEngine.name: BitsetClosureEngine,
}

#: Engine used when no explicit choice is made.
DEFAULT_ENGINE = NumpyClosureEngine.name


def resolve_engine_name(name: str | None) -> str:
    """Validate an engine name, mapping ``None`` to the default backend."""
    if name is None:
        return DEFAULT_ENGINE
    if name not in ENGINES:
        from ..errors import InvalidParameterError

        known = ", ".join(sorted(ENGINES))
        raise InvalidParameterError(f"unknown engine {name!r}; expected one of {known}")
    return name


def make_engine(
    database: "TransactionDatabase", name: str | None = None, **kwargs
) -> ClosureEngine:
    """Construct a fresh engine of the given backend for *database*.

    Most callers should prefer ``database.engine(name)``, which caches one
    engine (and therefore one closure cache) per backend per context; this
    factory is for tests and callers that want an isolated cache.
    """
    return ENGINES[resolve_engine_name(name)](database, **kwargs)
