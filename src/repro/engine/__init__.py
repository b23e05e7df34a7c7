"""The batch closure engine — the vectorised hot path of the library.

Every algorithm of the reproduction — Apriori's support counting, the
generator/closure passes of Close and A-Close, the DG/Luxenburger basis
constructions — reduces to repeated evaluation of the Galois operators
``g`` (cover), ``f`` (common items) and the closure ``h = f ∘ g`` over
one mining context.  This package concentrates those evaluations in one
class, :class:`~repro.engine.closure_engine.ClosureEngine`: batch
``closures() / supports() / extents() / closures_and_supports()`` over a
sequence of candidate itemsets, the single-itemset convenience wrappers
and an LRU closure cache keyed on canonical itemsets; and
``evaluate_level()``, the level-wise miners' entry point, which takes a
candidate level as an array of item column indices, returns every
support and the packed closures of the rows reaching a threshold, and
bypasses the cache.  Covers and closures are bulk AND-reductions over
uint64 words, chunked to bound memory.

``TransactionDatabase.engine()`` returns the lazily built engine of that
context; ``ClosureEngine(database, cache_size=0)`` builds one with an
isolated (here disabled) cache::

    db = TransactionDatabase(transactions)
    closures = db.engine().closures(candidate_itemsets)  # one vectorised pass

CHARM's vertical tidsets are not an engine: they are the search state of
that algorithm, read from ``TransactionDatabase.vertical_bits()``.

The engine microbenchmarks in ``benchmarks/bench_algorithms_micro.py``
time batch closures of 1k/10k-candidate levels against the equivalent
per-itemset loop on the dense Fig. 1 workload, and whole Apriori, Close
and A-Close runs through ``evaluate_level`` on a sparse Quest context;
CI's benchmark job tracks them via ``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

from .closure_engine import CacheInfo, ClosureEngine

__all__ = ["CacheInfo", "ClosureEngine"]
