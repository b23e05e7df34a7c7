"""Incremental mining: delta maintenance of contexts that change.

The mine-once/serve-compact pipeline of the paper meets live traffic
here: instead of re-mining the whole context for every appended batch,
this package extends the context in place-preserving fashion
(:meth:`~repro.data.context.TransactionDatabase.extended` shares the
packed relation prefix and warm engine view) and repairs the mined
families — frequent family, closed family, generators — by
re-evaluating only the *damaged* part: the itemsets contained in a
changed row, i.e. the closed sets whose extents intersect the appended
(or evicted) objects.  The iceberg lattice and the rule bases are then
rebuilt from the repaired closed family, exactly as after a fresh mine.

Entry points
------------
* :func:`~repro.incremental.update.update_mining` — one append (and
  optional oldest-rows eviction) against a previous mining result, with
  a configurable damage threshold past which it falls back to a full
  re-mine, and an optional fresh-mine oracle verification.
* :class:`~repro.incremental.window.SlidingWindow` — a capacity-bounded
  streaming window kept mined through the same core.
* the ``repro update`` CLI verb — the same update against an on-disk
  artifact store, rewritten atomically (see ``docs/architecture.md``).
"""

from .update import (
    IncrementalUpdateResult,
    UpdateStatistics,
    update_mining,
)
from .window import SlidingWindow

__all__ = [
    "IncrementalUpdateResult",
    "SlidingWindow",
    "UpdateStatistics",
    "update_mining",
]
