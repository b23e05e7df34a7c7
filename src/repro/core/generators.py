"""Minimal generators (key itemsets) of frequent closed itemsets.

An itemset ``G`` is a *minimal generator* (also called a key itemset) when
no proper subset of ``G`` has the same closure — equivalently, no proper
subset has the same support.  Every frequent closed itemset ``C`` has at
least one minimal generator, namely a smallest itemset whose closure is
``C``; minimal generators are downward-closed (every subset of a minimal
generator is a minimal generator), which is what makes them minable
level-wise by Close and A-Close.

Minimal generators matter for two reasons in this reproduction:

* they are the level-wise handles through which Close / A-Close reach the
  closed itemsets;
* they are the antecedents of the *informative* (generic / min-max) rule
  basis implemented in :mod:`repro.core.informative`, the follow-on basis
  of the same research group, which we include as an extension.

This module defines :class:`GeneratorFamily`, the mapping from each
frequent closed itemset to its minimal generators, and the defining
test :func:`is_minimal_generator`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import NamedTuple

import numpy as np

from ..data.context import TransactionDatabase
from ..errors import InvalidParameterError
from .bitmatrix import BitMatrix
from .families import ClosedItemsetFamily
from .itemset import Item, Itemset

__all__ = [
    "GeneratorFamily",
    "PackedGenerators",
    "is_minimal_generator",
]


class PackedGenerators(NamedTuple):
    """The generators as packed rows (see :meth:`GeneratorFamily.packed`)."""

    #: The generators in enumeration order.
    members: list[Itemset]
    #: The closed family's packed universe.
    universe: tuple[Item, ...]
    #: One read-only mask row per generator, over :attr:`universe`.
    matrix: BitMatrix
    #: Each generator's support: its closure's count.
    counts: np.ndarray
    #: Each generator's closure as a row of the closed family's ``packed()``.
    closure_rows: np.ndarray


def is_minimal_generator(database: TransactionDatabase, itemset: Itemset) -> bool:
    """Check the defining property of a minimal generator against *database*.

    ``G`` is a minimal generator iff every immediate subset has a strictly
    larger support (dropping any item makes the itemset strictly more
    frequent).  The empty itemset is a minimal generator by convention.
    """
    itemset = Itemset.coerce(itemset)
    if not itemset:
        return True
    count = database.support_count(itemset)
    for subset in itemset.immediate_subsets():
        if database.support_count(subset) == count:
            return False
    return True


class GeneratorFamily:
    """Mapping from frequent closed itemsets to their minimal generators.

    Instances are usually built from the ``generators_by_closure`` mapping
    produced by :class:`~repro.algorithms.close.Close` or
    :class:`~repro.algorithms.aclose.AClose`.

    Parameters
    ----------
    closed_family:
        The family of frequent closed itemsets the generators refer to.
    generators_by_closure:
        Mapping ``closed itemset -> iterable of generator itemsets``.
        Every key must belong to *closed_family* and every generator must
        be a subset of its key.
    """

    def __init__(
        self,
        closed_family: ClosedItemsetFamily,
        generators_by_closure: Mapping[Itemset, Iterable[Itemset]],
    ) -> None:
        self._closed_family = closed_family
        self._mapping: dict[Itemset, tuple[Itemset, ...]] = {}
        for closed, generators in generators_by_closure.items():
            closed = Itemset.coerce(closed)
            if closed not in closed_family:
                raise InvalidParameterError(
                    f"{closed} is not a member of the closed itemset family"
                )
            ordered = tuple(sorted(Itemset.coerce(g) for g in generators))
            for generator in ordered:
                if not generator.issubset(closed):
                    raise InvalidParameterError(
                        f"generator {generator} is not a subset of its closure {closed}"
                    )
            self._mapping[closed] = ordered

    @property
    def closed_family(self) -> ClosedItemsetFamily:
        """The closed itemset family the generators are attached to."""
        return self._closed_family

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, closed: object) -> bool:
        if isinstance(closed, Itemset):
            return closed in self._mapping
        return False

    def closed_itemsets(self) -> list[Itemset]:
        """Return the closed itemsets that have at least one generator recorded."""
        return sorted(self._mapping)

    def generators_of(self, closed: Itemset | Iterable) -> tuple[Itemset, ...]:
        """Return the minimal generators recorded for one closed itemset."""
        return self._mapping.get(Itemset.coerce(closed), ())

    def all_generators(self) -> list[Itemset]:
        """Return every generator of the family, sorted canonically."""
        generators: set[Itemset] = set()
        for group in self._mapping.values():
            generators.update(group)
        return sorted(generators)

    #: Lazily built packed form (see :meth:`packed`).
    _packed: PackedGenerators | None = None

    def packed(self) -> PackedGenerators:
        """Every recorded generator packed once over the closed family's items.

        Rows enumerate the closures in canonical order and each closure's
        generators in their stored sorted order; bit ``j`` of a row is
        ``universe[j]`` of the closed family's
        :meth:`~repro.core.families.ItemsetFamily.packed` rows, so the
        rows compose directly with the closed masks (every generator is a
        subset of its closure).  Built on first use and cached; the
        generic and informative emitters and the store read it.
        """
        if self._packed is None:
            from .rulearrays import pack_itemsets_into

            closed = self._closed_family.packed()
            pairs = [
                (closure, generator)
                for closure in self.closed_itemsets()
                for generator in self.generators_of(closure)
            ]
            members = [generator for _, generator in pairs]
            matrix = pack_itemsets_into(members, closed.universe)
            closure_rows = closed.rows_of(closure for closure, _ in pairs)
            counts = closed.counts[closure_rows]
            for array in (matrix.words, closure_rows, counts):
                array.setflags(write=False)
            self._packed = PackedGenerators(
                members, closed.universe, matrix, counts, closure_rows
            )
        return self._packed

    def proper_generators_of(self, closed: Itemset | Iterable) -> tuple[Itemset, ...]:
        """Return the generators of *closed* that differ from *closed* itself.

        These are the antecedents of the exact informative-basis rules: a
        closed itemset that is its own unique minimal generator produces no
        exact rule.
        """
        closed = Itemset.coerce(closed)
        return tuple(g for g in self.generators_of(closed) if g != closed)
