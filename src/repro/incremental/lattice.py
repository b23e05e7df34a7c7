"""Incremental repair of the iceberg lattice's Hasse diagram.

Of the two passes that build an order core, the containment relation is
the cheap one (blocked packed subset tests) and the transitive reduction
is the expensive one (a boolean matrix product).  The repair therefore
recomputes containment over the new member list — it also serves as the
verification substrate for every repaired edge — and reuses the old
Hasse diagram wherever the node neighbourhood is intact:

* a surviving old edge ``u → v`` stays unless a **new** node landed
  strictly between ``u`` and ``v`` (removals can only delete
  intermediates, never create them, and a surviving old intermediate
  would have made ``u → v`` a non-edge already);
* a pair bridged by a chain of **removed** nodes (reachable from a
  removed node backwards/forwards through removed intermediates in the
  old diagram) is re-tested: it becomes an edge iff no node of the new
  family lies strictly between;
* a **new** node ``w`` gets edges from the maximal elements of its
  down-set and to the minimal elements of its up-set (both read off the
  recomputed containment).

Because the edge *set* of a transitive reduction is unique and
:class:`~repro.core.order.OrderCore` canonicalises edge order by
lexsort, the repaired core is byte-identical to one built from scratch.
"""

from __future__ import annotations

import numpy as np

from ..core.bitmatrix import packed_containment
from ..core.families import ClosedItemsetFamily
from ..core.lattice import IcebergLattice
from ..core.order import OrderCore
from ..core.parallel import get_executor

__all__ = ["repair_lattice"]


def _surviving_reach(
    start: int, adjacency: list[list[int]], removed: set[int]
) -> set[int]:
    """Surviving nodes reachable from *start* through removed nodes only."""
    out: set[int] = set()
    stack = [start]
    seen = {start}
    while stack:
        node = stack.pop()
        for neighbour in adjacency[node]:
            if neighbour in seen:
                continue
            seen.add(neighbour)
            if neighbour in removed:
                stack.append(neighbour)
            else:
                out.add(neighbour)
    return out


def repair_lattice(
    old_lattice: IcebergLattice,
    closed: ClosedItemsetFamily,
    workers: int | None = None,
) -> IcebergLattice:
    """Return the iceberg lattice of *closed*, repairing *old_lattice*.

    *old_lattice* must be the lattice of the closed family this update
    started from; *closed* is the repaired family.  The result is
    byte-identical (edge arrays, containment words) to
    ``IcebergLattice(closed)`` built from scratch.
    """
    packed = closed.packed()
    members = packed.members
    old_members = old_lattice.members
    if not members or not old_members:
        return IcebergLattice(closed, workers=workers)

    executor = get_executor(workers)
    proper = packed_containment(packed.matrix.words, executor=executor)

    index = {member: i for i, member in enumerate(members)}
    old_to_new = np.array(
        [index.get(member, -1) for member in old_members], dtype=np.int64
    )
    old_member_set = set(old_members)
    new_nodes = [
        i for i, member in enumerate(members) if member not in old_member_set
    ]
    removed_old = [i for i, j in enumerate(old_to_new) if j < 0]

    old_rows, old_cols = old_lattice.hasse_edge_indices()
    src = old_to_new[old_rows]
    dst = old_to_new[old_cols]
    alive = (src >= 0) & (dst >= 0)
    surviving_rows = src[alive]
    surviving_cols = dst[alive]

    # Surviving edges break only when a new node slid strictly between.
    keep = np.ones(surviving_rows.shape[0], dtype=bool)
    for w in new_nodes:
        below_w = proper.column_bool(w)
        above_w = proper.row_bool(w)
        keep &= ~(below_w[surviving_rows] & above_w[surviving_cols])
    edges = {
        (int(r), int(c))
        for r, c in zip(surviving_rows[keep], surviving_cols[keep])
    }

    # Pairs whose only old Hasse paths ran through removed nodes may have
    # become edges; every such pair is (surviving ancestor, surviving
    # descendant) of some removed node through removed intermediates.
    if removed_old:
        n_old = len(old_members)
        preds: list[list[int]] = [[] for _ in range(n_old)]
        succs: list[list[int]] = [[] for _ in range(n_old)]
        for r, c in zip(old_rows.tolist(), old_cols.tolist()):
            succs[r].append(c)
            preds[c].append(r)
        removed_set = set(removed_old)
        candidates: set[tuple[int, int]] = set()
        for node in removed_old:
            ancestors = _surviving_reach(node, preds, removed_set)
            descendants = _surviving_reach(node, succs, removed_set)
            for u in ancestors:
                for v in descendants:
                    candidates.add((int(old_to_new[u]), int(old_to_new[v])))
        for u, v in candidates:
            if (u, v) in edges or not proper.get(u, v):
                continue
            between = proper.row_bool(u) & proper.column_bool(v)
            if not between.any():
                edges.add((u, v))

    # New nodes connect to the maximal elements below and the minimal
    # elements above (new-new edges are found from either endpoint).
    for w in new_nodes:
        below_bool = proper.column_bool(w)
        for x in np.nonzero(below_bool)[0]:
            if not (proper.row_bool(int(x)) & below_bool).any():
                edges.add((int(x), w))
        above_bool = proper.row_bool(w)
        for v in np.nonzero(above_bool)[0]:
            if not (above_bool & proper.column_bool(int(v))).any():
                edges.add((w, int(v)))

    rows = np.fromiter((r for r, _ in edges), dtype=np.int64, count=len(edges))
    cols = np.fromiter((c for _, c in edges), dtype=np.int64, count=len(edges))
    core = OrderCore.from_parts(proper, rows, cols)
    return IcebergLattice(closed, order_core=core)
