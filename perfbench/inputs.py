"""Seeded inputs of the workloads: datasets, append streams and query populations.

Every dataset is one fixed generated context — the repo's MUSHROOM*
stand-in or a Quest T10I4 stream — that the run seed *permutes and
renames*: the objects are shuffled and every item gets a seed-dependent
name.  Each seed is therefore a different input file with the same
structure.  Seeding the generators themselves is not steady enough:
``make_mushroom(seed=s)`` yields between 61 and 141,128 ``all`` rules at
minsup 0.45 over seeds 1, 2 and 23, and even 2,000-object samples of one
fixed MUSHROOM* population move the ``all`` count by ±20% between seeds,
so run-to-run spread would measure the draw instead of the program.

Query populations cover every read the daemon answers: filtered rule
pages, derivability checks, basket recommendations and basis listings,
in the assumed shares of :data:`MIX`, drawn with Zipf popularity so a few
queries are hot and most are cold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlencode

import numpy as np

from repro.data import QuestGenerator, make_mushroom

#: Seed of the query-population draw (fixed: see :func:`query_population`).
POPULATION_SEED = 20000417

#: Request kinds of the served mix and their shares.  These are assumed,
#: not measured: no trace of real traffic to ``repro serve`` exists.  Rule
#: pages, the daemon's main read, are half; recommendations a quarter;
#: derivability checks a fifth; basis listings the rest.  Doubling any one
#: share moved ``cpu_ms_per_req`` on serve-read by at most 4% (README).
MIX = (("rules", 0.5), ("derive", 0.2), ("recommend", 0.25), ("bases", 0.05))

#: Exponent of the Zipf popularity of queries, assumed too: 1.0 is the
#: classic Zipf law.  This one matters more: 0.8 spreads the draws over
#: more queries, fewer answers come from the cache, and ``cpu_ms_per_req``
#: rose by 14%.
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Dataset:
    """One seeded input: the rows as the program gets them, and how they were made."""

    #: Transactions, shuffled and renamed by the seed (what the program reads).
    rows: list
    #: The same transactions in generated order (for seed-invariant queries).
    generated: list
    #: Generated name of every renamed item.
    original: dict
    #: Transactions generated after the context, renamed alike (appends).
    stream: list


def _renamed(transactions, seed: int, prefix: str, n_objects: int) -> Dataset:
    """Rename the items of *transactions* and shuffle the first *n_objects*."""
    rng = np.random.default_rng(seed)
    items = sorted({item for row in transactions for item in row})
    names = rng.permutation(len(items))
    rename = {item: f"{prefix}{names[i]}" for i, item in enumerate(items)}
    renamed = [[rename[item] for item in row] for row in transactions]
    generated = renamed[:n_objects]
    return Dataset(
        rows=[generated[i] for i in rng.permutation(n_objects)],
        generated=generated,
        original={new: old for old, new in rename.items()},
        stream=renamed[n_objects:],
    )


def dense_rows(seed: int, n_objects: int = 2000) -> Dataset:
    """The MUSHROOM* stand-in (75 items), shuffled and renamed by *seed*."""
    database = make_mushroom(n_objects=n_objects)
    return _renamed([sorted(map(str, t)) for t in database], seed, "m", n_objects)


def quest_rows(seed: int, n_objects: int, n_stream: int = 0) -> Dataset:
    """A Quest T10I4 context plus the *n_stream* transactions generated after it.

    The generator itself is fixed, so the append stream continues the
    same generated sequence the context came from; *seed* renames the
    items (consistently across context and stream) and shuffles the
    context's objects.
    """
    generator = QuestGenerator(avg_transaction_size=10.0, avg_pattern_size=4.0)
    database = generator.generate(n_objects + n_stream)
    return _renamed([sorted(map(str, t)) for t in database], seed, "q", n_objects)


def write_basket(rows, path: Path) -> Path:
    """Write *rows* in basket format (one transaction per line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


@dataclass(frozen=True)
class Query:
    """One distinct request of a population."""

    kind: str
    method: str
    path: str
    body: bytes | None = None


def query_population(stored, dataset: Dataset, size: int) -> list[Query]:
    """Draw *size* distinct queries over a loaded store, in popularity order.

    *stored* is the :class:`repro.store.StoredRun` the daemon serves and
    *dataset* the input it was mined from (baskets are drawn from its
    transactions).  The draw does not depend on the run seed: items,
    itemsets and transactions are taken in their generated order and
    named as the seed renamed them, so every seed asks the same questions
    of the same structure and the work per request is seed-invariant.  Rule pages filter by confidence, kind and item; derive
    candidates split a frequent itemset into a non-empty antecedent and
    consequent, so most are derivable and the rest (one extra item made the union
    infrequent) are answered 422; recommend baskets are 1-3 items of a
    real transaction and name a compact basis.  Parameters are drawn in
    bulk, then duplicates dropped, until *size* queries are distinct.
    """
    rng = np.random.default_rng(POPULATION_SEED)
    names = sorted(stored.rule_arrays)
    compact = [name for name in names if name != "all"] or names
    original = dataset.original.__getitem__
    rows = dataset.generated
    universe = sorted(dataset.original, key=original)
    frequent = sorted((sorted(map(str, itemset), key=original)
                       for itemset in stored.frequent.itemsets()),
                      key=lambda itemset: [original(item) for item in itemset])
    multi = [itemset for itemset in frequent if len(itemset) >= 2]
    fields = ("items", "antecedent_items", "consequent_items")
    kinds = np.array([kind for kind, _ in MIX])
    shares = np.array([share for _, share in MIX])
    population = [Query("bases", "GET", "/bases")]
    seen = set(population)
    while len(population) < size:
        n = 2 * (size - len(population)) + 64
        kind = kinds[rng.choice(len(kinds), size=n, p=shares)]
        u = rng.random((n, 4))
        pick = rng.integers(0, 1 << 30, size=(n, 4))
        for i in range(n):
            if kind[i] == "rules":
                params = {"min_confidence": ("0.7", "0.8", "0.9", "0.95")[pick[i, 0] % 4]}
                if u[i, 0] < 0.4:
                    params["kind"] = ("exact", "approximate")[pick[i, 1] % 2]
                if u[i, 1] < 0.7:
                    params[fields[pick[i, 1] % 3]] = universe[pick[i, 2] % len(universe)]
                params["limit"] = ("10", "20", "50")[pick[i, 3] % 3]
                params["offset"] = ("0", "0", "10", "50")[pick[i, 0] // 4 % 4]
                name = names[pick[i, 3] // 3 % len(names)]
                query = Query("rules", "GET", f"/bases/{name}/rules?{urlencode(params)}")
            elif kind[i] == "derive" and multi:
                itemset = list(multi[pick[i, 0] % len(multi)])
                if u[i, 0] < 0.1:
                    extra = universe[pick[i, 1] % len(universe)]
                    itemset = sorted(set(itemset) | {extra})
                # The first item opens the antecedent and the last closes the
                # consequent; bit j of the draw sends each middle item to
                # the antecedent.  Empty antecedents are left out: ``∅ → Y``
                # is answered 422 when no item is in every object (``h(∅)``
                # is then no node of the lattice), though ``supp(Y)`` is known.
                bits = int(pick[i, 2])
                last = len(itemset) - 1
                body = {
                    "antecedent": [x for j, x in enumerate(itemset)
                                   if j == 0 or (j < last and bits >> j & 1)],
                    "consequent": [x for j, x in enumerate(itemset)
                                   if j == last or (j > 0 and not bits >> j & 1)],
                }
                query = Query("derive", "POST", "/derive", json.dumps(body).encode())
            elif kind[i] == "recommend":
                row = rows[pick[i, 0] % len(rows)]
                start = pick[i, 1] % len(row)
                width = 1 + pick[i, 2] % 3
                body = {
                    "basket": (row + row)[start: start + min(width, len(row))],
                    "k": (3, 5, 10)[pick[i, 3] % 3],
                    "basis": compact[pick[i, 3] // 3 % len(compact)],
                }
                query = Query("recommend", "POST", "/recommend", json.dumps(body).encode())
            else:
                continue
            if query not in seen:
                seen.add(query)
                population.append(query)
                if len(population) == size:
                    break
    return population


def zipf_draws(population_size: int, count: int, seed: int):
    """*count* query indices drawn by *seed*; query *r* has weight ``(r+1) ** -ZIPF_EXPONENT``."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, population_size + 1) ** ZIPF_EXPONENT
    return rng.choice(population_size, size=count, p=weights / weights.sum())
