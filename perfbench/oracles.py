"""Output oracles that hold for any seed; every mismatch counts as a failure.

Each oracle recomputes an answer from the mined families or the stored
columns by a route independent of the code that produced it, and records
one attempted check per compared item in a :class:`Checks` tally.
"""

from __future__ import annotations

import hashlib
import json
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.core.constants import EPSILON
from repro.core.itemset import Itemset
from repro.recommend import recommend_reference
from repro.store import load_run

#: Relative tolerance of reconstructed confidences (path products of the
#: Luxenburger basis accumulate rounding).
CONFIDENCE_RTOL = 1e-9
#: Rules of a basis whose support and confidence :func:`check_rule_sample` recomputes.
RULE_SAMPLE = 200


class Checks:
    """Attempted and failed oracle checks, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def check_families(checks: Checks, frequent, closed) -> None:
    """Each frequent itemset's support equals its closure's in the closed family."""
    for itemset, count in frequent.items_with_supports():
        checks.check(closed.inferred_support_count(itemset) == count,
                     f"support of frequent {itemset} != its closure's")


def check_store(checks: Checks, path, counts: dict):
    """The store reloads under ``verify="full"`` with the built rule counts."""
    stored = load_run(path, verify="full")
    for name, count in counts.items():
        arrays = stored.rule_arrays.get(name)
        checks.check(arrays is not None and len(arrays) == count,
                     f"stored {name} holds {None if arrays is None else len(arrays)} "
                     f"rules, built {count}")
    return stored


def check_rule_sample(checks: Checks, arrays, frequent, seed: int) -> None:
    """A seeded sample of rules has support and confidence of the frequent family."""
    n_objects = frequent.n_objects
    rng = np.random.default_rng(seed)
    for row in rng.choice(len(arrays), size=min(RULE_SAMPLE, len(arrays)), replace=False):
        rule = arrays.rule_at(int(row))
        count = frequent.get(rule.antecedent.union(rule.consequent))
        body = frequent.get(rule.antecedent) if len(rule.antecedent) else n_objects
        checks.check(
            count is not None and body is not None
            and rule.support_count == count
            and rule.support == count / n_objects
            and np.isclose(rule.confidence, count / body, rtol=CONFIDENCE_RTOL, atol=0),
            f"rule {rule} disagrees with the frequent family",
        )


def basis_digest(arrays) -> str:
    """SHA-256 prefix of a basis's canonically sorted columns and universe."""
    canonical = arrays.sorted_canonically()
    digest = hashlib.sha256(json.dumps(list(map(str, canonical.universe))).encode())
    for column in (canonical.antecedents.words, canonical.consequents.words,
                   canonical.support, canonical.confidence, canonical.support_count):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


def check_digests(checks: Checks, rule_arrays: dict, pinned: dict) -> None:
    """Each basis's digest equals the one pinned for the default seed."""
    for name, expected in pinned.items():
        actual = basis_digest(rule_arrays[name]) if name in rule_arrays else None
        checks.check(actual == expected, f"{name} digest {actual} != pinned {expected}")


class ServedAnswers:
    """Checks served answers against the columns and families of one store."""

    def __init__(self, stored) -> None:
        self.bases = {name: arrays.sorted_canonically()
                      for name, arrays in stored.rule_arrays.items()}
        self.closed = stored.closed
        self.n_objects = stored.closed.n_objects

    def check(self, checks: Checks, query, status: int, body: bytes) -> None:
        payload = json.loads(body)
        getattr(self, f"_check_{query.kind}")(checks, query, status, payload)

    def _check_bases(self, checks, query, status, payload) -> None:
        served = {row["name"]: row["rules"] for row in payload["bases"]}
        expected = {name: len(arrays) for name, arrays in self.bases.items()}
        checks.check(status == 200 and served == expected,
                     f"/bases lists {served}, store holds {expected}")

    def _check_rules(self, checks, query, status, payload) -> None:
        split = urlsplit(query.path)
        name = split.path.split("/")[2]
        params = dict(parse_qsl(split.query))
        arrays = self.bases[name]
        mask = arrays.confidence >= float(params["min_confidence"])
        exact = arrays.confidence >= 1.0 - EPSILON
        if params.get("kind") == "exact":
            mask &= exact
        elif params.get("kind") == "approximate":
            mask &= ~exact
        for field, sides in (("items", ("antecedents", "consequents")),
                             ("antecedent_items", ("antecedents",)),
                             ("consequent_items", ("consequents",))):
            if field in params:
                mask &= self._has_item(arrays, sides, params[field])
        offset, limit = int(params["offset"]), int(params["limit"])
        rows = np.nonzero(mask)[0][offset: offset + limit]
        expected = [self._rule(arrays, int(row)) for row in rows]
        checks.check(
            status == 200 and payload["total"] == int(mask.sum())
            and payload["rules"] == expected,
            f"{query.path}: page differs from the stored columns",
        )

    @staticmethod
    def _has_item(arrays, sides, item) -> np.ndarray:
        if item not in arrays.universe:
            return np.zeros(len(arrays), dtype=bool)
        position = arrays.universe.index(item)
        word, bit = position >> 6, np.uint64(position & 63)
        found = np.zeros(len(arrays), dtype=bool)
        for side in sides:
            found |= (getattr(arrays, side).words[:, word] >> bit & np.uint64(1)) == 1
        return found

    @staticmethod
    def _rule(arrays, row: int) -> dict:
        def side(matrix):
            return [arrays.universe[i] for i in matrix.row_indices(row)]

        count = int(arrays.support_count[row])
        return {
            "antecedent": side(arrays.antecedents),
            "consequent": side(arrays.consequents),
            "support": float(arrays.support[row]),
            "confidence": float(arrays.confidence[row]),
            "support_count": None if count < 0 else count,
        }

    def _check_derive(self, checks, query, status, payload) -> None:
        request = json.loads(query.body)
        antecedent, consequent = Itemset(request["antecedent"]), Itemset(request["consequent"])
        count = self.closed.inferred_support_count(antecedent.union(consequent))
        if count is None:
            checks.check(status == 422 and payload["derivable"] is False,
                         f"/derive {request}: infrequent union answered {status}")
            return
        body = self.closed.inferred_support_count(antecedent) if len(antecedent) else self.n_objects
        rule = payload.get("rule", {})
        checks.check(
            status == 200 and rule.get("support_count") == count
            and rule.get("support") == count / self.n_objects
            and np.isclose(rule.get("confidence", -1.0), count / body,
                           rtol=CONFIDENCE_RTOL, atol=0),
            f"/derive {request}: answered {status} {rule}, families give {count}/{body}",
        )

    def _check_recommend(self, checks, query, status, payload) -> None:
        request = json.loads(query.body)
        reference = recommend_reference(self.bases[request["basis"]], request["basket"],
                                        request["k"])
        expected = [
            {"items": list(rec.items), "confidence": rec.confidence,
             "support": rec.support, "support_count": rec.support_count,
             "antecedent": list(rec.antecedent), "consequent": list(rec.consequent)}
            for rec in reference.recommendations
        ]
        checks.check(
            status == 200 and payload["recommendations"] == expected
            and payload["matched_rules"] == reference.matched_rules
            and payload["known_items"] == list(reference.known_items),
            f"/recommend {request}: differs from recommend_reference",
        )
