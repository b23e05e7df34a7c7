"""Tests of the rule-serving daemon (:mod:`repro.serve`).

Three layers, mirroring the package: the LRU answer cache in
isolation, the transport-free :class:`ServeApp` request handling
checked against direct :class:`RuleArrays` / :class:`BasisDerivation`
oracles, and the live stdlib HTTP server — including an 8+-thread
client swarm and store reloads (SIGHUP and mtime) that must never
serve a torn read.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.analysis.metrics import summarize_rules
from repro.core.derivation import BasisDerivation
from repro.core.dg_basis import build_duquenne_guigues_basis
from repro.core.itemset import Itemset
from repro.core.luxenburger import LuxenburgerBasis
from repro.data.context import TransactionDatabase
from repro.errors import DerivationError, InvalidParameterError
from repro.experiments.harness import (
    build_rule_artifacts,
    mine_itemsets,
    save_artifacts,
)
from repro.serve import LRUCache, ServeApp, serve_in_thread
from repro.store import save_run

FIG1_TRANSACTIONS = [
    ["a", "c", "d"],
    ["b", "c", "e"],
    ["a", "b", "c", "e"],
    ["b", "e"],
    ["a", "b", "c", "e"],
]


def build_store(path, minconf: float = 0.7, minsup: float = 0.4):
    """Save a Fig. 1 run into *path* and return the path."""
    db = TransactionDatabase(FIG1_TRANSACTIONS, name="fig1")
    mining = mine_itemsets(db, minsup)
    artifacts = build_rule_artifacts(mining, minconf=minconf)
    return save_artifacts(path, mining, artifacts)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return build_store(tmp_path_factory.mktemp("serve") / "fig1.npz")


@pytest.fixture(scope="module")
def app(store_path):
    return ServeApp(store_path, watch=False)


@pytest.fixture(scope="module")
def live(app):
    server, _thread = serve_in_thread(app)
    yield server
    server.shutdown()
    server.server_close()


def http_request(server, method, path, body=None):
    """One HTTP round trip; returns ``(status, decoded_json)``."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            LRUCache(-1)

    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        assert cache.get("a") == (False, None)
        cache.put("a", 1)
        assert cache.get("a") == (True, 1)
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1, "capacity": 4,
        }

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # promote "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)
        assert cache.stats()["evictions"] == 1

    def test_eviction_counter_accumulates(self):
        cache = LRUCache(2)
        for key in range(6):
            cache.put(key, key)
        assert cache.stats()["evictions"] == 4
        assert len(cache) == 2
        # overwriting a resident key is not an eviction
        cache.put(5, -5)
        assert cache.stats()["evictions"] == 4
        # clear() drops entries but keeps the lifetime counters
        cache.clear()
        assert cache.stats()["evictions"] == 4

    def test_evictions_surface_in_metrics(self, store_path):
        app = ServeApp(store_path, cache_size=1, watch=False)
        name = next(iter(app.loaded.bases))
        app.handle("GET", f"/bases/{name}/rules")
        app.handle("GET", f"/bases/{name}/rules", {"limit": "1"})
        app.handle("GET", f"/bases/{name}/rules", {"limit": "2"})
        _, metrics = app.handle("GET", "/metrics")
        assert metrics["cache"]["evictions"] == 2
        assert metrics["cache"]["capacity"] == 1

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") == (False, None)
        assert len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["size"] == 0


# ----------------------------------------------------------------------
# App-level endpoints vs direct oracles
# ----------------------------------------------------------------------
class TestSnapshotLoad:
    def test_loads_only_served_sections(self, store_path, monkeypatch):
        """The transaction context is never served, so it is not loaded."""
        import repro.serve.app as app_module
        from repro.store import load_run

        requested = []

        def recording_load_run(path, sections=None, **kwargs):
            requested.append(sections)
            return load_run(path, sections=sections, **kwargs)

        monkeypatch.setattr(app_module, "load_run", recording_load_run)
        served = ServeApp(store_path, watch=False)
        assert len(requested) == 1 and requested[0] is not None
        assert "context" not in requested[0]
        assert {"frequent", "closed", "order", "rules"} <= set(requested[0])
        # The answers are those of the whole store's columns.
        full = load_run(store_path)
        assert set(served.loaded.bases) == set(full.rule_arrays)
        for name, arrays in full.rule_arrays.items():
            canonical = arrays.sorted_canonically()
            held = served.loaded.bases[name].arrays
            assert held.universe == canonical.universe
            for left, right in (
                (held.antecedents.words, canonical.antecedents.words),
                (held.consequents.words, canonical.consequents.words),
                (held.support, canonical.support),
                (held.confidence, canonical.confidence),
                (held.support_count, canonical.support_count),
            ):
                assert np.array_equal(left, right)
        body = b'{"antecedent": ["a"], "consequent": ["c"]}'
        status, derived = served.handle("POST", "/derive", body=body)
        assert status == 200 and derived["derivable"]


class TestHealthAndBases:
    def test_healthz(self, app, store_path):
        status, payload = app.handle("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["store"] == str(store_path)
        assert payload["dataset"] == "fig1"
        assert payload["generation"] == 1
        assert payload["derivation"] == "ready"
        assert set(payload["bases"]) == set(app.loaded.bases)

    def test_bases_statistics_match_summarize_rules(self, app):
        status, payload = app.handle("GET", "/bases")
        assert status == 200
        for row in payload["bases"]:
            served = app.loaded.bases[row["name"]]
            expected = summarize_rules(served.arrays)
            for key, value in expected.items():
                assert row[key] == pytest.approx(value)

    def test_unknown_route_404(self, app):
        status, payload = app.handle("GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_405(self, app):
        name = next(iter(app.loaded.bases))
        status, payload = app.handle("POST", f"/bases/{name}/rules")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        status, payload = app.handle("GET", "/derive")
        assert status == 405


class TestRulesEndpoint:
    def rules(self, app, name, **params):
        return app.handle(
            "GET", f"/bases/{name}/rules",
            {key: str(value) for key, value in params.items()},
        )

    def test_unknown_basis_404(self, app):
        status, payload = self.rules(app, "nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_full_page_matches_canonical_arrays(self, app):
        for name, served in app.loaded.bases.items():
            status, payload = self.rules(app, name, limit=1000)
            assert status == 200
            arrays = served.arrays
            assert payload["total"] == len(arrays)
            assert payload["count"] == len(arrays)
            for row, rule in enumerate(payload["rules"]):
                antecedent = [
                    arrays.universe[i]
                    for i in arrays.antecedents.row_indices(row)
                ]
                consequent = [
                    arrays.universe[i]
                    for i in arrays.consequents.row_indices(row)
                ]
                assert rule["antecedent"] == antecedent
                assert rule["consequent"] == consequent
                assert rule["support"] == pytest.approx(arrays.support[row])
                assert rule["confidence"] == pytest.approx(
                    arrays.confidence[row]
                )

    def test_support_confidence_filters_match_numpy_oracle(self, app):
        name = "all" if "all" in app.loaded.bases else next(iter(app.loaded.bases))
        arrays = app.loaded.bases[name].arrays
        status, payload = self.rules(
            app, name, min_support=0.6, min_confidence=0.75, limit=1000
        )
        assert status == 200
        expected = int(
            ((arrays.support >= 0.6) & (arrays.confidence >= 0.75)).sum()
        )
        assert payload["total"] == expected
        for rule in payload["rules"]:
            assert rule["support"] >= 0.6
            assert rule["confidence"] >= 0.75

    def test_kind_filter_matches_exact_mask(self, app):
        for name, served in app.loaded.bases.items():
            exact = int(served.arrays.exact_mask().sum())
            _, exact_page = self.rules(app, name, kind="exact", limit=1000)
            _, approx_page = self.rules(app, name, kind="approximate", limit=1000)
            assert exact_page["total"] == exact
            assert approx_page["total"] == len(served.arrays) - exact
            assert all(
                rule["confidence"] == 1.0 for rule in exact_page["rules"]
            )
            assert all(
                rule["confidence"] < 1.0 for rule in approx_page["rules"]
            )

    def test_item_filters_match_python_oracle(self, app):
        name = "all" if "all" in app.loaded.bases else next(iter(app.loaded.bases))
        _, full = self.rules(app, name, limit=1000)
        for params, predicate in [
            ({"items": "b,e"}, lambda r: {"b", "e"}
             <= set(r["antecedent"]) | set(r["consequent"])),
            ({"antecedent_items": "c"}, lambda r: "c" in r["antecedent"]),
            ({"consequent_items": "e"}, lambda r: "e" in r["consequent"]),
        ]:
            status, payload = self.rules(app, name, limit=1000, **params)
            assert status == 200
            expected = [r for r in full["rules"] if predicate(r)]
            assert payload["rules"] == expected

    def test_item_filter_outside_universe_matches_nothing(self, app):
        name = next(iter(app.loaded.bases))
        status, payload = self.rules(app, name, items="zebra")
        assert status == 200
        assert payload["total"] == 0

    def test_pagination_stitches_back_together(self, app):
        name = "all" if "all" in app.loaded.bases else next(iter(app.loaded.bases))
        _, full = self.rules(app, name, limit=1000)
        stitched, offset = [], 0
        while True:
            _, page = self.rules(app, name, limit=7, offset=offset)
            stitched.extend(page["rules"])
            offset += 7
            if page["count"] < 7:
                break
        assert stitched == full["rules"]

    def test_offset_past_end_is_empty(self, app):
        name = next(iter(app.loaded.bases))
        status, payload = self.rules(app, name, offset=10_000)
        assert status == 200
        assert payload["count"] == 0 and payload["rules"] == []

    @pytest.mark.parametrize(
        "params",
        [
            {"limit": 0},
            {"limit": 1001},
            {"limit": "many"},
            {"offset": -1},
            {"min_support": "high"},
            {"min_support": 1.5},
            {"kind": "fuzzy"},
            {"frobnicate": 1},
            {"items": ""},
        ],
    )
    def test_bad_parameters_400(self, app, params):
        name = next(iter(app.loaded.bases))
        status, payload = self.rules(app, name, **params)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"


class TestDeriveEndpoint:
    def derive(self, app, body):
        return app.handle(
            "POST", "/derive",
            body=json.dumps(body).encode() if isinstance(body, dict) else body,
        )

    @pytest.fixture(scope="class")
    def oracle(self, store_path):
        from repro.store import load_run

        stored = load_run(store_path)
        dg = build_duquenne_guigues_basis(stored.frequent, stored.closed)
        luxenburger = LuxenburgerBasis(
            stored.closed, minconf=0.0, transitive_reduction=True,
            lattice=stored.lattice,
        )
        return BasisDerivation(
            dg, luxenburger, n_objects=stored.closed.n_objects
        )

    def test_derivable_rule_matches_oracle(self, app, oracle):
        status, payload = self.derive(
            app, {"antecedent": ["c"], "consequent": ["b", "e"]}
        )
        assert status == 200
        rule = oracle.derive_rule(Itemset(["c"]), Itemset(["b", "e"]))
        assert payload["derivable"] is True
        assert payload["rule"]["support"] == pytest.approx(rule.support)
        assert payload["rule"]["confidence"] == pytest.approx(rule.confidence)
        assert payload["rule"]["antecedent"] == ["c"]
        assert payload["rule"]["consequent"] == ["b", "e"]

    def test_every_served_rule_is_derivable(self, app):
        for name, served in app.loaded.bases.items():
            _, page = app.handle(
                "GET", f"/bases/{name}/rules", {"limit": "1000"}
            )
            for rule in page["rules"]:
                if not rule["antecedent"]:
                    continue
                status, payload = self.derive(app, {
                    "antecedent": rule["antecedent"],
                    "consequent": rule["consequent"],
                })
                assert status == 200, (name, rule, payload)
                assert payload["rule"]["support"] == pytest.approx(
                    rule["support"]
                )
                assert payload["rule"]["confidence"] == pytest.approx(
                    rule["confidence"]
                )

    def test_empty_antecedent(self, app, oracle):
        # No Fig. 1 item is in every object, so h(∅) = ∅ is no lattice
        # node; the answer divides supp(c) by n_objects.
        status, payload = self.derive(app, {"antecedent": [], "consequent": ["c"]})
        assert status == 200
        assert payload["derivable"] is True
        assert payload["rule"] == {
            "antecedent": [],
            "consequent": ["c"],
            "support": 0.8,
            "confidence": 0.8,
            "support_count": 4,
        }
        rule = oracle.derive_rule(Itemset(), Itemset(["c"]))
        assert (rule.support, rule.confidence) == (0.8, 0.8)

    def test_not_derivable_422(self, app, oracle):
        body = {"antecedent": ["a"], "consequent": ["z"]}
        with pytest.raises(DerivationError):
            oracle.derive_rule(Itemset(["a"]), Itemset(["z"]))
        status, payload = self.derive(app, body)
        assert status == 422
        assert payload["derivable"] is False
        assert payload["error"]["code"] == "not_derivable"

    @pytest.mark.parametrize(
        "body",
        [
            None,
            b"",
            b"not json",
            b"[1, 2]",
            {"antecedent": ["a"]},  # missing/empty consequent
            {"antecedent": ["a"], "consequent": []},
            {"antecedent": "a", "consequent": ["c"]},
            {"antecedent": [True], "consequent": ["c"]},
            {"antecedent": ["a"], "consequent": ["c"], "confidence": 1},
        ],
    )
    def test_bad_bodies_400(self, app, body):
        status, payload = self.derive(app, body)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_store_without_families_503(self, app, tmp_path):
        name = next(iter(app.loaded.bases))
        arrays = app.loaded.bases[name].arrays
        path = tmp_path / "rules-only.npz"
        save_run(path, rule_arrays={name: arrays})
        bare = ServeApp(path, watch=False)
        status, payload = bare.handle(
            "POST", "/derive",
            body=b'{"antecedent": ["a"], "consequent": ["c"]}',
        )
        assert status == 503
        assert payload["error"]["code"] == "derivation_unavailable"
        # the rule pages still serve fine without the families
        status, page = bare.handle("GET", f"/bases/{name}/rules")
        assert status == 200
        assert page["total"] == len(arrays)


class TestRecommendEndpoint:
    def recommend(self, app, payload):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        return app.handle("POST", "/recommend", body=body)

    def test_answer_matches_object_oracle(self, app):
        from repro.recommend import recommend_reference

        for basket in ([], ["a"], ["b", "c"], ["a", "b", "c", "e"]):
            status, payload = self.recommend(app, {"basket": basket, "k": 3})
            assert status == 200
            basis = app.loaded.bases[payload["basis"]]
            expected = recommend_reference(basis.arrays, basket, 3)
            assert payload["matched_rules"] == expected.matched_rules
            assert payload["known_items"] == list(expected.known_items)
            assert payload["recommendations"] == [
                {
                    "items": list(rec.items),
                    "confidence": rec.confidence,
                    "support": rec.support,
                    "support_count": rec.support_count,
                    "antecedent": list(rec.antecedent),
                    "consequent": list(rec.consequent),
                }
                for rec in expected.recommendations
            ]

    def test_default_basis_follows_preference(self, app):
        from repro.serve.app import RECOMMEND_BASIS_PREFERENCE

        status, payload = self.recommend(app, {"basket": ["a"]})
        assert status == 200
        expected = next(
            name for name in RECOMMEND_BASIS_PREFERENCE if name in app.loaded.bases
        )
        assert payload["basis"] == expected
        assert payload["k"] == 5  # the documented default

    def test_explicit_basis_and_every_stored_basis_answers(self, app):
        for name in app.loaded.bases:
            status, payload = self.recommend(app, {"basket": ["b", "c"], "basis": name})
            assert status == 200
            assert payload["basis"] == name

    def test_unknown_items_are_reported_not_rejected(self, app):
        status, payload = self.recommend(app, {"basket": ["a", "zz"]})
        assert status == 200
        assert payload["basket"] == ["a", "zz"]
        assert payload["known_items"] == ["a"]

    def test_healthz_names_the_default_basis(self, app):
        _, health = app.handle("GET", "/healthz")
        assert health["recommend_basis"] == app.loaded.recommend_basis
        assert health["recommend_basis"] in app.loaded.bases

    def test_unknown_basis_404(self, app):
        status, payload = self.recommend(app, {"basket": ["a"], "basis": "nope"})
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_405(self, app):
        status, payload = app.handle("GET", "/recommend")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"not json",
            b"[]",
            b"{}",
            b'{"basket": "a"}',
            b'{"basket": [true]}',
            b'{"basket": ["a"], "k": "three"}',
            b'{"basket": ["a"], "k": 0}',
            b'{"basket": ["a"], "k": 101}',
            b'{"basket": ["a"], "basis": 3}',
            b'{"basket": ["a"], "items": ["b"]}',
        ],
    )
    def test_bad_bodies_400(self, app, body):
        status, payload = self.recommend(app, body)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_rules_only_store_still_recommends(self, app, tmp_path):
        name = next(iter(app.loaded.bases))
        arrays = app.loaded.bases[name].arrays
        path = tmp_path / "rules-only.npz"
        save_run(path, rule_arrays={name: arrays})
        bare = ServeApp(path, watch=False)
        status, payload = bare.handle(
            "POST", "/recommend", body=b'{"basket": ["b", "c"]}'
        )
        assert status == 200
        assert payload["basis"] == name

    def test_store_without_bases_503(self, tmp_path):
        db = TransactionDatabase(FIG1_TRANSACTIONS, name="fig1")
        path = save_run(tmp_path / "no-bases.npz", database=db, name="fig1")
        bare = ServeApp(path, watch=False)
        _, health = bare.handle("GET", "/healthz")
        assert health["recommend_basis"] is None
        status, payload = bare.handle("POST", "/recommend", body=b'{"basket": ["a"]}')
        assert status == 503
        assert payload["error"]["code"] == "recommendation_unavailable"

    def test_basket_canonicalization_shares_cache_entries(self, store_path):
        app = ServeApp(store_path, watch=False)
        first = self.recommend(app, {"basket": ["b", "a"]})
        second = self.recommend(app, {"basket": ["a", "b", "a"]})
        assert first == second
        assert app.cache.stats()["hits"] == 1

    def test_metrics_count_the_route(self, store_path):
        app = ServeApp(store_path, watch=False)
        self.recommend(app, {"basket": ["a"]})
        self.recommend(app, b"not json")
        _, metrics = app.handle("GET", "/metrics")
        route = metrics["endpoints"]["POST /recommend"]
        assert route["count"] == 2
        assert route["errors"] == 1


class TestMetricsAndCache:
    def test_counters_and_cache_hits(self, store_path):
        app = ServeApp(store_path, watch=False)
        name = next(iter(app.loaded.bases))
        for _ in range(3):
            status, _ = app.handle("GET", f"/bases/{name}/rules")
            assert status == 200
        status, metrics = app.handle("GET", "/metrics")
        assert status == 200
        assert metrics["requests_total"] == 3
        route = metrics["endpoints"]["GET /bases/{name}/rules"]
        assert route["count"] == 3
        assert route["errors"] == 0
        assert route["latency_seconds_max"] >= route["latency_seconds_mean"]
        assert metrics["cache"] == {
            "hits": 2, "misses": 1, "evictions": 0, "size": 1,
            "capacity": 1024,
        }

    def test_errors_are_counted(self, store_path):
        app = ServeApp(store_path, watch=False)
        app.handle("GET", "/bases/nope/rules")
        _, metrics = app.handle("GET", "/metrics")
        assert metrics["errors_total"] == 1
        assert metrics["endpoints"]["GET /bases/{name}/rules"]["errors"] == 1

    def test_cache_size_zero_never_hits(self, store_path):
        app = ServeApp(store_path, cache_size=0, watch=False)
        name = next(iter(app.loaded.bases))
        for _ in range(3):
            app.handle("GET", f"/bases/{name}/rules")
        _, metrics = app.handle("GET", "/metrics")
        assert metrics["cache"]["hits"] == 0
        assert metrics["cache"]["misses"] == 3

    def test_derive_answers_are_cached(self, store_path):
        app = ServeApp(store_path, watch=False)
        body = b'{"antecedent": ["c"], "consequent": ["b", "e"]}'
        first = app.handle("POST", "/derive", body=body)
        second = app.handle("POST", "/derive", body=body)
        assert first == second
        assert app.cache.stats()["hits"] == 1


# ----------------------------------------------------------------------
# Live HTTP server
# ----------------------------------------------------------------------
class TestHTTPServer:
    def test_get_matches_app_answer(self, app, live):
        for path in ("/healthz", "/bases", "/metrics"):
            status, payload = http_request(live, "GET", path)
            assert status == 200
            if path != "/metrics":  # metrics counters move between calls
                assert app.handle("GET", path.split("?")[0])[1] == payload

    def test_rules_with_query_string(self, app, live):
        name = next(iter(app.loaded.bases))
        status, payload = http_request(
            live, "GET", f"/bases/{name}/rules?limit=2&min_confidence=0.7"
        )
        expected = app.handle(
            "GET", f"/bases/{name}/rules",
            {"limit": "2", "min_confidence": "0.7"},
        )
        assert (status, payload) == expected

    def test_post_derive(self, live):
        status, payload = http_request(
            live, "POST", "/derive",
            body=b'{"antecedent": ["c"], "consequent": ["b", "e"]}',
        )
        assert status == 200
        assert payload["derivable"] is True

    def test_post_recommend(self, app, live):
        status, payload = http_request(
            live, "POST", "/recommend", body=b'{"basket": ["b", "c"], "k": 3}'
        )
        expected = app.handle("POST", "/recommend", body=b'{"basket": ["b", "c"], "k": 3}')
        assert (status, payload) == expected
        assert payload["recommendations"]

    def test_error_statuses_pass_through(self, live):
        assert http_request(live, "GET", "/nope")[0] == 404
        status, payload = http_request(live, "POST", "/derive", body=b"{")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_oversized_body_413(self, live):
        status, payload = http_request(
            live, "POST", "/derive", body=b" " * ((1 << 20) + 1)
        )
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_keep_alive_connection_reuse(self, live):
        host, port = live.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(5):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()

    def test_concurrent_swarm_matches_oracle(self, app, live):
        """8 client threads, every answer equal to the direct app answer."""
        name = "all" if "all" in app.loaded.bases else next(iter(app.loaded.bases))
        queries = [
            ("GET", "/healthz", None),
            ("GET", "/bases", None),
            ("GET", f"/bases/{name}/rules?limit=1000", None),
            ("GET", f"/bases/{name}/rules?kind=exact&limit=1000", None),
            ("GET", f"/bases/{name}/rules?min_confidence=0.75&limit=1000", None),
            ("POST", "/derive",
             b'{"antecedent": ["c"], "consequent": ["b", "e"]}'),
            ("POST", "/recommend", b'{"basket": ["b", "c"], "k": 3}'),
        ]
        expected = {}
        for method, path, body in queries:
            bare, _, query = path.partition("?")
            params = dict(
                pair.split("=") for pair in query.split("&") if pair
            )
            expected[(method, path)] = app.handle(method, bare, params, body)

        failures = []
        barrier = threading.Barrier(8)

        def swarm() -> None:
            host, port = live.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=30)
            barrier.wait()
            try:
                for round_index in range(10):
                    for method, path, body in queries:
                        headers = (
                            {"Content-Type": "application/json"} if body else {}
                        )
                        connection.request(method, path, body=body,
                                           headers=headers)
                        response = connection.getresponse()
                        got = (response.status, json.loads(response.read()))
                        if got != expected[(method, path)]:
                            failures.append((method, path, got))
            finally:
                connection.close()

        threads = [threading.Thread(target=swarm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        _, metrics = app.handle("GET", "/metrics")
        assert metrics["cache"]["hits"] > 0


# ----------------------------------------------------------------------
# Reload behaviour
# ----------------------------------------------------------------------
class TestReload:
    def test_sighup_style_reload_swaps_generation(self, tmp_path):
        path = build_store(tmp_path / "run.npz", minconf=0.7)
        app = ServeApp(path, watch=False)
        assert app.handle("GET", "/healthz")[1]["generation"] == 1
        build_store(tmp_path / "run.npz", minconf=0.5)
        # watch=False: the replaced file alone must NOT trigger a reload
        assert app.handle("GET", "/healthz")[1]["generation"] == 1
        app.request_reload()
        health = app.handle("GET", "/healthz")[1]
        assert health["generation"] == 2
        assert health["minconf"] == 0.5

    def test_mtime_watch_reloads_on_replace(self, tmp_path):
        path = build_store(tmp_path / "run.npz", minconf=0.7)
        app = ServeApp(path, watch=True)
        _, before = app.handle("GET", "/bases")
        sidecar = build_store(tmp_path / "run.npz.new", minconf=0.5)
        os.replace(sidecar, path)
        _, after = app.handle("GET", "/bases")
        assert after["generation"] == 2
        assert after["minconf"] == 0.5
        assert before["minconf"] == 0.7

    def test_reload_clears_the_answer_cache(self, tmp_path):
        path = build_store(tmp_path / "run.npz", minconf=0.7)
        app = ServeApp(path, watch=False)
        name = next(iter(app.loaded.bases))
        app.handle("GET", f"/bases/{name}/rules")
        app.handle("GET", f"/bases/{name}/rules")
        assert app.cache.stats()["hits"] == 1
        app.request_reload()
        _, page = app.handle("GET", f"/bases/{name}/rules")
        assert page["generation"] == 2
        stats = app.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_broken_replacement_keeps_serving(self, tmp_path):
        path = build_store(tmp_path / "run.npz", minconf=0.7)
        app = ServeApp(path, watch=True)
        app.handle("GET", "/healthz")
        path.write_bytes(b"this is not an npz container")
        for _ in range(3):
            status, health = app.handle("GET", "/healthz")
            assert status == 200
            assert health["generation"] == 1  # old snapshot still serving
        _, metrics = app.handle("GET", "/metrics")
        assert metrics["reload_failures"] == 1  # broken file tried only once
        assert metrics["last_reload_error"]
        # a good replacement afterwards recovers
        sidecar = build_store(tmp_path / "run.npz.new", minconf=0.5)
        os.replace(sidecar, path)
        _, health = app.handle("GET", "/healthz")
        assert health["generation"] == 2
        assert health["minconf"] == 0.5

    def test_no_torn_reads_under_concurrent_reload(self, tmp_path):
        """Swarm queries while the store is swapped: every answer must be
        internally consistent with exactly one store generation."""
        path = build_store(tmp_path / "run.npz", minconf=0.7)
        variant_a = build_store(tmp_path / "a.npz", minconf=0.7)
        variant_b = build_store(tmp_path / "b.npz", minconf=0.5)
        app = ServeApp(path, watch=True)

        name = "all" if "all" in app.loaded.bases else next(iter(app.loaded.bases))
        request = ("GET", f"/bases/{name}/rules", {"limit": "1000"})

        def strip_generation(page: dict) -> dict:
            return {key: value for key, value in page.items()
                    if key != "generation"}

        answers = [
            strip_generation(ServeApp(variant, watch=False).handle(*request)[1])
            for variant in (variant_a, variant_b)
        ]
        assert answers[0] != answers[1]  # the swap must be observable

        failures = []
        generations = []
        stop = threading.Event()

        def reader() -> None:
            last_generation = 0
            while not stop.is_set():
                status, page = app.handle(*request)
                if status != 200:
                    failures.append(("status", status, page))
                    return
                if strip_generation(page) not in answers:
                    failures.append(("torn", page))
                    return
                if page["generation"] < last_generation:
                    failures.append(("generation went backwards", page))
                    return
                last_generation = page["generation"]
            generations.append(last_generation)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for source in (variant_b, variant_a, variant_b, variant_a, variant_b):
            sidecar = tmp_path / "swap.npz"
            sidecar.write_bytes(source.read_bytes())
            os.replace(sidecar, path)
            time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        assert app.handle("GET", "/healthz")[1]["generation"] >= 2
