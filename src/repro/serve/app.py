"""The rule-serving application: one loaded store, many concurrent queries.

This module is the transport-free core of ``repro serve``.  A
:class:`ServeApp` loads a :mod:`repro.store` container once into an
immutable :class:`LoadedStore` snapshot (canonically sorted rule columns
per basis, summary statistics, and — when the store carries the needed
sections — a :class:`~repro.core.derivation.BasisDerivation` for checking
arbitrary candidate rules), then answers JSON queries through
:meth:`ServeApp.handle`:

========  ======================  ==========================================
method    path                    answer
========  ======================  ==========================================
GET       ``/healthz``            liveness + store identity
GET       ``/bases``              stored bases with per-basis statistics
GET       ``/bases/{name}/rules`` filtered, paginated rule listing
POST      ``/derive``             derivability check of a candidate rule
POST      ``/recommend``          top-k consequents for a partial basket
GET       ``/metrics``            request/latency/cache counters
========  ======================  ==========================================

Handlers never mutate the snapshot: every request reads ``self.loaded``
exactly once, so a concurrent reload (SIGHUP or store-file replacement)
swaps the whole snapshot atomically and in-flight requests keep
answering from the generation they started with — no torn reads.  The
HTTP transport lives in :mod:`repro.serve.http`.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..analysis.metrics import summarize_rules
from ..core.derivation import BasisDerivation
from ..core.dg_basis import build_duquenne_guigues_basis
from ..core.itemset import Itemset
from ..core.luxenburger import LuxenburgerBasis
from ..core.rulearrays import RuleArrays
from ..errors import DerivationError, ReproError, StoreIntegrityError
from ..recommend import BASIS_PREFERENCE, Recommender, preferred_basis
from ..store import load_run
from ..testing.faults import get_injector
from .cache import LRUCache

__all__ = [
    "ApiError",
    "LoadedStore",
    "ServedBasis",
    "ServeApp",
    "DEFAULT_CACHE_SIZE",
    "MAX_PAGE_LIMIT",
    "MAX_RECOMMEND_K",
    "RECOMMEND_BASIS_PREFERENCE",
]

#: Default capacity of the per-store answer cache.
DEFAULT_CACHE_SIZE = 1024

#: The store sections a snapshot reads; the transaction context is
#: never served, so it is not decoded.
_SERVED_SECTIONS = ("frequent", "closed", "generators", "order", "rules")

#: Hard ceiling of the ``limit`` pagination parameter.
MAX_PAGE_LIMIT = 1000

#: Default page size of ``GET /bases/{name}/rules``.
DEFAULT_PAGE_LIMIT = 50

#: Default top-k size of ``POST /recommend``.
DEFAULT_RECOMMEND_K = 5

#: Hard ceiling of the ``k`` body parameter of ``POST /recommend``.
MAX_RECOMMEND_K = 100

#: Default-basis preference of ``POST /recommend`` when the body names
#: none: the first of these that the store holds answers the query,
#: falling back to the alphabetically first stored basis.  Shared with
#: the ``repro recommend`` CLI verb
#: (:data:`repro.recommend.BASIS_PREFERENCE`).
RECOMMEND_BASIS_PREFERENCE = BASIS_PREFERENCE

_RULES_PARAMS = frozenset(
    {
        "min_support",
        "max_support",
        "min_confidence",
        "max_confidence",
        "kind",
        "items",
        "antecedent_items",
        "consequent_items",
        "limit",
        "offset",
    }
)


class ApiError(ReproError):
    """A request error with an HTTP status and a stable machine code.

    Parameters
    ----------
    status : int
        HTTP status code of the response (400, 404, ...).
    code : str
        Stable machine-readable error identifier (``bad_request``,
        ``not_found``, ``not_derivable``, ...) — the contract documented
        in ``docs/serving.md``.
    message : str
        Human-readable description of what went wrong.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.message = str(message)

    def payload(self) -> dict:
        """Return the JSON error envelope ``{"error": {code, message}}``."""
        return {"error": {"code": self.code, "message": self.message}}


@dataclass(frozen=True)
class ServedBasis:
    """One stored rule basis prepared for read-only serving.

    Attributes
    ----------
    name : str
        Registry name the basis was stored under (``"dg"``, ...).
    kind : str
        ``"exact"``, ``"approximate"``, ``"all"`` or ``"?"`` when the
        store predates basis kinds.
    arrays : RuleArrays
        The rule columns in canonical rule order (sorted once at load,
        so pagination is deterministic and matches the CLI ordering).
    metadata : dict
        Construction metadata recorded at save time.
    summary : dict
        Vectorised statistics (rule counts, exact/approximate split,
        average support/confidence) computed once at load.
    """

    name: str
    kind: str
    arrays: RuleArrays
    metadata: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LoadedStore:
    """An immutable snapshot of one loaded artifact store.

    Every request handler reads exactly one snapshot, so a reload can
    replace the app's current snapshot atomically without locking the
    readers.

    Attributes
    ----------
    path : Path
        The store file the snapshot was loaded from.
    generation : int
        Monotonic load counter (1 for the boot load); included in query
        answers and cache keys so reloads are observable and can never
        serve stale cached entries.
    signature : tuple[int, int] or None
        ``(st_mtime_ns, st_size)`` of the file at load time — the
        change detector of the mtime watcher.
    name : str
        Dataset name recorded in the manifest.
    minsup, minconf : float or None
        Mining thresholds recorded in the manifest.
    n_objects : int or None
        Objects of the mined context (from the closed family), when the
        store carries one.
    bases : dict[str, ServedBasis]
        The stored rule bases, keyed by name.
    derivation : BasisDerivation or None
        Derivation engine for ``POST /derive``; ``None`` when the store
        lacks the sections needed to build one.
    derivation_error : str or None
        Why derivation is unavailable, when it is.
    recommenders : dict[str, Recommender]
        One :class:`~repro.recommend.Recommender` per stored basis,
        sharing each basis's already-sorted columns copy-on-write (only
        the inverted index is new memory).  Rebuilt with every snapshot,
        so hot reloads refresh the recommendation engine atomically too.
    recommend_basis : str or None
        Default basis of ``POST /recommend`` (see
        :data:`RECOMMEND_BASIS_PREFERENCE`); ``None`` when the store
        holds no rule basis at all.
    """

    path: Path
    generation: int
    signature: tuple[int, int] | None
    name: str
    minsup: float | None
    minconf: float | None
    n_objects: int | None
    bases: dict[str, ServedBasis]
    derivation: BasisDerivation | None
    derivation_error: str | None
    recommenders: dict[str, Recommender] = field(default_factory=dict)
    recommend_basis: str | None = None

    def require_basis(self, name: str) -> ServedBasis:
        """Return the served basis *name* or raise a 404 :class:`ApiError`."""
        try:
            return self.bases[name]
        except KeyError:
            raise ApiError(
                404,
                "not_found",
                f"basis {name!r} is not in the store; stored bases: "
                f"{', '.join(self.bases) or '(none)'}",
            ) from None

    def require_recommender(self, name: str | None) -> Recommender:
        """Return the recommender for basis *name* (default when ``None``).

        Raises a 503 :class:`ApiError` when the store holds no rule
        basis at all, and a 404 when *name* is not a stored basis.
        """
        if name is None:
            name = self.recommend_basis
        if name is None:
            raise ApiError(
                503,
                "recommendation_unavailable",
                "the store holds no rule basis to recommend from",
            )
        self.require_basis(name)
        return self.recommenders[name]


class _Metrics:
    """Thread-safe request/latency/reload counters behind ``GET /metrics``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests = 0
        self._errors = 0
        self._reloads = 0
        self._reload_failures = 0
        self._integrity_failures = 0
        self._rejected = 0
        self._deadline_exceeded = 0
        self._last_reload_error: str | None = None
        self._routes: dict[str, dict[str, float]] = {}

    def record_reject(self) -> None:
        """Count one request refused by the in-flight overload gate."""
        with self._lock:
            self._rejected += 1

    def record_timeout(self) -> None:
        """Count one request aborted by the per-request deadline."""
        with self._lock:
            self._deadline_exceeded += 1

    def observe(self, route: str, status: int, seconds: float) -> None:
        """Record one handled request for *route* with its latency."""
        with self._lock:
            self._requests += 1
            if status >= 400:
                self._errors += 1
            entry = self._routes.setdefault(
                route,
                {"count": 0, "errors": 0, "latency_seconds_total": 0.0,
                 "latency_seconds_max": 0.0},
            )
            entry["count"] += 1
            if status >= 400:
                entry["errors"] += 1
            entry["latency_seconds_total"] += seconds
            entry["latency_seconds_max"] = max(
                entry["latency_seconds_max"], seconds
            )

    def record_reload(
        self, error: str | None = None, integrity: bool = False
    ) -> None:
        """Record a reload attempt (successful when *error* is ``None``)."""
        with self._lock:
            if error is None:
                self._reloads += 1
            else:
                self._reload_failures += 1
                if integrity:
                    self._integrity_failures += 1
                self._last_reload_error = error

    def snapshot(self) -> dict:
        """Return all counters as a JSON-ready mapping (QPS included)."""
        with self._lock:
            uptime = max(time.monotonic() - self._started, 1e-9)
            endpoints = {}
            for route, entry in sorted(self._routes.items()):
                count = int(entry["count"])
                endpoints[route] = {
                    "count": count,
                    "errors": int(entry["errors"]),
                    "latency_seconds_total": entry["latency_seconds_total"],
                    "latency_seconds_max": entry["latency_seconds_max"],
                    "latency_seconds_mean": (
                        entry["latency_seconds_total"] / count if count else 0.0
                    ),
                }
            return {
                "uptime_seconds": uptime,
                "requests_total": self._requests,
                "errors_total": self._errors,
                "qps": self._requests / uptime,
                "reloads": self._reloads,
                "reload_failures": self._reload_failures,
                "integrity_failures": self._integrity_failures,
                "rejected_total": self._rejected,
                "deadline_exceeded_total": self._deadline_exceeded,
                "last_reload_error": self._last_reload_error,
                "endpoints": endpoints,
            }


def _signature(path: Path) -> tuple[int, int] | None:
    """Return the ``(mtime_ns, size)`` change signature of *path*, if present."""
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


def _rule_row(arrays: RuleArrays, row: int) -> dict:
    """Render one rule row of *arrays* as a JSON-ready mapping."""
    count = int(arrays.support_count[row])
    universe = arrays.universe
    return {
        "antecedent": [universe[i] for i in arrays.antecedents.row_indices(row)],
        "consequent": [universe[i] for i in arrays.consequents.row_indices(row)],
        "support": float(arrays.support[row]),
        "confidence": float(arrays.confidence[row]),
        "support_count": None if count < 0 else count,
    }


class ServeApp:
    """The long-lived, read-only rule-serving application.

    Parameters
    ----------
    store_path : str or Path
        A ``repro save`` NPZ container.  Loaded once at construction;
        reloaded on :meth:`request_reload` (the SIGHUP path) or — with
        ``watch=True`` — whenever the file's mtime/size signature
        changes between requests.
    cache_size : int
        Capacity of the LRU answer cache over canonicalized queries
        (``0`` disables caching).
    watch : bool
        Whether to stat the store file on each request and reload when
        it was replaced.  Replacements should be atomic (write a
        sidecar, then ``os.replace``); a half-written file that fails to
        load keeps the previous snapshot serving.
    workers : int, optional
        Worker count for the sharded kernels of the warm-start basis
        rebuild (``None`` = the ``REPRO_NUM_WORKERS`` environment
        variable, else serial; ``0`` = all cores).  Served answers are
        byte-identical for any worker count.
    retain_containment : bool
        Whether the loaded lattice keeps the packed ``n**2 / 8``-byte
        containment relation resident.  The daemon only needs
        point-ancestry probes, which the member masks answer, so the
        default is ``False`` — the CSR-only edge store mode that cuts
        warm-start resident memory on large lattices.
    verify : str
        Store integrity mode handed to :func:`repro.store.load_run` at
        (re)load time: ``"off"``, ``"manifest"`` or ``"full"``.  The
        daemon defaults to ``"full"`` — it loads once and serves for a
        long time, so the one-time digest pass is cheap insurance
        against serving from a silently corrupted container.
    request_timeout : float, optional
        Per-request deadline in seconds.  The expensive handlers check
        it between numpy passes and abort with a 503
        ``deadline_exceeded`` error once exceeded.  ``None``/``0``
        disables the deadline.
    max_inflight : int, optional
        Bound on concurrently handled requests.  Excess requests are
        rejected immediately with a 503 ``overloaded`` error (and a
        ``Retry-After`` header at the HTTP layer) instead of queueing
        without bound.  ``/healthz`` and ``/metrics`` bypass the gate
        so the daemon stays observable under overload.  ``None``/``0``
        disables the gate.
    extra_metrics : callable, optional
        Zero-argument callable returning a dict merged into the
        ``GET /metrics`` payload — the seam through which the
        supervisor publishes per-worker identity and the shared
        restart counter.

    Notes
    -----
    The app itself is transport-free: :meth:`handle` maps a parsed
    request to ``(status, payload)``.  :mod:`repro.serve.http` adds the
    stdlib threaded HTTP server on top.
    """

    def __init__(
        self,
        store_path: str | Path,
        cache_size: int = DEFAULT_CACHE_SIZE,
        watch: bool = True,
        workers: int | None = None,
        retain_containment: bool = False,
        verify: str = "full",
        request_timeout: float | None = None,
        max_inflight: int | None = None,
        extra_metrics=None,
    ) -> None:
        self._path = Path(store_path)
        self._watch = bool(watch)
        self._workers = workers
        self._retain_containment = bool(retain_containment)
        self._verify = verify
        self._request_timeout = (
            float(request_timeout) if request_timeout else None
        )
        self._inflight = (
            threading.BoundedSemaphore(int(max_inflight))
            if max_inflight
            else None
        )
        self._extra_metrics = extra_metrics
        self._local = threading.local()
        self.cache = LRUCache(cache_size)
        self.metrics = _Metrics()
        self._reload_lock = threading.Lock()
        self._reload_requested = threading.Event()
        self._failed_signature: tuple[int, int] | None = None
        self._loaded = self._load(generation=1)

    # ------------------------------------------------------------------
    # Loading and reloading
    # ------------------------------------------------------------------
    @property
    def loaded(self) -> LoadedStore:
        """LoadedStore: The current immutable store snapshot."""
        return self._loaded

    def _load(self, generation: int) -> LoadedStore:
        """Load the store file into a fresh :class:`LoadedStore` snapshot."""
        get_injector().fire("store.load", path=self._path)
        signature = _signature(self._path)
        stored = load_run(
            self._path,
            sections=_SERVED_SECTIONS,
            retain_containment=self._retain_containment,
            verify=self._verify,
        )
        bases: dict[str, ServedBasis] = {}
        recommenders: dict[str, Recommender] = {}
        for name, arrays in stored.rule_arrays.items():
            canonical = arrays.sorted_canonically()
            bases[name] = ServedBasis(
                name=name,
                kind=stored.basis_kinds.get(name, "?"),
                arrays=canonical,
                metadata=dict(stored.basis_metadata.get(name, {})),
                summary=summarize_rules(canonical),
            )
            # The recommender shares the snapshot's sorted columns
            # copy-on-write; only its inverted index is new memory.
            recommenders[name] = Recommender(
                canonical, workers=self._workers, assume_canonical=True
            )
        recommend_basis = preferred_basis(bases)
        derivation: BasisDerivation | None = None
        derivation_error: str | None = None
        if stored.closed is None or stored.frequent is None:
            derivation_error = (
                "derivation needs the 'closed' and 'frequent' store sections; "
                f"stored sections: {', '.join(stored.sections) or '(none)'}"
            )
        else:
            dg = build_duquenne_guigues_basis(stored.frequent, stored.closed)
            luxenburger = LuxenburgerBasis(
                stored.closed,
                minconf=0.0,
                transitive_reduction=True,
                lattice=stored.lattice,
                workers=self._workers,
            )
            derivation = BasisDerivation(
                dg, luxenburger, n_objects=stored.closed.n_objects
            )
        return LoadedStore(
            path=self._path,
            generation=generation,
            signature=signature,
            name=stored.name,
            minsup=stored.minsup,
            minconf=stored.minconf,
            n_objects=(
                stored.closed.n_objects if stored.closed is not None else None
            ),
            bases=bases,
            derivation=derivation,
            derivation_error=derivation_error,
            recommenders=recommenders,
            recommend_basis=recommend_basis,
        )

    def request_reload(self) -> None:
        """Ask for a reload before the next request (the SIGHUP handler)."""
        self._reload_requested.set()

    def maybe_reload(self) -> None:
        """Reload the store if requested or if the file was replaced.

        The new snapshot is built completely before being swapped in
        with one atomic attribute assignment; a load failure (e.g. a
        half-written replacement) keeps the previous snapshot serving
        and is surfaced through ``GET /metrics``.  The same failed file
        signature is not retried until the file changes again.
        """
        changed = (
            self._watch
            and (current := _signature(self._path)) != self._loaded.signature
            and current != self._failed_signature
        )
        if not (self._reload_requested.is_set() or changed):
            return
        with self._reload_lock:
            requested = self._reload_requested.is_set()
            self._reload_requested.clear()
            current = _signature(self._path)
            if (
                not requested
                and (current == self._loaded.signature
                     or current == self._failed_signature)
            ):
                return  # another thread already handled it
            try:
                fresh = self._load(generation=self._loaded.generation + 1)
            except ReproError as exc:
                self._failed_signature = current
                self.metrics.record_reload(
                    error=str(exc),
                    integrity=isinstance(exc, StoreIntegrityError),
                )
                return
            self._failed_signature = None
            self._loaded = fresh
            self.cache.clear()
            self.metrics.record_reload()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        params: dict[str, str] | None = None,
        body: bytes | None = None,
    ) -> tuple[int, dict]:
        """Answer one parsed request.

        Parameters
        ----------
        method : str
            HTTP method (``"GET"`` or ``"POST"``).
        path : str
            URL path without the query string (``"/bases/dg/rules"``).
        params : dict[str, str], optional
            Decoded query parameters (single-valued).
        body : bytes, optional
            Raw request body (``POST /derive`` only).

        Returns
        -------
        tuple[int, dict]
            ``(http_status, json_payload)``.  Errors use the envelope
            ``{"error": {"code": ..., "message": ...}}``.
        """
        started = time.perf_counter()
        parts = [part for part in path.split("/") if part]
        # /healthz and /metrics bypass the overload gate (and the fault
        # seam) so the daemon stays observable while it sheds load.
        observability = parts in (["healthz"], ["metrics"])
        gated = self._inflight is not None and not observability
        if gated and not self._inflight.acquire(blocking=False):
            self.metrics.record_reject()
            error = ApiError(
                503, "overloaded",
                "server is at its in-flight request limit; retry shortly",
            )
            route = self._route_label(parts, method)
            self.metrics.observe(route, error.status, time.perf_counter() - started)
            return error.status, error.payload()
        try:
            self.maybe_reload()
            if self._request_timeout is not None:
                self._local.deadline = time.monotonic() + self._request_timeout
            if not observability:
                get_injector().fire("serve.request")
            loaded = self._loaded
            route, status, payload = self._dispatch(
                loaded, method, path, params, body
            )
        finally:
            self._local.deadline = None
            if gated:
                self._inflight.release()
        self.metrics.observe(route, status, time.perf_counter() - started)
        return status, payload

    def _check_deadline(self) -> None:
        """Abort with 503 ``deadline_exceeded`` once the deadline passed.

        Called by the expensive handlers between numpy passes, so an
        over-budget request stops burning CPU at the next checkpoint
        instead of running to completion.
        """
        deadline = getattr(self._local, "deadline", None)
        if deadline is not None and time.monotonic() > deadline:
            self.metrics.record_timeout()
            raise ApiError(
                503, "deadline_exceeded",
                f"request exceeded the {self._request_timeout:g}s deadline",
            )

    def _dispatch(
        self,
        loaded: LoadedStore,
        method: str,
        path: str,
        params: dict[str, str] | None,
        body: bytes | None,
    ) -> tuple[str, int, dict]:
        """Route one request; returns ``(route_label, status, payload)``."""
        params = dict(params or {})
        parts = [part for part in path.split("/") if part]
        try:
            if parts == ["healthz"] and method == "GET":
                return "GET /healthz", 200, self._health_payload(loaded)
            if parts == ["bases"] and method == "GET":
                return "GET /bases", 200, self._bases_payload(loaded)
            if len(parts) == 3 and parts[0] == "bases" and parts[2] == "rules":
                if method != "GET":
                    raise ApiError(
                        405, "method_not_allowed", f"{method} not allowed here"
                    )
                status, payload = self._rules_response(loaded, parts[1], params)
                return "GET /bases/{name}/rules", status, payload
            if parts == ["derive"]:
                if method != "POST":
                    raise ApiError(
                        405, "method_not_allowed",
                        "use POST with a JSON body on /derive",
                    )
                status, payload = self._derive_response(loaded, body)
                return "POST /derive", status, payload
            if parts == ["recommend"]:
                if method != "POST":
                    raise ApiError(
                        405, "method_not_allowed",
                        "use POST with a JSON body on /recommend",
                    )
                status, payload = self._recommend_response(loaded, body)
                return "POST /recommend", status, payload
            if parts == ["metrics"] and method == "GET":
                return "GET /metrics", 200, self._metrics_payload(loaded)
            raise ApiError(404, "not_found", f"no route for {method} {path}")
        except ApiError as exc:
            return self._route_label(parts, method), exc.status, exc.payload()
        except ReproError as exc:
            error = ApiError(500, "internal_error", str(exc))
            return self._route_label(parts, method), error.status, error.payload()

    @staticmethod
    def _route_label(parts: list[str], method: str) -> str:
        """Return the metrics label of a (possibly failed) route."""
        if len(parts) >= 1 and parts[0] == "bases" and len(parts) == 3:
            return "GET /bases/{name}/rules"
        if parts[:1] in (
            ["healthz"], ["bases"], ["derive"], ["recommend"], ["metrics"]
        ):
            return f"{method} /{parts[0]}"
        return "unmatched"

    # ------------------------------------------------------------------
    # Endpoint payloads
    # ------------------------------------------------------------------
    def _health_payload(self, loaded: LoadedStore) -> dict:
        """Build the ``GET /healthz`` answer."""
        return {
            "status": "ok",
            "store": str(loaded.path),
            "dataset": loaded.name,
            "generation": loaded.generation,
            "minsup": loaded.minsup,
            "minconf": loaded.minconf,
            "n_objects": loaded.n_objects,
            "bases": sorted(loaded.bases),
            "derivation": (
                "ready" if loaded.derivation is not None else "unavailable"
            ),
            "recommend_basis": loaded.recommend_basis,
        }

    def _bases_payload(self, loaded: LoadedStore) -> dict:
        """Build the ``GET /bases`` answer (per-basis statistics)."""
        rows = []
        for name in sorted(loaded.bases):
            basis = loaded.bases[name]
            row = {
                "name": basis.name,
                "kind": basis.kind,
                "metadata": basis.metadata,
            }
            row.update(basis.summary)
            rows.append(row)
        return {
            "dataset": loaded.name,
            "generation": loaded.generation,
            "minsup": loaded.minsup,
            "minconf": loaded.minconf,
            "bases": rows,
        }

    def _rules_response(
        self, loaded: LoadedStore, name: str, params: dict[str, str]
    ) -> tuple[int, dict]:
        """Answer ``GET /bases/{name}/rules`` (through the answer cache)."""
        basis = loaded.require_basis(name)
        key = (
            loaded.generation,
            "rules",
            name,
            tuple(sorted(params.items())),
        )
        hit, cached = self.cache.get(key)
        if hit:
            return 200, cached  # type: ignore[return-value]
        payload = self._rules_payload(loaded, basis, params)
        self.cache.put(key, payload)
        return 200, payload

    def _rules_payload(
        self, loaded: LoadedStore, basis: ServedBasis, params: dict[str, str]
    ) -> dict:
        """Filter + paginate one basis's rule columns into a JSON page."""
        unknown = set(params) - _RULES_PARAMS
        if unknown:
            raise ApiError(
                400,
                "bad_request",
                f"unknown query parameter(s): {', '.join(sorted(unknown))}; "
                f"supported: {', '.join(sorted(_RULES_PARAMS))}",
            )
        self._check_deadline()
        arrays = basis.arrays
        mask = np.ones(len(arrays), dtype=bool)
        for param, column, op in (
            ("min_support", arrays.support, np.greater_equal),
            ("max_support", arrays.support, np.less_equal),
            ("min_confidence", arrays.confidence, np.greater_equal),
            ("max_confidence", arrays.confidence, np.less_equal),
        ):
            if param in params:
                mask &= op(column, _float_param(params, param))
        kind = params.get("kind")
        if kind is not None:
            if kind not in ("exact", "approximate"):
                raise ApiError(
                    400, "bad_request",
                    f"kind must be 'exact' or 'approximate', got {kind!r}",
                )
            exact = arrays.exact_mask()
            mask &= exact if kind == "exact" else ~exact
        for param, words in (
            ("items", arrays.antecedents.words | arrays.consequents.words),
            ("antecedent_items", arrays.antecedents.words),
            ("consequent_items", arrays.consequents.words),
        ):
            if param in params:
                mask &= _containment_mask(
                    words, _parse_items(params[param], param, arrays.universe),
                    arrays.universe,
                )
        limit = _int_param(params, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        offset = _int_param(params, "offset", 0, 0, None)
        indices = np.nonzero(mask)[0]
        page = indices[offset : offset + limit]
        self._check_deadline()
        return {
            "basis": basis.name,
            "kind": basis.kind,
            "generation": loaded.generation,
            "total": int(indices.size),
            "offset": offset,
            "limit": limit,
            "count": int(page.size),
            "rules": [_rule_row(arrays, int(row)) for row in page],
        }

    def _derive_response(
        self, loaded: LoadedStore, body: bytes | None
    ) -> tuple[int, dict]:
        """Answer ``POST /derive`` (through the answer cache)."""
        antecedent, consequent = _parse_derive_body(body, loaded)
        key = (loaded.generation, "derive", antecedent, consequent)
        hit, cached = self.cache.get(key)
        if hit:
            return cached  # type: ignore[return-value]
        response = self._derive_payload(loaded, antecedent, consequent)
        self.cache.put(key, response)
        return response

    def _derive_payload(
        self,
        loaded: LoadedStore,
        antecedent: tuple,
        consequent: tuple,
    ) -> tuple[int, dict]:
        """Check one candidate rule for derivability from the bases."""
        self._check_deadline()
        if loaded.derivation is None:
            raise ApiError(
                503, "derivation_unavailable",
                loaded.derivation_error or "derivation is unavailable",
            )
        try:
            rule = loaded.derivation.derive_rule(
                Itemset(antecedent), Itemset(consequent)
            )
        except DerivationError as exc:
            return 422, {
                "derivable": False,
                "generation": loaded.generation,
                "error": {"code": "not_derivable", "message": str(exc)},
            }
        return 200, {
            "derivable": True,
            "generation": loaded.generation,
            "rule": {
                "antecedent": sorted(rule.antecedent, key=_item_sort_key),
                "consequent": sorted(rule.consequent, key=_item_sort_key),
                "support": rule.support,
                "confidence": rule.confidence,
                "support_count": rule.support_count,
            },
        }

    def _recommend_response(
        self, loaded: LoadedStore, body: bytes | None
    ) -> tuple[int, dict]:
        """Answer ``POST /recommend`` (through the answer cache)."""
        basket, k, name = _parse_recommend_body(body, loaded)
        recommender = loaded.require_recommender(name)
        basis = name if name is not None else loaded.recommend_basis
        key = (loaded.generation, "recommend", basis, k, basket)
        hit, cached = self.cache.get(key)
        if hit:
            return 200, cached  # type: ignore[return-value]
        payload = self._recommend_payload(loaded, recommender, basis, basket, k)
        self.cache.put(key, payload)
        return 200, payload

    def _recommend_payload(
        self,
        loaded: LoadedStore,
        recommender: Recommender,
        basis: str,
        basket: tuple,
        k: int,
    ) -> dict:
        """Run one top-k basket query and render it as JSON."""
        self._check_deadline()
        result = recommender.query(basket, k)
        self._check_deadline()
        return {
            "basis": basis,
            "generation": loaded.generation,
            "basket": list(basket),
            "known_items": list(result.known_items),
            "k": k,
            "matched_rules": result.matched_rules,
            "count": len(result.recommendations),
            "recommendations": [
                {
                    "items": list(rec.items),
                    "confidence": rec.confidence,
                    "support": rec.support,
                    "support_count": rec.support_count,
                    "antecedent": list(rec.antecedent),
                    "consequent": list(rec.consequent),
                }
                for rec in result.recommendations
            ],
        }

    def _metrics_payload(self, loaded: LoadedStore) -> dict:
        """Build the ``GET /metrics`` answer."""
        payload = self.metrics.snapshot()
        payload["generation"] = loaded.generation
        payload["cache"] = self.cache.stats()
        if self._extra_metrics is not None:
            payload.update(self._extra_metrics())
        return payload


# ----------------------------------------------------------------------
# Parameter parsing helpers
# ----------------------------------------------------------------------
def _item_sort_key(item) -> tuple[str, str]:
    """Return a type-stable sort key for mixed str/int items."""
    return (type(item).__name__, str(item))


def _float_param(params: dict[str, str], name: str) -> float:
    """Parse the probability-valued query parameter *name*."""
    raw = params[name]
    try:
        value = float(raw)
    except ValueError:
        raise ApiError(
            400, "bad_request", f"{name} must be a number, got {raw!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise ApiError(
            400, "bad_request", f"{name} must lie in [0, 1], got {value}"
        )
    return value


def _int_param(
    params: dict[str, str],
    name: str,
    default: int,
    minimum: int,
    maximum: int | None,
) -> int:
    """Parse the integer query parameter *name* with range validation."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(
            400, "bad_request", f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ApiError(400, "bad_request", f"{name} must be {bound}, got {value}")
    return value


def _coerce_item(token, universe: tuple) -> object:
    """Coerce one query/body item to the item type of *universe*."""
    if universe and all(isinstance(item, int) for item in universe):
        if isinstance(token, int):
            return token
        try:
            return int(str(token))
        except ValueError:
            raise ApiError(
                400, "bad_request",
                f"this store's items are integers; got {token!r}",
            ) from None
    return token if isinstance(token, (str, int)) else str(token)


def _parse_items(raw: str, param: str, universe: tuple) -> tuple:
    """Parse a comma-separated item list query parameter."""
    tokens = [token.strip() for token in raw.split(",") if token.strip()]
    if not tokens:
        raise ApiError(
            400, "bad_request", f"{param} must name at least one item"
        )
    return tuple(_coerce_item(token, universe) for token in tokens)


def _containment_mask(
    words: np.ndarray, items: tuple, universe: tuple
) -> np.ndarray:
    """Return the rows of packed *words* whose mask contains all *items*.

    Items outside the universe simply match no rule (the filter is a
    containment predicate, not a validation step).
    """
    position = {item: index for index, item in enumerate(universe)}
    query = np.zeros(words.shape[1] if words.ndim == 2 else 0, dtype=np.uint64)
    for item in items:
        index = position.get(item)
        if index is None:
            return np.zeros(words.shape[0], dtype=bool)
        query[index >> 6] |= np.uint64(1) << np.uint64(index & 63)
    return ((words & query) == query).all(axis=1)


def _parse_derive_body(
    body: bytes | None, loaded: LoadedStore
) -> tuple[tuple, tuple]:
    """Parse and validate the JSON body of ``POST /derive``."""
    if not body:
        raise ApiError(
            400, "bad_request",
            'POST /derive needs a JSON body like {"antecedent": ["a"], '
            '"consequent": ["c"]}',
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ApiError(400, "bad_request", f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise ApiError(400, "bad_request", "the request body must be a JSON object")
    unknown = set(payload) - {"antecedent", "consequent"}
    if unknown:
        raise ApiError(
            400, "bad_request",
            f"unknown body key(s): {', '.join(sorted(unknown))}; "
            "expected antecedent and consequent",
        )
    universe: tuple = ()
    for basis in loaded.bases.values():
        universe = basis.arrays.universe
        break
    sides = []
    for side in ("antecedent", "consequent"):
        value = payload.get(side, [])
        if not isinstance(value, list) or not all(
            isinstance(item, (str, int)) and not isinstance(item, bool)
            for item in value
        ):
            raise ApiError(
                400, "bad_request",
                f"{side} must be a JSON array of item strings or integers",
            )
        sides.append(tuple(sorted(
            (_coerce_item(item, universe) for item in value), key=_item_sort_key
        )))
    antecedent, consequent = sides
    if not consequent:
        raise ApiError(400, "bad_request", "consequent must be non-empty")
    return antecedent, consequent


def _parse_recommend_body(
    body: bytes | None, loaded: LoadedStore
) -> tuple[tuple, int, str | None]:
    """Parse and validate the JSON body of ``POST /recommend``.

    Returns ``(basket, k, basis)`` with the basket deduplicated and
    canonically sorted — the canonical form is also the answer-cache
    key, so ``["b", "a", "a"]`` and ``["a", "b"]`` share one entry.
    """
    if not body:
        raise ApiError(
            400, "bad_request",
            'POST /recommend needs a JSON body like {"basket": ["a", "c"], '
            '"k": 5}',
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ApiError(400, "bad_request", f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise ApiError(400, "bad_request", "the request body must be a JSON object")
    unknown = set(payload) - {"basket", "k", "basis"}
    if unknown:
        raise ApiError(
            400, "bad_request",
            f"unknown body key(s): {', '.join(sorted(unknown))}; "
            "expected basket, k and basis",
        )
    if "basket" not in payload:
        raise ApiError(400, "bad_request", "the body must name a basket")
    raw_basket = payload["basket"]
    if not isinstance(raw_basket, list) or not all(
        isinstance(item, (str, int)) and not isinstance(item, bool)
        for item in raw_basket
    ):
        raise ApiError(
            400, "bad_request",
            "basket must be a JSON array of item strings or integers "
            "(empty is allowed: it matches the empty-antecedent rules)",
        )
    universe: tuple = ()
    for basis in loaded.bases.values():
        universe = basis.arrays.universe
        break
    basket = tuple(sorted(
        {_coerce_item(item, universe) for item in raw_basket},
        key=_item_sort_key,
    ))
    k = payload.get("k", DEFAULT_RECOMMEND_K)
    if isinstance(k, bool) or not isinstance(k, int):
        raise ApiError(400, "bad_request", f"k must be an integer, got {k!r}")
    if not 1 <= k <= MAX_RECOMMEND_K:
        raise ApiError(
            400, "bad_request", f"k must be in [1, {MAX_RECOMMEND_K}], got {k}"
        )
    name = payload.get("basis")
    if name is not None and not isinstance(name, str):
        raise ApiError(
            400, "bad_request", f"basis must be a string, got {name!r}"
        )
    return basket, k, name
