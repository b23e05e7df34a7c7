"""The work-sharding executor seam of the packed-word kernels.

Every hot loop of the library — the blocked subset pass of
:func:`~repro.core.bitmatrix.packed_containment`, the gather/OR-reduce
transitive reduction, the batch-closure AND-reduce of the closure engine,
the streamed CSR rule emitters — is a sequence of *independent* block
computations over numpy arrays.  The inner ``np.bitwise_count`` /
``np.packbits`` / ufunc-reduce calls release the GIL, so plain threads already
scale them across cores; this module provides the one seam those kernels
share:

* :func:`resolve_workers` — turn a ``workers=`` argument (or the
  ``REPRO_NUM_WORKERS`` environment variable) into a concrete worker
  count;
* :class:`KernelExecutor` — ordered ``map`` and bounded-prefetch ordered
  ``imap`` over a serial or thread-pool backend;
* :func:`get_executor` — the per-worker-count executor cache, so the
  closure-engine path can resolve an executor per batch without churning
  thread pools.

Determinism contract: the executors only control *where* each block
computation runs, never what it computes or the order results are
consumed in.  ``map`` returns results in submission order and ``imap``
yields them in submission order, and every kernel routed through the
seam writes disjoint output slices — so any worker count produces output
byte-identical to the serial path (asserted by ``tests/test_parallel.py``
against the serial oracle for every registered basis).

The backend is deliberately a seam: a process-pool, numba or cython
kernel backend can replace :class:`_ThreadBackend` later without
touching any caller — they all go through :func:`get_executor`.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

from ..errors import InvalidParameterError

__all__ = [
    "WORKERS_ENV_VAR",
    "resolve_workers",
    "KernelExecutor",
    "get_executor",
    "shard_spans",
]

#: Environment variable that sets the default worker count process-wide
#: (e.g. ``REPRO_NUM_WORKERS=4 repro bases ...``); an explicit
#: ``workers=`` argument always wins over it.
WORKERS_ENV_VAR = "REPRO_NUM_WORKERS"

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a ``workers=`` argument to a concrete positive worker count.

    ``None`` consults :data:`WORKERS_ENV_VAR` and falls back to ``1``
    (serial — parallelism is strictly opt-in).  ``0`` means "all cores"
    (``os.cpu_count()``), both as an argument and as the environment
    value; negative counts raise.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidParameterError(
                f"invalid {WORKERS_ENV_VAR}={raw!r}; expected an integer "
                "worker count (0 = all cores)"
            ) from None
    workers = int(workers)
    if workers < 0:
        raise InvalidParameterError(
            f"workers must be >= 0 (0 = all cores), got {workers}"
        )
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def shard_spans(n: int, shard_size: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into contiguous ``(start, stop)`` spans.

    The shared task-decomposition helper of the sharded kernels; the
    spans partition the row space, so per-span writes into disjoint
    output slices compose to exactly the serial result.
    """
    if shard_size < 1:
        raise InvalidParameterError(f"shard_size must be positive, got {shard_size}")
    return [(start, min(start + shard_size, n)) for start in range(0, n, shard_size)]


class _SerialBackend:
    """In-line execution: zero scheduling overhead, the workers=1 path."""

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]

    def imap(self, fn: Callable, items: Iterable, prefetch: int) -> Iterator:
        return (fn(item) for item in items)


class _ThreadBackend:
    """Thread-pool execution over GIL-releasing numpy kernels."""

    def __init__(self, workers: int) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-kernel"
        )

    def map(self, fn: Callable, items: Iterable) -> list:
        return list(self._pool.map(fn, items))

    def imap(self, fn: Callable, items: Iterable, prefetch: int) -> Iterator:
        # Ordered bounded-prefetch imap: at most `prefetch` block results
        # are in flight, so a streamed consumer (RuleArrays.from_blocks)
        # keeps its bounded-memory guarantee while workers run ahead.
        def generate() -> Iterator:
            pending: deque = deque()
            iterator = iter(items)
            try:
                for item in iterator:
                    pending.append(self._pool.submit(fn, item))
                    if len(pending) >= prefetch:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:
                for future in pending:
                    future.cancel()

        return generate()


class KernelExecutor:
    """Ordered block-task execution over a serial or thread-pool backend.

    Parameters
    ----------
    workers:
        Positive worker count (already resolved; see
        :func:`resolve_workers`).  ``1`` selects the in-line serial
        backend — no pool, no overhead — so the serial path stays exactly
        the pre-seam code path.
    """

    def __init__(self, workers: int) -> None:
        workers = int(workers)
        if workers < 1:
            raise InvalidParameterError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._backend = _SerialBackend() if workers == 1 else _ThreadBackend(workers)

    def __repr__(self) -> str:
        kind = "serial" if self.workers == 1 else "threads"
        return f"KernelExecutor(workers={self.workers}, backend={kind})"

    @property
    def is_serial(self) -> bool:
        """``True`` when tasks run in-line on the calling thread."""
        return self.workers == 1

    def map(
        self, fn: Callable[[_ItemT], _ResultT], items: Iterable[_ItemT]
    ) -> list[_ResultT]:
        """Apply *fn* to every item; results in submission order."""
        return self._backend.map(fn, items)

    def imap(
        self,
        fn: Callable[[_ItemT], _ResultT],
        items: Iterable[_ItemT],
        prefetch: int | None = None,
    ) -> Iterator[_ResultT]:
        """Lazily apply *fn*, yielding results in submission order.

        At most ``prefetch`` results (default ``2 * workers``) are
        computed ahead of the consumer, which is what lets the streamed
        rule emitters overlap block construction with block consumption
        without unbounding their peak memory.
        """
        if prefetch is None:
            prefetch = 2 * self.workers
        if prefetch < 1:
            raise InvalidParameterError(f"prefetch must be positive, got {prefetch}")
        return self._backend.imap(fn, items, prefetch)

    def shard_size(self, n: int, minimum: int = 1) -> int:
        """A span length that spreads ``n`` rows across the workers.

        Aims for a few spans per worker (so uneven spans still balance)
        while never going below *minimum* rows per span — tiny spans
        would drown the kernel time in scheduling overhead.
        """
        if n <= 0:
            return max(1, minimum)
        return max(minimum, -(-n // (4 * self.workers)))


#: Executor cache, one per resolved worker count — thread pools are kept
#: for the life of the process instead of being rebuilt per kernel call.
_EXECUTORS: dict[int, KernelExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def get_executor(workers: int | None = None) -> KernelExecutor:
    """The shared :class:`KernelExecutor` for a ``workers=`` argument.

    Resolves *workers* (``None`` → :data:`WORKERS_ENV_VAR` → serial) and
    returns the process-wide executor of that worker count, creating it
    on first use.  Passing an existing :class:`KernelExecutor` returns it
    unchanged, so kernels can accept either form.
    """
    if isinstance(workers, KernelExecutor):
        return workers
    count = resolve_workers(workers)
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get(count)
        if executor is None:
            executor = KernelExecutor(count)
            _EXECUTORS[count] = executor
        return executor
