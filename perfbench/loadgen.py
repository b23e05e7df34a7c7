"""Open-loop load generator and ``/proc`` probes for the serving workloads.

Requests arrive on a Poisson schedule derived from the run seed: arrival
*i* is due ``due[i]`` seconds after the phase starts, whether or not
earlier requests have finished.  One process sends them with at most
``threads`` threads, each owning one keep-alive connection; a thread
takes the next due request as soon as it is free.  Every request is timed
from its due time, so a stall also counts against the requests it
delays, and the generator reports how late it sent each one.
"""

from __future__ import annotations

import gc
import http.client
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import stats

_GENERATION = re.compile(rb'"generation": (\d+)')
#: Seconds past its end after which a phase stops sending (and fails the rest).
OVERRUN_SECONDS = 20.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process *pid* (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # Fields after the command name start at field 3; utime/stime are 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def poisson_schedule(rate: float, seconds: float, rng) -> np.ndarray:
    """Due offsets (seconds from phase start) of Poisson arrivals at *rate*."""
    expected = int(math.ceil(rate * seconds * 1.5)) + 16
    gaps = rng.exponential(1.0 / rate, size=expected)
    due = np.cumsum(gaps)
    while due[-1] < seconds:  # pragma: no cover - 1.5x headroom suffices
        due = np.concatenate([due, due[-1] + np.cumsum(rng.exponential(1.0 / rate, expected))])
    return due[due < seconds]


def latency_from_due(due: float, done: float) -> float:
    """Milliseconds from when a request was due to when its answer arrived."""
    return (done - due) * 1000.0


def lateness(due: float, sent: float) -> float:
    """Milliseconds the generator sent a request after its due time (>= 0)."""
    return max(0.0, (sent - due) * 1000.0)


@dataclass
class Phase:
    """Everything one phase sent and received; times are seconds from its start."""

    name: str
    rate: float
    seconds: float
    due: np.ndarray
    qids: np.ndarray
    sent: list = field(default_factory=list)
    done: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    #: Body of the first answer of every sampled query id.
    bodies: dict = field(default_factory=dict)
    #: Phase time at which each store generation was first answered.
    first_seen: dict = field(default_factory=dict)
    #: ``time.perf_counter()`` value of the phase start.
    origin: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def latencies_ms(self) -> list[float]:
        """Due-time latency of every request answered as expected."""
        failed = {index for index, _ in self.failures}
        return [latency_from_due(self.due[i], self.done[i])
                for i in range(self.attempted) if i not in failed]

    def service_ms(self) -> list[float]:
        """Send-to-answer time of every answered request."""
        return [(d - s) * 1000.0 for s, d in zip(self.sent, self.done) if d is not None]

    def late_ms(self) -> list[float]:
        return [lateness(due, sent) for due, sent in zip(self.due, self.sent)]

    def meets(self, limit_ms: float) -> bool:
        """Whether the phase met the latency limit without a growing backlog.

        Every request must have succeeded and the reported tail latency
        must be within *limit_ms*.  The backlog grows when the median
        latency of the last quarter of the schedule exceeds that of the
        first quarter by more than a tenth of the limit: the rate is not
        sustained, even if the phase ended before the tail crossed it.
        """
        if self.failed or not self.attempted:
            return False
        latencies = self.latencies_ms()
        if stats.tail(latencies)[1] > limit_ms:
            return False
        quarter = max(1, len(latencies) // 4)
        growth = stats.median(latencies[-quarter:]) - stats.median(latencies[:quarter])
        return growth <= limit_ms / 10.0


def expected_status(query, status: int) -> bool:
    """Statuses a correct daemon answers: 200, or 422 for a non-derivable rule."""
    return status == 200 or (status == 422 and query.kind == "derive")


class Connection:
    """One keep-alive HTTP connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def fetch(self, query) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if query.body else {}
        try:
            self.connection.request(query.method, query.path, body=query.body,
                                    headers=headers)
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection(self.host, self.port,
                                                         timeout=30)
            raise

    def close(self) -> None:
        self.connection.close()


class LoadGenerator:
    """Sends phases of open-loop traffic to one daemon over kept-alive connections."""

    def __init__(self, host: str, port: int, queries, threads: int = 2,
                 sample=frozenset()) -> None:
        self.queries = queries
        self.sample = frozenset(sample)
        self._connections = [Connection(host, port) for _ in range(threads)]

    def close(self) -> None:
        for connection in self._connections:
            connection.close()

    def run(self, name: str, rate: float, seconds: float, qids, rng,
            started=None) -> Phase:
        """Send one phase: Poisson arrivals at *rate* for *seconds*.

        *qids* is the popularity-drawn sequence of query ids; arrival *i*
        asks ``queries[qids[i]]``.  *started*, when given, is called with
        the phase just before the first request is due, so a caller can
        watch ``first_seen`` while the phase runs.
        """
        due = poisson_schedule(rate, seconds, rng)
        phase = Phase(name, rate, seconds, due, np.asarray(qids[: len(due)]))
        if len(phase.qids) < len(due):
            raise ValueError(f"{len(due)} arrivals but only {len(qids)} query draws")
        n = len(due)
        phase.sent = [0.0] * n
        phase.done = [None] * n
        lock = threading.Lock()
        cursor = iter(range(n))
        origin = phase.origin = time.perf_counter() + 0.02

        def worker(connection: Connection) -> None:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                wait = origin + due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                query = self.queries[phase.qids[i]]
                phase.sent[i] = time.perf_counter() - origin
                if phase.sent[i] > seconds + OVERRUN_SECONDS:
                    # A stuck daemon must not hold the run past its limit.
                    phase.done[i] = phase.sent[i]
                    with lock:
                        phase.failures.append((i, f"{query.path}: not sent, phase overran"))
                    continue
                try:
                    status, body = connection.fetch(query)
                except (OSError, http.client.HTTPException) as exc:
                    phase.done[i] = time.perf_counter() - origin
                    with lock:
                        phase.failures.append((i, f"{query.path}: {exc!r}"))
                    continue
                done = phase.done[i] = time.perf_counter() - origin
                match = _GENERATION.search(body)
                generation = int(match.group(1)) if match else -1
                with lock:
                    if not expected_status(query, status):
                        phase.failures.append((i, f"{query.path}: HTTP {status}"))
                    elif phase.qids[i] in self.sample:
                        phase.bodies.setdefault(int(phase.qids[i]), (status, body))
                    if generation not in phase.first_seen:
                        phase.first_seen[generation] = done

        workers = [threading.Thread(target=worker, args=(c,), daemon=True)
                   for c in self._connections]
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            if started is not None:
                started(phase)
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()
        finally:
            if gc_was_enabled:
                gc.enable()
        return phase
