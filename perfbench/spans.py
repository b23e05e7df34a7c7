"""In-memory spans recorded around the calls the benchmark makes into a layer.

A :class:`Tracer` keeps one record per span — name, start, end, parent
span and request id — plus counts recorded at the same boundaries, and
writes them out once, when the traced process ends.  Disabled, every
call is a no-op that returns a shared null context, so the untraced runs
that give the end-to-end numbers pay nothing for it.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path

#: Span record fields, in storage order.
NAME, START, END, PARENT, REQUEST = range(5)

_NULL = contextlib.nullcontext()


class Tracer:
    """Thread-safe span and count recorder; a no-op when not *enabled*."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[list] = []
        self.counts: list[tuple[str, float, int | None]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, start: float, request) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent][REQUEST]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, request])
        return index

    def span(self, name: str, request=None):
        """Context manager recording one span around its body."""
        if not self.enabled:
            return _NULL
        return self._span(name, request)

    @contextlib.contextmanager
    def _span(self, name: str, request):
        index = self._open(name, time.perf_counter(), request)
        stack = self._stack()
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index][END] = time.perf_counter()

    def add(self, name: str, start: float, end: float, request=None) -> None:
        """Record a finished span under the innermost open span of this thread."""
        if self.enabled:
            index = self._open(name, start, request)
            self.spans[index][END] = end

    def count(self, name: str, value: float) -> None:
        """Record a count at the innermost open span of this thread."""
        if self.enabled:
            stack = self._stack()
            with self._lock:
                self.counts.append((name, float(value), stack[-1] if stack else None))

    def dump(self, path: Path) -> None:
        """Write every span and count as JSON (at process end)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    Child intervals are clipped to the parent's interval and merged first,
    so overlapping children (spans of concurrent threads that name the
    same parent) are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            children.setdefault(parent, []).append((record[START], record[END]))
    result = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def per_request(spans, name: str, self_only: bool = True) -> list[float]:
    """Seconds spent in spans called *name*, summed per request id.

    With *self_only* the self time is summed, otherwise the duration.
    Requests are listed in the order of their first such span.
    """
    times = self_times(spans) if self_only else None
    totals: dict = {}
    for index, record in enumerate(spans):
        if record[NAME] == name:
            value = times[index] if self_only else record[END] - record[START]
            totals[record[REQUEST]] = totals.get(record[REQUEST], 0.0) + value
    return list(totals.values())


def span_cost_seconds(samples: int = 2000) -> float:
    """Measured cost of recording one span, from a throwaway tracer."""
    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("calibration"):
            pass
    return (time.perf_counter() - start) / samples
