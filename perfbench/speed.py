"""How fast the machine runs right now, from a fixed reference loop.

The shared virtual machines this benchmark runs on change speed on their
own.  A fixed chunk of interpreter work took 2.5 ms or 3.7 ms depending
on the moment; the speed flips within seconds, drifts by 20% over
minutes, and once rose 1.6 times within half an hour.  Over ten minutes
of the same code, build-sparse builds took 3.0 to 4.9 s, and a median of
nine consecutive builds spread as much from run to run as single builds
did: repetition inside a run cannot remove a drift that outlasts the run.

So a run times the reference loop at fixed points throughout (around
builds, daemon boots and serving phases) and reports its timing metrics
at one reference speed: the measured value times ``reference_ms`` over
the mean loop time of the run so far.  The loop calls nothing of the
program: a change to the program moves a rescaled metric as it moves the
measured time, while a change of machine speed moves the metric and the
loop alike and cancels.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the loop runs for each sample.
SAMPLE_SECONDS = 0.3

_WORDS = np.random.default_rng(0).integers(0, 2**63, size=1 << 16, dtype=np.uint64)
_MATRIX = (_WORDS[:4096].reshape(64, 64) & np.uint64(1)).astype(np.float32)


def _chunk() -> None:
    """One chunk of reference work, a few milliseconds long."""
    # Interpreter work: integer arithmetic and dict stores.
    total, table = 0, {}
    for i in range(20000):
        total += i * i % 7
        table[i % 1000] = total
    # Array work of the kinds the closure engine does: packed words and a matmul.
    words = _WORDS ^ (_WORDS >> np.uint64(3))
    int(np.bitwise_count(words & _WORDS).sum())
    _MATRIX @ _MATRIX


def sample_ms() -> float:
    """Mean milliseconds of one reference chunk, run for :data:`SAMPLE_SECONDS`."""
    count, start = 0, time.perf_counter()
    while True:
        _chunk()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SAMPLE_SECONDS:
            return 1000.0 * elapsed / count


class Speed:
    """The reference-loop samples of one run, and the scale they give."""

    def __init__(self, reference_ms: float) -> None:
        self.reference_ms = float(reference_ms)
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(sample_ms())

    def scale(self) -> float:
        """``reference_ms`` over the mean sample so far: times at reference speed."""
        if not self.samples:
            raise ValueError("no reference samples")
        return self.reference_ms * len(self.samples) / sum(self.samples)
