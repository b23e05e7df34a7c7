"""The update-stream writer: applies appended batches to a served store.

Runs as its own process so the appends compete with the daemon for the
machine, not with the load generator for the benchmark's interpreter.  It
reads one JSON batch (a list of transactions) per stdin line, applies it
through :func:`repro.incremental.store.update_store` — the path of
``repro update --store S --append FILE`` — and answers one JSON line per
batch with the update's wall time and its statistics::

    python -m perfbench.writer --store run.npz [--trace-out spans.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    from repro.incremental.store import update_store

    tracer = spans.Tracer(args.trace_out is not None)
    print(json.dumps({"ready": True}), flush=True)
    for number, line in enumerate(sys.stdin):
        batch = json.loads(line)
        with tracer.span("incremental.update_store", request=number):
            start = time.perf_counter()
            _, result = update_store(args.store, batch)
            seconds = time.perf_counter() - start
        statistics = result.statistics.as_dict()
        tracer.count("incremental.update_mining_s", statistics["wall_clock_seconds"])
        print(json.dumps({"update_s": seconds, **statistics}), flush=True)
    if args.trace_out:
        tracer.dump(Path(args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
