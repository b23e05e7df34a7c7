"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build-dense --seed 1 --seconds 12 --trace 0

The program is used from the checkout's own ``src/`` (nothing to build).
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from
spans recorded around the calls into each layer (a per-layer metric a
workload does not exercise reads 0).  The lines before it say how each
number was taken.  ``correct`` is false when any operation failed or any
oracle disagreed; ``attempted`` and ``failed`` count operations (builds,
loads, boots, requests, updates) plus oracle checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = Path(__file__).resolve().parent / "workloads.json"


def main(argv=None) -> int:
    settings = json.loads(SETTINGS.read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(settings["workloads"]))
    parser.add_argument("--seed", type=int, default=settings["default_seed"])
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # The benchmark's own directory must not shadow anything; the checkout
    # root makes ``perfbench`` importable and ``src`` the program.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    # Serial kernels, as a user gets them by default.
    os.environ.pop("REPRO_NUM_WORKERS", None)
    from perfbench.workloads import WORKLOADS, Run

    end_to_end, per_layer = benchmark["end_to_end"], benchmark["per_layer"]
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = Run(root=ROOT, work=work, name=args.workload, seed=args.seed,
              seconds=args.seconds, trace=bool(args.trace), settings=settings)
    # Stopped with SIGTERM, a run still stops the daemons and the writer it
    # started: the exit unwinds through their ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        WORKLOADS[args.workload](run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        # Traced runs keep their span files (and nothing else) for reading.
        if args.trace:
            run.tracer.dump(run.trace_file("bench"))
        for path in sorted(work.iterdir()) if work.exists() else ():
            if not (args.trace and path.name.startswith("spans-")):
                path.unlink()
        if not args.trace:
            work.rmdir()

    attempted = run.attempted + run.checks.attempted
    failed = run.failed + len(run.checks.failures)
    for line in run.notes:
        print(line)
    for failure in run.checks.failures[:20]:
        print(f"ORACLE: {failure}")
    print(f"error_rate = {failed / max(1, attempted):.6g} ({failed} of {attempted})")
    if args.trace:
        print(f"spans kept in {work}")
        metrics = {m["name"]: {"value": run.layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in per_layer}
    else:
        missing = [m["name"] for m in end_to_end if m["name"] not in run.metrics]
        if missing:
            print(f"workload did not measure {missing}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": run.metrics[m["name"]][0], "unit": m["unit"]}
                   for m in end_to_end}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # One fixed string-hash seed for this process and every process it
    # starts: per-process hash randomisation alone moves load_basket_file
    # by up to 50% (15 ms against 22 ms on the same file).
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
