"""Run every workload over several seeds and record each metric's steadiness.

For each workload and end-to-end metric it records the median and the
quartiles of the per-run values (as ``statistics.quantiles(values, n=4)``
gives them) and the spread, the quartile distance as a share of the
median, into ``perfbench/workloads.json`` under ``"steadiness"``::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads build-dense,serve-read]

Each run is a separate ``perfbench/run.py`` process, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    settings_path = HERE / "workloads.json"
    settings = json.loads(settings_path.read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(settings["workloads"]))
    args = parser.parse_args(argv)

    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            started = time.perf_counter()
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if result.returncode != 0:
                print(result.stderr, file=sys.stderr)
                return 1
            line = json.loads(result.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(result.stdout, file=sys.stderr)
                return 1
            for metric, entry in line["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: {time.perf_counter() - started:.1f} s")
            for note in result.stdout.strip().splitlines()[:-1]:
                print(f"    {note}", flush=True)
        record = {}
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            record[metric] = {"median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median}
            print(f"  {metric:16s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {(q3 - q1) / median:.3f}")
        settings["workloads"][name]["steadiness"] = {
            "seeds": f"{args.seeds[0]}-{args.seeds[-1]}", "metrics": record}
        settings_path.write_text(json.dumps(settings, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
