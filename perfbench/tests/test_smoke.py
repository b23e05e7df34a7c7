"""Tiny-input runs of all four workloads with every oracle on, and the CLI contract."""

import io
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import speed, workloads

ROOT = Path(__file__).resolve().parents[2]
E2E = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

TINY = {
    "default_seed": 1,
    "reference_ms": 4.0,
    "latency_limit_ms": 50,
    "light_rps": 100,
    "heavy_rps": 200,
    "ladder_rps": [300],
    "workloads": {
        "build-dense": {"dataset": "mushroom", "n_objects": 150, "minsup": 0.5,
                        "minconf": 0.7, "bases": None, "population": 32},
        "build-sparse": {"dataset": "quest", "n_objects": 150, "minsup": 0.05,
                         "minconf": 0.7, "bases": None, "population": 32},
        "serve-read": {"dataset": "mushroom", "n_objects": 150, "minsup": 0.5,
                       "minconf": 0.7, "population": 64,
                       "bases": "all,dg,luxenburger,luxenburger-reduced,generic,"
                                "informative,informative-reduced"},
        "update-stream": {"dataset": "quest", "n_objects": 150, "minsup": 0.05,
                          "minconf": 0.7, "bases": "all,dg,luxenburger-reduced,informative",
                          "population": 32, "batch": 5, "max_batches": 20},
    },
}


@pytest.fixture(autouse=True)
def short_speed_samples(monkeypatch):
    monkeypatch.setattr(speed, "SAMPLE_SECONDS", 0.02)


@pytest.mark.parametrize("name", sorted(TINY["workloads"]))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_workload_passes_every_oracle(tmp_path, name, trace):
    run = workloads.Run(root=ROOT, work=tmp_path, name=name, seed=3, seconds=2.0,
                        trace=trace, settings=TINY)
    workloads.WORKLOADS[name](run)
    assert run.checks.failures == [] and run.failed == 0, run.notes
    assert run.checks.attempted > 0 and run.attempted > 0
    assert sorted(run.metrics) == sorted(E2E)
    assert all(value > 0 for value, _ in run.metrics.values())
    if trace:
        assert run.layers["trace.spans"] > 0 and "serve.handle_ms.rules.p50" in run.layers
        if name.startswith("build"):
            assert run.layers["bases.all.rules"] > 0 and run.layers["build.self_s"] >= 0
        if name == "update-stream":
            assert run.layers["incremental.update_s"] > 0


def test_a_writer_that_dies_fails_the_batch_it_was_handed(tmp_path):
    class Writer:
        stdin = io.StringIO()
        stdout = io.StringIO(json.dumps({"mode": "incremental"}) + "\n")

    phase = types.SimpleNamespace(origin=time.perf_counter(), seconds=60.0,
                                  first_seen={2: 0.0})
    feeder = workloads._Feeder(Writer(), [[["a"]], [["b"]], [["c"]]])
    feeder.start_with(phase)
    feeder.join(timeout=30)
    assert feeder.handed == 2 and len(feeder.reports) == 1

    run = workloads.Run(root=ROOT, work=tmp_path, name="update-stream", seed=1,
                        seconds=1.0, trace=False, settings=TINY)
    workloads.record_updates(run, feeder.handed, feeder.reports)
    assert (run.attempted, run.failed) == (2, 1)


def test_seeds_rename_and_shuffle_one_structure():
    from perfbench import inputs

    first, again, other = (inputs.quest_rows(seed, 40, 10) for seed in (5, 5, 6))
    assert first == again and first.rows != other.rows
    assert len(first.rows) == 40 and len(first.stream) == 10

    def generated(dataset, rows):
        return sorted(sorted(dataset.original[item] for item in row) for row in rows)

    assert generated(first, first.rows) == generated(other, other.rows)
    assert generated(first, first.stream) == generated(other, other.stream)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0 and result.stdout == ""
