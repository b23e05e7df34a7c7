"""Shared helpers for the benchmark suite.

Every benchmark module regenerates one table or figure of the evaluation
(see DESIGN.md §2).  Because a single cell of those tables can take several
seconds of pure-Python mining, the experiments are executed exactly once
per benchmark (``rounds=1``) — pytest-benchmark still reports the wall
clock, which is the quantity the runtime figures need, and the rendered
tables are written to ``benchmarks/results/`` so they can be inspected and
copied into EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments.report import render_text_table

RESULTS_DIR = Path(__file__).parent / "results"

# Reference constructions (``from oracles import ...``) live with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def save_table(name: str, rows: list[dict], title: str) -> Path:
    """Render *rows* as a text table and store it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    text = render_text_table(rows, title=title)
    path.write_text(text + "\n", encoding="utf-8")
    # Also echo to stderr so the table shows up in piped benchmark logs.
    print(f"\n{text}\n", file=sys.stderr)
    return path


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR
