"""Timings at the reference machine speed: the rescaling arithmetic."""

from pathlib import Path

import pytest

from perfbench import speed, workloads


def test_scale_is_the_reference_over_the_mean_sample():
    clock = speed.Speed(4.0)
    with pytest.raises(ValueError):
        clock.scale()
    clock.samples += [2.0, 6.0]
    assert clock.scale() == 1.0
    clock.samples.append(2.0)  # mean 10/3 ms: the machine ran faster than the reference
    assert clock.scale() == pytest.approx(1.2)


def test_a_timing_is_reported_at_the_reference_speed(tmp_path: Path):
    settings = {"reference_ms": 4.0, "workloads": {"build-dense": {}}}
    run = workloads.Run(root=tmp_path, work=tmp_path, name="build-dense", seed=1,
                        seconds=1.0, trace=False, settings=settings)
    run.speed.samples += [5.0, 5.0]  # a machine 25% slower than the reference
    run.timing("build_s", 2.5, "s")
    run.metric("store_mb", 2.5, "MB")
    run.speed.samples += [3.0, 3.0]  # then the mean sample is the reference
    run.timing("setup_s", 0.5, "s")
    assert run.metrics == {"build_s": (2.0, "s"), "store_mb": (2.5, "MB"),
                           "setup_s": (0.5, "s")}
    assert "measured 2.5 s, times 0.8000 from 2 reference samples" in run.notes[0]
    assert "measured 0.5 s, times 1.0000 from 4 reference samples" in run.notes[2]


def test_a_sample_times_real_work(monkeypatch):
    monkeypatch.setattr(speed, "SAMPLE_SECONDS", 0.01)
    assert 0.0 < speed.sample_ms() < 1000.0
