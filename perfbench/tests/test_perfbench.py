"""Self-tests of the benchmark harness (seconds, not a measured run)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import harness, openloop, run, workloads  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_percentile_is_telemetry_quantile(monkeypatch):
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=257))
    for q in (0, 1, 37.5, 50, 99, 100):
        assert harness.percentile(values, q) == pytest.approx(
            np.percentile(values, q), rel=0, abs=1e-12)
    calls = []
    real = harness.telemetry.quantile

    def spy(data, q):
        calls.append(q)
        return real(data, q)

    monkeypatch.setattr(harness.telemetry, "quantile", spy)
    harness.percentile(values, 99)
    assert calls == [0.99]


def test_failed_requests_count_as_infinite_latency():
    latencies = [1.0, 2.0, 3.0, math.inf]
    assert harness.percentile(latencies, 50) == 2.5
    assert harness.percentile(latencies, 99) == math.inf
    assert harness.percentile([1.0, math.inf], 0) == 1.0


def test_one_seed_one_schedule_and_inputs():
    offsets = openloop.poisson_offsets(500.0, 4000, seed=7)
    assert np.array_equal(offsets, openloop.poisson_offsets(500.0, 4000, 7))
    assert not np.array_equal(offsets, openloop.poisson_offsets(500.0, 4000, 8))
    assert np.all(np.diff(offsets) > 0)
    assert np.mean(np.diff(offsets)) == pytest.approx(1 / 500.0, rel=0.05)
    pool = openloop.input_pool((3, 16, 16), 64, seed=7)
    assert np.array_equal(pool, openloop.input_pool((3, 16, 16), 64, 7))
    indices = openloop.pool_indices(100, 64, seed=7, stream=1)
    assert np.array_equal(indices, openloop.pool_indices(100, 64, 7, 1))
    assert not np.array_equal(indices, openloop.pool_indices(100, 64, 7, 2))


def test_response_check_rejects_a_corrupted_output():
    reference = np.arange(12.0).reshape(4, 3)
    indices = np.array([2, 0, 3])
    phase = openloop.Phase(name="p", attempted=3, wall_s=1.0,
                           latencies_s=[0.1] * 3,
                           outputs={i: reference[j].copy()
                                    for i, j in enumerate(indices)})
    workloads.check_responses(phase, indices, reference)
    phase.outputs[1] = np.nextafter(phase.outputs[1], np.inf)
    with pytest.raises(harness.CheckFailed):
        workloads.check_responses(phase, indices, reference)


class _FixedProbe:
    def __init__(self, *slowdowns):
        self._slowdowns = iter(slowdowns)

    def measure(self):
        return next(self._slowdowns)


def test_meter_takes_out_stolen_time_and_host_slowdown(monkeypatch):
    # user nice system idle iowait irq softirq steal: 90 busy, 10 stolen
    counters = iter([[0] * 8, [80, 0, 5, 40, 0, 3, 2, 10]])
    monkeypatch.setattr(harness, "cpu_times", lambda: next(counters))
    meter = harness.Meter("m", _FixedProbe(1.5, 2.5))   # mean slowdown 2
    with meter.unit():
        pass
    assert meter.steal == pytest.approx(0.1)
    assert meter.times_s() == [pytest.approx(0.9 * meter.walls[0] / 2)]
    assert meter.mean_s() == meter.total_s() == meter.times_s()[0]


def test_speed_probe_reads_the_kernel_against_the_reference():
    slowdown = harness.SpeedProbe().measure()
    assert 0.05 < slowdown < 20


def test_steal_timeline_charges_stolen_time_per_cpu(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    timeline = harness.StealTimeline()
    # one second of both CPUs stolen between t=1 and t=2
    ticks = 2 * harness.CLOCK_TICKS
    timeline._samples = [(0.0, 0), (1.0, 0), (2.0, ticks), (3.0, ticks)]
    assert timeline.stolen_s(0.0, 1.0) == 0.0
    assert timeline.stolen_s(0.5, 2.5) == pytest.approx(1.0)
    assert timeline.stolen_s(1.25, 1.75) == pytest.approx(0.5)
    assert timeline.steal == pytest.approx(1 / 3)


def test_steal_timeline_samples_while_entered():
    with harness.StealTimeline() as timeline:
        time.sleep(0.05)
    assert not timeline._thread.is_alive()
    assert len(timeline._samples) >= 3
    assert timeline.stolen_s(timeline._samples[0][0],
                             timeline._samples[-1][0]) >= 0.0


def _last_json(text: str):
    return json.loads(text.strip().splitlines()[-1])


def test_corrupted_serving_output_fails_the_run(monkeypatch, capsys):
    for var in BLAS_VARS:                    # main() pins them; restore after
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(workloads, "POOL_SIZE", 32)
    monkeypatch.setattr(workloads, "BURST_REQUESTS", 64)
    monkeypatch.setattr(workloads, "SERVE_SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "OPEN_PARTS", 1)
    real_burst = openloop.run_burst

    def corrupting_burst(*args, **kwargs):
        phase = real_burst(*args, **kwargs)
        phase.outputs[5] = phase.outputs[5] + 1e-9
        return phase

    monkeypatch.setattr(openloop, "run_burst", corrupting_burst)
    status = run.main(["--workload", "serve-low", "--seed", "3",
                       "--seconds", "0.2"])
    result = _last_json(capsys.readouterr().out)
    assert status == 1
    assert result["correct"] is False


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-low",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
