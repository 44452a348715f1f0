"""Shared pieces of the benchmark: metric table, statistics, spans, scratch.

Every workload returns an :class:`Outcome` (metric values plus attempted /
failed counts and a few report lines); :mod:`perfbench.run` turns it into
the one-line JSON result.  Metric names and units are read from
``BENCHMARK.json`` at the checkout root, so the declared metrics and the
numbers the harness prints cannot drift apart.

Timing goes through :func:`span`, a ``repro.core.telemetry`` timed span
named ``bench.*``: it always measures, and it is recorded only while the
traced run has a tracer installed.  Per-layer metrics are derived from the
``bench.*`` records alone (:func:`span_seconds`), never from the spans the
program records inside itself.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core import telemetry

#: the checkout root (this file lives in ``<root>/perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
#: run artifacts (traces, scratch artifact stores); ignored by git
OUT_DIR = ROOT / ".perfbench"
SPAN_PREFIX = "bench."


class CheckFailed(Exception):
    """An output check failed; the run is reported as incorrect."""


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    lines: List[str] = field(default_factory=list)


def metric_table() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, infinity-aware.

    Failed or shed requests enter as ``math.inf``.  When the interpolation
    touches one, the percentile is infinite; otherwise it is exactly
    :func:`repro.core.telemetry.quantile` (which matches ``np.percentile``).
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    if math.isinf(data[lo]) or (pos > lo and math.isinf(data[hi])):
        return math.inf
    # infinite samples sort last and lie outside the interpolation window,
    # so the largest finite sample in their place changes nothing
    top = max(v for v in data if not math.isinf(v))
    return telemetry.quantile([min(v, top) for v in data], q / 100.0)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def windowed_percentile(values: Sequence[float], q: float,
                        window: int = 1000) -> float:
    """Median over consecutive windows of >= ``window`` samples of each
    window's ``q``-th percentile (one window when there are fewer samples).

    With 1000-sample windows every window's p99 has ten samples beyond it,
    and one host stall moves one window instead of the whole run's tail.
    """
    count = max(1, len(values) // window)
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return median([percentile(values[lo:hi], q)
                   for lo, hi in zip(bounds, bounds[1:])])


# -- spans ----------------------------------------------------------------------

def span(name: str, **attrs: Any):
    """A ``bench.<name>`` timed span: measures always, records when traced."""
    return telemetry.timed_span(SPAN_PREFIX + name, **attrs)


def span_seconds(tracer: telemetry.Tracer, name: str,
                 **match: Any) -> List[float]:
    """Durations of the ``bench.<name>`` spans whose attributes match."""
    return [r["dur"] for r in tracer.records()
            if r["ph"] == "X" and r["name"] == SPAN_PREFIX + name
            and all(r["args"].get(k) == v for k, v in match.items())]


def write_trace(tracer: telemetry.Tracer, workload: str, seed: int) -> Path:
    """Export the Chrome trace and fail the run if it breaks the schema."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.export_chrome(path)
    errors = telemetry.validate_chrome_trace(json.loads(path.read_text()))
    check(not errors, f"trace {path.name} is invalid: {errors[:3]}")
    return path


# -- the host's speed -------------------------------------------------------------
#
# This benchmark runs on a few CPUs of a shared host, and the same code runs
# at very different speeds from one minute to the next, for two reasons:
#
# * the hypervisor runs other guests on this guest's CPUs (stolen time), for
#   a share of the time that swings from 0 to over a third;
# * the CPUs themselves run faster or slower with the load on the rest of
#   the host: on a 2-vCPU guest the same compression stages took 1.15 s,
#   2.1 s and 0.58 s in three periods within an hour, with no time stolen.
#
# Either would move two sets of runs of unchanged code apart by more than
# any useful bound.  So every end-to-end timing is taken less the time
# stolen while it ran (``/proc/stat`` counts it), and divided by how much
# slower than on the sizing host a fixed kernel ran around it.  The kernel
# -- matrix products, a gather and a sort on fixed inputs -- is not program
# code: a change to the program moves the program's timings and not the
# kernel's.  Across those three periods the kernel's time moved with the
# program's (8.3, 13 and 4.4 ms); within one minute in which both swung
# 1.6x, their ratio varied 3-4x less than either (coefficient of variation
# 0.06-0.09 against 0.19-0.30).

#: ``/proc/stat`` ticks per second
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: median CPU time of :class:`SpeedProbe`'s kernel on the sizing host (2
#: vCPUs, OpenBLAS pinned to 1 thread) in its usual speed
REFERENCE_KERNEL_S = 0.0080


def cpu_times() -> List[int]:
    """The host-wide ``/proc/stat`` CPU counters (empty where absent)."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return []


def _steal_busy(before: List[int], after: List[int]) -> Tuple[int, int]:
    """Stolen and busy ticks in between (0, 0 where ``/proc/stat`` is absent).

    Busy is user, nice, system, irq and softirq time; idle and iowait are
    left out, so an idle CPU's ticks do not dilute the stolen share.
    """
    if len(before) < 8 or len(after) < 8:
        return 0, 0
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7], sum(deltas[i] for i in (0, 1, 2, 5, 6))


class SpeedProbe:
    """How much slower than the sizing host this host's CPUs run now.

    Times the kernel in thread CPU time, which leaves stolen time out: the
    probe measures the CPUs' speed only, and stolen time is taken out of
    the program's timings on its own.
    """

    #: kernel runs per measurement; their median is taken
    RUNS = 5

    def __init__(self) -> None:
        rng = np.random.default_rng(0x5EED)
        self._a = rng.standard_normal((192, 192))
        self._b = rng.standard_normal((192, 192))
        self._v = rng.standard_normal(1 << 18)
        self._idx = rng.integers(0, 1 << 18, size=1 << 18)
        self._kernel()                      # first-touch costs, not speed

    def _kernel(self) -> None:
        for _ in range(12):
            self._a @ self._b
        np.take(self._v, self._idx)
        np.sort(self._v)

    def measure(self) -> float:
        """Median kernel CPU time of a few runs over the reference (> 1:
        slower than the sizing host)."""
        times = []
        for _ in range(self.RUNS):
            start = time.thread_time()
            self._kernel()
            times.append(time.thread_time() - start)
        return median(times) / REFERENCE_KERNEL_S


class Meter:
    """Repeated units of work, timed at the sizing host's speed.

    Each unit's wall time is divided by the probe's mean slowdown just
    before and just after it.  The stolen and busy CPU ticks are added up
    over all units and the stolen share is taken out of every unit, because
    one unit can span too few clock ticks for a share of its own.
    """

    def __init__(self, name: str, probe: SpeedProbe) -> None:
        self.name = name
        self.probe = probe
        self.walls: List[float] = []
        self.slowdowns: List[float] = []
        self._stolen = 0
        self._busy = 0

    @contextmanager
    def unit(self) -> Iterator[None]:
        before = self.probe.measure()
        ticks = cpu_times()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.walls.append(time.perf_counter() - start)
            stolen, busy = _steal_busy(ticks, cpu_times())
            self._stolen += stolen
            self._busy += busy
            self.slowdowns.append((before + self.probe.measure()) / 2)

    @property
    def steal(self) -> float:
        """Share of the CPU time asked for during the units that was stolen."""
        return self._stolen / max(self._stolen + self._busy, 1)

    def factors(self) -> List[float]:
        """Per unit: what turns its wall time into sizing-host time."""
        kept = 1.0 - self.steal
        return [kept / slowdown for slowdown in self.slowdowns]

    def times_s(self) -> List[float]:
        """Each unit's time at the sizing host's speed."""
        return [wall * f for wall, f in zip(self.walls, self.factors())]

    def total_s(self) -> float:
        return sum(self.times_s())

    def mean_s(self) -> float:
        return self.total_s() / len(self.walls)

    def line(self) -> str:
        mean_wall = sum(self.walls) / len(self.walls)
        return (f"{self.name}: {len(self.walls)} x {1e3 * mean_wall:.3f} ms "
                f"wall, steal {100 * self.steal:.1f}%, slowdown "
                f"{median(self.slowdowns):.3f}, {1e3 * self.mean_s():.3f} ms "
                "at the sizing host's speed")


class StealTimeline:
    """Stolen CPU time along a stretch of wall time, for open-loop latency.

    A share is the wrong correction for a latency tail: a request that
    waited out a stolen slice is late by the slice.  While entered, a
    thread reads the stolen-tick counter every :data:`PERIOD` seconds;
    :meth:`stolen_s` gives the stolen time per CPU between two instants.
    """

    #: seconds between samples; ``/proc/stat`` counts in 10 ms ticks
    PERIOD = 0.01

    def __init__(self) -> None:
        #: ``(perf_counter, stolen ticks)`` pairs, appended by the sampler
        self._samples: List[Tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="steal-sampler",
                                        daemon=True)

    def __enter__(self) -> "StealTimeline":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            self._sample()

    def _sample(self) -> None:
        fields = cpu_times()
        self._samples.append((time.perf_counter(),
                              fields[7] if len(fields) > 7 else 0))

    def stolen_s(self, start: float, end: float) -> float:
        """Stolen seconds per CPU between two ``perf_counter`` instants."""
        times, stolen = zip(*list(self._samples))   # safe while sampling
        ticks = np.interp([start, end], times, stolen)
        return float(ticks[1] - ticks[0]) / (CLOCK_TICKS * (os.cpu_count() or 1))

    @property
    def steal(self) -> float:
        """Stolen share of all CPU time over the whole timeline."""
        first, last = self._samples[0][0], self._samples[-1][0]
        return self.stolen_s(first, last) / max(last - first, 1e-9)


# -- host and process -------------------------------------------------------------

def fingerprint() -> Dict[str, Any]:
    """CPU count, BLAS build and threads, numpy and python versions."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private directory under the checkout, removed afterwards."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
