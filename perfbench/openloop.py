"""Seeded open-loop load generation against a ``repro.serve.ModelServer``.

Independent users make an open loop: requests are sent on a Poisson
schedule whether or not earlier ones finished, so a slow server faces a
growing queue instead of a politely waiting client.  Each request's latency
runs from the instant it was *due* (not the instant the generator got to
it) to ``Request.completed_at``, so a stall in the generator or a blocking
admission queue is charged to the requests it delayed.  A failed or shed
request counts as infinite latency.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.serve import ServerOverloaded, ServingError

#: seconds every result may take before the request counts as failed
RESULT_TIMEOUT_S = 60.0


def poisson_offsets(rate_rps: float, count: int, seed: int) -> np.ndarray:
    """Send offsets (seconds from phase start) of ``count`` Poisson arrivals.

    The exponential gaps are drawn by stratified sampling (one uniform draw
    per 1/count-quantile band, in seeded random order): every gap is still
    exponential and the order random, but each seed's gap histogram matches
    the exponential closely, so the latency tail varies less from seed to
    seed than with independent draws.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    uniform = (rng.permutation(count) + rng.random(count)) / count
    return np.cumsum(-np.log1p(-uniform) / rate_rps)


def input_pool(shape, size: int, seed: int) -> np.ndarray:
    """``size`` distinct request payloads; requests draw from this pool."""
    rng = np.random.default_rng([seed, 0x1A7])
    return rng.standard_normal((size, *shape))


def pool_indices(count: int, pool_size: int, seed: int, stream: int) -> np.ndarray:
    """Which pool payload each of ``count`` requests carries."""
    rng = np.random.default_rng([seed, stream])
    return rng.integers(0, pool_size, size=count)


@dataclass
class Phase:
    """One traffic phase's outcome, in request order."""

    name: str
    attempted: int
    wall_s: float
    latencies_s: List[float]
    #: when each request was due, in request order
    due_s: List[float] = field(default_factory=list)
    #: request position -> output row, for completed requests only
    outputs: Dict[int, np.ndarray] = field(default_factory=dict)
    shed: int = 0
    failed: int = 0
    late_max_s: float = 0.0

    @property
    def succeeded(self) -> int:
        return self.attempted - self.shed - self.failed

    def summary(self) -> str:
        return (f"phase {self.name}: attempted={self.attempted} "
                f"succeeded={self.succeeded} failed={self.failed} "
                f"shed={self.shed} wall={self.wall_s:.2f}s "
                f"generator_late_max={self.late_max_s * 1e3:.2f}ms")


def _collect(phase: Phase, handles: List[Optional[tuple]]) -> None:
    for position, entry in enumerate(handles):
        if entry is None:                       # shed at admission
            phase.latencies_s.append(math.inf)
            phase.due_s.append(math.nan)
            continue
        due, handle = entry
        phase.due_s.append(due)
        try:
            phase.outputs[position] = handle.result(RESULT_TIMEOUT_S)
        except (ServingError, TimeoutError):
            phase.failed += 1
            phase.latencies_s.append(math.inf)
            continue
        phase.latencies_s.append(handle.completed_at - due)


def run_open(server, model: str, payloads: np.ndarray, offsets: np.ndarray,
             name: str) -> Phase:
    """Send ``payloads[i]`` at ``offsets[i]`` from one generator thread."""
    phase = Phase(name=name, attempted=len(offsets), wall_s=0.0,
                  latencies_s=[])
    handles: List[Optional[tuple]] = []
    start = time.perf_counter() + 0.01
    for payload, offset in zip(payloads, offsets):
        due = start + float(offset)
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        phase.late_max_s = max(phase.late_max_s, time.perf_counter() - due)
        try:
            handles.append((due, server.submit(model, payload)))
        except ServerOverloaded:
            phase.shed += 1
            handles.append(None)
    _collect(phase, handles)
    phase.wall_s = time.perf_counter() - start
    return phase


def run_burst(server, model: str, payloads: np.ndarray, name: str) -> Phase:
    """Closed saturation burst through ``ModelServer.predict_many``.

    Every request is enqueued before the first result is awaited; under the
    ``block`` overload policy the admission queue stays full until the
    tail.  ``predict_many`` stops at the first failure, so a failed burst
    counts every request as failed.
    """
    count = len(payloads)
    start = time.perf_counter()
    try:
        outputs = server.predict_many(model, payloads, timeout=RESULT_TIMEOUT_S)
    except (ServingError, TimeoutError):
        return Phase(name=name, attempted=count,
                     wall_s=time.perf_counter() - start,
                     latencies_s=[math.inf] * count, failed=count)
    wall = time.perf_counter() - start
    return Phase(name=name, attempted=count, wall_s=wall, latencies_s=[],
                 outputs=dict(enumerate(outputs)))
