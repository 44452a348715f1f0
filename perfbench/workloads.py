"""The four benchmark workloads, driven through public entry points only.

========================  ==================================================
workload                  loop and what runs
========================  ==================================================
``serve-low``             open loop, Poisson 100 req/s, in parts between
                          closed bursts: ``serving-resnet18`` on 2 thread
                          replicas
``serve-high``            the same at 500 req/s
``compress-cold``         closed loop, one caller: ``run_scenario`` of the
                          quickstart ResNet-18 at width 64 / k=256 / 15
                          k-means iterations, every default stage, against a
                          fresh disk ``ArtifactStore`` each time
``explore-warm``          closed loop, one caller: ``explore()`` over the
                          ``models-grid`` space (16 candidates) on a disk
                          store the cold sweep of set-up already filled
========================  ==================================================

Every workload reports every end-to-end metric; each names the workload's
own unit of work:

* ``p50_ms`` / ``p99_ms`` -- latency of one request: a served inference
  (from its scheduled send time), one cold compression job, one candidate
  evaluation of a warm sweep.  Serving reports the median over windows of
  1000 consecutive requests of each window's percentile, explore the
  median over sweeps, so one host stall moves one window, not the run.
* ``capacity_rps`` -- requests completed per second by a closed loop that
  keeps the system busy: saturation bursts, back-to-back cold jobs,
  back-to-back warm sweeps.
* ``compress_s`` / ``sweep_s`` -- the mean time of one cold pass of the
  workload's pipeline against an empty store, and of one warm pass over
  the store the cold pass filled (serve: the served scenario's compression
  stages on an in-memory store; compress: the job on a disk store;
  explore: the 16-candidate sweep on a disk store).
* ``mask_sse`` / ``compression_ratio`` -- of the served model, of the
  compressed job, of the sweep's best frontier point.
* ``setup_s`` -- mean of several set-ups; ``peak_rss_mb`` -- ``ru_maxrss``.

Every timing leaves out the CPU time the hypervisor stole while it was
taken: closed-loop timings go through a :class:`~perfbench.harness.Meter`,
and each open-loop request's latency is charged only with the time its
CPUs ran (:class:`~perfbench.harness.StealTimeline`).

The traced run (``trace=True``) times half of the measured phase untraced
and half traced; the difference of the two headline times is reported as
``trace.overhead_ms``.  The traced half gives the per-layer metrics of the
layer group the workload exercises (``serve``, ``pipeline`` or
``explore``); :func:`layer_probes` measures the other groups with short
fixed runs and times the ``repro.nn`` / ``repro.accelerator`` calls
directly, so every per-layer metric is measured on every workload.
"""

from __future__ import annotations

import itertools
import shutil
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Tuple

import numpy as np

from perfbench import openloop
from perfbench.harness import (
    CheckFailed,
    Meter,
    Outcome,
    SpeedProbe,
    StealTimeline,
    check,
    median,
    percentile,
    scratch_dir,
    span,
    span_seconds,
    windowed_percentile,
)
from repro.core import telemetry

SERVE_SCENARIO = "serving-resnet18"
#: thread replicas per served model (the CPU count of the sizing host)
SERVE_REPLICAS = 2
#: offered Poisson rates, sized on a 2-CPU host with BLAS pinned to 1 thread
SERVE_RATES = {"serve-low": 100.0, "serve-high": 500.0}
#: distinct request payloads; responses are checked against their reference
POOL_SIZE = 1024
#: requests of one closed burst; capacity_rps is the bursts' completions
#: over their time
BURST_REQUESTS = 512
#: share of the measured seconds given to the open loop; the bursts take
#: about the rest
OPEN_SHARE = 0.8
#: parts of the open loop, each on a fresh server and followed by a burst
OPEN_PARTS = 6
#: set-ups per run; setup_s (and the set-up timings) are means
SETUP_REPEATS = 3
#: serve set-up is ~0.15 s, so it is repeated more to steady the mean
SERVE_SETUP_REPEATS = 20
#: warm re-runs per serve set-up repeat (each takes ~5 ms)
SERVE_WARM_RERUNS = 5
#: repeats of each direct layer probe (medians are reported)
PROBE_REPEATS = 15
#: length of the serving probe (at the serve-low rate) on other workloads
PROBE_SERVE_S = 2.0

COMPRESS_BASE = "quickstart-resnet18"
EXPLORE_SPACE = "models-grid"
#: the small space the exploration probe sweeps on other workloads
PROBE_EXPLORE_SPACE = "quickstart-grid"
ACCEL_PROBE = {"workload": "resnet18", "setting": "EWS-CMS", "array_size": 64}
#: stages timed one by one (finetune is configured off in these scenarios)
TIMED_STAGES = ("group", "prune", "cluster", "quantize", "export",
                "serve_eval", "accel_eval")


def _repeat_for(seconds: float, minimum: int, step: Callable[[], None]) -> None:
    """Run ``step`` until ``seconds`` have passed and at least ``minimum`` times."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < minimum or time.perf_counter() < deadline:
        step()
        done += 1


# -- serving ------------------------------------------------------------------

def _load_served():
    """The served model: ``SERVE_REPLICAS`` replicas for the server plus a
    spare, warmed at the canonical batch, for references and probes."""
    from repro.nn.serve import prepare_for_serving
    from repro.serve import load_scenario

    loaded = load_scenario(SERVE_SCENARIO, replicas=SERVE_REPLICAS + 1)
    prepare_for_serving(loaded.replicas[-1], loaded.input_shape,
                        loaded.policy().max_batch_size)
    return loaded


def _serve_setup(probe: SpeedProbe) -> Tuple[Dict[str, float], object, str]:
    """Cold compression, warm re-runs, then model load + server warm-up.

    Repeated :data:`SERVE_SETUP_REPEATS` times, each on a fresh in-memory
    store (the serve workloads keep the disk out of their numbers; the
    disk store is measured by the other two workloads).  The warm re-run
    takes milliseconds, so it runs :data:`SERVE_WARM_RERUNS` times a
    repeat.  Each repeat is one unit of a meter, and each step is brought
    to the sizing host's speed by its repeat's factor.  Returns the mean
    time of each step, the last loaded model and a report line.
    """
    from repro.pipeline import CORE_STAGES, ArtifactStore, get_scenario, run_scenario

    scenario = get_scenario(SERVE_SCENARIO)
    steps: List[Dict[str, List[float]]] = []
    repeats = Meter("serve set-up", probe)
    loaded = None

    def timed(walls: List[float], fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        walls.append(time.perf_counter() - start)
        return result

    for _ in range(SERVE_SETUP_REPEATS):
        walls: Dict[str, List[float]] = {"compress_s": [], "sweep_s": [],
                                         "setup_s": []}
        with repeats.unit():
            store = ArtifactStore()
            timed(walls["compress_s"], run_scenario, scenario,
                  stages=CORE_STAGES, store=store)
            for _ in range(SERVE_WARM_RERUNS):
                timed(walls["sweep_s"], run_scenario, scenario,
                      stages=CORE_STAGES, store=store)
            loaded = timed(walls["setup_s"], _load_served)
            timed(walls["setup_s"], lambda: _fresh_server(loaded).shutdown())
        steps.append(walls)
    means = {}
    for name in ("compress_s", "sweep_s", "setup_s"):
        # setup_s adds the load and the warm-up
        per_repeat = [f * sum(walls[name])
                      for walls, f in zip(steps, repeats.factors())]
        count = SERVE_WARM_RERUNS if name == "sweep_s" else 1
        means[name] = sum(per_repeat) / (count * len(per_repeat))
    return means, loaded, repeats.line() + " (" + ", ".join(
        f"{name}={value:.4f}" for name, value in means.items()) + ")"


def _fresh_server(loaded):
    """A started server for one phase, so its stats cover that phase only."""
    from repro.serve import ModelServer

    server = ModelServer()
    server.register(loaded.name, loaded.replicas[:SERVE_REPLICAS],
                    policy=loaded.policy(), input_shape=loaded.input_shape)
    return server.start()


def _serve_phase(loaded, rate: float, count: int, pool: np.ndarray,
                 seed: int, stream: int, name: str, part: slice = slice(None)):
    """One open-loop phase on a fresh server; returns (phase, stats, indices).

    ``part`` runs only those requests of the ``count``-request schedule,
    from the first one's send time on.
    """
    indices = openloop.pool_indices(count, len(pool), seed, stream)[part]
    offsets = openloop.poisson_offsets(rate, count, seed + stream)[part]
    offsets = offsets - offsets[0]
    server = _fresh_server(loaded)
    try:
        with span("serve.phase", phase=name, rate=rate):
            phase = openloop.run_open(server, loaded.name, pool[indices],
                                      offsets, name)
        stats = server.stats_report()["models"][loaded.name]
    finally:
        server.shutdown()
    return phase, stats, indices


def check_responses(phase: openloop.Phase, indices: np.ndarray,
                    reference: np.ndarray) -> None:
    """Every response is bit-identical to the canonical-batch reference."""
    check(len(phase.outputs) == phase.succeeded,
          f"{phase.name}: {phase.succeeded} successes but "
          f"{len(phase.outputs)} outputs")
    for position, output in phase.outputs.items():
        if not np.array_equal(output, reference[indices[position]]):
            raise CheckFailed(
                f"{phase.name}: response {position} differs from "
                "predict_batched at the canonical batch")


def _reference(loaded, pool: np.ndarray) -> np.ndarray:
    """Solo-served outputs of ``pool`` (the batched == solo contract)."""
    from repro.nn.serve import predict_batched

    return predict_batched(loaded.replicas[-1], pool,
                           batch_size=loaded.policy().max_batch_size)


def _serving_metrics(stats: Dict, phase: openloop.Phase,
                     max_batch: int) -> Dict[str, float]:
    hist = {int(k): v for k, v in stats["batch_size_histogram"].items()}
    batches = sum(hist.values())
    rows = sum(size * n for size, n in hist.items())
    check(batches > 0, f"{phase.name}: the server executed no batch")
    return {
        "serve.pad_frac": 1.0 - rows / (batches * max_batch),
        "serve.batch_rows.mean": rows / batches,
        "serve.batches_per_s": batches / phase.wall_s,
        "serve.queue_wait_ms.p50": stats["queue_wait_ms"]["p50"],
        "serve.queue_wait_ms.p99": stats["queue_wait_ms"]["p99"],
        "serve.gen_late_ms.max": phase.late_max_s * 1e3,
    }


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              import_s: float, probe: SpeedProbe) -> Outcome:
    rate = SERVE_RATES[workload]
    setup_means, loaded, setup_line = _serve_setup(probe)
    max_batch = loaded.policy().max_batch_size
    pool = openloop.input_pool(loaded.input_shape, POOL_SIZE, seed)
    metrics: Dict[str, float] = {}

    if not trace:
        # the open loop in parts on fresh servers, each followed by a closed
        # burst, so that both are measured all through the run; the host's
        # speed is measured around each part and each burst
        count = round(rate * seconds * OPEN_SHARE)
        bounds = np.linspace(0, count, OPEN_PARTS + 1).round().astype(int)
        checked, opens, bursts, slowdowns = [], [], [], []
        burst_meter = Meter(f"{workload}: closed bursts", probe)
        with StealTimeline() as timeline:
            for part_no, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                before = probe.measure()
                phase, _, indices = _serve_phase(
                    loaded, rate, count, pool, seed, 1,
                    f"{workload}-open{part_no}", slice(lo, hi))
                slowdowns.append((before + probe.measure()) / 2)
                checked.append((phase, indices))
                opens.append(phase)
                burst_idx = openloop.pool_indices(BURST_REQUESTS, POOL_SIZE,
                                                  seed, 10 + part_no)
                server = _fresh_server(loaded)
                try:
                    with burst_meter.unit():
                        burst = openloop.run_burst(
                            server, loaded.name, pool[burst_idx],
                            f"{workload}-burst{part_no}")
                finally:
                    server.shutdown()
                checked.append((burst, burst_idx))
                bursts.append(burst)
        # each latency less the time stolen while it ran, at the sizing
        # host's speed
        latencies_ms = []
        for phase, slowdown in zip(opens, slowdowns):
            latencies_ms += [
                1e3 * (lat - timeline.stolen_s(due, due + lat)) / slowdown
                for due, lat in zip(phase.due_s, phase.latencies_s)]
        notes = [setup_line, burst_meter.line(),
                 f"{workload}: open loop steal {100 * timeline.steal:.1f}%, "
                 "slowdowns " + " ".join(f"{v:.3f}" for v in slowdowns)]
        metrics.update({
            "p50_ms": windowed_percentile(latencies_ms, 50),
            "p99_ms": windowed_percentile(latencies_ms, 99),
            "capacity_rps": sum(b.succeeded for b in bursts)
                            / burst_meter.total_s(),
            **setup_means,
            "mask_sse": loaded.compressed.mask_sse(),
            "compression_ratio": loaded.compressed.compression_ratio(),
        })
    else:
        notes = [setup_line]
        count = round(rate * seconds / 2)
        plain, _, plain_idx = _serve_phase(loaded, rate, count, pool, seed, 1,
                                           f"{workload}-untraced")
        telemetry.enable(buffer_size=1 << 20)
        # the same schedule and payloads, so the two phases differ by tracing
        traced, stats, traced_idx = _serve_phase(loaded, rate, count, pool,
                                                 seed, 1, f"{workload}-traced")
        checked = [(plain, plain_idx), (traced, traced_idx)]
        metrics.update(_serving_metrics(stats, traced, max_batch))
        metrics["trace.overhead_ms"] = 1e3 * (
            median(traced.latencies_s) - median(plain.latencies_s))
        with scratch_dir() as workdir:
            metrics.update(layer_probes(seed, workdir, own="serve",
                                        loaded=loaded))

    # bit-identity with solo serving, checked after the timed phases
    reference = _reference(loaded, pool)
    for phase, indices in checked:
        check_responses(phase, indices, reference)
    phases = [phase for phase, _ in checked]
    return Outcome(
        metrics=metrics,
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed + p.shed for p in phases),
        lines=[p.summary() for p in phases] + notes,
    )


# -- per-layer probes (traced runs) ---------------------------------------------

def _predicted_seconds(module, rows: int) -> float:
    """``InferenceCostModel`` estimate for the layer's resolved engine mode."""
    engine = module.engine
    model = engine.cost_model
    mode = engine.choose_mode(rows, module.dtype)
    if mode == "dense":
        return model.dense_seconds(rows, engine.n_in, engine.c_out, module.dtype)
    args = (rows, engine.n_in, engine.c_out, engine.d, engine.table_size,
            engine.gather_forward, module.dtype)
    if mode == "centroid":
        return model.centroid_seconds(*args)
    return model.lut_seconds(*args)


def _nn_probes(tracer, loaded, seed: int) -> Dict[str, float]:
    """Time ``repro.nn`` / ``repro.accelerator`` calls directly.

    * the canonical padded forward on the spare serving replica, with every
      ``CompressedConv2d.forward`` inside it wrapped in its own span, and
      the cost model's prediction for each layer as a share of its time;
    * the same forward on the uncompressed model (the real baseline);
    * a fresh model build plus ``swap_to_compressed``;
    * ``PerformanceModel().evaluate`` of the ResNet-18 table.
    """
    from repro.accelerator.config import config_from_spec
    from repro.accelerator.performance import PerformanceModel
    from repro.nn.compressed import CompressedConv2d, swap_to_compressed
    from repro.nn.functional import conv_output_size
    from repro.nn.serve import forward_padded, prepare_for_serving
    from repro.pipeline import get_scenario
    from repro.workloads import shape_factory

    scenario = get_scenario(SERVE_SCENARIO)
    batch = loaded.policy().max_batch_size
    x = openloop.input_pool(loaded.input_shape, batch, seed + 7)
    spare = loaded.replicas[-1]

    rows: Dict[str, int] = {}
    layers = {name: module for name, module in spare.named_modules()
              if isinstance(module, CompressedConv2d)}

    def wrap(name, module):
        forward = module.forward

        def timed_forward(inputs):
            n, _, h, w = inputs.shape
            out_h = conv_output_size(h, module.kernel_size, module.stride,
                                     module.padding)
            out_w = conv_output_size(w, module.kernel_size, module.stride,
                                     module.padding)
            rows[name] = n * out_h * out_w
            with span("nn.layer", layer=name):
                return forward(inputs)
        module.forward = timed_forward

    for name, module in layers.items():
        wrap(name, module)
    try:
        for _ in range(PROBE_REPEATS):
            with span("nn.forward_padded", model="compressed"):
                forward_padded(spare, x, batch)
    finally:
        for module in layers.values():
            del module.forward                # back to the class method

    dense = prepare_for_serving(scenario.build_model(), loaded.input_shape, batch)
    for _ in range(PROBE_REPEATS):
        with span("nn.forward_padded", model="dense"):
            forward_padded(dense, x, batch)
    for _ in range(5):
        with span("nn.build"):
            swap_to_compressed(scenario.build_model(), loaded.compressed)

    table = shape_factory(ACCEL_PROBE["workload"])()
    hw = config_from_spec(ACCEL_PROBE)
    for _ in range(PROBE_REPEATS):
        with span("accelerator.evaluate"):
            PerformanceModel().evaluate(table, hw)

    def seconds(name: str, **match) -> float:
        return median(span_seconds(tracer, name, **match))

    metrics = {
        "nn.forward_ms.canonical":
            1e3 * seconds("nn.forward_padded", model="compressed"),
        "nn.forward_ms.dense": 1e3 * seconds("nn.forward_padded", model="dense"),
        "nn.build_ms": 1e3 * seconds("nn.build"),
        "accelerator.evaluate_ms": 1e3 * seconds("accelerator.evaluate"),
    }
    for name, module in layers.items():
        measured = seconds("nn.layer", layer=name)
        metrics[f"nn.layer.{name}.ms"] = 1e3 * measured
        metrics[f"nn.layer.{name}.pred_ratio"] = (
            _predicted_seconds(module, rows[name]) / measured)
    return metrics


def _serve_probe(loaded, seed: int) -> Dict[str, float]:
    """A short open-loop phase at the serve-low rate, outputs checked."""
    rate = SERVE_RATES["serve-low"]
    pool = openloop.input_pool(loaded.input_shape, 64, seed + 11)
    phase, stats, indices = _serve_phase(loaded, rate,
                                         round(rate * PROBE_SERVE_S), pool,
                                         seed, 5, "probe-serve")
    check_responses(phase, indices, _reference(loaded, pool))
    return _serving_metrics(stats, phase, loaded.policy().max_batch_size)


def _staged_run(scenario, store_dir):
    """One pipeline run, each ``run_stage`` call from a
    ``Pipeline.context_for`` context in its own span; returns the context
    and the store's counters."""
    from repro.pipeline import ArtifactStore, Pipeline
    from repro.pipeline.runner import run_stage

    config = scenario.pipeline_config()
    store = ArtifactStore(store_dir)
    pipeline = Pipeline(config, store=store, workload=scenario.accel_workload(),
                        input_shape=scenario.effective_input_shape(),
                        scenario=scenario.name)
    with span("pipeline.run"):
        ctx = pipeline.context_for(scenario.build_model())
        for stage in config.stages:
            with span("pipeline.stage", stage=stage):
                run_stage(ctx, stage)
    check(ctx["serve_report"]["outputs_match"],
          "staged serve_eval outputs differ from the reference")
    return ctx, store.stats()


def _pipeline_metrics(tracer, ctx, store_stats) -> Dict[str, float]:
    """Stage times (medians over the traced runs), k-means assignment rate,
    store misses and export size of the last run."""
    stage_s = {stage: median(span_seconds(tracer, "pipeline.stage",
                                          stage=stage))
               for stage in TIMED_STAGES}
    work = sum(layer.num_subvectors * layer.config.k
               * layer.config.max_kmeans_iterations
               for layer in ctx["compressed"].layers.values())
    metrics = {f"pipeline.stage.{stage}_s": value
               for stage, value in stage_s.items()}
    metrics.update({
        "core.kmeans.assign_per_s": work / stage_s["cluster"],
        "pipeline.store.misses": store_stats["misses"],
        "pipeline.export_bytes": ctx["export"]["file_size_bytes"],
    })
    return metrics


def _explore_metrics(sweeps) -> Dict[str, float]:
    """Store hit share and candidate times over ``explore()`` results."""
    hits = sum(result.stats["store_hits"] for result in sweeps)
    misses = sum(result.stats["store_misses"] for result in sweeps)
    candidate_ms = [1e3 * r.seconds for result in sweeps
                    for r in result.results]
    return {
        "pipeline.store.hit_frac": hits / max(hits + misses, 1),
        "explore.candidate_ms.p50": percentile(candidate_ms, 50),
        "explore.candidate_ms.max": max(candidate_ms),
    }


def layer_probes(seed: int, workdir, own: str, loaded=None) -> Dict[str, float]:
    """Per-layer metrics the workload's own traced phase does not give.

    ``own`` names the layer group the workload measured itself; the other
    groups get a short fixed run: an open-loop phase at the serve-low rate,
    a staged run of the quickstart scenario, a warm sweep of the
    quickstart grid.
    """
    from repro.pipeline import get_scenario

    tracer = telemetry.active_tracer()
    check(tracer is not None, "layer probes need the traced run")
    if loaded is None:
        loaded = _load_served()
    metrics = _nn_probes(tracer, loaded, seed)
    if own != "serve":
        metrics.update(_serve_probe(loaded, seed))
    if own != "pipeline":
        scenario = get_scenario(COMPRESS_BASE)
        metrics.update(_pipeline_metrics(
            tracer, *_staged_run(scenario, workdir / "probe-pipeline")))
    if own != "explore":
        space = explore_space(seed, PROBE_EXPLORE_SPACE)
        store_dir = workdir / "probe-explore"
        _, reference = _sweep(space, store_dir)
        result, _ = _sweep(space, store_dir, reference=reference)
        metrics.update(_explore_metrics([result]))
    return metrics


# -- compress-cold ----------------------------------------------------------------

def compress_scenario(seed: int):
    """The quickstart scenario widened to a clustering-bound size.

    The seed draws ``serve_eval``'s request inputs; the weights (hence the
    clustering and its error) stay those of the registered scenario.
    """
    from repro.pipeline import Scenario, get_scenario

    spec = get_scenario(COMPRESS_BASE).to_dict()
    spec["name"] = "bench-compress-cold"
    spec["model_kwargs"] = {**spec["model_kwargs"], "width": 64}
    pipeline = dict(spec["pipeline"])
    pipeline["base"] = {**pipeline["base"], "k": 256,
                        "max_kmeans_iterations": 15}
    pipeline["serve"] = {**pipeline["serve"], "seed": seed}
    spec["pipeline"] = pipeline
    return Scenario.from_dict(spec)


def _check_compressed(result, expected: Dict[str, float]) -> Dict[str, float]:
    """Same clustering error and ratio on every repeat; serving matches."""
    serve = result.artifacts["serve_report"]
    check(serve["outputs_match"],
          f"serve_eval outputs differ from the dense-reconstructed "
          f"reference (max abs diff {serve['max_abs_diff']})")
    got = {"mask_sse": result.compressed.mask_sse(),
           "compression_ratio": result.compressed.compression_ratio()}
    if expected:
        check(got == expected, f"compression not deterministic: {got} != "
                               f"{expected}")
    return got


def run_compress(workload: str, seed: int, seconds: float, trace: bool,
                 import_s: float, probe: SpeedProbe) -> Outcome:
    from repro.pipeline import ArtifactStore, run_scenario

    # the imports ran just before: bring them to the sizing host's speed too
    import_s /= probe.measure()
    builds = Meter("compress-cold set-up: model build", probe)
    for _ in range(SETUP_REPEATS):
        with builds.unit():
            compress_scenario(seed).build_model()
    scenario = compress_scenario(seed)
    cold = Meter("compress-cold: cold job", probe)
    warm = Meter("compress-cold: warm re-run", probe)
    expected: Dict[str, float] = {}
    metrics: Dict[str, float] = {}

    job_ids = itertools.count()
    with scratch_dir() as workdir:
        def job() -> None:
            store_dir = workdir / f"store-{next(job_ids)}"
            with cold.unit():
                result = run_scenario(scenario, store=ArtifactStore(store_dir))
            expected.update(_check_compressed(result, expected))
            if trace:
                return
            store = ArtifactStore(store_dir)
            with warm.unit():
                result = run_scenario(scenario, store=store)
            _check_compressed(result, expected)
            check(store.stats()["misses"] == 0,
                  "warm re-run missed the store the cold run filled")

        # first-call costs are paid once per process; keep them out
        job()
        cold = Meter(cold.name, probe)
        warm = Meter(warm.name, probe)
        _repeat_for(seconds / 2 if trace else seconds, 2, job)
        if not trace:
            cold_ms = [1e3 * s for s in cold.times_s()]
            metrics.update({
                "p50_ms": percentile(cold_ms, 50),
                "p99_ms": percentile(cold_ms, 99),
                "capacity_rps": len(cold_ms) / cold.total_s(),
                "compress_s": cold.mean_s(),
                "sweep_s": warm.mean_s(),
                "setup_s": import_s + builds.mean_s(),
                **expected,
            })
            return Outcome(metrics=metrics, attempted=2 * len(cold.walls),
                           failed=0, lines=[m.line() for m in
                                            (builds, cold, warm)])

        # traced: the same job, stage by stage from a pipeline context
        tracer = telemetry.enable(buffer_size=1 << 20)
        runs = []
        _repeat_for(seconds / 2, 2, lambda: runs.append(
            _staged_run(scenario, workdir / f"traced-{len(runs)}")))
        metrics.update(_pipeline_metrics(tracer, *runs[-1]))
        metrics["trace.overhead_ms"] = 1e3 * (
            median(span_seconds(tracer, "pipeline.run")) - median(cold.walls))
        metrics.update(layer_probes(seed, workdir, own="pipeline"))
    return Outcome(metrics=metrics, attempted=len(cold.walls) + len(runs),
                   failed=0, lines=[f"compress-cold traced: {len(cold.walls)} "
                                    f"untraced + {len(runs)} staged runs"])


# -- explore-warm -----------------------------------------------------------------

def explore_space(seed: int, name: str = EXPLORE_SPACE):
    """A registered space; the seed draws ``serve_eval``'s inputs (no
    default objective reads them, so the frontier does not move)."""
    from repro.explore import SearchSpace, get_space

    spec = get_space(name).to_dict()
    spec["pipeline"]["serve"] = {**spec["pipeline"].get("serve", {}),
                                 "seed": seed}
    return SearchSpace.from_dict(spec)


def _sweep(space, store_dir, meter=None, reference=None):
    """One ``explore()`` sweep over a freshly opened disk store."""
    from repro.explore import explore
    from repro.pipeline import ArtifactStore

    store = ArtifactStore(store_dir)
    # the meter's speed probes run outside the span
    with (meter.unit() if meter else nullcontext()), span("explore.sweep"):
        result = explore(space, store=store)
    check(not result.errors, f"candidates failed: {result.stats['errors']}")
    objectives = {r.candidate.index: r.objectives for r in result.results}
    if reference is not None:
        check(result.stats["cluster_layers_fresh"] == 0,
              f"warm sweep re-clustered "
              f"{result.stats['cluster_layers_fresh']} layers")
        check(objectives == reference,
              "warm sweep objectives differ from the cold sweep")
    return result, objectives


def run_explore(workload: str, seed: int, seconds: float, trace: bool,
                import_s: float, probe: SpeedProbe) -> Outcome:
    from repro.pipeline import CORE_STAGES, ArtifactStore, run_scenario

    space = explore_space(seed)
    metrics: Dict[str, float] = {}
    with scratch_dir() as workdir:
        store_dir = workdir / "store"
        # the set-up: a cold sweep fills the store (first-call costs too)
        _, reference = _sweep(space, store_dir)
        cold = Meter("explore-warm: cold sweep (set-up)", probe)
        warm = Meter("explore-warm: warm sweep", probe)
        sweeps: List[object] = []

        def step() -> None:
            if not trace:
                # the set-up again on a fresh store, so that set-up time is
                # taken all through the run, not only at its start
                fresh = workdir / f"cold-{len(cold.walls)}"
                _, objectives = _sweep(space, fresh, cold)
                shutil.rmtree(fresh)
                check(objectives == reference,
                      "cold sweeps disagree on candidate objectives")
            sweeps.append(_sweep(space, store_dir, warm, reference)[0])

        _repeat_for(seconds / 2 if trace else seconds, 2, step)
        if not trace:
            best = sweeps[-1].best()
            rerun = run_scenario(sweeps[-1].best_scenario(),
                                 stages=CORE_STAGES,
                                 store=ArtifactStore(store_dir))
            check(rerun.compressed.compression_ratio()
                  == best.objectives["compression_ratio"],
                  "best frontier point does not reproduce its ratio")
            # per-sweep percentiles, so one slow sweep moves one sample
            per_sweep = [[1e3 * r.seconds * factor for r in result.results]
                         for result, factor in zip(sweeps, warm.factors())]
            attempted = sum(len(ms) for ms in per_sweep)
            metrics.update({
                "p50_ms": median([percentile(ms, 50) for ms in per_sweep]),
                "p99_ms": median([percentile(ms, 99) for ms in per_sweep]),
                "capacity_rps": attempted / warm.total_s(),
                # the set-up is a cold sweep, so the two read alike
                "compress_s": cold.mean_s(),
                "sweep_s": warm.mean_s(),
                "setup_s": cold.mean_s(),
                "mask_sse": rerun.compressed.mask_sse(),
                "compression_ratio": rerun.compressed.compression_ratio(),
            })
            return Outcome(metrics=metrics,
                           attempted=attempted + len(cold.walls), failed=0,
                           lines=[cold.line(), warm.line()])

        untraced = list(warm.walls)
        tracer = telemetry.enable(buffer_size=1 << 20)
        sweeps.clear()
        _repeat_for(seconds / 2, 2, step)
        metrics.update(_explore_metrics(sweeps))
        metrics["trace.overhead_ms"] = 1e3 * (
            median(span_seconds(tracer, "explore.sweep")) - median(untraced))
        metrics.update(layer_probes(seed, workdir, own="explore"))
    return Outcome(metrics=metrics, attempted=len(untraced) + len(sweeps),
                   failed=0, lines=[f"explore-warm traced: {len(untraced)} "
                                    f"untraced + {len(sweeps)} traced sweeps"])


WORKLOADS = {
    "serve-low": run_serve,
    "serve-high": run_serve,
    "compress-cold": run_compress,
    "explore-warm": run_explore,
}
