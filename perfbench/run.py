"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload serve-low --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with ``bench.*`` spans recorded and
prints every per-layer metric, writing the Chrome trace under
``.perfbench/``.  The last line is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a human-readable report with the host
fingerprint.  A failed output check prints ``"correct": false`` and exits 1.

End-to-end timings are taken at the sizing host's speed: less the CPU time
the hypervisor gave to other guests while they ran, and divided by how much
slower than there a fixed kernel ran around them (see the notes in
:mod:`perfbench.harness`); the report prints the wall times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # one BLAS thread per process, set before numpy is first imported: the
    # serving replicas already run one thread per core, and an unpinned
    # forward ranges several-fold from run to run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    start = time.perf_counter()
    import repro.explore  # noqa: F401  (the program, timed as set-up)
    import repro.pipeline.scenarios  # noqa: F401
    import repro.serve  # noqa: F401
    import_s = time.perf_counter() - start

    from perfbench import harness
    from perfbench.workloads import WORKLOADS
    from repro.core import telemetry

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = harness.metric_table()[kind]
    print("fingerprint " + json.dumps(harness.fingerprint(), sort_keys=True))

    correct = True
    probe = harness.SpeedProbe()
    whole_run = harness.Meter("whole run", probe)
    try:
        with whole_run.unit():
            outcome = WORKLOADS[args.workload](args.workload, args.seed,
                                               args.seconds, bool(args.trace),
                                               import_s, probe)
        tracer = telemetry.disable()
        if tracer is not None:
            print(f"trace {harness.write_trace(tracer, args.workload, args.seed)}")
    except harness.CheckFailed as error:
        telemetry.disable()
        print(f"CHECK FAILED: {error}")
        correct = False
        # the run stopped at the check: it counts as one failed operation
        outcome = harness.Outcome(metrics={}, attempted=1, failed=1)

    values = outcome.metrics
    if correct:
        if not args.trace:
            values["peak_rss_mb"] = harness.peak_rss_mb()
        extra = sorted(set(values) - set(units))
        missing = sorted(set(units) - set(values))
        if extra or missing:
            raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                               f"undeclared {extra}, missing {missing}")
    for line in outcome.lines:
        print(line)
    print(whole_run.line())
    for name in sorted(values):
        print(f"{name:52s} {values[name]:>16.6f} {units.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
