"""lqsys benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact_corpus --seed 1 --seconds 20 --trace 0

Prints the environment, each metric with its unit and notes, and as the
last line one JSON object with keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
(from spans) with --trace 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time

import core

WORKLOADS = {
    "cli_specs": "wl_cli",
    "exact_corpus": "wl_exact",
    "float_scale": "wl_float",
    "feedback_networks": "wl_feedback",
}
# Set-up probes per run, half before the item loop and half after it, so
# that their median spans the run instead of one stretch of machine speed.
SETUP_REPEATS = 6
IMPORT_REPEATS = 3

# Per-layer metrics.  "<layer>_ms" is the mean time per item spent in calls
# to that layer (0 where the workload never calls it); model.build_ms is
# the total time spent building the run's inputs.
LAYER_MS = (
    "specio.load", "cli.main",
    "exactlinalg.charpoly", "exactlinalg.pencil_det",
    "smith.transfer_matrix", "smith.smith_mcmillan", "smith.replay", "smith.roots",
    "zeros.det_identity_exact", "zeros.pencil", "zeros.flat", "zeros.poles",
    "zeros.mirror", "zeros.det_identity_numeric", "spectra.match",
    "kalman.decompose", "kalman.theorem",
    "invertibility.classify", "invertibility.witness",
    "model.realizability", "model.frequency_response", "model.inverse_identity",
    "feedback.closed_loop", "feedback.duality", "feedback.solve_alpha",
    "feedback.synthesis", "feedback.sweep",
)
IMPORTS = (
    "import.lqsys_ms", "import.lqsys_self_ms", "import.numpy_ms",
    "import.scipy_linalg_ms", "import.scipy_optimize_ms",
)
COUNTS = (
    ("smith.ops", "count"), ("rational.tm_max_bits", "bits"),
    ("rational.smf_max_bits", "bits"), ("kalman.pbh_mismatch", "count"),
    ("kalman.refusals", "count"), ("zeros.mirror_false", "count"),
    ("zeros.det_identity_false", "count"), ("feedback.sweep_points", "count"),
    ("feedback.synthesis_wrong", "count"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(cpu):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": core.BLAS_THREADS,
        "pinned_cpu": cpu,
        "reference_kernel_s": {"timer": core.REFERENCE_TIMER_S, "warm": core.REFERENCE_WARM_S},
        "machine": platform.machine(),
    }


def setup_argv(workload, seed):
    """A fresh interpreter that gets ready: ``import lqsys`` plus building
    the workload's inputs; for cli_specs ``import lqsys`` alone."""
    if workload == "cli_specs":
        return [sys.executable, "-c", "import lqsys"]
    return [sys.executable, str(core.ROOT / "bench" / "setup_probe.py"), workload, str(seed)]


def build_timer(tracer):
    def timed(layer, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        tracer.span(layer, t0, time.perf_counter())
        return out

    return timed


def per_layer(items, tracer, wall, imports, counts):
    secs = tracer.layer_seconds()
    n = len(items)
    metrics = {k: (v, "ms") for k, v in imports.items()}
    for layer in LAYER_MS:
        metrics[f"{layer}_ms"] = (secs.get(layer, 0.0) / n * 1e3, "ms")
    metrics["model.build_ms"] = (secs.get("model.build", 0.0) * 1e3, "ms")
    for name, unit in COUNTS:
        metrics[name] = (counts.get(name, 0), unit)
    metrics["trace.overhead_pct"] = (
        100.0 * len(tracer.spans) * core.span_cost_seconds() / wall, "%")
    metrics["trace.items_per_s"] = (n / sum(it.latency for it in items), "1/s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    core.pin_threads()
    cpu = core.pin_cpu()
    core.check_checkout()
    os.chdir(core.ROOT)
    wl = importlib.import_module(WORKLOADS[args.workload])

    probe = setup_argv(args.workload, args.seed)
    setup_walls = core.setup_seconds(probe, SETUP_REPEATS // 2)
    tracer = core.Tracer(bool(args.trace))
    inputs = wl.build_inputs(args.seed, build_timer(tracer) if args.trace else None)
    if getattr(wl, "IN_PROCESS", True):
        core.SPEED.start()
    try:
        items, wall, passes = core.run_loop(
            wl.items_of_pass(inputs), wl.run_item, args.seconds, tracer,
            getattr(wl, "probe_item", None),
        )
    finally:
        core.SPEED.stop()
    setup_walls += core.setup_seconds(probe, SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_s = statistics.median(w for _, w in setup_walls)
    if args.workload == "cli_specs":
        rss = max(it.maxima["child_rss_mb"] for it in items)
    else:
        rss = core.peak_rss_self_mb()
    e2e, notes, attempted, failed = core.end_to_end(items, setup_s, rss)
    notes["raw_setup_s"] = statistics.median(w for w, _ in setup_walls)
    counts = core.first_pass_counts(items)

    print(json.dumps({"environment": environment(cpu)}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "passes": passes, "wall_s": round(wall, 3), **notes}))
    problems = sorted({p for it in items for p in it.problems})
    for p in problems:
        print(f"FAILED: {p}")
    if args.trace:
        metrics = per_layer(items, tracer, wall, core.import_profile(IMPORT_REPEATS), counts)
        idle = [k for k in LAYER_MS if metrics[f"{k}_ms"][0] == 0]
        if idle:
            print(f"not called by {args.workload} (reported as 0): {', '.join(idle)}")
        out = core.OUT / f"spans_{args.workload}_seed{args.seed}.json"
        tracer.write(out)
        print(f"{len(tracer.spans)} spans written to {out.relative_to(core.ROOT)}")
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
