#!/usr/bin/env python3
"""cect-lab benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-k4 --seed 1 --seconds 15 --trace 0

The library is imported from ./src, as checked out. With --trace 0 the run
measures the end-to-end metrics with tracing off; with --trace 1 it runs
one untraced and one traced pass and reports the per-layer metrics and the
tracing overhead. --smoke shrinks every stage to a few flows, for tests.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. A failed correctness check makes the exit code 1; missing
library sources make it 2 and print no result. Details (every sample, the
environment, failures, spans) go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s", "sweep_s": "s", "solve_s": "s", "ecmp_s": "s",
    "load_assignment_s": "s", "simulate_s": "s", "schedule_s": "s", "oracle_s": "s",
    "delivered_pct_cect": "%", "mu_gap_exact": "ratio",
    "pass_share": "share", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ga.evaluate_ms": "ms", "ga.select_ms": "ms", "ga.breed_ms": "ms",
    "ga.gen_ms_p50": "ms", "ga.gen_ms_p90": "ms", "ga.instance_s": "s",
    "ga.generations": "count", "ga.evaluations": "count",
    "ga.improving_gens_ratio": "ratio", "ga.runs": "count",
    "ga.full_budget_runs": "count", "ga.target_stops": "count",
    "kernels.population_loads_ms": "ms", "kernels.fitness_mu_ms": "ms",
    "kernels.maxmin_rates_ms": "ms", "kernels.gene_edge_adds": "count",
    "kernels.population_loads_mb_computed": "MB",
    "xpath.enumerate_s": "s", "xpath.csr_s": "s", "xpath.paths": "count",
    "traffic.generate_s": "s", "ecmp.route_s": "s",
    "routing.assemble_s": "s", "routing.format_s": "s", "routing.parse_s": "s",
    "routing.matrix_from_paths_s": "s", "routing.validate_s": "s",
    "routing.flow_edge_csr_s": "s",
    "fluidsim.maxmin_s": "s", "fluidsim.bottleneck_s": "s",
    "fluidsim.schedule_steps": "count", "fluidsim.step_ms_p50": "ms",
    "fluidsim.step_ms_p90": "ms",
    "exact.solve_s": "s", "exact.space": "count",
    "experiment.cells": "count", "experiment.cells_failed": "count",
    "experiment.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_pct": "%", "trace.spans": "count",
    # quality figures whose spread over seeds is too wide for a bound
    "quality.mu_cect": "ratio", "quality.mu_ecmp": "ratio",
    "quality.loss_pct_cect": "%", "quality.loss_pct_ecmp": "%",
    "quality.delivered_pct_ecmp": "%",
}


# Oracle instances differ in search time far more than the machine drifts,
# so their typical time is the geometric mean over every instance solved.
GEOMETRIC = {"oracle_s"}

QUALITY = ("mu_cect", "mu_ecmp", "loss_pct_cect", "loss_pct_ecmp",
           "delivered_pct_cect", "delivered_pct_ecmp", "mu_gap_exact")


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return None


def environment(seed: int) -> dict:
    """What actually ran: the kernel implementation is read off the function."""
    import numpy as np
    from cect_lab import kernels

    ran = type(kernels.population_loads).__module__.split(".")[0]
    return {
        "backend": "numba" if ran == "numba" else "numpy",
        "kernels.BACKEND": getattr(kernels, "BACKEND", None),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny stage sizes")
    args = parser.parse_args(argv)

    if not (SRC / "cect_lab" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CECT_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from clock import Clock
    from tracer import Tracer

    specs = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(specs)}")
    spec = specs[args.workload]

    env = environment(args.seed)
    checks = workloads.Checks()
    checks.expect(
        env["kernels.BACKEND"] in (None, env["backend"]),
        f"kernels.BACKEND says {env['kernels.BACKEND']!r} but {env['backend']} ran",
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    detail: dict = {"workload": args.workload, "smoke": args.smoke, "environment": env}
    try:
        if args.trace:
            clock = Clock()
            with clock.sample("untraced"):
                quality = workloads.one_pass(spec, args.seed, workdir / "a", checks)
            gc.collect()
            tracer = Tracer()
            layers.install(tracer)
            try:
                with clock.sample("traced"):
                    workloads.one_pass(spec, args.seed, workdir / "b", checks, tracer)
            finally:
                tracer.restore()
            values = layers.metrics(
                tracer, *clock.calibrated("untraced"), *clock.calibrated("traced")
            )
            for span in tracer.spans:
                if span.name == "ga.run_cect":
                    checks.expect(
                        span.attrs["generations"] == span.attrs["max_iterations"],
                        f"a GA run stopped by {span.attrs['stop']} after "
                        f"{span.attrs['generations']} of {span.attrs['max_iterations']}",
                    )
            tracer.dump(OUT / f"{stem}.spans.jsonl")
            units = PER_LAYER
        else:
            session = workloads.measure(spec, args.seed, args.seconds, workdir, checks)
            values, detail["timings"] = {}, {}
            for name, samples in session.samples.items():
                checks.expect(bool(samples), f"no samples for {name}")
                average = statistics.geometric_mean if name in GEOMETRIC else statistics.median
                values[name] = average(samples) if samples else 0.0
                detail["timings"][name] = {"n": len(samples), "tail": tail(samples),
                                           "samples": samples}
            quality = session.quality
            detail["raw_wall_s"] = session.clock.raw
            detail["probes"] = session.clock.probes
            detail["sample_spans"] = session.clock.spans
            detail["rounds"] = session.rounds
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures = workloads.quality_summary(quality)
    for name in QUALITY:
        checks.expect(name in figures, f"no routings for {name}")
    for name in units:
        if name.removeprefix("quality.") in QUALITY:
            values[name] = figures.get(name.removeprefix("quality."), 0.0)
    detail["quality"] = figures
    if not args.trace:
        values["pass_share"] = 1 - len(checks.failures) / checks.attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}"
          f" smoke={args.smoke} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# quality: " + " ".join(f"{k}={v:.6g}" for k, v in figures.items()))
    timings = detail.get("timings", {})
    for name, unit in units.items():
        note = ""
        if name in timings:
            t = timings[name]
            note = f"  median of n={t['n']}"
            if t["tail"]:
                note += f", p{t['tail'][0]:g}={t['tail'][1]:.6g}"
        print(f"# {name:40s} {values[name]:>14.6g} {unit}{note}")
    for failure in checks.failures:
        print(f"# FAILED CHECK: {failure}")

    detail.update(metrics=values, attempted=checks.attempted, failures=checks.failures,
                  finished=time.time())
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
