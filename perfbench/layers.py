"""Per-layer metrics of a traced run, derived from spans.

``install`` patches the library attributes that are resolved at call time,
so every call into a layer records a span; ``metrics`` turns the spans into
the per-layer figures listed in BENCHMARK.json.

Scopes: the ``ga.*`` and ``kernels.*`` figures are per generation or per
call, so they leave out the oracle stage, whose instances are tiny and would
swamp the averages; every ``*_s`` total of the other layers is the layer's
busy time over the whole traced pass, nested calls included.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

import numpy as np

from cect_lab import ecmp, exact, experiment, fluidsim, ga, kernels, routing, traffic, xpath
from tracer import NO_PARENT, Span, Tracer

BYTES_PER_ID = 8  # every label, pointer, edge id and load is an int64


def _simulate_name(args, kwargs) -> str:
    model = args[3] if len(args) > 3 else kwargs.get("model", "maxmin")
    return f"fluidsim.simulate.{model}"


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary; undo with ``tracer.restore()``."""
    lengths: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def count_adds(span, args, kwargs, loads):
        # gene-edge additions and bytes moved, computed from array sizes
        index = tracer.begin("trace.count")
        genes, label_ptr = args[0], args[1]
        if id(label_ptr) not in lengths:
            lengths[id(label_ptr)] = (label_ptr, np.diff(label_ptr))
        adds = int(lengths[id(label_ptr)][1][genes - 1].sum())
        tracer.end(index)
        span.attrs["adds"] = adds
        # genes, two label pointers per gene, one edge id per add, loads out
        span.attrs["bytes"] = (
            genes.nbytes + 2 * BYTES_PER_ID * genes.size + BYTES_PER_ID * adds + loads.nbytes
        )

    def record_paths(span, args, kwargs, table):
        span.attrs["paths"] = table.path_count

    def record_steps(span, args, kwargs, steps):
        span.attrs["steps"] = len(steps)

    def record_space(span, args, kwargs, result):
        flows, table = args[0], args[1]
        span.attrs["space"] = math.prod(
            len(xpath.feasible_labels(table, f.src, f.dst)) for f in flows.flows
        )

    def record_cells(span, args, kwargs, out):
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        span.attrs["cells"] = len(manifest["cells"])
        span.attrs["cells_failed"] = len(manifest["failures"])

    plain = [
        (kernels, "population_loads", count_adds),
        (kernels, "fitness_mu", None),
        (kernels, "maxmin_rates", None),
        (ga, "roulette_select", None),
        (xpath, "precompute_xpaths", record_paths),
        (traffic, "generate_flows", None),
        (ecmp, "route_ecmp", None),
        (exact, "solve_exact", record_space),
        (routing, "assemble", None),
        (routing, "matrix_from_paths", None),
        (routing, "validate", None),
        (routing, "format_assignment", None),
        (routing, "parse_assignment_dump", None),
        (fluidsim, "run_volume_schedule", record_steps),
        (experiment, "run_experiment", record_cells),
    ]
    for owner, attr, after in plain:
        tracer.wrap(owner, attr, f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", after=after)
    tracer.wrap(xpath.XPathTable, "label_edge_csr", "xpath.label_edge_csr")
    tracer.wrap(fluidsim, "flow_edge_csr", "routing.flow_edge_csr")
    tracer.wrap(fluidsim, "simulate", "", namer=_simulate_name)
    # names experiment imported at load time, so patching their home module
    # does not reach the sweep
    tracer.wrap(experiment, "simulate", "", namer=_simulate_name)
    for attr, name, after in (
        ("precompute_xpaths", "xpath.precompute_xpaths", record_paths),
        ("generate_flows", "traffic.generate_flows", None),
        ("route_ecmp", "ecmp.route_ecmp", None),
        ("assemble", "routing.assemble", None),
        ("format_assignment", "routing.format_assignment", None),
    ):
        tracer.wrap(experiment, attr, name, after=after)
    _wrap_run_cect(tracer, ga)
    _wrap_run_cect(tracer, experiment)


def _wrap_run_cect(tracer: Tracer, owner) -> None:
    """Record generation boundaries through run_cect's on_generation hook."""
    original = owner.run_cect

    def traced_run_cect(*args, **kwargs):
        user_hook = kwargs.pop("on_generation", args[4] if len(args) > 4 else None)
        args = args[:4]
        config = kwargs.get("config", args[3] if len(args) > 3 else None) or ga.GaConfig()
        marks: list[float] = []

        def hook(generation, genes, fit, mu):
            marks.append(time.perf_counter())
            if user_hook is not None:
                user_hook(generation, genes, fit, mu)

        index = tracer.begin("ga.run_cect", marks=marks)
        try:
            result = original(*args, on_generation=hook, **kwargs)
        finally:
            span = tracer.end(index)
        stats = result[2]
        # bred generations whose best fitness beat every earlier generation
        improving = 0
        best = stats.rows[0].best_fitness if stats.rows else -math.inf
        for row in stats.rows[1:]:
            if row.best_fitness > best:
                improving += 1
                best = row.best_fitness
        span.attrs.update(
            generations=stats.generations,
            max_iterations=config.max_iterations,
            evaluations=stats.evaluations,
            improving=improving,
            stop="target" if stats.feasible else "iterations",
        )
        return result

    tracer.patch(owner, "run_cect", traced_run_cect)


# --- derivation -------------------------------------------------------------


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        children[span.parent].append(i)

    in_oracle = [False] * len(spans)
    for i, span in enumerate(spans):  # parents precede children
        p = span.parent
        in_oracle[i] = p != NO_PARENT and (in_oracle[p] or spans[p].name == "stage.oracle")

    total: dict[str, float] = defaultdict(float)
    for span in spans:
        total[span.name] += span.duration

    def outside_oracle(name: str) -> list[Span]:
        return [s for i, s in enumerate(spans) if s.name == name and not in_oracle[i]]

    def ms_per_call(name: str) -> float:
        calls = outside_oracle(name)
        return 1e3 * _mean(sum(s.duration for s in calls), len(calls))

    out: dict[str, float] = {}
    out.update(_ga_metrics(spans, children, in_oracle))

    loads = outside_oracle("kernels.population_loads")
    for kernel in ("population_loads", "fitness_mu", "maxmin_rates"):
        out[f"kernels.{kernel}_ms"] = ms_per_call(f"kernels.{kernel}")
    out["kernels.gene_edge_adds"] = float(sum(s.attrs["adds"] for s in loads))
    out["kernels.population_loads_mb_computed"] = sum(s.attrs["bytes"] for s in loads) / 1e6

    tables = [s for s in spans if s.name == "xpath.precompute_xpaths"]
    setup_tables = [
        s for s in tables if s.parent != NO_PARENT and spans[s.parent].name == "stage.setup"
    ]
    out["xpath.enumerate_s"] = total["xpath.precompute_xpaths"]
    out["xpath.csr_s"] = total["xpath.label_edge_csr"]
    out["xpath.paths"] = float(sum(s.attrs["paths"] for s in setup_tables))
    out["traffic.generate_s"] = total["traffic.generate_flows"]
    out["ecmp.route_s"] = total["ecmp.route_ecmp"]
    for layer in ("assemble", "format_assignment", "parse_assignment_dump",
                  "matrix_from_paths", "validate", "flow_edge_csr"):
        short = {"format_assignment": "format", "parse_assignment_dump": "parse"}.get(layer, layer)
        out[f"routing.{short}_s"] = total[f"routing.{layer}"]

    out["fluidsim.maxmin_s"] = total["fluidsim.simulate.maxmin"]
    out["fluidsim.bottleneck_s"] = total["fluidsim.simulate.bottleneck"]
    schedules = [i for i, s in enumerate(spans) if s.name == "fluidsim.run_volume_schedule"]
    steps = [1e3 * spans[c].duration for i in schedules for c in children[i]
             if spans[c].name.startswith("fluidsim.simulate.")]
    out["fluidsim.schedule_steps"] = float(sum(spans[i].attrs["steps"] for i in schedules))
    out["fluidsim.step_ms_p50"] = _pct(steps, 50)
    out["fluidsim.step_ms_p90"] = _pct(steps, 90)

    out["exact.solve_s"] = total["exact.solve_exact"]
    out["exact.space"] = float(sum(s.attrs["space"] for s in spans if s.name == "exact.solve_exact"))

    sweeps = [i for i, s in enumerate(spans) if s.name == "experiment.run_experiment"]
    out["experiment.cells"] = float(sum(spans[i].attrs["cells"] for i in sweeps))
    out["experiment.cells_failed"] = float(sum(spans[i].attrs["cells_failed"] for i in sweeps))
    out["experiment.self_s"] = sum(
        spans[i].duration - sum(spans[c].duration for c in children[i]) for i in sweeps
    )

    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    out["trace.spans"] = float(len(spans))
    return out


_GEN_PARTS = {
    "kernels.population_loads": "eval",
    "kernels.fitness_mu": "eval",
    "ga.roulette_select": "select",
    "trace.count": "count",
}


def _ga_metrics(spans, children, in_oracle) -> dict[str, float]:
    """Per-generation split of every GA run outside the oracle stage."""
    evaluate, select, breed, gen_ms = [], [], [], []
    instance_s = 0.0
    generations = evaluations = improving = 0
    runs = [i for i, s in enumerate(spans) if s.name == "ga.run_cect"]
    for i in runs:
        if in_oracle[i]:
            continue
        run = spans[i]
        kids = [spans[c] for c in children[i]]
        kernel_starts = [k.start for k in kids if k.name.startswith("kernels.")]
        instance_s += (min(kernel_starts) if kernel_starts else run.end) - run.start
        # generation g spans from the hook call of g-1 to that of g; bin
        # each child span by the interval it starts in
        marks = np.array(run.attrs["marks"])
        n_gens = len(marks) - 1
        if n_gens > 0:
            parts = {"eval": np.zeros(n_gens), "select": np.zeros(n_gens),
                     "count": np.zeros(n_gens)}
            for kid in kids:
                part = _GEN_PARTS.get(kid.name)
                g = int(np.searchsorted(marks, kid.start, side="right")) - 1
                if part is not None and 0 <= g < n_gens:
                    parts[part][g] += kid.duration
            gen_s = np.diff(marks) - parts["count"]
            evaluate.extend(1e3 * parts["eval"])
            select.extend(1e3 * parts["select"])
            breed.extend(1e3 * (gen_s - parts["eval"] - parts["select"]))
            gen_ms.extend(1e3 * gen_s)
        generations += run.attrs["generations"]
        evaluations += run.attrs["evaluations"]
        improving += run.attrs["improving"]
    stops = [spans[i].attrs["stop"] for i in runs]
    full = sum(spans[i].attrs["generations"] == spans[i].attrs["max_iterations"] for i in runs)
    return {
        "ga.evaluate_ms": float(np.mean(evaluate)) if evaluate else 0.0,
        "ga.select_ms": float(np.mean(select)) if select else 0.0,
        "ga.breed_ms": float(np.mean(breed)) if breed else 0.0,
        "ga.gen_ms_p50": _pct(gen_ms, 50),
        "ga.gen_ms_p90": _pct(gen_ms, 90),
        "ga.instance_s": instance_s,
        "ga.generations": float(generations),
        "ga.evaluations": float(evaluations),
        "ga.improving_gens_ratio": _mean(improving, generations),
        "ga.runs": float(len(runs)),
        "ga.full_budget_runs": float(full),
        "ga.target_stops": float(stops.count("target")),
    }
