"""The benchmark's workloads: one lab session per workload, sized differently.

Every workload runs the same session against the public library API:

1. setup: build the fabric, enumerate its path table, generate the flows;
2. sweep: ``experiment.run_experiment`` on a generated INI file (k=4 fabric);
3. solve: ``ga.run_cect`` on the main instance at a fixed generation budget;
4. ecmp: ``ecmp.route_ecmp`` on the main instance;
5. load: assemble, dump, parse and rebuild each routing, then validate it;
6. simulate: both routings under both fluid models;
7. schedule: ``run_volume_schedule`` under both models on a flow prefix;
8. oracle: small k=4 instances solved by ``solve_exact`` and by the GA.

Workloads differ in which stages are big, so each one stresses different
layers while every end-to-end metric stays defined on every workload. Every
GA run sets an unreachable ``mu_target`` so it always does its whole
generation budget, whatever a change does to the random streams.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cect_lab import ecmp, exact, experiment, fluidsim, ga, routing, topology, traffic, xpath
from cect_lab.errors import SearchBudgetExceededError
from clock import Clock

# The acceptance sweep's fabric, mix and GA mutation settings
# (configs/acceptance_sweep.ini): over-provisioned access tiers, so the core
# links both methods choose between are the contended resource.
EDGE_CAP, AGG_CAP, CORE_CAP = 200.0, 200.0, 100.0
MIX = {"micro": 0.9775, "small": 0.0175, "big": 0.005}
PLR = 0.95
HOP_BOUND, PATHS_PER_PAIR = 4, 50
MUTATION = {"mut_min": 0.002, "mut_max": 0.02, "stall_window": 20}
# No routing of a non-empty flow set reaches this, so no GA run stops early.
UNREACHABLE_MU = 1e-9

# Oracle instances: a k=4 fabric with unit-scale links and heavy flows, so
# that the exhaustive search has real choices to make.
ORACLE_CAP = 10.0
ORACLE_PATHS_PER_PAIR = 4
ORACLE_MIX = {"medium": 0.5, "big": 0.5}
# Seven- and eight-flow instances are left out: their search time varies
# up to tenfold and twentyfold between instances, more than an affordable
# number of instances averages out.
ORACLE_FLOWS = (4, 5, 6)
ORACLE_GENERATIONS = 100

# Every timing gets at least this many samples, so that its median can
# reject one sample that a burst of load on the machine slowed.
MIN_ROUNDS = 3

# Volume schedules ship demand x U(low, high) per flow at interval 1, which
# takes about thirty steps.
VOLUME_SPAN = (2.0, 30.0)

_SEED_TAGS = {"flows": 1, "ga": 2, "sweep": 3, "volumes": 4, "oracle": 5}


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """A 32-bit stream seed for one input of the run, fixed by the run seed."""
    sequence = np.random.SeedSequence([seed, _SEED_TAGS[tag], index])
    return int(sequence.generate_state(1)[0])


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload's stages."""

    k: int                         # arity of the main fat-tree
    n_flows: int                   # flows of the main instance
    setup_reps: int
    sweep_flows: tuple[int, ...]
    sweep_seeds: int
    sweep_methods: tuple[str, ...]
    sweep_generations: int
    sweep_reps: int                # sweeps per round
    solve_generations: int
    replays: int                   # ecmp, load, simulate and schedule runs per round
    ecmp_reps: int                 # ECMP routings per replay
    schedule_flows: int
    oracle_instances: int          # new instances solved every round


WORKLOADS = {
    # The acceptance-style sweep dominates: small populations (about 93),
    # many generations on short chromosomes, so per-generation Python
    # overhead and experiment I/O are what a change can move.
    "sweep-k4": Spec(
        k=4, n_flows=2000, setup_reps=15,
        sweep_flows=(500, 1000), sweep_seeds=1, sweep_methods=("cect", "ecmp"),
        sweep_generations=120, sweep_reps=1, solve_generations=25,
        replays=2, ecmp_reps=1, schedule_flows=1000, oracle_instances=12,
    ),
    # A k=12 fabric: the 915k-path table, the solver instance and heavy
    # per-generation gene work (population 388) dominate. Short solves, one
    # per round, so that a run holds several of them.
    "solve-k12": Spec(
        k=12, n_flows=20000, setup_reps=2,
        sweep_flows=(1000, 2000), sweep_seeds=1, sweep_methods=("ecmp",),
        sweep_generations=1, sweep_reps=1, solve_generations=2,
        replays=1, ecmp_reps=2, schedule_flows=1000, oracle_instances=12,
    ),
    # Replaying routings at scale with almost no GA work: ECMP, assignment
    # dumps, validation, one-shot simulation, volume schedules and the
    # exact-solver oracle.
    "replay-k8": Spec(
        k=8, n_flows=20000, setup_reps=3,
        sweep_flows=(1000, 2000), sweep_seeds=1, sweep_methods=("ecmp",),
        sweep_generations=1, sweep_reps=1, solve_generations=1,
        replays=2, ecmp_reps=1, schedule_flows=2000, oracle_instances=12,
    ),
}

# Tiny versions of every workload, for the benchmark's own tests.
SMOKE = {
    name: Spec(
        k=4, n_flows=120, setup_reps=2,
        sweep_flows=(40, 80), sweep_seeds=1, sweep_methods=spec.sweep_methods,
        sweep_generations=3, sweep_reps=1, solve_generations=3,
        replays=1, ecmp_reps=1, schedule_flows=40, oracle_instances=2,
    )
    for name, spec in WORKLOADS.items()
}

TIMINGS = (
    "setup_s", "sweep_s", "solve_s", "ecmp_s", "load_assignment_s",
    "simulate_s", "schedule_s", "oracle_s",
)
# Per-routing figures, each averaged over the routings of the run.
QUALITY = ("mu_cect", "mu_ecmp", "loss_pct_cect", "loss_pct_ecmp", "mu_gap_exact")


class Checks:
    """Counts correctness checks; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _sweep_ini(spec: Spec, master_seed: int) -> str:
    mix = ",".join(f"{name}={share}" for name, share in MIX.items())
    return "\n".join([
        "[experiment]", f"seed = {master_seed}",
        "[topology]", "kind = fat_tree", "k = 4",
        f"edge_capacity = {EDGE_CAP}", f"agg_capacity = {AGG_CAP}",
        f"core_capacity = {CORE_CAP}",
        "[paths]", f"x = {HOP_BOUND}", f"cap_c = {PATHS_PER_PAIR}",
        "[traffic]", f"mix = {mix}", f"plr = {PLR}",
        "[sweep]", "n_flows = " + ",".join(map(str, spec.sweep_flows)),
        "methods = " + ",".join(spec.sweep_methods), f"seeds = {spec.sweep_seeds}",
        "[ga]", f"max_iterations = {spec.sweep_generations}",
        *(f"{key} = {value}" for key, value in MUTATION.items()),
        f"mu_target = {UNREACHABLE_MU}",
        "[sim]", "model = maxmin", "",
    ])


class Session:
    """One workload's inputs, routings, samples and quality figures.

    Samples are calibrated seconds (see clock.py). With a tracer, each stage
    runs inside a ``stage.<name>`` span.
    """

    def __init__(self, spec: Spec, seed: int, workdir: Path, checks: Checks, tracer=None):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.tracer = tracer
        self.quality: dict[str, list[float]] = {name: [] for name in QUALITY}
        self.clock = Clock()
        self.rounds = 0
        self.topo = self.table = self.flows = None
        self.oracle_fabric = None
        self.cect_mu = math.nan

    @contextlib.contextmanager
    def stage(self, name: str):
        if self.tracer is None:
            yield
            return
        index = self.tracer.begin(f"stage.{name}")
        try:
            yield
        finally:
            self.tracer.end(index)

    def timed(self, name: str):
        return self.clock.sample(name)

    @property
    def samples(self) -> dict[str, list[float]]:
        return {name: self.clock.calibrated(name) for name in TIMINGS}

    # --- setup -------------------------------------------------------------

    def setup(self) -> None:
        """Build fabric, table and flows once, timed as one setup sample.

        The table's edge CSR, which every solve reads and the table caches on
        first use, is built here too, so that no solve sample pays for it.
        """
        self.topo = self.table = self.flows = None
        gc.collect()
        with self.stage("setup"), self.timed("setup_s"):
            topo = topology.make_fat_tree(self.spec.k, EDGE_CAP, AGG_CAP, CORE_CAP)
            table = xpath.precompute_xpaths(topo, HOP_BOUND, PATHS_PER_PAIR)
            table.label_edge_csr(topo)
            flows = traffic.generate_flows(
                topo, self.spec.n_flows, MIX, PLR, seed=derive_seed(self.seed, "flows")
            )
        self.topo, self.table, self.flows = topo, table, flows

    # --- one round of every stage ------------------------------------------

    def run_round(self) -> None:
        # every stage runs in every round, so that machine-speed drift
        # spreads over every stage's samples instead of hitting one stage
        first = self.rounds == 0
        for rep in range(self.spec.sweep_reps):
            self._sweep(f"{self.rounds}-{rep}", first and rep == 0)
        assignments = {"cect": self._solve(first)}
        for replay in range(self.spec.replays):
            assignments["ecmp"] = self._ecmp()
            matrices = self._load(assignments)
            self._simulate(matrices, first and replay == 0)
            self._schedule(assignments["ecmp"])
        # distinct instances in every round: the oracle's time depends on
        # the instance far more than on the machine
        per_round = self.spec.oracle_instances
        self._oracle(range(self.rounds * per_round, (self.rounds + 1) * per_round), first)
        self.rounds += 1

    def _sweep(self, tag: str, first: bool) -> None:
        run_dir = self.workdir / f"sweep-{tag}"
        run_dir.mkdir(parents=True)
        # a fresh config path per sweep: the library caches tables per path
        config = run_dir / "sweep.ini"
        config.write_text(_sweep_ini(self.spec, derive_seed(self.seed, "sweep")))
        # A sweep is a job that starts on a fresh heap. Collecting first keeps
        # a full collection of this process's big tables from landing in
        # some samples and not others.
        gc.collect()
        with self.stage("sweep"), self.timed("sweep_s"):
            out = experiment.run_experiment(config, run_dir / "out", threads=1)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        failures = manifest["failures"]
        for cell in manifest["cells"]:
            self.checks.expect(
                not any(f["method"] == cell["method"] and f["n_flows"] == cell["n_flows"]
                        and f["seed"] == cell["seed"] for f in failures),
                f"sweep cell {cell['method']} n={cell['n_flows']} seed={cell['seed']} failed",
            )
        self.checks.expect(failures == [], f"sweep manifest lists failures: {failures}")
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        self.checks.expect(
            len(rows) == len(manifest["cells"]),
            f"sweep wrote {len(rows)} result rows for {len(manifest['cells'])} cells",
        )
        if first:
            for row in rows:
                self.quality[f"mu_{row['method']}"].append(float(row["mu"]))
                self.quality[f"loss_pct_{row['method']}"].append(float(row["loss_pct"]))
        shutil.rmtree(run_dir)

    def _solve(self, first: bool) -> routing.RoutingAssignment:
        config = ga.GaConfig(
            max_iterations=self.spec.solve_generations, mu_target=UNREACHABLE_MU,
            seed=derive_seed(self.seed, "ga"), **MUTATION,
        )
        with self.stage("solve"), self.timed("solve_s"):
            assignment, mu, stats = ga.run_cect(self.flows, self.table, self.topo, config)
        self.checks.expect(
            stats.generations == config.max_iterations,
            f"solve stopped after {stats.generations} of {config.max_iterations} generations",
        )
        self.cect_mu = mu
        if first:
            self.quality["mu_cect"].append(mu)
        return assignment

    def _ecmp(self) -> routing.RoutingAssignment:
        for _ in range(self.spec.ecmp_reps):
            with self.stage("ecmp"), self.timed("ecmp_s"):
                assignment = ecmp.route_ecmp(self.flows, self.topo, self.table)
        return assignment

    def _load(self, assignments: dict) -> dict[str, routing.RoutingMatrix]:
        """Assemble, dump, parse and rebuild each routing, as `simulate` does."""
        loaded = {}
        with self.stage("load"), self.timed("load_assignment_s"):
            for method, assignment in assignments.items():
                matrix = routing.assemble(assignment, self.flows, self.table, self.topo)
                text = routing.format_assignment(assignment, self.flows, self.table)
                parsed = routing.parse_assignment_dump(text)
                replayed = routing.matrix_from_paths(
                    {fid: hops for fid, (_, hops) in parsed.items()}, self.flows, self.topo
                )
                violations = routing.validate(replayed, self.flows, self.topo)
                loaded[method] = (matrix, parsed, replayed, violations)
        for method, (matrix, *rest) in loaded.items():
            self._check_load(method, assignments[method], matrix, *rest)
        return {method: matrix for method, (matrix, *_) in loaded.items()}

    def _check_load(self, method, assignment, matrix, parsed, replayed, violations) -> None:
        self.checks.expect(violations == [], f"{method}: validate() found {violations[:3]}")
        self.checks.expect(
            replayed.load_units == matrix.load_units,
            f"{method}: dump round trip changed the link loads",
        )
        self.checks.expect(
            {fid: label for fid, (label, _) in parsed.items()} == assignment.choice,
            f"{method}: dump round trip changed the labels",
        )
        if method == "cect":
            self.checks.expect(
                matrix.mu == self.cect_mu,
                f"run_cect mu {self.cect_mu!r} != assemble mu {matrix.mu!r}",
            )

    def _simulate(self, matrices: dict, first: bool) -> None:
        results = {}
        with self.stage("simulate"), self.timed("simulate_s"):
            for method, matrix in matrices.items():
                for model in fluidsim.MODELS:
                    results[method, model] = fluidsim.simulate(matrix, self.flows, self.topo, model)
        demands = np.array([f.demand for f in self.flows.flows])
        for (method, model), result in results.items():
            self._check_sim(f"{method}/{model}", result, matrices[method], demands)
        if first:
            for method in matrices:
                result = results[method, "maxmin"]
                if method == "ecmp":
                    self.quality["mu_ecmp"].append(result.mu)
                self.quality[f"loss_pct_{method}"].append(result.loss_pct)

    def _check_sim(self, what: str, result, matrix, demands: np.ndarray) -> None:
        rates = np.array([result.per_flow_rate[f.id] for f in self.flows.flows])
        self.checks.expect(
            bool(np.all(rates <= demands * (1 + 1e-9))), f"{what}: a rate exceeds its demand"
        )
        worst = max(result.link_utilization.values())
        self.checks.expect(worst <= 1 + 1e-9, f"{what}: delivered utilization {worst}")
        self.checks.expect(
            result.mu == matrix.mu, f"{what}: SimResult.mu {result.mu!r} != {matrix.mu!r}"
        )

    def _schedule(self, assignment: routing.RoutingAssignment) -> None:
        flows = traffic.FlowSet(flows=self.flows.flows[: self.spec.schedule_flows])
        matrix = routing.assemble(assignment, flows, self.table, self.topo)
        rng = np.random.default_rng(derive_seed(self.seed, "volumes"))
        factors = rng.uniform(*VOLUME_SPAN, size=flows.count)
        volumes = {f.id: f.demand * float(x) for f, x in zip(flows.flows, factors)}
        total = sum(volumes.values())
        with self.stage("schedule"), self.timed("schedule_s"):
            runs = [
                fluidsim.run_volume_schedule(matrix, flows, self.topo, volumes, 1.0, model)
                for model in fluidsim.MODELS
            ]
        for model, steps in zip(fluidsim.MODELS, runs):
            moved = sum(step.transferred for step in steps)
            self.checks.expect(
                math.isclose(moved, total, rel_tol=1e-9),
                f"schedule/{model}: shipped {moved} of {total}",
            )

    def _oracle(self, instances: range, first: bool) -> None:
        if self.oracle_fabric is None:
            topo = topology.make_fat_tree(4, ORACLE_CAP, ORACLE_CAP, ORACLE_CAP)
            table = xpath.precompute_xpaths(topo, HOP_BOUND, ORACLE_PATHS_PER_PAIR)
            table.label_edge_csr(topo)
            self.oracle_fabric = topo, table
        topo, table = self.oracle_fabric
        with self.stage("oracle"):
            for i in instances:
                n_flows = ORACLE_FLOWS[i % len(ORACLE_FLOWS)]
                flows = traffic.generate_flows(
                    topo, n_flows, ORACLE_MIX, PLR, seed=derive_seed(self.seed, "oracle", i)
                )
                config = ga.GaConfig(
                    max_iterations=ORACLE_GENERATIONS, mu_target=UNREACHABLE_MU,
                    seed=derive_seed(self.seed, "ga", i + 1),
                )
                try:
                    with self.timed("oracle_s"):
                        _, mu_star = exact.solve_exact(flows, table, topo)
                        _, mu_ga, stats = ga.run_cect(flows, table, topo, config)
                except SearchBudgetExceededError:
                    self.checks.expect(False, f"oracle instance {i}: exact budget refused")
                    continue
                self.checks.expect(
                    mu_star <= mu_ga, f"oracle instance {i}: exact mu {mu_star} > GA mu {mu_ga}"
                )
                self.checks.expect(
                    stats.generations == config.max_iterations,
                    f"oracle instance {i}: GA stopped after {stats.generations} generations",
                )
                if first:
                    self.quality["mu_gap_exact"].append(mu_ga / mu_star)


def measure(spec: Spec, seed: int, seconds: float, workdir: Path, checks: Checks) -> Session:
    """Untraced run: repeated setups, then rounds for `seconds`.

    At least MIN_ROUNDS rounds run; another starts only while at least
    half a round, as long as the last one, fits in `seconds`, so the rounds
    end within half a round of `seconds` or after MIN_ROUNDS rounds.
    """
    session = Session(spec, seed, workdir, checks)
    with session.clock:
        for _ in range(spec.setup_reps):
            session.setup()
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            session.run_round()
            now = time.perf_counter()
            if session.rounds >= MIN_ROUNDS and now - start + (now - began) / 2 > seconds:
                break
    return session


def one_pass(spec: Spec, seed: int, workdir: Path, checks: Checks, tracer=None) -> dict:
    """One setup and one round; returns the quality figures, dropping the tables."""
    session = Session(spec, seed, workdir, checks, tracer)
    session.setup()
    session.run_round()
    return session.quality


def quality_summary(quality: dict[str, list[float]]) -> dict[str, float]:
    """Means over the run's routings; delivered share is 100 minus loss."""
    out = {name: statistics.fmean(values) for name, values in quality.items() if values}
    for method in ("cect", "ecmp"):
        losses = quality[f"loss_pct_{method}"]
        if losses:
            out[f"delivered_pct_{method}"] = statistics.fmean(100.0 - x for x in losses)
    return out
