import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from cect_lab import experiment
from cect_lab.cli import main
from cect_lab.ecmp import route_ecmp
from cect_lab.errors import CectLabError
from cect_lab.fluidsim import simulate
from cect_lab.ga import GaConfig
from cect_lab.routing import assemble, matrix_from_paths, parse_assignment_dump
from cect_lab.topology import load_topology, make_fat_tree, make_sample_topology
from cect_lab.traffic import Flow, FlowSet, load_flows
from cect_lab.xpath import feasible_labels, format_table, precompute_xpaths

BASE_CONFIG = """
[experiment]
seed = 7
[topology]
kind = fat_tree
k = 4
[paths]
x = 4
cap_c = 50
[traffic]
mix = micro=0.5,small=0.3,medium=0.15,big=0.05
plr = 0.7
[sweep]
n_flows = 60,120
methods = cect,ecmp
seeds = 2
[ga]
max_iterations = 8
[sim]
model = maxmin
"""
# results.csv columns that differ between two runs of one config
TIMING_COLUMNS = ("wall_time_total", "wall_time_per_flow")


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return path


def _strip_timing(results_csv: Path) -> list[list[str]]:
    with open(results_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [
        i for i, name in enumerate(rows[0])
        if name not in TIMING_COLUMNS
    ]
    return [[row[i] for i in keep] for row in rows]


def test_config_parse_defaults_and_overrides(config_file):
    cfg = experiment.load_config(config_file)
    assert cfg.master_seed == 7
    assert cfg.n_flows_list == (60, 120)
    assert cfg.methods == ("cect", "ecmp")
    assert cfg.n_seeds == 2
    assert cfg.ga == {"max_iterations": 8}
    assert cfg.mix["micro"] == 0.5


def test_config_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sweep]\nmethods = cect,teleport\n", encoding="utf-8")
    message = f"{path}: [sweep] methods: unknown method 'teleport'"
    with pytest.raises(CectLabError, match=f"^{re.escape(message)}$"):
        experiment.load_config(path)
    path2 = tmp_path / "bad2.ini"
    path2.write_text("[sweep]\nn_flows = 10:20\n", encoding="utf-8")
    message = f"{path2}: [sweep] n_flows: flow sweep must be start:stop:step, got '10:20'"
    with pytest.raises(CectLabError, match=f"^{re.escape(message)}$"):
        experiment.load_config(path2)
    message = f"{tmp_path / 'missing.ini'}: cannot read config file"
    with pytest.raises(CectLabError, match=f"^{re.escape(message)}$"):
        experiment.load_config(tmp_path / "missing.ini")
    path3 = tmp_path / "headless.ini"
    path3.write_text("seed = 7\n[sweep]\nn_flows = 4\n", encoding="utf-8")
    with pytest.raises(CectLabError) as info:
        experiment.load_config(path3)
    assert str(info.value) == (
        f"{path3}: File contains no section headers.\nfile: '{path3}', line: 1\n'seed = 7\\n'"
    )


@pytest.mark.parametrize(
    "setting, message",
    [
        ("mut_min = 0", "mut_min"),
        ("mut_min = 0.5\nmut_max = 0.2", "mut_min"),
        ("population_size = 1", "population_size"),
        # NaN passes mu_target <= 0, and a NaN target never stops the GA
        ("mu_target = nan", "mu_target"),
        ("stall_window = 0", "stall_window"),
    ],
)
def test_invalid_ga_settings_fail_the_config(tmp_path, setting, message):
    # rejected once at load, naming the file, instead of failing every cell
    path = tmp_path / "bad_ga.ini"
    path.write_text(BASE_CONFIG.replace("[ga]\n", f"[ga]\n{setting}\n"), encoding="utf-8")
    rule = {"mut_min": "need 0 < mut_min <= mut_max <= 1",
            "population_size": "population_size must be >= 2",
            "mu_target": "mu_target must be positive",
            "stall_window": "stall_window must be >= 1"}[message]
    with pytest.raises(CectLabError, match=f"^{re.escape(f'{path}: [ga] {rule}')}$"):
        experiment.load_config(path)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("plr = 0.7", "plr = 1.5", r"\[traffic\] plr must lie in \[0, 1\]"),
        ("mix = micro=0.5,small=0.3,medium=0.15,big=0.05", "mix = micro=0.5,small=0.3",
         r"\[traffic\] class mix fractions must be >= 0 and sum to 1"),
        ("mix = micro=0.5,small=0.3,medium=0.15,big=0.05", "mix = micro=0.5,huge=0.5",
         r"\[traffic\] unknown flow classes in mix: \['huge'\]"),
        ("x = 4", "x = 0", r"\[paths\] hop bound x must be >= 1"),
        ("cap_c = 50", "cap_c = 0", r"\[paths\] per-pair cap cap_c must be >= 1"),
        # every path of a pair is precompute_xpaths(cap_c=None), which no config sets
        ("cap_c = 50", "cap_c = none",
         r"\[paths\] cap_c: invalid literal for int\(\) with base 10: 'none'"),
        ("model = maxmin", "model = maxmn",
         r"\[sim\] model must be one of \('maxmin', 'bottleneck'\), got 'maxmn'"),
        # a section this program no longer reads: single-path routing is --method shortest
        ("[sim]", "[ecmp]\nmax_paths = -3\n[sim]", r"unknown section \[ecmp\]"),
        # a typo, keys this program no longer reads and an unknown section
        ("[ga]", "[ga]\nmax_iteration = 5", r"\[ga\] unknown key 'max_iteration'"),
        ("plr = 0.7", "plr = 0.7\ncompress_lower = 1", r"\[traffic\] unknown key 'compress_lower'"),
        ("[ga]", "[ga]\npenalty_weight = 3", r"\[ga\] unknown key 'penalty_weight'"),
        ("[sim]", "[typo]\nfoo = 1\n[sim]", r"unknown section \[typo\]"),
        ("kind = fat_tree", "kind = torus", r"\[topology\] unknown kind 'torus'"),
        ("kind = fat_tree", "kind = file", r"\[topology\] kind 'file' needs a path option"),
        ("n_flows = 60,120", "n_flows = -5,0",
         r"\[sweep\] n_flows: flow counts must be >= 1, got -5"),
        # a repeated value would run its cells twice and average duplicate rows
        ("n_flows = 60,120", "n_flows = 60,120,60", r"\[sweep\] n_flows: 60 is listed twice"),
        ("methods = cect,ecmp", "methods = ecmp,ecmp",
         r"\[sweep\] methods: 'ecmp' is listed twice"),
        # a sweep that routes nothing would write a header-only results.csv
        ("methods = cect,ecmp", "methods =", r"\[sweep\] methods lists no method"),
        ("methods = cect,ecmp", "methods = ,", r"\[sweep\] methods lists no method"),
        ("methods = cect,ecmp", "methods = cect,foo", r"\[sweep\] methods: unknown method 'foo'"),
        ("n_flows = 60,120", "n_flows = 5:1:1", r"\[sweep\] n_flows: empty flow sweep"),
        # a descending range would drop its stop, and range() names no config
        ("n_flows = 60,120", "n_flows = 10:1:-1",
         r"\[sweep\] n_flows: step must be >= 1, got -1"),
        ("n_flows = 60,120", "n_flows = 1:10:0", r"\[sweep\] n_flows: step must be >= 1, got 0"),
        # the second share would replace the first, hiding a sum above 1
        ("mix = micro=0.5,small=0.3,medium=0.15,big=0.05", "mix = micro=0.5,small=0.5,micro=0.5",
         r"\[traffic\] mix: 'micro' is listed twice"),
        ("seeds = 2", "seeds = 0", r"\[sweep\] seeds must be >= 1"),
        # numpy seeds no generator from a negative number
        ("seed = 7", "seed = -1", r"\[experiment\] seed must be >= 0, got -1"),
        ("mix = micro=0.5,small=0.3,medium=0.15,big=0.05", "mix = micro",
         r"\[traffic\] mix: bad class mix entry 'micro'"),
        ("plr = 0.7", "plr = 0.7\ncompress = maybe",
         r"\[traffic\] compress: not a boolean: 'maybe'"),
    ],
    ids=["plr", "mix-sum", "mix-class", "x", "cap_c", "cap_c-none", "sim-model", "ecmp-max-paths",
         "typo-key", "deleted-key", "deleted-ga-key", "unknown-section", "topology-kind",
         "topology-path", "n-flows", "repeated-n-flows", "repeated-method", "no-method",
         "comma-only-methods", "unknown-method", "empty-n-flows", "descending-n-flows",
         "zero-step-n-flows", "repeated-mix-class", "no-seeds", "negative-seed", "mix-entry",
         "compress-not-boolean"],
)
def test_invalid_sweep_settings_fail_the_config(tmp_path, capsys, old, new, message):
    # rejected at load, naming the file and section, before any cell runs
    path = tmp_path / "bad_sweep.ini"
    assert old in BASE_CONFIG
    path.write_text(BASE_CONFIG.replace(old, new), encoding="utf-8")
    with pytest.raises(CectLabError, match=f"^{re.escape(str(path))}: {message}$"):
        experiment.load_config(path)
    out = tmp_path / "res"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    assert "bad_sweep.ini" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_podless_topology_with_plr_fails_before_any_cell(tmp_path, capsys):
    # the default plr is 0.7, and fig2b has no pods for a flow to leave
    path = tmp_path / "podless.ini"
    path.write_text(
        "[topology]\nkind = fig2b\n[paths]\nx = 3\n[sweep]\nn_flows = 5\nmethods = ecmp\n",
        encoding="utf-8",
    )
    message = f"{path}: [traffic] plr 0.7 needs a pod-labeled topology"
    with pytest.raises(CectLabError, match=f"^{re.escape(message)}$"):
        experiment.run_experiment(path, tmp_path / "res")
    out = tmp_path / "res2"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    assert "podless.ini: [traffic] plr" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_linkless_topology_fails_before_any_cell(tmp_path, capsys):
    topo = tmp_path / "linkless.txt"
    topo.write_text("node 1\nnode 2\n", encoding="utf-8")
    path = tmp_path / "linkless.ini"
    path.write_text(f"[topology]\nkind = file\npath = {topo}\n[traffic]\nplr = 0\n"
                    "[sweep]\nn_flows = 5\nmethods = ecmp\n", encoding="utf-8")
    out = tmp_path / "res"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    message = f"linkless.ini: [topology] {topo}: the topology has no links to size flow demands by"
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def _ini(tmp_path, text: str, name: str = "lab.ini") -> str:
    """Write a config file for the CLI's --config and return its path."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_every_method_routes_an_empty_flow_set(tmp_path):
    topo = make_fat_tree(4)
    table = precompute_xpaths(topo, 4, 50)
    flows = FlowSet(())
    for method in experiment.METHODS:
        assignment, stats = experiment.solve(method, flows, table, topo, GaConfig(seed=1))
        assert assignment.labels.tolist() == []
        assert assemble(assignment, flows, table, topo).mu == 0.0
        if method == "cect":  # the first population already meets the target
            assert (stats.generations, stats.evaluations, len(stats.rows)) == (0, 2, 1)
    flows_file = tmp_path / "flows.txt"
    assert main(["gen-traffic", "--n", "0", "--out", str(flows_file)]) == 0
    for method in experiment.METHODS:
        out = tmp_path / method
        assert main(["solve", "--flows", str(flows_file), "--method", method,
                     "--out-dir", str(out)]) == 0
        assert (out / "assignment.txt").read_text(encoding="utf-8") == ""
        assert main(["simulate", "--flows", str(flows_file),
                     "--assignment", str(out / "assignment.txt"), "--out-dir", str(out)]) == 0
        assert _read_csv(out / "summary.csv") == [{"throughput": "0", "loss_pct": "0", "mu": "0"}]


def test_file_topology_sweeps_as_the_fat_tree_it_saved(tmp_path):
    text = BASE_CONFIG.replace("methods = cect,ecmp", "methods = cect,ecmp,shortest")
    built_config = _ini(tmp_path, text, "built.ini")
    saved = tmp_path / "fat_tree.txt"
    assert main(["gen-topo", "--config", built_config, "--out", str(saved)]) == 0
    loaded_config = _ini(tmp_path, text.replace("kind = fat_tree", f"kind = file\npath = {saved}"),
                         "loaded.ini")
    outs = [experiment.run_experiment(config, tmp_path / name)
            for config, name in ((built_config, "built"), (loaded_config, "loaded"))]
    assert _strip_timing(outs[0] / "results.csv") == _strip_timing(outs[1] / "results.csv")
    artifacts = [
        {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*")
         if p.is_file() and p.name not in ("results.csv", "manifest.json", "config.ini")}
        for out in outs
    ]
    assert len(artifacts[0]) == 1 + 4 + 12  # topology, 4 workloads, 12 cells
    assert artifacts[0] == artifacts[1]
    # the manifests differ only in the hash of the config that names the file
    manifests = [json.loads((out / "manifest.json").read_text(encoding="utf-8")) for out in outs]
    assert manifests[0].pop("config_sha256") != manifests[1].pop("config_sha256")
    assert manifests[0] == manifests[1]


def test_flow_range_parsing():
    assert experiment._parse_n_flows("200:600:200") == (200, 400, 600)
    assert experiment._parse_n_flows("5,10") == (5, 10)


def test_sweep_runs_and_reports(config_file, tmp_path):
    out = experiment.run_experiment(config_file, tmp_path / "res")
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8  # 2 flow counts x 2 seeds x 2 methods
    assert set(experiment.RESULT_COLUMNS) == set(rows[0])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == []
    assert len(manifest["cells"]) == 8

    written = experiment.report(out)
    assert (out / "throughput_vs_flows.csv").exists()
    assert (out / "ratio_cect_vs_ecmp.csv").exists()
    with open(written["ratio_ecmp"], newline="", encoding="utf-8") as fh:
        ratio_rows = list(csv.DictReader(fh))
    assert [int(r["n_flows"]) for r in ratio_rows] == [60, 120]


def test_sweep_reproducible_excluding_timings(config_file, tmp_path):
    out1 = experiment.run_experiment(config_file, tmp_path / "r1")
    out2 = experiment.run_experiment(config_file, tmp_path / "r2")
    assert _strip_timing(out1 / "results.csv") == _strip_timing(out2 / "results.csv")
    for dump in sorted((out1 / "assignments").iterdir()):
        twin = out2 / "assignments" / dump.name
        assert dump.read_text() == twin.read_text()


def test_sweep_parallel_matches_serial(config_file, tmp_path):
    serial = experiment.run_experiment(config_file, tmp_path / "s", threads=1)
    parallel = experiment.run_experiment(config_file, tmp_path / "p", threads=2)
    assert _strip_timing(serial / "results.csv") == _strip_timing(parallel / "results.csv")
    # every other artifact (manifest, topology, flows, dumps) byte for byte
    artifacts = [
        {p.relative_to(out).as_posix(): p.read_bytes()
         for p in out.rglob("*") if p.is_file() and p.name != "results.csv"}
        for out in (serial, parallel)
    ]
    assert len(artifacts[0]) == 3 + 4 + 8  # 4 workloads, 8 cells
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("n_flows, seeds, workers", [("60,120", 1, 2), ("60", 1, None)])
def test_sweep_pool_has_no_more_workers_than_workloads(tmp_path, monkeypatch, n_flows, seeds,
                                                       workers):
    sizes = []

    class InProcessPool:
        """Records its size, runs the initializer and maps here: no process starts."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    config = tmp_path / "sweep.ini"
    config.write_text(BASE_CONFIG.replace("n_flows = 60,120", f"n_flows = {n_flows}")
                      .replace("seeds = 2", f"seeds = {seeds}"), encoding="utf-8")
    serial = experiment.run_experiment(config, tmp_path / "s", threads=1)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiment, "_POOL_STATE", None)
    pooled = experiment.run_experiment(config, tmp_path / "p", threads=8)
    assert sizes == ([workers] if workers else [])
    assert _strip_timing(serial / "results.csv") == _strip_timing(pooled / "results.csv")


def test_rows_rederivable_from_dumps(config_file, tmp_path):
    out = experiment.run_experiment(config_file, tmp_path / "res")
    topo = load_topology(out / "topology.txt")
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        flows = load_flows(out / "flows" / f"flows_{row['n_flows']}_{row['seed']}.txt")
        dump = (out / "assignments" /
                f"{row['method']}_{row['n_flows']}_{row['seed']}.txt").read_text()
        hops = {fid: h for fid, (_, h) in parse_assignment_dump(dump).items()}
        matrix = matrix_from_paths(hops, flows, topo)
        result = simulate(matrix, flows, topo, "maxmin")
        assert float(row["throughput"]) == pytest.approx(result.total_delivered)
        assert float(row["loss_pct"]) == pytest.approx(result.loss_pct)
        assert float(row["mu"]) == pytest.approx(matrix.mu)


def test_failed_cells_recorded_and_sweep_continues(tmp_path):
    config = tmp_path / "bad_sweep.ini"
    config.write_text(
        """
[experiment]
seed = 3
[topology]
kind = fig2a
capacity = 10
[paths]
x = 3
[traffic]
plr = 0.0
[sweep]
n_flows = 25
methods = cect,ecmp
seeds = 1
[ga]
max_iterations = 5
""",
        encoding="utf-8",
    )
    # 25 flows over all pairs of the 3-node sample surely include the
    # unreachable pair (1 -> 3) or (2 -> 3), so both methods fail that cell
    out = experiment.run_experiment(config, tmp_path / "res")
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["failures"]) == 2
    # the flows are written whether or not some method routed them
    assert [p.name for p in (out / "flows").iterdir()] == ["flows_25_0.txt"]
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "r2")]) == 1


def test_failed_flow_draw_fails_every_method_once(tmp_path, capsys):
    config = tmp_path / "tiny.ini"
    config.write_text(
        """
[topology]
kind = fig2a
capacity = 0.1
[traffic]
mix = micro=1.0
plr = 0.0
[sweep]
n_flows = 4
methods = cect,ecmp
""",
        encoding="utf-8",
    )
    # a micro flow's demand on 0.1-capacity links rounds to 0 load units, so
    # the config fails once, before any cell, instead of failing every method
    message = f"{config}: [traffic] mix: micro demand 0.0005 rounds to 0 load units"
    with pytest.raises(CectLabError, match=f"^{re.escape(message)}$"):
        experiment.run_experiment(config, tmp_path / "res")
    assert not (tmp_path / "res").exists()
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "r2")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r2").exists()
    drawn = tmp_path / "drawn.txt"
    assert main(["gen-traffic", "--config", str(config), "--n", "4", "--out", str(drawn)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not drawn.exists()


def test_one_failed_method_keeps_the_workload_artifacts(tmp_path):
    config = tmp_path / "budget.ini"
    config.write_text(
        """
[topology]
kind = fat_tree
k = 4
[traffic]
plr = 1.0
[sweep]
n_flows = 2,12
methods = ecmp,exact
""",
        encoding="utf-8",
    )
    # 12 inter-pod flows exceed the exact solver's default search budget
    out = experiment.run_experiment(config, tmp_path / "res")
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert [(f["method"], f["n_flows"], f["seed"]) for f in failures] == [("exact", 12, 0)]
    assert failures[0]["error"].startswith("SearchBudgetExceededError: ")
    assert sorted(p.name for p in (out / "flows").iterdir()) == ["flows_12_0.txt", "flows_2_0.txt"]
    assert sorted(p.name for p in (out / "assignments").iterdir()) == [
        "ecmp_12_0.txt", "ecmp_2_0.txt", "exact_2_0.txt"
    ]
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["n_flows"]) for r in rows] == [
        ("ecmp", "2"), ("exact", "2"), ("ecmp", "12")
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_programming_errors_propagate_from_cells(config_file, tmp_path, monkeypatch, threads):
    # every input error that reaches a cell's solve, assemble or simulate is
    # a CectLabError, and check_traffic refuses a config whose flows cannot be
    # drawn, so any other exception, a ValueError too, is a bug
    for name, error in (("simulate", RuntimeError("bug in the simulator")),
                        ("simulate", ValueError("operands could not be broadcast together")),
                        ("generate_flows", ValueError("operands could not be broadcast together"))):
        def broken(*args, error=error, **kwargs):
            raise error

        with monkeypatch.context() as patch:
            # pool workers are forked from this process, so they see the patch too
            patch.setattr(experiment, name, broken)
            out = tmp_path / f"{name}-{type(error).__name__}"
            with pytest.raises(type(error), match=str(error)):
                experiment.run_experiment(config_file, out, threads=threads)
        assert not out.exists()


def test_run_refuses_a_used_output_directory(config_file, tmp_path, capsys):
    out = tmp_path / "res"
    config_file.write_text(BASE_CONFIG.replace("methods = cect,ecmp", "methods = ecmp"),
                           encoding="utf-8")
    experiment.run_experiment(config_file, out)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "flows" / "flows_120_0.txt" in before
    # a second sweep with fewer flow counts would leave the first's files
    # beside a results.csv and a manifest that do not list them
    config_file.write_text(BASE_CONFIG.replace("n_flows = 60,120", "n_flows = 60"),
                           encoding="utf-8")
    with pytest.raises(CectLabError, match=f"^{re.escape(str(out))}: output directory is not"):
        experiment.run_experiment(config_file, out)
    assert main(["run", "--config", str(config_file), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: output directory is not empty\n"
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # an existing empty directory is a new one
    (tmp_path / "empty").mkdir()
    experiment.run_experiment(config_file, tmp_path / "empty")


def test_rewritten_config_is_reread(tmp_path):
    config = tmp_path / "sweep.ini"
    template = """
[topology]
kind = fat_tree
k = 4
edge_capacity = {capacity}
agg_capacity = {capacity}
core_capacity = {capacity}
[sweep]
n_flows = {n}
methods = ecmp
"""
    config.write_text(template.format(capacity=10, n=2), encoding="utf-8")
    experiment.run_experiment(config, tmp_path / "r1")
    config.write_text(template.format(capacity=77, n=3), encoding="utf-8")
    out = experiment.run_experiment(config, tmp_path / "r2")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == []
    assert manifest["n_flows"] == [3]
    assert load_flows(out / "flows" / "flows_3_0.txt").count == 3
    assert {c for _, _, c in load_topology(out / "topology.txt").links} == {77.0}


def test_results_keep_the_config_they_ran(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text(BASE_CONFIG.replace("n_flows = 60,120", "n_flows = 5"), encoding="utf-8")
    out = experiment.run_experiment(config, tmp_path / "res")
    copy = (out / "config.ini").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert hashlib.sha256(copy).hexdigest() == manifest["config_sha256"]
    assert copy == config.read_bytes()
    # a later edit to the source leaves the copy, and so the sweep it describes, as run
    config.write_text(BASE_CONFIG, encoding="utf-8")
    assert (out / "config.ini").read_bytes() == copy
    assert experiment.load_config(out / "config.ini").n_flows_list == (5,)


def test_every_checked_in_config_loads():
    # each shipped config builds its topology and can draw its flows on it,
    # so no sweep of one fails only once its first cell runs
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
    assert {path.name for path in configs} >= {
        "acceptance_sweep.ini", "paper_claims.ini", "scaling.ini"}
    for path in configs:
        cfg = experiment.load_config(path)
        experiment.check_traffic(cfg, experiment.build_topology(cfg, path), path)


def test_report_rejects_missing_or_empty(tmp_path, capsys):
    with pytest.raises(FileNotFoundError):
        experiment.report(tmp_path)
    (tmp_path / "results.csv").write_text(
        ",".join(experiment.RESULT_COLUMNS) + "\n", encoding="utf-8"
    )
    with pytest.raises(ValueError):
        experiment.report(tmp_path)
    # a failed report leaves no output directory behind
    for results in (tmp_path / "missing", tmp_path):
        out = tmp_path / "new"
        assert main(["report", "--results", str(results), "--out-dir", str(out)]) == 2
        assert not out.exists()
    assert capsys.readouterr().err.count("error: ") == 2


def test_report_fits_the_loglog_slope_of_wall_time(tmp_path):
    # cect's mean times grow as 0.002 * n**1.5; ecmp has one flow count, so no slope
    lines = [",".join(experiment.RESULT_COLUMNS)]
    for n in (100, 200, 400, 800):
        for seed, scale in enumerate((0.5, 1.5)):
            lines.append(f"cect,{n},{seed},1,0,0.5,{scale * 0.002 * n**1.5!r},0")
    lines.append("ecmp,100,0,1,0,0.5,0.01,0")
    (tmp_path / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(experiment.report(tmp_path)["time_slope"], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == ["cect"]
    assert float(rows[0]["loglog_slope"]) == pytest.approx(1.5)


def test_report_writes_one_ratio_table_per_baseline(tmp_path):
    lines = [",".join(experiment.RESULT_COLUMNS)]
    for method, throughput, loss in (("cect", 12, 4), ("ecmp", 8, 6), ("shortest", 3, 9)):
        lines += [f"{method},100,{seed},{throughput},{loss},1,0,0" for seed in (0, 1)]
    (tmp_path / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    written = experiment.report(tmp_path)
    assert _read_csv(written["ratio_ecmp"]) == [
        {"n_flows": "100", "throughput_ratio": "1.5", "loss_ratio_ecmp_over_cect": "1.5"}]
    assert written["ratio_shortest"] == tmp_path / "ratio_cect_vs_shortest.csv"
    assert _read_csv(written["ratio_shortest"]) == [
        {"n_flows": "100", "throughput_ratio": "4", "loss_ratio_shortest_over_cect": "2.25"}]
    # without cect there is nothing to compare against
    (tmp_path / "results.csv").write_text("\n".join(lines[:1] + lines[3:]) + "\n",
                                          encoding="utf-8")
    assert not [key for key in experiment.report(tmp_path, tmp_path / "b")
                if key.startswith("ratio")]


def test_report_single_seed_zero_std(config_file, tmp_path):
    config = tmp_path / "one.ini"
    config.write_text(BASE_CONFIG.replace("seeds = 2", "seeds = 1"), encoding="utf-8")
    out = experiment.run_experiment(config, tmp_path / "res")
    experiment.report(out)
    with open(out / "throughput_vs_flows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["cect_std"]) == 0.0 for r in rows)


def test_report_means_inside_envelope(config_file, tmp_path):
    out = experiment.run_experiment(config_file, tmp_path / "res")
    experiment.report(out)
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        raw = list(csv.DictReader(fh))
    with open(out / "throughput_vs_flows.csv", newline="", encoding="utf-8") as fh:
        agg = list(csv.DictReader(fh))
    for row in agg:
        for method in ("cect", "ecmp"):
            values = [
                float(r["throughput"]) for r in raw
                if r["method"] == method and r["n_flows"] == row["n_flows"]
            ]
            assert min(values) <= float(row[f"{method}_mean"]) <= max(values)


def test_cell_seeds_are_stable():
    a = experiment.cell_seeds(7, 200, 0)
    b = experiment.cell_seeds(7, 200, 0)
    assert a == b
    assert experiment.cell_seeds(7, 200, 1) != a
    assert experiment.cell_seeds(8, 200, 0) != a
    # workloads nest across the sweep: the traffic seed ignores n_flows
    wider = experiment.cell_seeds(7, 400, 0)
    assert wider[0] == a[0]
    assert wider[1] != a[1]


# ------------------------------------------------------------------ CLI


def test_cli_full_workflow(tmp_path):
    topo = tmp_path / "topo.txt"
    flows = tmp_path / "flows.txt"
    config = _ini(tmp_path, """
[traffic]
mix = micro=0.6,small=0.4
plr = 0.5
[ga]
max_iterations = 5
""")
    # the saved topology is the config's, for editing into a [topology] kind = file input
    assert main(["gen-topo", "--config", config, "--out", str(topo)]) == 0
    assert load_topology(topo) == make_fat_tree(4)
    assert main([
        "gen-traffic", "--config", config, "--n", "40", "--seed", "3",
        "--out", str(flows),
    ]) == 0
    solve_dir = tmp_path / "solved"
    assert main([
        "solve", "--config", config, "--flows", str(flows), "--method", "cect", "--seed", "1", "--out-dir", str(solve_dir),
    ]) == 0
    assert (solve_dir / "assignment.txt").exists()
    assert (solve_dir / "stats.csv").exists()
    assert (solve_dir / "edge_loads.csv").exists()
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--config", config, "--flows", str(flows),
        "--assignment", str(solve_dir / "assignment.txt"),
        "--out-dir", str(sim_dir),
    ]) == 0
    with open(sim_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    assert {"throughput", "loss_pct", "mu"} <= set(summary[0])
    with open(sim_dir / "per_flow.csv", newline="", encoding="utf-8") as fh:
        per_flow = list(csv.DictReader(fh))
    assert len(per_flow) == 40


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("variant", ["plain", "compressed"])
def test_cli_chain_rebuilds_every_sweep_cell(tmp_path, variant):
    # the sweep's own config plus the manifest's two seeds per cell are enough
    # for gen-topo, gen-traffic, solve and simulate to rebuild each artifact
    text = BASE_CONFIG
    if variant == "compressed":
        # at capacity 1 a micro flow (0.005) falls under the 0.01 merge threshold
        text = text.replace("k = 4", "k = 4\nedge_capacity = 1\nagg_capacity = 1\n"
                                     "core_capacity = 1")
        text = text.replace("plr = 0.7", "plr = 0.7\ncompress = true")
        text = text.replace("model = maxmin", "model = bottleneck")
    config = _ini(tmp_path, text, "sweep.ini")
    out = experiment.run_experiment(config, tmp_path / "res")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failures"] == []
    rows = {(r["method"], r["n_flows"], r["seed"]): r for r in _read_csv(out / "results.csv")}
    assert len(manifest["cells"]) == len(rows) == 8

    topo = tmp_path / "topo.txt"
    assert main(["gen-topo", "--config", config, "--out", str(topo)]) == 0
    assert topo.read_bytes() == (out / "topology.txt").read_bytes()
    merged = 0
    for cell in manifest["cells"]:
        method, n, s = cell["method"], cell["n_flows"], cell["seed"]
        cell_dir = tmp_path / f"{method}_{n}_{s}"
        flows = cell_dir / "flows.txt"
        cell_dir.mkdir()
        assert main(["gen-traffic", "--config", config, "--n", str(n),
                     "--seed", str(cell["traffic_seed"]), "--out", str(flows)]) == 0
        assert flows.read_bytes() == (out / "flows" / f"flows_{n}_{s}.txt").read_bytes()
        merged += n - load_flows(flows).count
        assert main(["solve", "--config", config, "--flows", str(flows),
                     "--method", method, "--seed", str(cell["solver_seed"]),
                     "--out-dir", str(cell_dir)]) == 0
        dump = cell_dir / "assignment.txt"
        assert dump.read_bytes() == (out / "assignments" / f"{method}_{n}_{s}.txt").read_bytes()
        assert main(["simulate", "--config", config, "--flows", str(flows),
                     "--assignment", str(dump), "--out-dir", str(cell_dir)]) == 0
        (summary,) = _read_csv(cell_dir / "summary.csv")
        row = rows[(method, str(n), str(s))]
        assert summary == {key: row[key] for key in ("throughput", "loss_pct", "mu")}
    assert (merged > 0) == (variant == "compressed")


def test_solve_config_sets_every_ga_key(tmp_path, monkeypatch):
    # solve builds GaConfig(seed=--seed, **[ga]) exactly as a sweep cell does
    flows = tmp_path / "flows.txt"
    main(["gen-traffic", "--n", "20", "--seed", "1", "--out", str(flows)])
    seen = []
    original = experiment.solve

    def recording_solve(method, flows, table, topology, ga_config):
        seen.append(ga_config)
        return original(method, flows, table, topology, ga_config)

    monkeypatch.setattr(experiment, "solve", recording_solve)
    base = ["solve", "--flows", str(flows), "--out-dir", str(tmp_path)]
    assert main(base) == 0
    config = _ini(tmp_path, """
[experiment]
seed = 99
[ga]
population_size = 12
max_iterations = 7
mut_min = 0.01
mut_max = 0.3
stall_window = 4
mu_target = 0.5
""")
    assert main([*base, "--config", config, "--seed", "5"]) == 0
    # the master seed is the sweep's; solve's solver seed is --seed alone
    assert seen == [GaConfig(), GaConfig(
        population_size=12, max_iterations=7, mut_min=0.01, mut_max=0.3, stall_window=4,
        mu_target=0.5, seed=5,
    )]
    assert set(experiment.load_config(config).ga) == set(experiment._SETTINGS["ga"])


def test_gen_traffic_rejects_a_negative_flow_count(tmp_path, capsys):
    flows = tmp_path / "flows.txt"
    assert main(["gen-traffic", "--n", "-5", "--out", str(flows)]) == 2
    assert "flow count must be >= 0, got -5" in capsys.readouterr().err
    assert not flows.exists()
    # zero flows is a valid, empty workload
    assert main(["gen-traffic", "--n", "0", "--out", str(flows)]) == 0
    assert flows.read_text(encoding="utf-8") == ""


def _readme_quick_start() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## Quick start", 1)[1].split("```bash", 1)[1].split("```", 1)[0]


def _readme_commands() -> list[list[str]]:
    """The cect-lab commands of the README quick start, continuations joined."""
    joined = _readme_quick_start().replace("\\\n", " ")
    return [line.split()[1:] for line in joined.splitlines() if line.startswith("cect-lab ")]


def test_readme_exact_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the quick start writes its config with a here-document, then runs every command
    files = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", _readme_quick_start(), re.M | re.S)
    assert [name for name, _ in files] == ["lab.ini"]
    commands = _readme_commands()
    assert [c[0] for c in commands] == [
        "gen-topo", "gen-traffic", "paths", "solve", "solve", "solve", "gen-traffic", "solve",
        "simulate",
    ]
    assert all(c[c.index("--config") + 1] == "lab.ini" for c in commands)
    monkeypatch.chdir(tmp_path)
    for name, body in files:
        (tmp_path / name).write_text(body, encoding="utf-8")
    for argv in commands:
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "method=exact flows=6 mu=0.0050" in out
    for name in ("topo.txt", "flows.txt", "paths.txt", "few.txt"):
        assert (tmp_path / name).exists()
    for out_dir in ("solved", "ecmp", "shortest", "exact"):
        assert (tmp_path / out_dir / "assignment.txt").exists()
    assert (tmp_path / "sim" / "summary.csv").exists()


def test_every_command_reads_the_topology_from_its_config(tmp_path, capsys):
    # k = 6 in the config: the table, the flows, the routing and the simulation
    # are the k=6 fabric's, and no flag can name another topology
    config = _ini(tmp_path, "[topology]\nk = 6\n")
    cfg = experiment.load_config(config)
    topo = make_fat_tree(6)
    table, flows, out = tmp_path / "paths.txt", tmp_path / "flows.txt", tmp_path / "out"
    commands = [
        ["paths", "--config", config, "--out", str(table)],
        ["gen-traffic", "--config", config, "--n", "30", "--seed", "2", "--out", str(flows)],
        ["solve", "--config", config, "--flows", str(flows), "--method", "ecmp",
         "--out-dir", str(out)],
        ["simulate", "--config", config, "--flows", str(flows),
         "--assignment", str(out / "assignment.txt"), "--out-dir", str(out)],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert table.read_text(encoding="utf-8") == format_table(precompute_xpaths(topo, 4, 50))
    assert load_flows(flows) == experiment.draw_flows(cfg, topo, 30, 2)
    ends = {end for f in load_flows(flows).flows for end in (f.src, f.dst)}
    assert ends - set(make_fat_tree(4).edge_switches())  # k=4 access switches are 1..8
    for name in ("edge_loads.csv", "per_edge.csv"):
        rows = _read_csv(out / name)
        assert [(int(r["src"]), int(r["dst"])) for r in rows] == [l[:2] for l in topo.links]
    capsys.readouterr()
    for argv in commands:
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--topo", str(tmp_path / "topo.txt")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --topo" in capsys.readouterr().err


def test_cli_paths_golden(tmp_path, capsys):
    config = _ini(tmp_path, "[topology]\nkind = fig2a\ncapacity = 10\n[paths]\nx = 3\n")
    assert main(["paths", "--config", config]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "label 1: 1 -> 2",
        "label 2: 2 -> 1",
        "label 3: 3 -> 1",
        "label 4: 3 -> 2",
        "label 5: 3 -> 2 -> 1",
        "label 6: 3 -> 1 -> 2",
    ]


@pytest.mark.parametrize("method", ["cect", "ecmp", "exact"])
def test_solve_rejects_flows_that_do_not_join_access_switches(tmp_path, capsys, method):
    # the path table joins access switches only; 9 is an aggregation switch
    flows = tmp_path / "flows.txt"
    flows.write_text("flow 1 1 5 1.0 custom\nflow 2 9 3 1.0 custom\n", encoding="utf-8")
    code = main(["solve", "--config", _ini(tmp_path, "[paths]\nx = 4\ncap_c = 4\n"),
                 "--flows", str(flows), "--method", method,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "flow 2 (9 -> 3) has no feasible path" in capsys.readouterr().err
    # a dump routing that flow still replays: simulate reads hops, not labels
    dump = tmp_path / "assignment.txt"
    dump.write_text("flow 1 via 7: 1 -> 9 -> 17 -> 13 -> 5\nflow 2 via 3: 9 -> 17 -> 11 -> 3\n",
                    encoding="utf-8")
    assert main(["simulate", "--flows", str(flows),
                 "--assignment", str(dump), "--out-dir", str(tmp_path / "sim")]) == 0


EVEN_MIX = "mix = micro=0.25,small=0.25,medium=0.25,big=0.25\n"


def test_cli_solve_methods_agree_on_files(tmp_path):
    flows = tmp_path / "flows.txt"
    config = _ini(tmp_path, f"[paths]\nx = 4\ncap_c = 4\n[traffic]\n{EVEN_MIX}plr = 1.0\n")
    main(["gen-traffic", "--config", config, "--n", "6",
          "--seed", "2", "--out", str(flows)])
    for method in ("ecmp", "exact"):
        out_dir = tmp_path / method
        code = main([
            "solve", "--config", config, "--flows", str(flows),
            "--method", method, "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "assignment.txt").exists()


def test_solve_leaves_no_other_methods_ga_trace(tmp_path):
    flows = tmp_path / "flows.txt"
    config = _ini(tmp_path, "[ga]\nmax_iterations = 3\n")
    main(["gen-traffic", "--config", config, "--n", "20", "--seed", "2", "--out", str(flows)])
    out_dir = tmp_path / "solved"
    header = "generation,best_mu,best_fitness,mean_fitness,mut_rate"
    for method in ("cect", "ecmp"):
        assert main(["solve", "--config", config, "--flows", str(flows), "--method", method,
                     "--seed", "1", "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "stats.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == header
        assert (len(rows) > 1) == (method == "cect")  # the GA trace, then header only


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_rejects_fewer_than_one_thread(config_file, tmp_path, capsys, threads):
    out = tmp_path / "res"
    argv = ["run", "--config", str(config_file), "--threads", threads, "--out-dir", str(out)]
    assert main(argv) == 2
    assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-traffic", "solve"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, command):
    flows, out = tmp_path / "flows.txt", tmp_path / "out"
    flows.write_text("flow 1 1 3 1.0 custom\n", encoding="utf-8")
    argv = {"gen-traffic": ["--n", "3", "--out", str(flows)],
            "solve": ["--flows", str(flows), "--out-dir", str(out)]}[command]
    assert main([command, "--seed", "-5", *argv]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -5\n"
    assert flows.read_text(encoding="utf-8") == "flow 1 1 3 1.0 custom\n" and not out.exists()


def test_cli_error_paths(tmp_path):
    assert main(["gen-topo", "--config", _ini(tmp_path, "[topology]\nk = 3\n"),
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["gen-topo", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "x.txt")]) == 2
    missing = _ini(tmp_path, f"[topology]\nkind = file\npath = {tmp_path / 'missing.txt'}\n",
                   "missing_topo.ini")
    assert main(["paths", "--config", missing]) == 2
    assert main(["report", "--results", str(tmp_path)]) == 2
    topo, flows = tmp_path / "inf.txt", tmp_path / "flows.txt"
    topo.write_text("node 1\nnode 2\nedge 1 2 inf\nedge 2 1 1\n", encoding="utf-8")
    flows.write_text("flow 1 1 2 1.0 custom\n", encoding="utf-8")
    config = _ini(tmp_path, f"[topology]\nkind = file\npath = {topo}\n", "inf.ini")
    assert main(["solve", "--config", config, "--flows", str(flows), "--method", "ecmp"]) == 2


def test_solve_rejects_an_unknown_method():
    topo = make_sample_topology("fig2a", 10.0)
    flows = FlowSet(flows=(Flow(id=1, src=3, dst=1, demand=1.0),))
    with pytest.raises(ValueError, match="unknown method 'ospf'"):
        experiment.solve("ospf", flows, precompute_xpaths(topo, x=3, cap_c=None), topo, GaConfig())


@pytest.mark.parametrize("command, file, text, names", [
    # a hop that is not an integer fails the dump's parse
    ("simulate", "assignment", "flow 1 via 1: 1 -> 3.7 -> 3\n", "line "),
    # a first hop that is not the flow's source fails the dump's replay; the
    # whole message is this line, with no placeholder label
    ("simulate", "assignment", "flow 1 via 1: 99 -> 9 -> 17 -> 11 -> 3\n",
     r"^error: \S+assignment\.txt: flow 1: path 99->3 does not match flow 1->3\n$"),
    # a demand too large to count in int64 load units
    ("simulate", "flows", "flow 1 1 3 1e306 custom\n", "line "),
    # a switch id beyond int64
    ("paths", "topo", "node 1\nnode 99999999999999999999999\nedge 1 99999999999999999999999 1\n",
     "line "),
    # a flow endpoint beyond int64
    ("simulate", "flows", "flow 1 1 99999999999999999999999 1.0 custom\n", "line "),
    # a saved topology without links leaves no capacity to size demands by
    ("gen-traffic", "topo", "node 1\nnode 2\n",
     r": \[topology\] \S+topo\.txt: the topology has no links to size flow demands by\n$"),
    # switch 2's link to the pod-less switch 3 leaves its pod, so only 1 is an access switch
    ("gen-traffic", "topo", "node 1\nnode 2\nnode 3\nedge 1 2 1\nedge 2 1 1\nedge 2 3 1\n"
     "edge 3 2 1\npod 1 0\npod 2 0\n", r"^error: \S+lab\.ini: \[topology\] \S+topo\.txt: "
     r"flows need 2 edge switches, and the topology has 1\n$"),
    # the default bounds would merge flows below 0.01 into flows of at most 0.0075
    ("gen-traffic", "config", "[topology]\nkind = fig2a\ncapacity = 0.015\n[traffic]\nplr = 0\n"
     "mix = medium=0.5,big=0.5\ncompress = true\n", r"^error: \S+lab\.ini: \[traffic\] "
     r"compress: half the smallest capacity, 0\.0075, is below 0\.01\n$"),
    # a path that is a directory, not a file (None)
    ("solve", "topo", None, ""),
    # fig2a has no pods, and the config leaves plr at its default 0.7
    ("gen-traffic", "config", "[topology]\nkind = fig2a\n",
     r": \[traffic\] plr 0\.7 needs a pod-labeled topology"),
    # [topology] settings that build no topology
    ("gen-traffic", "config", "[topology]\nk = 5\n",
     r": \[topology\] fat-tree arity must be a positive even integer, got 5\n"),
    ("gen-traffic", "config", "[topology]\nedge_capacity = 0\n",
     r": \[topology\] capacity 0\.0 of edge 1 -> 9 is not finite and > 0 in load units\n"),
    ("gen-traffic", "config", "[topology]\nkind = fig2a\ncapacity = -1\n",
     r": \[topology\] capacity -1\.0 of edge 1 -> 2 is not finite"),
    # a results.csv without the result columns, one with a non-numeric cell,
    # and one with a row cut short
    ("report", "results", "a,b\n1,2\n", r"results\.csv: no 'method' column\n$"),
    ("report", "results", f"{','.join(experiment.RESULT_COLUMNS)}\necmp,3,0,x,0,1,1,1\n",
     r"results\.csv: could not convert string to float: 'x'\n$"),
    ("report", "results", f"{','.join(experiment.RESULT_COLUMNS)}\necmp,3,0,2.5\n",
     r"results\.csv: could not convert string to float: ''\n$"),
], ids=["hop-3.7", "replay-first-hop", "demand-1e306", "switch-beyond-int64",
        "flow-end-beyond-int64", "linkless-topology", "one-access-switch",
        "compress-on-thin-links", "directory", "default-plr-without-pods",
        "fat-tree-k-5", "edge-capacity-0", "sample-capacity-minus-1", "results-without-columns",
        "results-non-numeric", "results-short-row"])
def test_cli_input_errors_exit_2_without_a_traceback(tmp_path, capsys, command, file, text,
                                                      names):
    paths = {name: tmp_path / f"{name}.txt" for name in ("topo", "flows", "assignment")}
    # the topology is a saved file, which the config names
    paths["config"] = tmp_path / "lab.ini"
    paths["config"].write_text(f"[topology]\nkind = file\npath = {paths['topo']}\n",
                               encoding="utf-8")
    main(["gen-topo", "--out", str(paths["topo"])])
    paths["flows"].write_text("flow 1 1 3 1.0 custom\n", encoding="utf-8")
    paths["assignment"].write_text("flow 1 via 1: 1 -> 9 -> 17 -> 11 -> 3\n", encoding="utf-8")
    paths["results"] = tmp_path / "sweep" / "results.csv"
    paths["results"].parent.mkdir()
    paths["results"].write_text(
        f"{','.join(experiment.RESULT_COLUMNS)}\necmp,3,0,2.5,0,1,1,1\n", encoding="utf-8"
    )
    config = ["--config", str(paths["config"])]
    argv = [command, *{
        "paths": [*config, "--out", str(tmp_path / "paths.txt")],
        "simulate": [*config, "--flows", str(paths["flows"]),
                     "--assignment", str(paths["assignment"]), "--out-dir", str(tmp_path / "out")],
        "solve": [*config, "--flows", str(paths["flows"]), "--method", "ecmp",
                  "--out-dir", str(tmp_path / "out")],
        "gen-traffic": [*config, "--n", "3", "--out", str(tmp_path / "drawn.txt")],
        "report": ["--results", str(paths["results"].parent)],
    }[command]]
    assert main(argv) == 0  # the command runs on the good files
    if text is None:
        paths[file].unlink()
        paths[file].mkdir()
    else:
        paths[file].write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # the message names the bad file among the command's inputs, and its line or setting
    assert str(paths[file]) in err
    assert re.search(names, err)


def test_cli_simulate_rejects_a_looping_path(tmp_path, capsys):
    flows, dump = tmp_path / "flows.txt", tmp_path / "dump.txt"
    flows.write_text("flow 1 1 3 1.0 custom\n", encoding="utf-8")
    # ends and edges are the fabric's, but 1 -> 9 is crossed twice
    dump.write_text("flow 1 via 1: 1 -> 9 -> 1 -> 9 -> 17 -> 11 -> 3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--flows", str(flows),
                 "--assignment", str(dump), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dump}: flow 1: ") and "Traceback" not in err
    assert not out.exists()


def test_gen_topo_tier_capacities_reach_the_fat_tree(tmp_path):
    out = tmp_path / "topo.txt"
    config = _ini(tmp_path, "[topology]\nkind = fat-tree\nk = 4\nedge_capacity = 10\n"
                            "agg_capacity = 20\ncore_capacity = 30\n")
    assert main(["gen-topo", "--config", config, "--out", str(out)]) == 0
    assert load_topology(out) == make_fat_tree(4, 10.0, 20.0, 30.0)


def test_solve_shortest_and_exact_budget(tmp_path, capsys):
    flows_file = tmp_path / "flows.txt"
    config = _ini(tmp_path, f"[traffic]\n{EVEN_MIX}plr = 1.0\n")
    main(["gen-traffic", "--config", config, "--n", "40",
          "--seed", "4", "--out", str(flows_file)])
    base = ["solve", "--config", config, "--flows", str(flows_file)]
    out = tmp_path / "shortest"
    assert main([*base, "--method", "shortest", "--out-dir", str(out)]) == 0
    dump = parse_assignment_dump((out / "assignment.txt").read_text(encoding="utf-8"))
    topo, flows = make_fat_tree(4), load_flows(flows_file)
    table = precompute_xpaths(topo, 4, 50)
    first = [feasible_labels(table, f.src, f.dst)[0] for f in flows.flows]
    assert [label for label, _ in dump.values()] == first
    assert first != route_ecmp(flows, topo, table).labels.tolist()

    # exact runs at its default budget, as a sweep's exact cells do: there is no flag for it
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main([*base, "--method", "exact", "--budget", "1", "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --budget 1" in capsys.readouterr().err
