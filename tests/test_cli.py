import csv
import json
import math
from pathlib import Path

import pytest

from cect_lab import experiment
from cect_lab.cli import main
from cect_lab.errors import ConfigError
from cect_lab.fluidsim import simulate
from cect_lab.routing import matrix_from_paths, parse_assignment_dump
from cect_lab.topology import load_topology
from cect_lab.traffic import load_flows

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
        if name not in experiment.TIMING_COLUMNS
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
    with pytest.raises(ConfigError, match="teleport"):
        experiment.load_config(path)
    path2 = tmp_path / "bad2.ini"
    path2.write_text("[sweep]\nn_flows = 10:20\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="start:stop:step"):
        experiment.load_config(path2)
    with pytest.raises(ConfigError, match="cannot read"):
        experiment.load_config(tmp_path / "missing.ini")


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
    with open(written["ratio"], newline="", encoding="utf-8") as fh:
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
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "r2")]) == 1


def test_programming_errors_propagate_from_cells(config_file, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the simulator")

    monkeypatch.setattr(experiment, "simulate", broken)
    with pytest.raises(RuntimeError, match="bug in the simulator"):
        experiment.run_experiment(config_file, tmp_path / "res", threads=1)


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


def test_worker_cache_keeps_one_config(tmp_path):
    body = """
[topology]
kind = fat_tree
k = 4
[sweep]
n_flows = 2
methods = ecmp
"""
    for name in ("a.ini", "b.ini", "c.ini"):
        (tmp_path / name).write_text(body, encoding="utf-8")
        experiment.run_experiment(tmp_path / name, tmp_path / f"out_{name}")
    assert list(experiment._WORKER_STATE) == [(str(tmp_path / "c.ini"), body.encode())]


def test_report_rejects_missing_or_empty(tmp_path):
    with pytest.raises(FileNotFoundError):
        experiment.report(tmp_path)
    (tmp_path / "results.csv").write_text(
        ",".join(experiment.RESULT_COLUMNS) + "\n", encoding="utf-8"
    )
    with pytest.raises(ValueError):
        experiment.report(tmp_path)


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
    assert main(["gen-topo", "--kind", "fat-tree", "--k", "4", "--out", str(topo)]) == 0
    assert main([
        "gen-traffic", "--topo", str(topo), "--n", "40",
        "--mix", "micro=0.6,small=0.4", "--plr", "0.5", "--seed", "3",
        "--out", str(flows),
    ]) == 0
    solve_dir = tmp_path / "solved"
    assert main([
        "solve", "--topo", str(topo), "--flows", str(flows), "--method", "cect",
        "--x", "4", "--itr", "5", "--seed", "1", "--out-dir", str(solve_dir),
    ]) == 0
    assert (solve_dir / "assignment.txt").exists()
    assert (solve_dir / "stats.csv").exists()
    assert (solve_dir / "edge_loads.csv").exists()
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--topo", str(topo), "--flows", str(flows),
        "--assignment", str(solve_dir / "assignment.txt"),
        "--out-dir", str(sim_dir),
    ]) == 0
    with open(sim_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    assert {"throughput", "loss_pct", "mu"} <= set(summary[0])
    with open(sim_dir / "per_flow.csv", newline="", encoding="utf-8") as fh:
        per_flow = list(csv.DictReader(fh))
    assert len(per_flow) == 40


def test_cli_paths_golden(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    main(["gen-topo", "--kind", "fig2a", "--capacity", "10", "--out", str(topo)])
    capsys.readouterr()
    assert main(["paths", "--topo", str(topo), "--x", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "label 1: 1 -> 2",
        "label 2: 2 -> 1",
        "label 3: 3 -> 1",
        "label 4: 3 -> 2",
        "label 5: 3 -> 2 -> 1",
        "label 6: 3 -> 1 -> 2",
    ]


def test_cli_solve_methods_agree_on_files(tmp_path):
    topo = tmp_path / "topo.txt"
    flows = tmp_path / "flows.txt"
    main(["gen-topo", "--kind", "fat-tree", "--k", "4", "--out", str(topo)])
    main(["gen-traffic", "--topo", str(topo), "--n", "6", "--plr", "1.0",
          "--seed", "2", "--out", str(flows)])
    for method in ("ecmp", "exact"):
        out_dir = tmp_path / method
        code = main([
            "solve", "--topo", str(topo), "--flows", str(flows),
            "--method", method, "--x", "4", "--cap-c", "4",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "assignment.txt").exists()


def test_cli_json_format(tmp_path):
    topo = tmp_path / "topo.txt"
    flows = tmp_path / "flows.txt"
    main(["gen-topo", "--kind", "fig2a", "--capacity", "10", "--out", str(topo)])
    (flows).write_text("flow 1 3 1 2.0 custom\n", encoding="utf-8")
    solve_dir = tmp_path / "s"
    main(["solve", "--topo", str(topo), "--flows", str(flows), "--method", "exact",
          "--x", "3", "--out-dir", str(solve_dir), "--format", "json"])
    sim_dir = tmp_path / "j"
    code = main([
        "simulate", "--topo", str(topo), "--flows", str(flows),
        "--assignment", str(solve_dir / "assignment.txt"),
        "--out-dir", str(sim_dir), "--format", "json",
    ])
    assert code == 0
    data = json.loads((sim_dir / "summary.json").read_text())
    assert data[0]["mu"] == "0.2"


def test_cli_error_paths(tmp_path):
    assert main(["gen-topo", "--kind", "fat-tree", "--k", "3",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["paths", "--topo", str(tmp_path / "missing.txt")]) == 2
    assert main(["report", "--results", str(tmp_path)]) == 2


def test_cli_bench_scaling_smoke(tmp_path):
    assert main(["bench", "scaling", "--flow-counts", "20,40", "--itr", "2",
                 "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "bench_scaling.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n_flows", "population", "wall_time", "loglog_slope"]
    assert [row[0] for row in rows[1:]] == ["20", "40"]
    # one fitted slope, repeated on every row
    assert len({row[3] for row in rows[1:]}) == 1
    assert math.isfinite(float(rows[1][3]))
