import json

import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs_core

from corridorflow import cli, solver, twostage
from corridorflow.controller import CONTROLLER_KINDS, TWO_STAGE, assumed_level
from corridorflow.experiments import ExperimentConfig, load_config, save_config

from conftest import read_with_highs, solve_lp_relaxation


@pytest.fixture
def tiny_config(tmp_path):
    config = ExperimentConfig(n_horizons=2, n_seeds=1, sweep_seeds=1,
                              sweep_horizons=1, sweep_p_grid=(0.0, 0.4))
    path = tmp_path / "tiny.ini"
    save_config(config, path)
    return path


def test_simulate_writes_trajectory_and_manifest(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "simulate", "--config", str(tiny_config), "--output-dir", str(out),
        "--controller", "d-mean", "--seed", "3",
    ])
    assert rc == 0
    assert (out / "trajectory_d-mean_seed3.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [3]
    assert [(s["horizon"], s["stage"]) for s in manifest["solves"]] == [
        (0, "plan"), (0, "update"), (1, "plan"), (1, "update")]
    assert all(s["bound"] >= s["objective"] for s in manifest["solves"])
    assert "block_penalty=" in capsys.readouterr().out


def test_compare_emits_table(tiny_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = cli.main([
        "compare", "--config", str(tiny_config), "--output-dir", str(out),
        "--seeds", "0",
    ])
    assert rc == 0
    assert (out / "comparison.csv").exists()
    text = capsys.readouterr().out
    assert "reduction vs d-min" in text


def test_compare_with_a_failed_run_prints_no_totals(tiny_config, tmp_path, capsys,
                                                   monkeypatch):
    infeasible = solver.Solution(solver.INFEASIBLE)
    monkeypatch.setattr(solver, "branch_and_bound", lambda *a, **k: infeasible)
    rc = cli.main([
        "compare", "--config", str(tiny_config), "--output-dir", str(tmp_path / "cmp"),
        "--seeds", "0",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "block=" not in captured.out
    assert "reduction" not in captured.out
    assert "FAILED (0, 'two-stage'): ClosedLoopError" in captured.err


def test_sweep_emits_grid(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(tiny_config), "--output-dir", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two grid points
    assert "sd=0.4472" in capsys.readouterr().out


def test_sweep_with_a_failed_run_names_it_and_exits_1(tiny_config, tmp_path, capsys,
                                                     monkeypatch):
    infeasible = solver.Solution(solver.INFEASIBLE)
    monkeypatch.setattr(solver, "branch_and_bound", lambda *a, **k: infeasible)
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(tiny_config), "--output-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "p=" not in captured.out
    assert not (out / "sweep.csv").exists()
    for p in (0.0, 0.4):
        for kind in CONTROLLER_KINDS:
            assert f"FAILED ({p}, 0, '{kind}'): ClosedLoopError" in captured.err


@pytest.mark.parametrize("command, field, output", [
    ("compare", {"n_seeds": 0}, "comparison.csv"),
    ("sweep", {"sweep_p_grid": ()}, "sweep.csv"),
    ("sweep", {"sweep_seeds": 0}, "sweep.csv"),
], ids=["n_seeds=0", "sweep_p_grid=()", "sweep_seeds=0"])
def test_a_command_over_no_runs_is_refused(command, field, output, tmp_path, capsys):
    # a table of totals over no runs would read as a result
    config = tmp_path / "empty.ini"
    save_config(ExperimentConfig(n_horizons=1, **field), config)
    assert load_config(config) == ExperimentConfig(n_horizons=1, **field)
    with pytest.raises(ValueError, match="is empty"):
        cli.main([command, "--config", str(config), "--output-dir", str(tmp_path / "out")])
    assert not (tmp_path / "out" / output).exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("controller", CONTROLLER_KINDS)
def test_export_milp_formats(controller, tiny_config, tmp_path):
    # an external solver reads each format as the in-process model: same
    # sense and size, and the same LP-relaxation optimum
    config = load_config(tiny_config)
    corridor = config.corridor()
    state = twostage.HorizonState(
        {l.id: np.zeros(l.geometry.k_max) for l in corridor.fd_links},
        {l.id: 0.0 for l in corridor.entry_links},
        config.n_project,
        config.T,
    )
    dist = config.distribution()
    if controller == TWO_STAGE:
        bundle = twostage.build_deterministic_equivalent(corridor, state, dist, config.weights())
    else:
        bundle = twostage.build_deterministic_baseline(
            corridor, state, assumed_level(controller, dist), config.weights())
    lp = bundle.lp
    relaxed = solve_lp_relaxation(lp).objective
    out = tmp_path / "milp"
    for fmt in ("lp", "mps"):
        rc = cli.main([
            "export-milp", "--config", str(tiny_config), "--output-dir", str(out),
            "--controller", controller, "--format", fmt,
        ])
        assert rc == 0
        highs = read_with_highs(out / f"horizon_{controller}.{fmt}")
        model = highs.getLp()
        assert model.sense_ == highs_core.ObjSense.kMaximize, fmt
        assert (model.num_col_, model.num_row_) == (lp.n_vars, lp.n_constraints), fmt
        highs.setOptionValue("solve_relaxation", True)
        highs.run()
        assert highs.getModelStatus() == highs_core.HighsModelStatus.kOptimal, fmt
        value = highs.getInfo().objective_function_value
        assert abs(value - relaxed) <= 1e-9 * max(1.0, abs(relaxed)), fmt


@pytest.mark.parametrize("argv", [
    ["export-milp", "--gap", "1e-3"],
    ["export-milp", "--time-limit", "5"],
    ["export-milp", "--jobs", "2"],
    ["simulate", "--jobs", "2"],
    # a decision depends on the model alone: no command sets the gap or a clock
    *([command, flag, value] for command in ("simulate", "compare", "sweep")
      for flag, value in (("--gap", "1e-3"), ("--time-limit", "5"))),
])
def test_subcommands_refuse_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_a_worker_count_below_one_is_refused(command, jobs, tiny_config, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(tiny_config), "--output-dir", str(tmp_path),
                  "--jobs", jobs])
    assert exc.value.code == 2
    assert f"must be at least 1, got {jobs}" in capsys.readouterr().err
