import json
import re

import numpy as np
import pytest

from corridorflow import controller as ctl
from corridorflow import experiments, solver
from corridorflow.experiments import (
    ExperimentConfig,
    case_study,
    compute_metrics,
    config_hash,
    distribution_sd,
    load_config,
    run_comparison,
    run_single,
    sample_demand_stream,
    save_config,
    sweep_to_csv,
    symmetric_distribution,
    write_manifest,
)
from corridorflow.twostage import DemandDistribution


class TestSampling:
    def test_point_distribution_constant(self):
        dist = DemandDistribution.point(1.5)
        np.testing.assert_allclose(sample_demand_stream(dist, 10, seed=3), 1.5)

    def test_same_seed_same_stream(self, config):
        dist = config.distribution()
        a = sample_demand_stream(dist, 50, seed=7)
        b = sample_demand_stream(dist, 50, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample_demand_stream(dist, 50, seed=8)
        assert not np.array_equal(a, c)

    def test_empirical_frequencies(self, config):
        dist = config.distribution()
        draws = sample_demand_stream(dist, 100_000, seed=1)
        for level, p in zip(dist.levels, dist.probs):
            freq = np.mean(draws == level)
            assert freq == pytest.approx(p, abs=0.01)


class TestSweepGrid:
    def test_sd_formula(self, config):
        levels = config.demand_levels
        assert distribution_sd(symmetric_distribution(levels, 0.0)) == pytest.approx(0.0)
        assert distribution_sd(symmetric_distribution(levels, 0.4)) == pytest.approx(
            0.4472, abs=1e-3
        )
        assert distribution_sd(symmetric_distribution(levels, 0.35)) == pytest.approx(
            0.4183, abs=1e-3
        )

    def test_probability_bounds(self, config):
        with pytest.raises(ValueError):
            symmetric_distribution(config.demand_levels, 0.6)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        config = case_study()
        path = tmp_path / "config.ini"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded == config
        assert config_hash(loaded) == config_hash(config)

    def test_modified_field_changes_hash(self, tmp_path):
        a = case_study()
        b = ExperimentConfig(w4=5.0)
        assert config_hash(a) != config_hash(b)

    def test_corridor_construction(self, config):
        corridor = config.corridor()
        assert [l.id for l in corridor.links] == ["E", "M1", "M2", "M3", "M4", "R"]
        assert corridor.link("M3").is_vsl
        assert [l.id for l in corridor.exit_links] == ["M4"]
        assert corridor.exit_cap("M4", 0.0) == pytest.approx(1.4)


def _fake_trajectory(config, inflow_by_horizon, levels):
    """Trajectory stub with just the fields the metric computation reads."""
    cfg = config.horizon()
    corridor = config.corridor()
    steps = []
    queue = 0.0
    t = 0
    for h, level in enumerate(levels):
        for i in range(cfg.n_project):
            q_in = inflow_by_horizon[h][i]
            queue = max(queue + level - q_in, 0.0)
            steps.append(
                {
                    "step": t,
                    "t": t * cfg.T,
                    "qin": {"E": q_in, "M4": 0.0},
                    "qout": {"M4": min(q_in, 1.4)},
                    "queues": {"E": queue, "R": 0.0},
                    "controls": {"E": q_in},
                    "speeds": {"M3": 30.0},
                    "densities": {l.id: np.zeros(2) for l in corridor.fd_links},
                }
            )
            t += 1
    traj = ctl.Trajectory(cfg, "stub", np.asarray(levels, dtype=float), steps)
    return traj, corridor


class TestMetrics:
    def test_zero_demand_all_zero(self, config):
        traj, corridor = _fake_trajectory(config, [[0.0] * 8], [0.0])
        m = compute_metrics(traj, config.weights(), config.horizon(), corridor)
        assert m.block_penalty == 0.0
        assert m.fluctuation == 0.0
        assert m.throughput == 0.0

    def test_horizon_boundary_jump_not_counted(self, config):
        # constant inflow within each horizon, different across horizons
        traj, corridor = _fake_trajectory(
            config, [[1.0] * 8, [2.0] * 8], [1.0, 2.0]
        )
        m = compute_metrics(traj, config.weights(), config.horizon(), corridor)
        assert m.fluctuation == pytest.approx(0.0, abs=1e-12)

    def test_single_drop_hand_value(self, config):
        inflows = [[1.5] * 8, [1.5] * 3 + [0.8] * 5]
        traj, corridor = _fake_trajectory(config, inflows, [1.5, 1.5])
        m = compute_metrics(traj, config.weights(), config.horizon(), corridor)
        assert m.fluctuation == pytest.approx(config.w4 * 0.7, abs=1e-9)

    def test_throughput_sums_exit_flow(self, config):
        traj, corridor = _fake_trajectory(config, [[1.0] * 8], [1.0])
        m = compute_metrics(traj, config.weights(), config.horizon(), corridor)
        assert m.throughput == pytest.approx(8 * 1.0 * config.T)


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(n_horizons=3, n_seeds=2, sweep_seeds=1,
                            sweep_horizons=2)


class TestComparison:

    def test_point_distribution_rows_identical(self, small_config):
        dist = DemandDistribution.point(1.5)
        comp = run_comparison(small_config, seeds=[0], n_horizons=2, dist=dist)
        records = [comp.records[(0, kind)] for kind in ctl.CONTROLLER_KINDS]
        base = records[0]
        for rec in records[1:]:
            assert rec.block_penalty == pytest.approx(base.block_penalty, abs=1e-9)
            assert rec.fluctuation == pytest.approx(base.fluctuation, abs=1e-9)
            assert rec.throughput == pytest.approx(base.throughput, abs=1e-9)

    def test_rerun_determinism(self, small_config):
        a = run_comparison(small_config, seeds=[1], n_horizons=2)
        b = run_comparison(small_config, seeds=[1], n_horizons=2)
        for key in a.records:
            assert a.records[key].block_penalty == b.records[key].block_penalty
            assert a.records[key].fluctuation == b.records[key].fluctuation
            np.testing.assert_array_equal(
                a.records[key].queue_series, b.records[key].queue_series
            )

    def test_failure_names_type_message_and_raising_frame(self, small_config, monkeypatch):
        infeasible = solver.Solution(solver.INFEASIBLE)
        monkeypatch.setattr(solver, "branch_and_bound", lambda *a, **k: infeasible)
        comp = run_comparison(small_config, seeds=[0], n_horizons=1, controllers=("d-min",))
        assert not comp.records
        assert re.fullmatch(
            r"ClosedLoopError: horizon 0 plan: solver returned infeasible "
            r"\(controller\.py:\d+\)",
            comp.failures[(0, "d-min")],
        )

    def test_csv_and_manifest(self, small_config, tmp_path):
        comp = run_comparison(small_config, seeds=[0], n_horizons=2)
        comp.to_csv(tmp_path / "cmp.csv")
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert lines[0].startswith("seed,controller")
        assert len(lines) == 1 + 4 + 4  # header + per-seed rows + totals
        write_manifest(small_config, tmp_path / "manifest.json", [0])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(small_config)
        assert "numpy" in manifest["versions"]

    def test_sweep_rows_and_csv(self, small_config, tmp_path):
        rows = experiments.run_sd_sweep(small_config, p_grid=[0.0, 0.4],
                                        seeds=[0], n_horizons=2)
        assert rows[0]["sd"] == pytest.approx(0.0)
        assert rows[1]["sd"] == pytest.approx(0.4472, abs=1e-3)
        sweep_to_csv(rows, tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
