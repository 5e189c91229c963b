import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy

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
    sample_demand_stream,
    save_config,
    sweep_to_csv,
    symmetric_distribution,
    write_manifest,
)
from corridorflow.lwr import InvalidParameterError
from corridorflow.twostage import DemandDistribution

from conftest import point_distribution


class TestSampling:
    def test_point_distribution_constant(self):
        dist = point_distribution(1.5)
        np.testing.assert_allclose(sample_demand_stream(dist, 10, seed=3), 1.5)

    def test_draw_above_the_probability_sum_takes_the_last_level(self, monkeypatch):
        # the probabilities may sum to 1 - 1e-9; a draw past their sum must
        # not index past the levels
        dist = DemandDistribution((1.0, 2.0), (0.5, 0.4999999995))
        draws = iter([0.9999999997, 0.25, 0.75])
        monkeypatch.setattr(experiments, "counter_uniform", lambda seed, i: next(draws))
        np.testing.assert_array_equal(sample_demand_stream(dist, 3, seed=0), [2.0, 1.0, 2.0])

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

    def test_every_field_is_in_one_section(self):
        names = [name for section in experiments._SCHEMA.values() for name in section]
        assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))

    def test_every_field_off_its_default_round_trips(self, tmp_path):
        def moved(value):  # off the default, and written exactly by "%g"
            if isinstance(value, tuple):
                return tuple(moved(v) for v in value) + (7.0,)
            if isinstance(value, int):
                return value + 1
            return float(f"{2 * value + 1:g}")

        default = case_study()
        off_default = {f.name: moved(getattr(default, f.name)) for f in fields(ExperimentConfig)}
        # values "%g" cannot write exactly: 6 significant digits would change them
        inexact = [{}, {"ramp_demand": 0.05123456},
                   {"demand_probs": (0.4, 0.2000001, 0.3999999)},
                   {"n_horizons": 1234567}, {"sweep_p_grid": (0.0, 1 / 3, 0.5)}]
        for changes in inexact:
            config = ExperimentConfig(**{**off_default, **changes})
            for f in fields(ExperimentConfig):
                assert getattr(config, f.name) != getattr(default, f.name), f.name
            path = tmp_path / "config.ini"
            save_config(config, path)
            loaded = load_config(path)
            assert loaded == config, changes
            assert ([type(getattr(loaded, f.name)) for f in fields(ExperimentConfig)]
                    == [type(getattr(config, f.name)) for f in fields(ExperimentConfig)])

    def test_case_study_file_loads_with_its_hash(self, tmp_path):
        path = tmp_path / "config.ini"
        save_config(case_study(), path)
        assert load_config(path) == case_study()
        assert config_hash(load_config(path)) == "3e07ce2baed318ef"

    @pytest.mark.parametrize("edit, problem", [
        (("w3 = 0.003", "w33 = 5"), "[weights] w33 = 5 is not a known key"),
        (("[sweep]", "[typo_section]\n\n[sweep]"), "[typo_section] is not a known section"),
        (("[sweep]", "[DEFAULT]\nw3 = 1\n\n[sweep]"), "[DEFAULT] is not a known section"),
        (("n_project = 8", "n_project = 8.5"),
         "[horizon] n_project = 8.5 is not a whole number"),
    ], ids=["key", "section", "default-section", "fractional-count"])
    def test_typos_are_refused(self, tmp_path, edit, problem):
        path = tmp_path / "config.ini"
        save_config(case_study(), path)
        text = path.read_text(encoding="utf-8")
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1]), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(problem)):
            load_config(path)

    def test_nan_weight_is_refused(self, tmp_path):
        # a run with it did not return: its models held NaN costs
        path = tmp_path / "config.ini"
        save_config(case_study(), path)
        text = path.read_text(encoding="utf-8").replace("w3 = 0.003", "w3 = nan")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="weight w3 is nan"):
            load_config(path).weights()

    def test_modified_field_changes_hash(self, tmp_path):
        a = case_study()
        b = ExperimentConfig(w4=5.0)
        assert config_hash(a) != config_hash(b)
        # equal in 6 significant digits
        assert (config_hash(ExperimentConfig(ramp_demand=0.05123456))
                != config_hash(ExperimentConfig(ramp_demand=0.05123461)))

    def test_corridor_construction(self, config):
        corridor = config.corridor()
        assert [l.id for l in corridor.links] == ["E", "M1", "M2", "M3", "M4", "R"]
        assert corridor.link("M3").is_vsl
        assert [l.id for l in corridor.exit_links] == ["M4"]
        assert corridor.exit_cap("M4", 0.0) == pytest.approx(1.4)

    @pytest.mark.parametrize("field, value, message", [
        ("vsl_link", 0, r"vsl_link 0 is not a mainline link \(1..4\)"),
        ("vsl_link", 7, r"vsl_link 7 is not a mainline link \(1..4\)"),
        ("merge_into", 1, "entry link R feeds no junction"),
        ("merge_into", 9, "entry link R feeds no junction"),
    ], ids=["vsl_link=0", "vsl_link=7", "merge_into=1", "merge_into=9"])
    def test_corridor_refuses_a_link_index_off_the_mainline(self, config, field, value,
                                                             message):
        with pytest.raises(ValueError, match=message):
            replace(config, **{field: value}).corridor()

    @pytest.mark.parametrize("field", ["vf", "link_length"])
    def test_corridor_refuses_a_nan_flux_law_or_length(self, config, field):
        with pytest.raises(InvalidParameterError, match="nan"):
            replace(config, **{field: float("nan")}).corridor()

    def test_the_speed_limited_link_runs_at_its_fastest_candidate(self):
        link = ExperimentConfig(speed_candidates=(10.0, 20.0)).corridor().link("M3")
        assert link.fd.vf == 20.0 and link.speeds == (10.0, 20.0)
        assert link.capacity == 1.9678714859437754


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
        dist = point_distribution(1.5)
        config = replace(small_config, demand_levels=dist.levels, demand_probs=dist.probs)
        comp = run_comparison(config, seeds=[0], n_horizons=2)
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

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_a_worker_count_below_one_is_refused(self, small_config, jobs):
        with pytest.raises(ValueError, match=f"got {jobs}"):
            run_comparison(small_config, seeds=[0], n_horizons=1, jobs=jobs)

    def test_the_pool_is_no_larger_than_the_runs(self, small_config, monkeypatch):
        sizes = []

        class FakePool:  # records its size and starts no process
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, task, tasks):
                return [(args[2], args[1], None, "not run") for args in tasks]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(experiments.multiprocessing, "get_context",
                            lambda method: FakeContext)
        for jobs, controllers in ((64, ("d-min", "d-max")), (3, ctl.CONTROLLER_KINDS)):
            comp = run_comparison(small_config, seeds=[0], n_horizons=1, jobs=jobs,
                                  controllers=controllers)
            assert sorted(comp.failures) == sorted((0, kind) for kind in controllers)
        assert sizes == [2, 3]

    def test_csv_and_manifest(self, small_config, tmp_path):
        comp = run_comparison(small_config, seeds=[0], n_horizons=2)
        comp.to_csv(tmp_path / "cmp.csv")
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert lines[0].startswith("seed,controller")
        assert len(lines) == 1 + 4 + 4  # header + per-seed rows + totals
        write_manifest(small_config, tmp_path / "manifest.json", [0])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(small_config)
        assert manifest["versions"]["numpy"] == np.__version__
        assert manifest["versions"]["scipy"] == scipy.__version__

    def test_sweep_rows_and_csv(self, small_config, tmp_path):
        config = replace(small_config, sweep_p_grid=(0.0, 0.4))
        rows = experiments.run_sd_sweep(config)
        assert rows[0]["sd"] == pytest.approx(0.0)
        assert rows[1]["sd"] == pytest.approx(0.4472, abs=1e-3)
        sweep_to_csv(rows, tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_a_bad_sweep_point_is_refused_before_any_comparison(self, small_config,
                                                                monkeypatch):
        calls = []

        def spy(config, *args, **kwargs):
            calls.append(config.demand_probs)
            return experiments.ComparisonResult(config, [], {})

        monkeypatch.setattr(experiments, "run_comparison", spy)
        config = replace(small_config, sweep_p_grid=(0.0, 0.7))
        with pytest.raises(ValueError, match="p must lie"):
            experiments.run_sd_sweep(config)
        assert calls == []
