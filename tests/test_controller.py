import numpy as np
import pytest

from corridorflow import controller as ctl
from corridorflow import solver
from corridorflow.sim import CorridorSimulator
from corridorflow.twostage import DemandDistribution, apply_queue_update

from conftest import point_distribution


@pytest.fixture(scope="module")
def corridor(config):
    return config.corridor()


@pytest.fixture(scope="module")
def cfg(config):
    return config.horizon()


class TestDemandMatrix:
    def test_queue_update_noop(self):
        col = np.full(8, 1.0)
        out, residual = apply_queue_update(col, 0.0, 2.1)
        np.testing.assert_allclose(out, col)
        assert residual == 0.0

    def test_queue_update_single_row_absorbs(self):
        col = np.full(8, 1.0)
        out, residual = apply_queue_update(col, 0.7, 2.1)
        assert out[0] == pytest.approx(1.7)
        np.testing.assert_allclose(out[1:], 1.0)
        assert residual == pytest.approx(0.0)

    def test_queue_update_spreads_over_rows(self):
        col = np.full(8, 2.0)
        out, residual = apply_queue_update(col, 0.7, 2.1)
        np.testing.assert_allclose(out[:7], 2.1)
        assert out[7] == pytest.approx(2.0)
        assert residual == pytest.approx(0.0)

    def test_queue_update_exhaustion_property(self):
        # residual stays only when every row is pinned at capacity
        rng = np.random.default_rng(4)
        for _ in range(20):
            col = rng.uniform(0.0, 2.1, 8)
            e = rng.uniform(0.0, 12.0)
            out, residual = apply_queue_update(col, e, 2.1)
            if residual > 1e-12:
                np.testing.assert_allclose(out, 2.1)
            assert np.all(out <= 2.1 + 1e-12)
            assert np.sum(out) - np.sum(col) == pytest.approx(e - residual, abs=1e-9)

    def test_observed_vector_case_study(self, config, cfg):
        dist = config.distribution()
        vec = ctl.observed_demand_vector(2.0, dist, cfg, tail_level=dist.mean())
        np.testing.assert_allclose(vec, [2, 2, 2, 2, 1.5, 1.5, 1.5, 1.5])

    def test_observed_vector_degenerate(self, cfg):
        dist = point_distribution(1.5)
        vec = ctl.observed_demand_vector(1.5, dist, cfg, tail_level=dist.mean())
        np.testing.assert_allclose(vec, 1.5)

    def test_observed_vector_tail_override(self, config, cfg):
        dist = config.distribution()
        vec = ctl.observed_demand_vector(1.0, dist, cfg, tail_level=2.0)
        np.testing.assert_allclose(vec[:4], 1.0)
        np.testing.assert_allclose(vec[4:], 2.0)


class TestSimulator:
    def test_zero_demand_stays_zero(self, corridor, cfg):
        sim = CorridorSimulator(corridor, cfg.T)
        for _ in range(8):
            rec = sim.step({"E": 2.1}, {"E": 0.0, "R": 0.0})
        assert all(abs(v) < 1e-12 for v in rec["qin"].values())
        assert sim.conservation_error() < 1e-9

    def test_bottleneck_saturates_after_travel_time(self, corridor, cfg):
        sim = CorridorSimulator(corridor, cfg.T)
        flows = []
        for step in range(12):
            rec = sim.step({"E": 2.1}, {"E": 2.0, "R": 0.05})
            flows.append(rec["qout"]["M4"])
            if (step + 1) % cfg.n_rolling == 0:
                sim.end_period()
        # corridor free-flow travel is 8 steps; afterwards the exit runs at
        # the dropped capacity
        assert max(flows[:8]) <= 0.05 + 1e-9 + 2.1  # ramp vehicles only
        assert flows[8] == pytest.approx(1.4, abs=1e-6)
        assert sim.conservation_error() < 1e-9

    def test_conservation_random_controls(self, corridor, cfg):
        rng = np.random.default_rng(8)
        sim = CorridorSimulator(corridor, cfg.T)
        for step in range(24):
            sim.step(
                {"E": rng.uniform(0.0, 2.1)},
                {"E": rng.choice([1.0, 1.5, 2.0]), "R": 0.05},
            )
            if (step + 1) % 4 == 0:
                speeds = {"M3": rng.choice([20.0, 25.0, 30.0])}
                sim.end_period(new_speeds=speeds, links=["M3"])
        total = sum(sim.total_admitted.values())
        assert sim.conservation_error() <= 1e-9 * max(total, 1.0)
        for rec in sim.records:
            assert all(q >= -1e-12 for q in rec["queues"].values())
            for lid, dens in rec["densities"].items():
                rho_m = corridor.link(lid).fd.rho_m
                assert np.all(dens >= -1e-9) and np.all(dens <= rho_m + 1e-9)

    @staticmethod
    def _stepped(corridor, cfg):
        sim = CorridorSimulator(corridor, cfg.T)
        sim.step({"E": 1.0}, {"E": 1.5, "R": 0.05})
        return sim

    def test_end_period_refuses_a_speed_for_a_link_it_does_not_chain(self, corridor, cfg):
        sim = self._stepped(corridor, cfg)
        with pytest.raises(ValueError, match="'M3'"):
            sim.end_period(new_speeds={"M3": 20.0}, links=["M2"])
        assert sim.active_speed("M3") == 30.0

    def test_end_period_refuses_a_speed_for_a_link_without_speed_control(self, corridor, cfg):
        sim = self._stepped(corridor, cfg)
        with pytest.raises(ValueError, match="'M2'"):
            sim.end_period(new_speeds={"M2": 20.0})
        assert len(sim.states["M2"].inflow) == 1

    def test_end_period_refuses_an_unknown_link(self, corridor, cfg):
        sim = self._stepped(corridor, cfg)
        with pytest.raises(ValueError, match="'M9'"):
            sim.end_period(links=["M3", "M9"])
        assert len(sim.states["M3"].inflow) == 1

    def test_refuses_initial_densities_of_a_link_without_a_flux_law(self, corridor, cfg):
        with pytest.raises(ValueError, match="'E'"):
            CorridorSimulator(corridor, cfg.T, {"E": [0.1, 0.1]})
        with pytest.raises(ValueError, match="'M9'"):
            CorridorSimulator(corridor, cfg.T, {"M9": [0.1, 0.1]})

    @pytest.mark.parametrize("dens", [[0.1], [0.1, 0.1, 0.1], [[0.1, 0.1]]])
    def test_refuses_initial_densities_of_the_wrong_length(self, corridor, cfg, dens):
        with pytest.raises(ValueError, match="'M1'"):
            CorridorSimulator(corridor, cfg.T, {"M1": dens})

    def test_refuses_an_initial_queue_of_a_link_that_is_no_entry(self, corridor, cfg):
        with pytest.raises(ValueError, match="'M2'"):
            CorridorSimulator(corridor, cfg.T, initial_queues={"E": 1.0, "M2": 5.0})

    def test_refuses_an_initial_speed_of_a_link_without_speed_control(self, corridor, cfg):
        with pytest.raises(ValueError, match="'M2'"):
            CorridorSimulator(corridor, cfg.T, initial_speeds={"M2": 20.0})


class TestClosedLoop:
    def test_zero_demand_stream(self, config, cfg):
        corridor = config.corridor()
        dist = DemandDistribution((0.0,), (1.0,))
        traj = ctl.run_closed_loop(corridor, [0.0, 0.0], ctl.TWO_STAGE, dist,
                                   config.weights(), cfg)
        assert traj.n_steps == 16
        np.testing.assert_allclose(traj.series("qin", "E"), 0.0, atol=1e-9)
        speeds = traj.series("speeds", "M3")
        np.testing.assert_allclose(speeds, 30.0)
        assert traj.conservation_error <= 1e-9

    def test_degenerate_stream_matches_baseline(self, config, cfg):
        corridor = config.corridor()
        dist = point_distribution(1.5)
        stream = [1.5] * 3
        traj_two = ctl.run_closed_loop(corridor, stream, ctl.TWO_STAGE, dist,
                                       config.weights(), cfg)
        traj_mean = ctl.run_closed_loop(corridor, stream, ctl.D_MEAN, dist,
                                        config.weights(), cfg)
        for key in ("qin", "qout"):
            for lid in ("E", "M1", "M4"):
                np.testing.assert_allclose(
                    traj_two.series(key, lid), traj_mean.series(key, lid), atol=1e-6
                )

    def test_stream_levels_must_be_supported(self, config, cfg):
        corridor = config.corridor()
        with pytest.raises(ValueError):
            ctl.run_closed_loop(corridor, [1.7], ctl.TWO_STAGE,
                                config.distribution(), config.weights(), cfg)

    def test_a_level_of_zero_probability_is_not_supported(self, config, cfg):
        # the two-stage plan holds no scenario for it
        dist = DemandDistribution((1.0, 1.5, 2.0), (0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="stream level 2.0 not in the demand support"):
            ctl.run_closed_loop(config.corridor(), [2.0], ctl.TWO_STAGE, dist,
                                config.weights(), cfg)

    def test_speed_membership_and_causality(self, config, cfg):
        # the whole horizon's boundary control is committed at its start:
        # streams that first differ at horizon h give it the same controls
        corridor = config.corridor()
        dist = config.distribution()
        for kind in ctl.CONTROLLER_KINDS:
            for h in (1, 2):
                trajs = [ctl.run_closed_loop(corridor, [1.5] * h + [last], kind, dist,
                                             config.weights(), cfg)
                         for last in (1.0, 2.0)]
                a, b = ([rec["controls"] for rec in traj.steps[traj.horizon_slice(h)]]
                        for traj in trajs)
                assert a == b, (kind, h)
                for traj in trajs:
                    assert set(traj.series("speeds", "M3")) <= set(config.speed_candidates)

    def test_each_stage_warm_starts_from_its_last_incumbent(self, config, cfg, monkeypatch):
        search = solver.branch_and_bound
        calls = []  # (warm start, incumbent's binaries) per solve

        def spy(lp, warm_binaries=None):
            sol = search(lp, warm_binaries=warm_binaries)
            calls.append((warm_binaries, sol.x[lp.binary_ids()]))
            return sol

        monkeypatch.setattr(solver, "branch_and_bound", spy)
        stream = [1.0, 2.0, 1.5]
        for kind in (ctl.TWO_STAGE, ctl.D_MAX):
            calls.clear()
            ctl.run_closed_loop(config.corridor(), stream, kind, config.distribution(),
                                config.weights(), cfg)
            assert len(calls) == 2 * len(stream)
            for stage in calls[0::2], calls[1::2]:
                assert stage[0][0] is None
                for (warm, _), (_, previous) in zip(stage[1:], stage):
                    assert warm.size and np.array_equal(warm, previous)

    def test_stage_logs_alternate_and_updates_log_the_applied_speed(self, config, cfg):
        stream = [1.0, 2.0, 1.5]
        traj = ctl.run_closed_loop(config.corridor(), stream, ctl.D_MEAN,
                                   config.distribution(), config.weights(), cfg)
        assert [(log.horizon, log.stage) for log in traj.solves] == [
            (h, stage) for h in range(len(stream)) for stage in ("plan", "update")
        ]
        n1, n2 = cfg.n_project, cfg.n_rolling
        for log in traj.solves:
            if log.stage == "plan":
                assert log.speed == {"M3": None}
                continue
            applied = traj.steps[log.horizon * n1 + n2:(log.horizon + 1) * n1]
            assert [rec["speeds"] for rec in applied] == [log.speed] * (n1 - n2)

    def test_csv_round_trip(self, config, cfg, tmp_path):
        corridor = config.corridor()
        dist = config.distribution()
        traj = ctl.run_closed_loop(corridor, [1.5], ctl.D_MEAN, dist,
                                   config.weights(), cfg)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + traj.n_steps
        assert "qin_M1" in lines[0] and "speed_M3" in lines[0]

    @pytest.mark.parametrize("kind", ["speeds", "densities"])
    def test_csv_refuses_a_record_with_other_links(self, config, cfg, tmp_path, kind):
        corridor = config.corridor()
        sim = CorridorSimulator(corridor, cfg.T)
        for _ in range(3):
            sim.step({"E": 1.0}, {"E": 1.5, "R": 0.05})
        traj = ctl.Trajectory(cfg, "stub", np.array([1.5]), sim.records)
        moved = sim.records[2][kind]
        moved["M9"] = moved.pop("M3")
        with pytest.raises(ValueError, match="step 2"):
            traj.to_csv(tmp_path / "traj.csv")

    def test_csv_quotes_the_header_and_formats_each_cell_as_before(self, cfg, tmp_path):
        # a link id that needs quoting, 0.0 and -0.0 in one file, an int speed
        # equal to a float time, NaN, an absent control and numpy scalars
        def record(step, t, q, speed, control):
            return {"step": step, "t": t, "qin": {"A,1": q, "B": -0.0},
                    "qout": {"A,1": 20.0, "B": 0.1}, "queues": {"E": 0.0},
                    "controls": control, "speeds": {"B": speed},
                    "densities": {"A,1": np.array([-0.0, 0.1]), "B": np.array([np.nan, 20.0])}}

        steps = [record(0, 0.0, 0.0, 20, {}), record(1, 20.0, np.float64(0.1), 20.0, {"E": 0.5})]
        path = tmp_path / "traj.csv"
        ctl.Trajectory(cfg, "stub", np.array([1.5]), steps).to_csv(path)
        assert path.read_text() == (
            'step,t,horizon,demand_level,"qin_A,1","qout_A,1",qin_B,qout_B,queue_E,control_E,'
            'speed_B,"rho_A,1_1","rho_A,1_2",rho_B_1,rho_B_2\n'
            "0,0.0,0,1.5,0.0,20.0,-0.0,0.1,0.0,,20,-0.0,0.1,nan,20.0\n"
            "1,20.0,0,1.5,0.1,20.0,-0.0,0.1,0.0,0.5,20.0,-0.0,0.1,nan,20.0\n")
