"""Golden trajectory: every number the simulator records over one seeded
replay is pinned by sha256.

The replay starts from a mixed free-flow/congested state, meters the entry
at random, switches the VSL link's speed mid-period with
``end_period(links=...)`` and chains every link at each horizon end, so the
boundary counts, the segment means and the period chaining all feed the
digest.  The digest was recorded from the component-expression evaluation
that the numeric kernel replaced; an equal digest means the same flows,
queues and densities bit for bit.
"""

import hashlib

import numpy as np

from corridorflow import lwr
from corridorflow.controller import Trajectory
from corridorflow.experiments import compute_metrics
from corridorflow.sim import CorridorSimulator

GOLDEN = "319f3ff7b601ac648fcd726aa54fd7846b7f82aa7f9acb9bc0cdc5373baaa108"
#: ``long_period_replay``'s digest, recorded from the simulator that summed
#: completed flows with ``np.sum`` and computed every step on numpy scalars
LONG_GOLDEN = "e1e0792099cc9d87265c65d99aba6207bf27db87ec06f07dd2818ec996867fa1"
#: ``seeded_replay``'s ``Trajectory.to_csv`` bytes and ``compute_metrics``
#: fields, recorded from the per-record metrics loop and the per-row CSV writer
CSV_GOLDEN = "64a466e26b53fd8cc676de791df6da25b3e597c7f3012f6e0113a3ae48f93b40"
METRICS_GOLDEN = "92b4a4785aec2a53b3f593affa0ac164278047cfe56e868664f14df0d3aff64d"


def records_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr((rec["step"], rec["t"])).encode())
        for kind in ("qin", "qout", "queues", "demands", "controls", "speeds"):
            items = sorted(rec[kind].items())
            h.update(repr([k for k, _ in items]).encode())
            h.update(np.asarray([v for _, v in items], dtype=float).tobytes())
        for lid in sorted(rec["densities"]):
            h.update(lid.encode())
            h.update(np.asarray(rec["densities"][lid], dtype=float).tobytes())
    return h.hexdigest()


def mixed_start(config) -> CorridorSimulator:
    """A simulator started from a mixed free-flow/congested state."""
    fd = config.fd()
    initial = {
        "M1": [0.05, fd.rho_c],
        "M2": [fd.rho_c + 0.02, 0.3],
        "M3": [fd.rho_m, 0.1],
        "M4": [0.2, fd.rho_c - 1e-3],
    }
    return CorridorSimulator(config.corridor(), config.T, initial, {"E": 3.0},
                             {"M3": 25.0})


def seeded_replay(config, n_horizons=3):
    rng = np.random.default_rng(2024)
    sim = mixed_start(config)
    n1, n2 = config.n_project, config.n_rolling
    for _ in range(n_horizons):
        level = float(rng.choice(config.demand_levels))
        for step in range(n1):
            if step == n2:
                speed = float(rng.choice(config.speed_candidates))
                sim.end_period(new_speeds={"M3": speed}, links=["M3"])
            sim.step({"E": rng.uniform(0.5, 2.1)}, {"E": level, "R": 0.05})
        sim.end_period()
    return sim


def test_replay_records_match_golden_digest(config):
    sim = seeded_replay(config)
    assert len(sim.records) == 3 * config.n_project
    assert sim.conservation_error() < 1e-9
    assert records_digest(sim.records) == GOLDEN


def long_period_replay(config, n_steps=20):
    """``n_steps`` steps in one period for M1, M2 and M4, while M3 switches
    speed every 4 steps.  From the ninth step on, the three long periods sum
    8 or more completed flows, where ``np.sum`` turns to pairwise summation."""
    rng = np.random.default_rng(2025)
    sim = mixed_start(config)
    for step in range(n_steps):
        if step and step % 4 == 0:
            speed = float(rng.choice(config.speed_candidates))
            sim.end_period(new_speeds={"M3": speed}, links=["M3"])
        level = float(rng.choice(config.demand_levels))
        sim.step({"E": rng.uniform(0.5, 2.1)}, {"E": level, "R": 0.05})
    return sim


def test_long_period_records_match_golden_digest(config):
    sim = long_period_replay(config)
    assert [len(sim.states[lid].inflow) for lid in ("M1", "M2", "M3", "M4")] == [20, 20, 4, 20]
    assert sim.conservation_error() < 1e-9
    assert records_digest(sim.records) == LONG_GOLDEN


def test_state_reads_and_records_share_no_array(config):
    sim = seeded_replay(config, n_horizons=1)
    sim.step({"E": 1.0}, {"E": 1.5, "R": 0.05})
    recorded = sim.records[-1]["densities"]
    before = {lid: d.copy() for lid, d in recorded.items()}
    for lid in sim.states:
        read = sim.segment_densities(lid)
        np.testing.assert_array_equal(read, recorded[lid])
        read[:] = -1.0
        np.testing.assert_array_equal(recorded[lid], before[lid])
        recorded[lid][:] = -2.0
        np.testing.assert_array_equal(sim.segment_densities(lid), before[lid])


def test_replay_builds_one_kernel_per_link_and_period(config, monkeypatch):
    built = []

    class CountingKernel(lwr.LaxHopfKernel):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(lwr, "LaxHopfKernel", CountingKernel)
    seeded_replay(config)
    # 4 links at the start, then per horizon 1 at the mid-period M3 switch
    # and 4 at the horizon end
    assert len(built) == 4 + 3 * (1 + 4)


def test_replay_reads_each_links_edges_in_one_pass_per_step(config, monkeypatch):
    passes = []
    counts = lwr.LaxHopfKernel._counts

    def counting(kernel, t, xs, *args):
        if len(xs) > 1:
            assert xs is kernel.edges and t == len(kernel.inflow) * config.T
            passes.append(t)
        return counts(kernel, t, xs, *args)

    monkeypatch.setattr(lwr.LaxHopfKernel, "_counts", counting)
    sim = seeded_replay(config)
    # the boundary reads are one point each; the step end reads every edge
    assert len(passes) == len(sim.records) * len(sim.states)


def test_step_check_times_are_built_once_per_link_and_flux_law(config):
    sim = mixed_start(config)
    T = config.T

    def assert_kept(n_steps):
        for lid, kernel in sim.states.items():
            sides = sim._rates[lid]
            for (_, _, _, kinks, lag, kept), side in zip(sides, kernel.boundaries()):
                assert (kinks, lag) == side[3:]
                want = {n: lwr.step_check_times(T, n, kinks, lag)
                        for n in range(1, n_steps + 1)}
                assert {n: kept[n] for n in want} == want

    for _ in range(config.n_project):
        sim.step({"E": 1.0}, {"E": 1.5, "R": 0.05})
    assert_kept(config.n_project)
    # the demand side's kinks and lag follow the speed
    before = sim._rates["M3"][0][5]
    sim.end_period(new_speeds={"M3": 15.0}, links=["M3"])
    new = sim._rates["M3"][0][5]
    assert new is not before and not new
    for _ in range(3):
        sim.step({"E": 1.0}, {"E": 1.5, "R": 0.05})
    assert_kept(3)
    assert [new[n] for n in (1, 2, 3)] != [before[n] for n in (1, 2, 3)]
    # back at the first speed, the link reads the times it built then
    sim.end_period(new_speeds={"M3": 25.0}, links=["M3"])
    assert sim._rates["M3"][0][5] is before
    sim.step({"E": 1.0}, {"E": 1.5, "R": 0.05})
    assert_kept(1)


def replay_trajectory(config) -> Trajectory:
    """``seeded_replay`` as a trajectory, its level per horizon read back
    from the entry demand of the horizon's first step."""
    sim = seeded_replay(config)
    n1 = config.n_project
    levels = np.array([rec["demands"]["E"] for rec in sim.records[::n1]])
    traj = Trajectory(config.horizon(), "golden", levels, sim.records)
    traj.conservation_error = sim.conservation_error()
    return traj


def metrics_digest(m) -> str:
    h = hashlib.sha256()
    # repr keeps each scalar's type, sign of zero and every bit
    h.update(repr((m.controller, m.seed, m.block_penalty, m.fluctuation, m.throughput,
                   m.conservation_error, m.density_excess, m.queue_min)).encode())
    h.update(repr((m.queue_series.dtype, m.queue_series.shape)).encode())
    h.update(m.queue_series.tobytes())
    for d in m.fluct_diffs:
        h.update(repr((d.dtype, d.shape)).encode())
        h.update(d.tobytes())
    return h.hexdigest()


def test_replay_csv_matches_golden_digest(config, tmp_path):
    path = tmp_path / "replay.csv"
    replay_trajectory(config).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_GOLDEN


def test_replay_metrics_match_golden_digest(config):
    traj = replay_trajectory(config)
    m = compute_metrics(traj, config.weights(), config.horizon(), config.corridor())
    assert len(m.fluct_diffs) == 3
    assert metrics_digest(m) == METRICS_GOLDEN
