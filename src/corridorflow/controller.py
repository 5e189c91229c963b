"""Rolling-horizon closed loop coordinating boundary-flow and speed control.

Each project horizon runs two solves.  At its start the controller commits
the boundary control for the whole horizon (hedging over demand scenarios,
or using a fixed assumed level).  Once the horizon's demand has been
observed at the rolling-horizon mark, a re-solve over a shifted window
re-decides only the speed limit, which takes effect immediately; the
committed control merely caps the re-solve's internal control copy.  Traffic
itself always evolves through the analytic engine with the realized demand,
and queues and densities carry forward between horizons.  A decision follows
from its model and the stage's warm start alone: the search takes no options
and reads no clock (a solve's wall time is only logged).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import solver, twostage
from .network import Corridor
from .sim import CorridorSimulator
from .twostage import (
    DemandDistribution,
    HorizonState,
    ModelOptions,
    ObjectiveWeights,
)

TWO_STAGE = "two-stage"
D_MIN = "d-min"
D_MEAN = "d-mean"
D_MAX = "d-max"
CONTROLLER_KINDS = (TWO_STAGE, D_MIN, D_MEAN, D_MAX)


@dataclass(frozen=True)
class HorizonConfig:
    n_project: int  # steps per project horizon
    n_rolling: int  # steps until the speed limit is updated
    T: float

    def __post_init__(self):
        if not (0 < self.n_rolling <= self.n_project and 0 < self.T < np.inf):
            raise ValueError(f"need 0 < n_rolling <= n_project and a positive T: {self}")


def observed_demand_vector(
    observed: float,
    dist: DemandDistribution,
    cfg: HorizonConfig,
    tail_level: float,
) -> np.ndarray:
    """Demand column used by the mid-horizon re-solve: the remaining
    n_project - n_rolling steps carry the observed level, the lookahead tail
    carries ``tail_level``.  The model folds each entry's backlog in itself.
    ``dist``, the distribution ``observed`` was drawn from, is not read."""
    vec = np.full(cfg.n_project, float(tail_level))
    vec[: cfg.n_project - cfg.n_rolling] = observed
    return vec


@dataclass
class HorizonLog:
    horizon: int
    stage: str  # "plan" or "update"
    objective: float
    bound: float  # the search's proven bound, on the objective's scale
    status: str
    nodes: int
    solve_time: float
    speed: dict  # vsl link id -> speed an update selects; None in a plan


@dataclass
class Trajectory:
    """Realized per-step history of one closed-loop run."""

    cfg: HorizonConfig
    controller: str
    demand_levels: np.ndarray  # per project horizon
    steps: list = field(default_factory=list)  # simulator step records
    solves: list = field(default_factory=list)
    conservation_error: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def series(self, kind: str, link_id: str) -> np.ndarray:
        return np.array([rec[kind].get(link_id, 0.0) for rec in self.steps])

    def horizon_slice(self, h: int) -> slice:
        n = self.cfg.n_project
        return slice(h * n, (h + 1) * n)

    def to_csv(self, path) -> None:
        """One row per step; the columns come from the first record.  A
        record whose speed or density links differ from the first record's
        raises ``ValueError`` naming its step.  The header goes through
        ``csv.writer``; the data cells are numbers or empty, which it would
        write unquoted, so the rows are joined as text and written at once."""
        first = self.steps[0] if self.steps else {}
        link_ids = sorted(first.get("qin", ()))
        entry_ids = sorted(first.get("queues", ()))
        speed_ids = sorted(first.get("speeds", ()))
        dens_ids = sorted(first.get("densities", ()))
        header = ["step", "t", "horizon", "demand_level"]
        for lid in link_ids:
            header += [f"qin_{lid}", f"qout_{lid}"]
        for eid in entry_ids:
            header += [f"queue_{eid}", f"control_{eid}"]
        header += [f"speed_{lid}" for lid in speed_ids]
        for lid in dens_ids:
            header += [f"rho_{lid}_{i + 1}" for i in range(len(first["densities"][lid]))]
        rows = []
        n1 = self.cfg.n_project
        for rec in self.steps:
            speeds, densities = rec["speeds"], rec["densities"]
            if sorted(speeds) != speed_ids or sorted(densities) != dens_ids:
                raise ValueError(f"step {rec['step']}: speed links {sorted(speeds)} and "
                                 f"density links {sorted(densities)} differ from the "
                                 f"first record's {speed_ids} and {dens_ids}")
            h = rec["step"] // n1
            qin, qout = rec["qin"], rec["qout"]
            queues, controls = rec["queues"], rec["controls"]
            row = [str(rec["step"]), rec["t"], str(h), float(self.demand_levels[h])]
            for lid in link_ids:
                row += (qin.get(lid, 0.0), qout.get(lid, 0.0))
            for eid in entry_ids:
                row += (queues[eid], controls.get(eid, ""))
            row += [speeds[lid] for lid in speed_ids]
            for lid in dens_ids:
                row += densities[lid].tolist()
            rows.append(row)
        # each distinct float is formatted once; zeros each time, because 0.0
        # and -0.0 are one dict key
        floats = dict.fromkeys([v for row in rows for v in row if v.__class__ is float and v])
        text = dict(zip(floats, map(float.__repr__, floats)))
        body = "".join([",".join([text[v] if v.__class__ is float and v else str(v)
                                  for v in row]) + "\n" for row in rows])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.write(body)


class ClosedLoopError(RuntimeError):
    pass


def assumed_level(kind: str, dist: DemandDistribution) -> float:
    """The demand level a deterministic baseline controller plans for."""
    if kind == D_MIN:
        return dist.min_level()
    if kind == D_MEAN:
        return dist.mean()
    if kind == D_MAX:
        return dist.max_level()
    raise ValueError(f"unknown controller kind {kind}")


def plan_model(corridor: Corridor, state: HorizonState, kind: str,
               dist: DemandDistribution, weights: ObjectiveWeights) -> twostage.ModelBundle:
    """The here-and-now model of controller ``kind`` at ``state``: the
    two-stage extensive form over ``dist``, or a baseline at
    ``assumed_level``."""
    if kind == TWO_STAGE:
        return twostage.build_deterministic_equivalent(corridor, state, dist, weights)
    return twostage.build_deterministic_baseline(
        corridor, state, assumed_level(kind, dist), weights
    )


def run_closed_loop(
    corridor: Corridor,
    demand_stream,
    controller_kind: str,
    dist: DemandDistribution,
    weights: ObjectiveWeights,
    cfg: HorizonConfig,
) -> Trajectory:
    """Simulate the whole demand stream under one controller.  A stream
    level outside ``dist.support`` raises ValueError: the two-stage plan
    holds no scenario for it."""
    if controller_kind not in CONTROLLER_KINDS:
        raise ValueError(f"unknown controller kind {controller_kind}")
    demand_stream = np.asarray(demand_stream, dtype=float)
    levels = set(np.round(dist.support, 12))
    for lvl in demand_stream:
        if round(float(lvl), 12) not in levels:
            raise ValueError(f"stream level {lvl} not in the demand support")

    n1, n2, T = cfg.n_project, cfg.n_rolling, cfg.T
    sim = CorridorSimulator(corridor, T)
    traj = Trajectory(cfg, controller_kind, demand_stream)
    ctrl_entries = [l.id for l in corridor.controlled_entries]
    vsl_ids = [l.id for l in corridor.vsl_links]
    # each stage's last incumbent's binaries in binary_ids() order: a stage's
    # models come from one template, so their columns are numbered alike
    warm: dict = {"plan": None, "update": None}

    def decide(h, stage, t0, build, *args):
        """Solve ``build(corridor, state, *args)`` on the simulator's state
        and log it; only an update reads speeds from its solution."""
        state = HorizonState({lid: sim.segment_densities(lid) for lid in sim.states},
                             dict(sim.queues), n1, T, t0)
        bundle = build(corridor, state, *args)
        start = time.monotonic()
        sol = solver.branch_and_bound(bundle.lp, warm_binaries=warm[stage])
        elapsed = time.monotonic() - start
        if not sol.ok:
            raise ClosedLoopError(f"horizon {h} {stage}: solver returned {sol.status}")
        warm[stage] = sol.x[bundle.lp.binary_ids()]
        speeds = {lid: bundle.selected_speed(sol, lid) if stage == "update" else None
                  for lid in vsl_ids}
        traj.solves.append(HorizonLog(h, stage, bundle.total_objective(sol),
                                      bundle.obj_const + sol.bound, sol.status, sol.nodes,
                                      elapsed, speeds))
        return bundle, sol

    tail = dist.mean() if controller_kind == TWO_STAGE else assumed_level(controller_kind, dist)
    for h, level in enumerate(demand_stream):
        level = float(level)
        t0 = h * n1 * T

        # plan at the horizon start, hedging over unknown demand; the whole
        # horizon's boundary control is committed here
        bundle, sol = decide(h, "plan", t0, plan_model, controller_kind, dist, weights)
        controls = {lid: bundle.published_control(sol, lid) for lid in ctrl_entries}
        arrivals = {
            l.id: (level if l.controlled else l.demand)
            for l in corridor.entry_links
        }
        for t in range(n2):
            sim.step({lid: controls[lid][t] for lid in ctrl_entries}, arrivals)

        # demand observed: only the speed limit is revised; the committed
        # boundary control caps the re-solve's control copy
        vec = observed_demand_vector(level, dist, cfg, tail_level=tail)
        opts_b = ModelOptions(
            fluct_pairs=[(t, t + 1) for t in range(1, n1) if t != n1 - n2],
            committed_controls={
                lid: controls[lid][n2:] for lid in ctrl_entries
            },
        )
        decide(h, "update", t0 + n2 * T, twostage.build_deterministic_baseline,
               vec, weights, opts_b)
        speeds = traj.solves[-1].speed

        # only links whose speed actually changes need a fresh period here
        changed = {
            lid: v for lid, v in speeds.items() if abs(v - sim.active_speed(lid)) > 1e-9
        }
        if changed:
            sim.end_period(new_speeds=changed, links=changed.keys())
        for t in range(n1 - n2):
            sim.step({lid: controls[lid][n2 + t] for lid in ctrl_entries}, arrivals)
        sim.end_period()

    traj.steps = sim.records
    traj.conservation_error = sim.conservation_error()
    return traj
