"""The benchmark's workloads: seeded inputs, one unit of work, and the
correctness gate each unit must pass.

Every workload runs in units.  A unit's inputs follow from the workload seed
and the unit's input index alone, so a unit repeats exactly.  A workload has
``n_inputs`` distinct inputs; a timed run cycles through them, so each input
runs several times.  The harness drives the
program only through its public API and hands it generated inputs: demand
streams from ``experiments.sample_demand_stream`` and metering and speed
schedules from ``experiments.counter_uniform``.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corridorflow import controller as ctl
from corridorflow import experiments, solver, twostage
from corridorflow.experiments import counter_uniform, sample_demand_stream
from corridorflow.sim import CorridorSimulator

CONSERVATION_TOL = 1e-6  # vehicles
OK_STATUSES = (solver.OPTIMAL, solver.GAP_LIMIT)


class Timeline:
    """Clock marks at the boundaries of a unit's program work.

    The segments between consecutive marks partition the unit's busy time.
    A latency sample is the stretch between two marks.  A unit does the same
    work on every run of its input, so its segments line up across runs.
    """

    def __init__(self, marks=None):
        self.marks = list(marks or [])
        self.spans = []  # (first mark, last mark) of each latency sample

    def mark(self) -> None:
        self.marks.append(time.perf_counter())

    def latency(self, first: int, last: int | None = None) -> None:
        self.spans.append((first, len(self.marks) - 1 if last is None else last))


@dataclass
class UnitResult:
    """What one unit did, how long the program was busy, and what failed."""

    ops: int = 0  # horizons, models or steps completed
    segments: list = field(default_factory=list)  # seconds; they sum to the busy time
    spans: list = field(default_factory=list)  # latency samples as slices of segments
    attempts: int = 0
    failures: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    digest: str = ""
    input: int = 0  # which of the workload's inputs the unit ran

    def take(self, timeline: Timeline) -> None:
        self.segments = [b - a for a, b in zip(timeline.marks, timeline.marks[1:])]
        self.spans = list(timeline.spans)

    @property
    def busy_s(self) -> float:
        return sum(self.segments)

    @property
    def latencies(self) -> list:
        return [sum(self.segments[a:b]) for a, b in self.spans]


def unit_seed(seed: int, unit: int) -> int:
    """Seed of the stream behind unit ``unit`` of a run seeded ``seed``."""
    return seed * 100_003 + unit


def _harness(tracer):
    return tracer.harness() if tracer is not None else nullcontext()


def describe(err: BaseException) -> str:
    """An exception with the place it was raised, for a failure report."""
    where = traceback.extract_tb(err.__traceback__)[-1]
    return f"{type(err).__name__}: {err} ({Path(where.filename).name}:{where.lineno})"


def _feed(h, values) -> None:
    h.update(np.ascontiguousarray(values, dtype=float).tobytes())


def trajectory_problems(records, rho_m: dict, conservation_error: float) -> list:
    """Gate shared by every closed-loop or replayed trajectory."""
    problems = []
    if not conservation_error <= CONSERVATION_TOL:
        problems.append(f"conservation error {conservation_error:.3e} veh")
    for rec in records:
        for lid, dens in rec["densities"].items():
            if not (np.min(dens) >= 0.0 and np.max(dens) <= rho_m[lid]):
                problems.append(f"step {rec['step']}: density of {lid} outside [0, rho_m]")
        for eid, q in rec["queues"].items():
            if not q >= 0.0:
                problems.append(f"step {rec['step']}: negative queue at {eid}")
    return problems


def records_digest(h, records) -> None:
    """Feed every number of a step history into a hash, in a fixed order."""
    for rec in records:
        for kind in ("qin", "qout", "queues", "controls", "speeds"):
            items = sorted(rec[kind].items())
            h.update(repr([k for k, _ in items]).encode())
            _feed(h, [v for _, v in items])
        for lid in sorted(rec["densities"]):
            _feed(h, rec["densities"][lid])


class _Workload:
    """Case-study configuration shared by the workloads, and the limits the
    gate checks against."""

    name = ""
    n_inputs = 1
    trace_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.config = experiments.case_study()
        self.corridor = self.config.corridor()
        self.cfg = self.config.horizon()
        self.dist = self.config.distribution()
        self.weights = self.config.weights()
        self.rho_m = {l.id: l.fd.rho_m for l in self.corridor.fd_links}
        self.caps = {l.id: twostage.entry_capacity(self.corridor, l.id)
                     for l in self.corridor.controlled_entries}
        self.vsl_ids = [l.id for l in self.corridor.vsl_links]

    def schedule(self, n_horizons: int, seed: int) -> "Schedule":
        return make_schedule(self.config, self.caps, self.vsl_ids, n_horizons, seed)

    def run_unit(self, unit: int, tracer=None) -> UnitResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# case_study: the four controllers in closed loop on one seeded stream.
# ---------------------------------------------------------------------------


class ClosedLoopStamps:
    """Stamps every ``CorridorSimulator.step`` and ``run_closed_loop`` entry.

    Only these two names are patched, so decision latency survives any
    rewrite of the solver or the model assembly.
    """

    def __init__(self):
        self.loops: list = []  # [entry time, [(step start, step end)], trajectory]

    def __enter__(self):
        step, run = CorridorSimulator.step, ctl.run_closed_loop
        loops, clock = self.loops, time.perf_counter

        def stamped_step(sim, *args, **kwargs):
            t0 = clock()
            out = step(sim, *args, **kwargs)
            loops[-1][1].append((t0, clock()))
            return out

        def stamped_run(*args, **kwargs):
            loops.append([clock(), [], None])
            loops[-1][2] = run(*args, **kwargs)
            return loops[-1][2]

        self._saved = (step, run)
        CorridorSimulator.step = stamped_step
        ctl.run_closed_loop = stamped_run
        return self

    def __exit__(self, *exc):
        CorridorSimulator.step, ctl.run_closed_loop = self._saved
        return False


def closed_loop_timeline(start: float, loops: list, end: float, cfg) -> Timeline:
    """The stamps of closed-loop runs, each an (entry, steps) pair, as a
    timeline whose latency samples are the wall gaps during which traffic
    waits for a decision.

    The first plan runs from the closed-loop entry to the first step; every
    later decision is the gap between the step that ends a stage (after
    ``n_rolling`` steps, then at the horizon end) and the next step.
    """
    n1, n2 = cfg.n_project, cfg.n_rolling
    tl = Timeline([start])
    for entry, steps in loops:
        tl.marks.append(entry)
        for k, (t0, t1) in enumerate(steps):
            if k % n1 in (0, n2):
                tl.latency(len(tl.marks) - 1, len(tl.marks))
            tl.marks += [t0, t1]
    tl.marks.append(end)
    return tl


class CaseStudy(_Workload):
    """``run_comparison`` of all four controllers on one seeded stream; the
    inputs are ``n_streams`` streams."""

    name = "case_study"

    def __init__(self, seed, workdir, n_horizons=3, controllers=ctl.CONTROLLER_KINDS,
                 n_streams=4, trace_units=4):
        super().__init__(seed, workdir)
        self.n_horizons = n_horizons
        self.controllers = tuple(controllers)
        self.n_inputs = n_streams
        self.trace_units = trace_units

    def run_unit(self, unit, tracer=None):
        res = UnitResult(attempts=len(self.controllers))
        with ClosedLoopStamps() as stamps:
            start = time.perf_counter()
            comp = experiments.run_comparison(
                self.config, seeds=[unit_seed(self.seed, unit)],
                n_horizons=self.n_horizons, jobs=1, controllers=self.controllers,
            )
            end = time.perf_counter()
        with _harness(tracer):
            h = hashlib.sha256()
            for (_, kind), err in comp.failures.items():
                res.failures.append(f"{kind}: {err}")
            for entry, steps, traj in stamps.loops:
                if traj is None:
                    continue
                problems = trajectory_problems(traj.steps, self.rho_m,
                                               traj.conservation_error)
                problems += [f"horizon {log.horizon} {log.stage}: status {log.status}"
                             for log in traj.solves if log.status not in OK_STATUSES]
                if problems:
                    res.failures.append(f"{traj.controller}: " + "; ".join(problems[:3]))
                    continue
                res.ops += len(traj.demand_levels)
                h.update(traj.controller.encode())
                h.update(repr([(s.status, s.nodes) for s in traj.solves]).encode())
                records_digest(h, traj.steps)
            res.take(closed_loop_timeline(start, [l[:2] for l in stamps.loops], end,
                                          self.cfg))
            res.counters["controller.decisions"] = len(res.latencies)
            res.digest = h.hexdigest()
        return res


# ---------------------------------------------------------------------------
# sim_replay: the closed loop's stage pattern with seeded controls, no solve.
# ---------------------------------------------------------------------------


@dataclass
class Schedule:
    """Seeded inputs of one replay: demand level per horizon, metering per
    step and speed per horizon."""

    levels: np.ndarray
    controls: list  # per horizon: entry id -> n_project values
    speeds: list  # per horizon: vsl link id -> speed


def make_schedule(config, caps: dict, vsl_ids: list, n_horizons: int, seed: int) -> Schedule:
    """Metering uniform in [cap/4, cap] per step, speed uniform over the
    candidates per horizon, both from the counter-based generator."""
    n1 = config.n_project
    levels = sample_demand_stream(config.distribution(), n_horizons, seed)
    speeds_c = tuple(config.speed_candidates)
    controls, speeds, draw = [], [], n_horizons
    for _ in range(n_horizons):
        ctrl = {}
        for lid, c in caps.items():
            ctrl[lid] = [c * (0.25 + 0.75 * counter_uniform(seed, draw + t)) for t in range(n1)]
            draw += n1
        controls.append(ctrl)
        sp = {}
        for lid in vsl_ids:
            sp[lid] = speeds_c[int(counter_uniform(seed, draw) * len(speeds_c))]
            draw += 1
        speeds.append(sp)
    return Schedule(levels, controls, speeds)


def replay(config, corridor, schedule: Schedule, timeline: Timeline | None = None):
    """Drive the simulator through the closed loop's stage pattern.

    Per horizon: read the plan state, ``n_rolling`` steps, read the update
    state, switch the speed on the links whose speed changes, the remaining
    steps, then chain every link into a fresh period.  Each of these marks
    ``timeline``, and each step is a latency sample.  Returns the simulator
    and, per horizon, (plan state, update state, controls, level).
    """
    n1, n2, T = config.n_project, config.n_rolling, config.T
    tl = timeline if timeline is not None else Timeline()
    sim = CorridorSimulator(corridor, T)
    entries = corridor.entry_links
    horizons = []

    def state(t0):
        out = twostage.HorizonState(
            {lid: sim.segment_densities(lid) for lid in sim.states},
            dict(sim.queues), n1, T, t0)
        tl.mark()
        return out

    def advance(controls, arrivals, steps):
        for t in steps:
            first = len(tl.marks) - 1
            sim.step({lid: v[t] for lid, v in controls.items()}, arrivals)
            tl.mark()
            tl.latency(first)

    for h, level in enumerate(schedule.levels):
        level = float(level)
        plan = state(h * n1 * T)
        controls = schedule.controls[h]
        arrivals = {l.id: (level if l.controlled else l.demand) for l in entries}
        advance(controls, arrivals, range(n2))
        update = state((h * n1 + n2) * T)
        changed = {lid: v for lid, v in schedule.speeds[h].items()
                   if abs(v - sim.active_speed(lid)) > 1e-9}
        if changed:
            sim.end_period(new_speeds=changed, links=changed.keys())
            tl.mark()
        advance(controls, arrivals, range(n2, n1))
        sim.end_period()
        tl.mark()
        horizons.append((plan, update, controls, level))
    return sim, horizons


class SimReplay(_Workload):
    """Seeded replay of the stage pattern, then metrics and the CSV."""

    name = "sim_replay"

    def __init__(self, seed, workdir, n_horizons=10, n_replays=4, trace_units=32):
        super().__init__(seed, workdir)
        self.n_horizons = n_horizons
        self.n_inputs = n_replays
        self.trace_units = trace_units

    def run_unit(self, unit, tracer=None):
        res = UnitResult(attempts=1)
        with _harness(tracer):
            schedule = self.schedule(self.n_horizons, unit_seed(self.seed, unit))
            path = self.workdir / f"replay-{unit}.csv"
            tl = Timeline()
            tl.mark()
            try:
                sim, _ = replay(self.config, self.corridor, schedule, tl)
                traj = ctl.Trajectory(self.cfg, "replay", schedule.levels)
                traj.steps = sim.records
                traj.conservation_error = sim.conservation_error()
                metrics = experiments.compute_metrics(traj, self.weights, self.cfg,
                                                      self.corridor)
                tl.mark()
                traj.to_csv(path)
                tl.mark()
            except Exception as err:  # a failed replay is reported, the run goes on
                res.failures.append(describe(err))
                return res
            res.take(tl)
            data = path.read_bytes()
            path.unlink()
            problems = trajectory_problems(traj.steps, self.rho_m, traj.conservation_error)
            if data.count(b"\n") != traj.n_steps + 1:
                problems.append("CSV row count differs from the step count")
            if not all(math.isfinite(v) for v in
                       (metrics.block_penalty, metrics.fluctuation, metrics.throughput)):
                problems.append("non-finite metrics")
            if problems:
                res.failures.append("; ".join(problems[:3]))
            else:
                res.ops = traj.n_steps
            res.counters["experiments.csv_bytes"] = len(data)
            h = hashlib.sha256(data)
            records_digest(h, traj.steps)
            res.digest = h.hexdigest()
        return res


# ---------------------------------------------------------------------------
# milp_export: build and write models, no solve.
# ---------------------------------------------------------------------------


def lp_file_counts(text: str) -> tuple[int, int]:
    """(variables, rows) of an LP file as ``solver.export_model`` writes it."""
    section, rows, bounds = None, 0, 0
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line
        elif section == "Subject To":
            rows += 1
        elif section == "Bounds":
            bounds += 1
    return bounds, rows


def mps_file_counts(text: str) -> tuple[int, int]:
    """(variables, rows) of an MPS file as ``solver.export_model`` writes it."""
    section, rows, cols = None, 0, set()
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line
        elif section == "ROWS" and not line.startswith(" N "):
            rows += 1
        elif section == "COLUMNS" and "'MARKER'" not in line:
            cols.add(line.split(None, 1)[0])
    return len(cols), rows


class MilpExport(_Workload):
    """Two-stage plan model and update-stage baseline per seeded state,
    each written as LP and MPS.

    The states are those at every other horizon, from the second on, of
    seeded 10-horizon replays made during set-up; short replays keep queues
    in the range the closed loop reaches.  A model's cost varies little with
    its state, so a few states, each built many times in a run, suffice.
    """

    name = "milp_export"
    REPLAY_HORIZONS = 10

    def __init__(self, seed, workdir, n_states=4, trace_units=24):
        super().__init__(seed, workdir)
        self.n_inputs = n_states
        self.trace_units = trace_units
        horizons = []
        for k in range(-(-2 * n_states // self.REPLAY_HORIZONS)):
            schedule = self.schedule(self.REPLAY_HORIZONS, unit_seed(seed, k))
            horizons += replay(self.config, self.corridor, schedule)[1][1::2]
        horizons = horizons[:n_states]
        n1, n2 = self.cfg.n_project, self.cfg.n_rolling
        self.models = []  # per state: (plan state, update state, demand vector, options)
        for plan, update, controls, level in horizons:
            vec = ctl.observed_demand_vector(level, self.dist, self.cfg,
                                             tail_level=self.dist.mean())
            opts = twostage.ModelOptions(
                fluct_pairs=[(t, t + 1) for t in range(1, n1) if t != n1 - n2],
                committed_controls={lid: np.asarray(v[n2:]) for lid, v in controls.items()},
            )
            self.models.append((plan, update, vec, opts))

    def _builds(self, unit):
        plan, update, vec, opts = self.models[unit % len(self.models)]
        return (
            ("plan", lambda: twostage.build_deterministic_equivalent(
                self.corridor, plan, self.dist, self.weights)),
            ("update", lambda: twostage.build_deterministic_baseline(
                self.corridor, update, vec, self.weights, opts)),
        )

    def run_unit(self, unit, tracer=None):
        res = UnitResult()
        tl = Timeline()
        tl.mark()
        written = []
        for label, build in self._builds(unit):
            res.attempts += 1
            paths = {fmt: self.workdir / f"{label}-{unit}.{fmt}" for fmt in ("lp", "mps")}
            try:
                bundle = build()
                tl.mark()
                for fmt, path in paths.items():
                    solver.export_model(bundle.lp, path, fmt=fmt)
                    tl.mark()
            except Exception as err:  # a failed export is reported, the run goes on
                res.failures.append(f"{label}: {describe(err)}")
                tl.mark()
                continue
            written.append((label, bundle, paths))
        tl.latency(0)
        res.take(tl)
        with _harness(tracer):
            h = hashlib.sha256()
            for label, bundle, paths in written:
                texts = {fmt: path.read_text(encoding="utf-8") for fmt, path in paths.items()}
                for path in paths.values():
                    path.unlink()
                want = (bundle.lp.n_vars, bundle.lp.n_constraints)
                got = {"lp": lp_file_counts(texts["lp"]), "mps": mps_file_counts(texts["mps"])}
                bad = [f"{label} {fmt}: (vars, rows) {c} != model {want}"
                       for fmt, c in got.items() if c != want]
                if bad:
                    res.failures.append("; ".join(bad))
                    continue
                res.ops += 1
                for fmt in ("lp", "mps"):
                    data = texts[fmt].encode("utf-8")
                    res.counters["solver.export_bytes"] += len(data)
                    h.update(data)
            res.digest = h.hexdigest()
        return res


WORKLOADS = {cls.name: cls for cls in (CaseStudy, MilpExport, SimReplay)}
