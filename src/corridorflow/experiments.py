"""Experiment harness: scenario generation, metrics, controller comparison,
and the demand-variation sweep, plus config file handling.

Streams are drawn with a counter-based 64-bit generator so the same seed
produces the same stream on any platform.  All tables are emitted as CSV;
each run writes a manifest with the config hash for reproducibility.  The
config and the seeds fix every result: no solver setting is passed through,
and the worker count (``jobs``) changes only how runs are spread over
processes.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import traceback
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import controller as ctl
from . import solver
from .controller import CONTROLLER_KINDS, HorizonConfig, Trajectory
from .linkmodel import ENTRY, FD, LinkSpec
from .lwr import LinkGeometry, TriangularFD
from .network import MERGE, SERIAL, Corridor, Junction
from .twostage import DemandDistribution, ObjectiveWeights, apply_queue_update, entry_capacity

MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """One round of the splitmix64 mixer (documented, portable)."""
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def counter_uniform(seed: int, index: int) -> float:
    """Uniform(0,1) draw i of the stream keyed by seed."""
    z = _splitmix64(((seed & MASK64) << 1) ^ _splitmix64(index & MASK64))
    return (z >> 11) / float(1 << 53)


def sample_demand_stream(dist: DemandDistribution, n_horizons: int, seed: int) -> np.ndarray:
    """I.i.d. levels drawn from the demand distribution, one per horizon.
    The probabilities may sum to a little less than 1; a draw above their
    sum takes the last level of the support."""
    cum = np.cumsum(dist.probs)
    out = np.empty(n_horizons)
    for i in range(n_horizons):
        at = int(np.searchsorted(cum, counter_uniform(seed, i), side="right"))
        out[i] = dist.levels[at] if at < len(cum) else dist.support[-1]
    return out


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    # per-lane flux law, aggregated over lanes
    vf: float = 30.0
    w: float = -4.9
    rho_m_per_lane: float = 0.125
    lanes: int = 4
    # corridor layout
    n_main_links: int = 4
    link_length: float = 1200.0
    segments_per_link: int = 2
    vsl_link: int = 3  # 1-based mainline index
    merge_into: int = 3  # ramp joins upstream of this mainline link
    ramp_demand: float = 0.05
    speed_candidates: tuple = (10.0, 15.0, 20.0, 25.0, 30.0)
    # demand distribution at the controlled entry
    demand_levels: tuple = (1.0, 1.5, 2.0)
    demand_probs: tuple = (0.4, 0.2, 0.4)
    # objective weights
    w0: float = 1e-4
    w1: float = 0.01
    w2: float = 0.02
    w3: float = 0.003
    w4: float = 10.0
    # horizons
    n_project: int = 8
    n_rolling: int = 4
    T: float = 20.0
    # study setup
    n_horizons: int = 40
    n_seeds: int = 10
    capacity_drop: float = 1.4
    capacity_drop_start: float = 0.0
    # demand-variation sweep
    sweep_p_grid: tuple = (0.0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5)
    sweep_seeds: int = 3
    sweep_horizons: int = 12

    @property
    def rho_m(self) -> float:
        return self.rho_m_per_lane * self.lanes

    def fd(self) -> TriangularFD:
        return TriangularFD(self.vf, self.w, self.rho_m)

    def distribution(self) -> DemandDistribution:
        return DemandDistribution(tuple(self.demand_levels), tuple(self.demand_probs))

    def weights(self) -> ObjectiveWeights:
        return ObjectiveWeights(self.w0, self.w1, self.w2, self.w3, self.w4)

    def horizon(self) -> HorizonConfig:
        return HorizonConfig(self.n_project, self.n_rolling, self.T)

    def corridor(self) -> Corridor:
        """The configured layout.  Raises ``ValueError`` naming ``vsl_link``
        when it is not a mainline link or ``speed_candidates`` when it is
        empty, and ``network.TopologyError`` when the
        corridor refuses the layout, such as a ``merge_into`` that leaves the
        ramp feeding no junction."""
        if not 1 <= self.vsl_link <= self.n_main_links:
            raise ValueError(f"vsl_link {self.vsl_link} is not a mainline link "
                             f"(1..{self.n_main_links})")
        if not self.speed_candidates:
            raise ValueError("speed_candidates is empty: the speed-limit link needs a "
                             "candidate speed")
        fd = self.fd()
        links = [LinkSpec("E", ENTRY, controlled=True)]
        junctions = []
        vsl_fd = TriangularFD(max(self.speed_candidates), self.w, self.rho_m)
        for i in range(1, self.n_main_links + 1):
            geom = LinkGeometry((i - 1) * self.link_length, i * self.link_length,
                                self.segments_per_link)
            if i == self.vsl_link:
                links.append(LinkSpec(f"M{i}", FD, geom, vsl_fd, self.speed_candidates))
            else:
                links.append(LinkSpec(f"M{i}", FD, geom, fd))
        links.append(LinkSpec("R", ENTRY, controlled=False, demand=self.ramp_demand))
        junctions.append(Junction("jE", ("E",), ("M1",), SERIAL))
        for i in range(1, self.n_main_links):
            down = f"M{i + 1}"
            if i + 1 == self.merge_into:
                junctions.append(Junction(f"j{i}", (f"M{i}", "R"), (down,), MERGE))
            else:
                junctions.append(Junction(f"j{i}", (f"M{i}",), (down,), SERIAL))
        exit_caps = {f"M{self.n_main_links}": (self.capacity_drop, self.capacity_drop_start)}
        return Corridor(links, junctions, exit_caps)


def case_study() -> ExperimentConfig:
    """The reference four-link corridor with a 1.4 veh/s bottleneck."""
    return ExperimentConfig()


_SCHEMA = {
    "fd": ["vf", "w", "rho_m_per_lane", "lanes"],
    "corridor": ["n_main_links", "link_length", "segments_per_link", "vsl_link",
                 "merge_into", "ramp_demand"],
    "vsl": ["speed_candidates"],
    "demand": ["demand_levels", "demand_probs"],
    "weights": ["w0", "w1", "w2", "w3", "w4"],
    "horizon": ["n_project", "n_rolling", "T"],
    "experiment": ["n_horizons", "n_seeds", "capacity_drop", "capacity_drop_start"],
    "sweep": ["sweep_p_grid", "sweep_seeds", "sweep_horizons"],
}
# the annotations are strings under ``from __future__ import annotations``
_INT_FIELDS = {f.name for f in fields(ExperimentConfig) if f.type == "int"}
_TUPLE_FIELDS = {f.name for f in fields(ExperimentConfig) if f.type == "tuple"}


def _value_text(value) -> str:
    """An int as ``str``; a float as ``"{:g}"`` when that reads back exactly
    (so files that round-trip keep their text and hash), else ``repr``."""
    if isinstance(value, int):
        return str(value)
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def config_text(config: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    for section, names in _SCHEMA.items():
        parser[section] = {}
        for name in names:
            value = getattr(config, name)
            if name in _TUPLE_FIELDS:
                parser[section][name] = ", ".join(_value_text(v) for v in value)
            else:
                parser[section][name] = _value_text(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_text(config))


def load_config(path) -> ExperimentConfig:
    """Raises ValueError naming an unknown section or key, or a fractional count."""
    parser = configparser.ConfigParser(default_section="")
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    kwargs = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"{path}: [{section}] is not a known section")
        names = {name.lower(): name for name in _SCHEMA[section]}  # keys read lowercased
        for key, raw in parser[section].items():
            name = names.get(key)
            if name is None:
                raise ValueError(f"{path}: [{section}] {key} = {raw} is not a known key")
            if name in _TUPLE_FIELDS:
                kwargs[name] = tuple(float(tok) for tok in raw.replace(",", " ").split())
            elif name in _INT_FIELDS:
                if not float(raw).is_integer():
                    raise ValueError(f"{path}: [{section}] {name} = {raw} is not a whole number")
                kwargs[name] = int(float(raw))
            else:
                kwargs[name] = float(raw)
    return ExperimentConfig(**kwargs)


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(config_text(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


@dataclass
class MetricsRecord:
    controller: str
    seed: int
    block_penalty: float
    fluctuation: float
    throughput: float
    queue_series: np.ndarray
    fluct_diffs: list  # per horizon: within-horizon consecutive inflow changes
    conservation_error: float = 0.0
    density_excess: float = 0.0  # worst overshoot of [0, rho_m] over the run
    queue_min: float = 0.0

    @property
    def combined(self) -> float:
        return self.block_penalty + self.fluctuation


def compute_metrics(traj: Trajectory, weights: ObjectiveWeights,
                    cfg: HorizonConfig, corridor: Corridor) -> MetricsRecord:
    """Realized block penalty and within-horizon flow fluctuation, mirroring
    the model's objective terms, plus throughput and the queue history."""
    n1 = cfg.n_project
    ctrl = [l.id for l in corridor.controlled_entries]
    exits = [l.id for l in corridor.exit_links]
    n_horizons = traj.n_steps // n1

    block = 0.0
    fluct = 0.0
    diffs_per_horizon = []
    queues_per_entry = []
    for lid in ctrl:
        qin = traj.series("qin", lid)
        queues = traj.series("queues", lid)
        queues_per_entry.append(queues)
        cap = entry_capacity(corridor, lid)
        for h in range(n_horizons):
            sl = traj.horizon_slice(h)
            e_h = queues[sl.start - 1] if sl.start > 0 else 0.0
            level = traj.demand_levels[h]
            col, _ = apply_queue_update(np.full(n1, level), e_h, cap)
            shortfall = np.maximum(np.cumsum(col) - np.cumsum(qin[sl]), 0.0)
            block += weights.w3 * (1.0 + e_h) * float(np.sum(shortfall))
            d = np.diff(qin[sl])
            diffs_per_horizon.append(d)
            fluct += weights.w4 * float(np.sum(np.abs(d)))
    throughput = 0.0
    for lid in exits:
        throughput += float(np.sum(traj.series("qout", lid))) * cfg.T
    queue_series = sum(queues_per_entry)

    densities: dict[str, list] = {}
    for rec in traj.steps:
        for lid, dens in rec["densities"].items():
            densities.setdefault(lid, []).append(dens)
    density_excess = 0.0
    for lid, stack in densities.items():
        rows = np.array(stack)
        # each record's extremes, with fmax/fmin over the records: a NaN
        # hides only its own record, and a zero leaves the 0.0 start in place
        high = float(np.fmax.reduce(rows.max(axis=1))) - corridor.link(lid).fd.rho_m
        low = -float(np.fmin.reduce(rows.min(axis=1)))
        density_excess = max(density_excess, high, low)
    queue_min = min([0.0] + [min(rec["queues"].values()) for rec in traj.steps])
    return MetricsRecord(traj.controller, -1, block, fluct, throughput,
                         queue_series, diffs_per_horizon,
                         conservation_error=traj.conservation_error,
                         density_excess=density_excess, queue_min=queue_min)


# ---------------------------------------------------------------------------
# Controller comparison and the demand-variation sweep.
# ---------------------------------------------------------------------------


@dataclass
class ComparisonResult:
    config: ExperimentConfig
    seeds: list
    records: dict  # (seed, controller) -> MetricsRecord
    failures: dict = field(default_factory=dict)

    def aggregate(self, controller: str) -> dict:
        recs = [self.records[(s, controller)] for s in self.seeds
                if (s, controller) in self.records]
        return {
            "block_penalty": sum(r.block_penalty for r in recs),
            "fluctuation": sum(r.fluctuation for r in recs),
            "combined": sum(r.combined for r in recs),
            "throughput": sum(r.throughput for r in recs),
        }

    def reductions(self) -> dict:
        """Combined-metric reduction of the two-stage controller vs each
        deterministic baseline, on seed-summed totals.  A seed without the
        record of every controller raises ValueError naming the missing
        ``(seed, controller)`` pairs: a partial total is not comparable."""
        missing = [(s, kind) for s in self.seeds for kind in CONTROLLER_KINDS
                   if (s, kind) not in self.records]
        if missing:
            raise ValueError(f"no record for (seed, controller) {missing}")
        two = self.aggregate(ctl.TWO_STAGE)["combined"]
        out = {}
        for kind in (ctl.D_MIN, ctl.D_MEAN, ctl.D_MAX):
            base = self.aggregate(kind)["combined"]
            out[kind] = 1.0 - two / base if base > 0 else 0.0
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["seed", "controller", "block_penalty", "fluctuation",
                             "combined", "throughput"])
            for seed in self.seeds:
                for kind in CONTROLLER_KINDS:
                    rec = self.records.get((seed, kind))
                    if rec is None:
                        continue
                    writer.writerow([seed, kind, f"{rec.block_penalty:.6f}",
                                     f"{rec.fluctuation:.6f}", f"{rec.combined:.6f}",
                                     f"{rec.throughput:.6f}"])
            for kind in CONTROLLER_KINDS:
                if any((seed, kind) not in self.records for seed in self.seeds):
                    continue  # a total over some seeds only is not comparable
                agg = self.aggregate(kind)
                writer.writerow(["total", kind, f"{agg['block_penalty']:.6f}",
                                 f"{agg['fluctuation']:.6f}", f"{agg['combined']:.6f}",
                                 f"{agg['throughput']:.6f}"])


def run_single(config: ExperimentConfig, controller_kind: str, seed: int):
    """One controller on one seeded stream of ``config.n_horizons`` levels
    drawn from ``config.distribution()``; returns (trajectory, metrics)."""
    corridor = config.corridor()
    dist = config.distribution()
    cfg = config.horizon()
    stream = sample_demand_stream(dist, config.n_horizons, seed)
    traj = ctl.run_closed_loop(corridor, stream, controller_kind, dist,
                               config.weights(), cfg)
    metrics = compute_metrics(traj, config.weights(), cfg, corridor)
    metrics.seed = seed
    return traj, metrics


def _comparison_task(args):
    config, kind, seed = args
    try:
        _, metrics = run_single(config, kind, seed)
        return seed, kind, metrics, None
    except Exception as err:  # individual runs may fail; the table continues
        return seed, kind, None, _failure_text(err)


def _failure_text(err: BaseException) -> str:
    """``Type: message (file:line)``, naming the frame that raised."""
    where = traceback.extract_tb(err.__traceback__)[-1]
    return f"{type(err).__name__}: {err} ({os.path.basename(where.filename)}:{where.lineno})"


def run_comparison(
    config: ExperimentConfig,
    seeds=None,
    n_horizons: int | None = None,
    jobs: int = 1,
    controllers=CONTROLLER_KINDS,
) -> ComparisonResult:
    """All controllers on identical seeded streams; ``n_horizons``, when
    given, replaces ``config.n_horizons``.  The runs are spread over at most
    ``jobs`` worker processes, no more than there are runs.  The runs share
    their searches (``solver.shared_searches``): a model that a run of this
    call already solved from the same warm start, in the same process, is
    not solved again; each worker keeps its own memo, and a hit logs the
    lookup as its ``solve_time``.  Before any run, ``jobs`` below 1, no
    seeds or no controllers (totals over no runs), a repeated seed (its
    record would be summed twice) and an unknown controller kind raise
    ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    seeds = list(seeds if seeds is not None else range(config.n_seeds))
    if not seeds:
        raise ValueError("seeds is empty")
    if not controllers:
        raise ValueError("controllers is empty")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError(f"repeated seeds {repeated}")
    unknown = [kind for kind in controllers if kind not in CONTROLLER_KINDS]
    if unknown:
        raise ValueError(f"unknown controller kinds {unknown}; known: {list(CONTROLLER_KINDS)}")
    if n_horizons is not None:
        config = replace(config, n_horizons=n_horizons)
    tasks = [(config, kind, seed) for seed in seeds for kind in controllers]
    workers = min(jobs, len(tasks))
    with solver.shared_searches():
        if workers > 1:
            solver._load_scipy()  # before the fork, so the workers inherit scipy
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                outcomes = pool.map(_comparison_task, tasks)
        else:
            outcomes = [_comparison_task(t) for t in tasks]
    result = ComparisonResult(config, seeds, {})
    for seed, kind, metrics, failure in sorted(
        outcomes, key=lambda o: (o[0], CONTROLLER_KINDS.index(o[1]))
    ):
        if failure is None:
            result.records[(seed, kind)] = metrics
        else:
            result.failures[(seed, kind)] = failure
    return result


def symmetric_distribution(levels, p: float) -> DemandDistribution:
    """Three-level distribution {p, 1-2p, p} over (low, mid, high)."""
    if not 0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 0.5]")
    return DemandDistribution(tuple(levels), (p, 1.0 - 2.0 * p, p))


def distribution_sd(dist: DemandDistribution) -> float:
    mean = dist.mean()
    return math.sqrt(sum(p * (l - mean) ** 2 for l, p in zip(dist.levels, dist.probs)))


class SweepError(RuntimeError):
    """Runs of a sweep failed; ``failures`` maps each failed
    ``(p, seed, controller)`` to its failure text."""

    def __init__(self, failures: dict):
        super().__init__("; ".join(f"{key}: {text}" for key, text in failures.items()))
        self.failures = failures


def run_sd_sweep(config: ExperimentConfig, jobs: int = 1) -> list:
    """Controller comparison across the symmetric demand distributions of
    ``config.sweep_p_grid``, each point over ``config.sweep_seeds`` seeds of
    ``config.sweep_horizons`` horizons; returns one row per grid point with
    the seed-summed metrics.  Every point's distribution is built before the
    first comparison runs, so an empty grid or a bad point raises ValueError
    before any work.  A failed run would leave a partial sum in its point's
    row, so after the last point any failure raises ``SweepError`` naming
    every failed run."""
    if not config.sweep_p_grid:
        raise ValueError("sweep_p_grid is empty")
    dists = [symmetric_distribution(config.demand_levels, p) for p in config.sweep_p_grid]
    rows, failures = [], {}
    for p, dist in zip(config.sweep_p_grid, dists):
        point = replace(config, demand_probs=dist.probs, n_horizons=config.sweep_horizons)
        comp = run_comparison(point, range(config.sweep_seeds), jobs=jobs)
        failures.update({(p, seed, kind): text for (seed, kind), text in comp.failures.items()})
        row = {"p": p, "sd": distribution_sd(dist)}
        for kind in CONTROLLER_KINDS:
            agg = comp.aggregate(kind)
            row[f"{kind}/block"] = agg["block_penalty"]
            row[f"{kind}/fluct"] = agg["fluctuation"]
            row[f"{kind}/combined"] = agg["combined"]
        rows.append(row)
    if failures:
        raise SweepError(failures)
    return rows


def sweep_to_csv(rows: list, path) -> None:
    if not rows:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{row[k]:.6f}" if isinstance(row[k], float) else row[k]
                             for k in header])


def write_manifest(config: ExperimentConfig, path, seeds, extra=None) -> None:
    import importlib.metadata  # here, not at import: no other caller reads it

    manifest = {
        "config_hash": config_hash(config),
        "seeds": list(seeds),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            # read from the installed package's metadata: only solver imports scipy
            "scipy": importlib.metadata.version("scipy"),
        },
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
