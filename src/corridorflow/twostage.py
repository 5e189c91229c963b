"""Extensive-form assembly of the boundary-flow + speed-limit control MILP.

One shared set of first-stage boundary controls feeds per-scenario copies of
the link and junction constraints.  Scenario blocks force the realized
inflow to the largest value allowed by the control and the scenario's
cumulative demand, and score: time-weighted exit outflow, small inflow
penalties, a backlog penalty scaled by the queue at the horizon start, and
an epigraph-linearized penalty on inflow changes between consecutive steps.

The models of one shape (corridor, steps, step size, scenario count and
penalized step pairs) share every column and row; only numbers differ.  Each
shape's ModelTemplate is assembled once, cached, and evaluated at each state
into the arrays of a LinearProgram.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import demand as demand_ops
from . import linkmodel, network
from .linkmodel import ENTRY
from .lp import BINARY, GE, LE, Columns, Constraint, LinearProgram, RowBlock, pack_rows, stack_rows


@dataclass(frozen=True)
class DemandDistribution:
    """Discrete joint demand levels for the controlled entries."""

    levels: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.levels) != len(self.probs):
            raise ValueError("levels and probs must align")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    @property
    def support(self) -> list:
        return [l for l, p in zip(self.levels, self.probs) if p > 1e-12]

    def mean(self) -> float:
        return float(np.dot(self.levels, self.probs))

    def min_level(self) -> float:
        return min(self.support)

    def max_level(self) -> float:
        return max(self.support)

    @classmethod
    def point(cls, level: float):
        return cls((float(level),), (1.0,))


@dataclass(frozen=True)
class ObjectiveWeights:
    w0: float = 1e-4
    w1: float = 0.01
    w2: float = 0.02
    w3: float = 0.003
    w4: float = 10.0

    def __post_init__(self):
        if min(self.w0, self.w1, self.w2, self.w3, self.w4) < 0:
            raise ValueError("weights must be nonnegative")


@dataclass
class HorizonState:
    """Traffic state at the start of an optimization window."""

    densities: dict  # fd link id -> per-segment array
    queues: dict  # entry link id -> backlog (veh/s-equivalent)
    n_steps: int
    T: float
    t0: float = 0.0

    def __post_init__(self):
        for q in self.queues.values():
            if q < -1e-9:
                raise ValueError("negative queue")


@dataclass
class ModelOptions:
    #: (t, t+1) step pairs whose inflow difference is penalized; None = all
    fluct_pairs: list | None = None
    #: entry id -> committed control values for leading steps (1-based order).
    #: The mid-horizon re-solve caps its control copy at the committed values
    #: (the first-stage reward pushes it back up, so it only dips where link
    #: supply forces lower inflow); the implemented control is unchanged.
    committed_controls: dict = field(default_factory=dict)


@dataclass
class Scenario:
    prob: float
    demand: dict  # entry link id -> per-step demand vector


@dataclass
class ModelBundle:
    """A built MILP plus the metadata needed to read a solution back."""

    lp: LinearProgram
    corridor: network.Corridor
    state: HorizonState
    weights: ObjectiveWeights
    scenarios: list
    options: ModelOptions
    obj_const: float = 0.0

    def total_objective(self, solution) -> float:
        return solution.objective + self.obj_const

    # -- solution readers ---------------------------------------------------

    def control(self, solution, entry_id: str) -> np.ndarray:
        n = self.state.n_steps
        return np.array(
            [solution.value(self.lp, ("qp", entry_id, t)) for t in range(1, n + 1)]
        )

    def published_control(self, solution, entry_id: str, tol: float = 1e-7) -> np.ndarray:
        """Control after the uniqueness push: wherever every scenario has
        exhausted its cumulative demand, the control is raised to capacity
        without changing any inflow (the first-stage reward makes this the
        unique optimum, but its weight sits below the MIP gap, so it is
        applied as an exact post-step)."""
        n = self.state.n_steps
        cap = entry_capacity(self.corridor, entry_id)
        ctrl = self.control(solution, entry_id)
        for t in range(1, n + 1):
            floatable = True
            level = ctrl[t - 1]
            for j, scenario in enumerate(self.scenarios):
                qin = [
                    solution.value(self.lp, (j, "qin", entry_id, i))
                    for i in range(1, t + 1)
                ]
                cum_d = float(np.sum(scenario.demand[entry_id][:t]))
                level = max(level, qin[-1])
                if sum(qin) < cum_d - max(tol, 1e-6 * max(cum_d, 1.0)):
                    floatable = False
            ctrl[t - 1] = cap if floatable else level
        return ctrl

    def selected_speed(self, solution, link_id: str, j: int = 0) -> float:
        link = self.corridor.link(link_id)
        best_s = max(
            range(len(link.vsl_set)),
            key=lambda s: solution.value(self.lp, (j, "delta", link_id, s)),
        )
        return link.vsl_set.speeds[best_s]

    def scenario_flows(self, solution, j: int = 0) -> dict:
        out = {}
        n = self.state.n_steps
        for link in self.corridor.links:
            qin = np.array(
                [solution.value(self.lp, (j, "qin", link.id, t)) for t in range(1, n + 1)]
            )
            if link.kind == ENTRY:
                out[link.id] = (qin, qin.copy())
            else:
                qout = np.array(
                    [solution.value(self.lp, (j, "qout", link.id, t)) for t in range(1, n + 1)]
                )
                out[link.id] = (qin, qout)
        return out

    def warm_start_keys(self, solution) -> dict:
        """Binary assignment of this solution, keyed for reuse on the next
        horizon's model (same shape)."""
        return {self.lp.key(vid): round(float(solution.x[vid])) for vid in self.lp.binary_ids()}


def entry_capacity(corridor: network.Corridor, entry_id: str) -> float:
    """Capacity of the link an entry feeds; bounds its control and inflow."""
    for jn in corridor.junctions:
        if entry_id in jn.incoming:
            return corridor.link(jn.outgoing[0]).capacity
    raise network.TopologyError(f"entry link {entry_id} feeds no junction")


class CorridorShape:
    """A corridor compared and hashed by what its model's rows read from it:
    the links, the junctions and the exit caps.  Corridors built alike share
    their model templates."""

    __slots__ = ("corridor", "_key")

    def __init__(self, corridor: network.Corridor):
        self.corridor = corridor
        self._key = (
            tuple((l.id, l.kind, l.geometry, l.fd, l.is_vsl, l.vsl_set, l.controlled, l.demand)
                  for l in corridor.links),
            tuple((jn.id, jn.incoming, jn.outgoing, jn.kind) for jn in corridor.junctions),
            tuple(sorted(corridor.exit_caps.items())),
        )

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, CorridorShape) and self._key == other._key


class ModelTemplate:
    """Every column and row of the control MILPs of one shape: a corridor,
    ``n_steps`` steps of length ``T``, a scenario count and the penalized
    inflow-change pairs.  Only numbers differ between the models of one
    shape, so the pattern is assembled once and ``evaluate`` fills in a
    state's numbers.

    The columns are the shared first-stage controls ("qp", entry, t), then
    one block per scenario j, each key prefixed by j: the links' flows (an FD
    link's columns from its BlockTemplate), the merge binaries, and per
    controlled entry its forcing binaries and inflow-change epigraph
    variables.  The rows of each scenario follow in the same order: the FD
    links' BlockTemplate rows, the junction rows of
    ``network.build_node_constraints``, the bottleneck caps on the exits, and
    per controlled entry the forcing rows (inflow reaches the control unless
    the scenario's cumulative demand is exhausted) and the epigraph rows.

    A state enters as link densities (BlockTemplate right-hand sides and VSL
    ``delta`` coefficients), ramp backlogs, scenario demand (cumulative
    demand as a right-hand side and as the forcing binary's coefficient),
    ``t0`` (which exit caps bind) and committed controls (bounds).
    """

    def __init__(self, corridor: network.Corridor, n_steps: int, T: float,
                 n_scenarios: int, fluct_pairs: tuple):
        errors = network.validate_topology(corridor)
        if errors:
            raise network.TopologyError("; ".join(errors))
        self.corridor, self.n_steps, self.T = corridor, n_steps, T
        steps = range(1, n_steps + 1)
        controlled = corridor.controlled_entries
        exit_ids = {l.id for l in corridor.exit_links}
        caps = {l.id: entry_capacity(corridor, l.id) for l in corridor.entry_links}

        # one scenario's columns: (key without the scenario index, lb, ub, binary)
        block, fd_links = [], []
        entry_in, vsl_in, exit_out, exit_left = [], [], [], []
        for link in corridor.links:
            if link.kind == ENTRY:
                if link.controlled:
                    entry_in.append((link.id, np.arange(len(block), len(block) + n_steps)))
                block += [(("qin", link.id, t), 0.0, caps[link.id], False) for t in steps]
                continue
            template = linkmodel.link_template(link, n_steps, T)
            fd_links.append((link.id, template, len(block)))
            for (kind, *idx), lb, ub, var_kind in template.columns:
                if kind == "qin" and link.is_vsl:
                    vsl_in.append(len(block))
                elif kind == "qout" and link.id in exit_ids:
                    exit_out.append(len(block))
                    exit_left.append(n_steps - idx[0] + 1)
                block.append(((kind, link.id, *idx), lb, ub, var_kind == BINARY))
        for jn in corridor.junctions:
            if jn.kind == network.MERGE:
                block += [(key, 0.0, 1.0, True) for key in network.merge_binary_keys(jn, n_steps)]
        u_cols = []
        for link in controlled:
            block += [(("force", link.id, t), 0.0, 1.0, True) for t in steps]
            u_cols += range(len(block), len(block) + len(fluct_pairs))
            block += [(("u", link.id, t1), 0.0, np.inf, False) for t1, _ in fluct_pairs]

        first = [(("qp", l.id, t), 0.0, caps[l.id], False) for l in controlled for t in steps]
        self.n_first, self.width = len(first), len(block)
        columns = first + [((j,) + key, *rest) for j in range(n_scenarios)
                           for key, *rest in block]
        keys, lb, ub, binary = zip(*columns)
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate variable key")
        self.keys = keys
        self.lb, self.ub = np.array(lb, dtype=float), np.array(ub, dtype=float)
        self.binary = np.array(binary, dtype=bool)
        self._controls = [(l.id, np.arange(k * n_steps, (k + 1) * n_steps), caps[l.id])
                          for k, l in enumerate(controlled)]
        self._entry_in = entry_in
        self._left = np.array([n_steps - t + 1 for t in steps], dtype=float)
        self._vsl_in, self._u = np.array(vsl_in, dtype=int), np.array(u_cols, dtype=int)
        self._exit_out = np.array(exit_out, dtype=int)
        self._exit_left = np.array(exit_left, dtype=float)
        self._costed = np.sort(np.concatenate(
            [cols for _, cols in entry_in] + [self._vsl_in, self._exit_out, self._u]))

        # scenario 0's rows over its own and the first-stage columns, with the
        # places a state fills; the other scenarios repeat them
        link_rows = [template.rows._replace(indices=template.rows.indices + self.n_first + at,
                                            rhs=np.zeros(template.rows.n_rows))
                     for _, template, at in fd_links]

        def qin(link_id, t):
            return (0, "qin", link_id, t)

        rows = []  # Constraints over model keys
        backlog: dict = {}  # entry id -> rows
        for jn in corridor.junctions:
            node_rows, ramp_rows = network.build_node_constraints(corridor, jn, n_steps, T)
            for lid, positions in ramp_rows.items():
                backlog.setdefault(lid, []).extend(len(rows) + p for p in positions)
            rows += [Constraint({(0,) + k: v for k, v in row.coeffs.items()}, row.sense, row.rhs)
                     for row in node_rows]
        exit_caps = []  # (exit id, t, row)
        for link in corridor.exit_links:
            for t in steps:
                exit_caps.append((link.id, t, len(rows)))
                rows.append(Constraint({(0, "qout", link.id, t): 1.0}, LE, 0.0))
        forcing = []  # (entry id, cumulative-demand rows, (row, force column) pairs)
        for link in controlled:
            cum_rows, forces = [], []
            for t in steps:
                force, control = (0, "force", link.id, t), ("qp", link.id, t)
                cum = {qin(link.id, i): 1.0 for i in range(1, t + 1)}
                cum_rows.append(len(rows) + 1)
                forces.append((len(rows) + 3, keys.index(force)))
                rows += [
                    Constraint({qin(link.id, t): 1.0, control: -1.0}, LE, 0.0),
                    Constraint(cum, LE, 0.0),
                    # indicator=0: inflow reaches the control; indicator=1: demand is
                    # exhausted. big-Ms are the exact worst cases (control <= cap,
                    # cumulative inflow >= 0), which keeps the relaxation tight.
                    Constraint({qin(link.id, t): 1.0, force: caps[link.id], control: -1.0},
                               GE, 0.0),
                    Constraint({**cum, force: 0.0}, GE, 0.0),
                ]
            forcing.append((link.id, cum_rows, forces))
            for t1, t2 in fluct_pairs:
                u = (0, "u", link.id, t1)
                rows += [
                    Constraint({u: 1.0, qin(link.id, t1): -1.0, qin(link.id, t2): 1.0}, GE, 0.0),
                    Constraint({u: 1.0, qin(link.id, t1): 1.0, qin(link.id, t2): -1.0}, GE, 0.0),
                ]
        packed = pack_rows(rows, keys)
        indptr, indices = packed.indptr, packed.indices
        block = stack_rows(link_rows + [packed])
        self._block_rows = block.n_rows
        row0, nnz0 = block.n_rows - packed.n_rows, len(block.indices) - len(indices)

        def entry(row, column):
            lo, hi = indptr[row], indptr[row + 1]
            return nnz0 + lo + int(np.searchsorted(indices[lo:hi], column))

        self._links, row, nnz = [], 0, 0  # (link id, BlockTemplate, first entry, first row)
        for (lid, template, _), link_block in zip(fd_links, link_rows):
            self._links.append((lid, template, nnz, row))
            row, nnz = row + link_block.n_rows, nnz + len(link_block.indices)
        self._backlog = [(lid, row0 + np.array(rs)) for lid, rs in backlog.items()]
        self._exit_caps = [(lid, corridor.link(lid).capacity, t, row0 + row, nnz0 + indptr[row])
                           for lid, t, row in exit_caps]
        self._forcing = [(lid, row0 + np.array(cum_rows),
                          np.array([entry(row, column) for row, column in forces]))
                         for lid, cum_rows, forces in forcing]

        # every scenario: scenario 0's rows with its columns shifted
        shift = np.where(block.indices >= self.n_first, self.width, 0)
        self.rows = stack_rows(
            [block._replace(indices=block.indices + j * shift) for j in range(n_scenarios)])
        for array in (self.lb, self.ub, self.binary, *self.rows):
            array.setflags(write=False)

    def evaluate(self, state: HorizonState, scenarios: list, weights: ObjectiveWeights,
                 options: ModelOptions, name: str = "corridor-control"):
        """The model at one state as (LinearProgram, constant objective term).

        Each number is computed with the operations, in the order, of a
        row-by-row build (``tests/model_oracle.py`` keeps one as reference),
        and exact zeros and exit caps that do not bind are left out as it
        leaves them out, so the arrays and exported files match it bit for
        bit."""
        n, w = self.n_steps, weights

        # costs: one scenario block's coefficients, scaled by each probability
        block_cost = np.zeros(self.width)
        for lid, cols in self._entry_in:
            block_cost[cols] = -w.w2 + w.w3 * (1.0 + state.queues.get(lid, 0.0)) * self._left
        block_cost[self._vsl_in] = -w.w1
        block_cost[self._exit_out] = self._exit_left
        block_cost[self._u] = -w.w4
        obj = np.zeros(len(self.keys))
        obj[:self.n_first] = w.w0

        # the committed controls cap the first-stage controls they cover
        ub = self.ub.copy()
        for lid, cols, cap in self._controls:
            committed = options.committed_controls.get(lid, ())[:n]
            ub[cols[:len(committed)]] = np.minimum(np.asarray(committed, dtype=float), cap)

        # rows as (scenario, row) and (scenario, entry) views
        data, rhs = self.rows.data.copy(), self.rows.rhs.copy()
        data_of, rhs_of = data.reshape(len(scenarios), -1), rhs.reshape(len(scenarios), -1)
        for lid, template, at, row in self._links:
            rows = template.evaluate(state.densities[lid])
            data_of[:, at:at + len(rows.data)] = rows.data
            rhs_of[:, row:row + len(rows.rhs)] = rows.rhs
        for lid, rows in self._backlog:
            rhs_of[:, rows] += state.queues.get(lid, 0.0)
        live, idle = np.ones(self._block_rows, dtype=bool), []
        for lid, capacity, t, row, at in self._exit_caps:
            cap_t = self.corridor.exit_cap(lid, state.t0 + (t - 1) * self.T)
            if cap_t < capacity - 1e-12:
                rhs_of[:, row] = cap_t
            else:
                live[row] = False
                idle.append(at)

        const = 0.0
        for j, scenario in enumerate(scenarios):
            p, scenario_const = scenario.prob, 0.0
            obj[self.n_first + j * self.width + self._costed] = p * block_cost[self._costed]
            for lid, cum_rows, force_at in self._forcing:
                cum_d = np.cumsum(np.asarray(scenario.demand[lid], dtype=float))
                rhs_of[j, cum_rows] = cum_d[:n]
                data_of[j, force_at] = -cum_d[:n]
                # backlog-penalty constant: -w3 (1+e) sum_t cum_d(t)
                e0 = state.queues.get(lid, 0.0)
                scenario_const += -p * w.w3 * (1.0 + e0) * float(np.sum(cum_d))
            const += scenario_const

        keep = data != 0.0
        keep.reshape(len(scenarios), -1)[:, idle] = False
        indptr, indices, _, sense, _ = self.rows
        if not live.all():
            live = np.tile(live, len(scenarios))
            indptr = indptr[np.concatenate(([True], live))]
            sense, rhs = sense[live], rhs[live]
        if not keep.all():
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
            indices, data = indices[keep], data[keep]
        rows = RowBlock(indptr, indices, data, sense, rhs)
        return LinearProgram(name, self.keys, Columns(obj, self.lb, ub, self.binary), rows), const


@functools.lru_cache(maxsize=None)
def model_template(shape: CorridorShape, n_steps: int, T: float, n_scenarios: int,
                   fluct_pairs: tuple) -> ModelTemplate:
    """The ModelTemplate of one shape, built on first use.  The key holds no
    state, so every horizon of a closed loop that keeps the shape reuses it."""
    return ModelTemplate(shape.corridor, n_steps, T, n_scenarios, fluct_pairs)


def assemble_model(
    corridor: network.Corridor,
    state: HorizonState,
    scenarios: list,
    weights: ObjectiveWeights,
    options: ModelOptions | None = None,
    name: str = "corridor-control",
) -> ModelBundle:
    """Shared first-stage controls plus one block per scenario, evaluated
    from the shape's cached ModelTemplate."""
    options = options or ModelOptions()
    pairs = options.fluct_pairs
    if pairs is None:
        pairs = [(t, t + 1) for t in range(1, state.n_steps)]
    template = model_template(CorridorShape(corridor), state.n_steps, state.T, len(scenarios),
                              tuple((int(t1), int(t2)) for t1, t2 in pairs))
    for link in corridor.fd_links:
        dens = np.asarray(state.densities[link.id], dtype=float)
        rho_m = link.fd.rho_m
        if np.any(dens < -1e-9) or np.any(dens > rho_m + 1e-9):
            raise ValueError(f"initial densities of {link.id} outside [0, rho_m]")
    total_p = sum(s.prob for s in scenarios)
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError("scenario probabilities must sum to 1")
    lp, const = template.evaluate(state, scenarios, weights, options, name)
    return ModelBundle(lp, corridor, state, weights, list(scenarios), options, const)


def _scenario_demand(corridor, state, level_or_vec) -> dict:
    """Demand vectors for every entry link: controlled entries follow the
    scenario level (backlog folded in), the others their exogenous rate."""
    n = state.n_steps
    out = {}
    for link in corridor.entry_links:
        if link.controlled:
            if np.ndim(level_or_vec) == 0:
                col = np.full(n, float(level_or_vec))
            else:
                col = np.asarray(level_or_vec, dtype=float).copy()
            e = state.queues.get(link.id, 0.0)
            if e > 0:
                col, _ = demand_ops.apply_queue_update(
                    col, e, entry_capacity(corridor, link.id)
                )
            out[link.id] = col
        else:
            out[link.id] = np.full(n, link.demand)
    return out


def build_deterministic_equivalent(
    corridor: network.Corridor,
    state: HorizonState,
    dist: DemandDistribution,
    weights: ObjectiveWeights,
    options: ModelOptions | None = None,
) -> ModelBundle:
    """Probability-weighted extensive form over the demand scenarios."""
    scenarios = [
        Scenario(p, _scenario_demand(corridor, state, level))
        for level, p in zip(dist.levels, dist.probs)
        if p > 1e-12
    ]
    total = sum(s.prob for s in scenarios)
    scenarios = [Scenario(s.prob / total, s.demand) for s in scenarios]
    return assemble_model(corridor, state, scenarios, weights, options, "two-stage")


def build_deterministic_baseline(
    corridor: network.Corridor,
    state: HorizonState,
    fixed_demand,
    weights: ObjectiveWeights,
    options: ModelOptions | None = None,
) -> ModelBundle:
    """Single-scenario model with a fixed demand level (or vector)."""
    scenarios = [Scenario(1.0, _scenario_demand(corridor, state, fixed_demand))]
    return assemble_model(corridor, state, scenarios, weights, options, "deterministic")


def objective_breakdown(bundle: ModelBundle, solution) -> dict:
    """Recompute every objective term from the solved flows.

    Returns per-scenario term values plus the first-stage term; 'total'
    equals the solver objective plus the model's constant offset.
    """
    w = bundle.weights
    state = bundle.state
    n = state.n_steps
    lp = bundle.lp
    corridor = bundle.corridor
    out = {"scenarios": [], "w0_control": 0.0}

    for link in corridor.controlled_entries:
        for t in range(1, n + 1):
            out["w0_control"] += w.w0 * solution.value(lp, ("qp", link.id, t))

    total = out["w0_control"]
    for j, scenario in enumerate(bundle.scenarios):
        flows = bundle.scenario_flows(solution, j)
        terms = {
            "weighted_outflow": 0.0,
            "w1_vsl_inflow": 0.0,
            "w2_entry_inflow": 0.0,
            "w3_block": 0.0,
            "w4_fluctuation": 0.0,
        }
        for link in corridor.exit_links:
            qout = flows[link.id][1]
            terms["weighted_outflow"] += float(
                np.sum(qout * (n - np.arange(1, n + 1) + 1))
            )
        for link in corridor.vsl_links:
            terms["w1_vsl_inflow"] += w.w1 * float(np.sum(flows[link.id][0]))
        for link in corridor.controlled_entries:
            qin = flows[link.id][0]
            e0 = state.queues.get(link.id, 0.0)
            d = np.asarray(scenario.demand[link.id], dtype=float)
            terms["w2_entry_inflow"] += w.w2 * float(np.sum(qin))
            shortfall = np.cumsum(d) - np.cumsum(qin)
            terms["w3_block"] += w.w3 * (1.0 + e0) * float(np.sum(shortfall))
            pairs = bundle.options.fluct_pairs
            if pairs is None:
                pairs = [(t, t + 1) for t in range(1, n)]
            for t1, t2 in pairs:
                terms["w4_fluctuation"] += w.w4 * abs(qin[t1 - 1] - qin[t2 - 1])
        terms["recourse"] = (
            terms["weighted_outflow"]
            - terms["w1_vsl_inflow"]
            - terms["w2_entry_inflow"]
            - terms["w3_block"]
            - terms["w4_fluctuation"]
        )
        total += scenario.prob * terms["recourse"]
        out["scenarios"].append(terms)
    out["total"] = total
    return out


def certify_solution(bundle: ModelBundle, solution, tol: float = 1e-6) -> float:
    """Worst compatibility violation over all scenarios and links when the
    solved flows are substituted back into the closed-form conditions."""
    worst = 0.0
    state = bundle.state
    for j in range(len(bundle.scenarios)):
        flows = bundle.scenario_flows(solution, j)
        for link in bundle.corridor.fd_links:
            fd = link.fd
            if link.is_vsl:
                fd = link.fd_for_speed(bundle.selected_speed(solution, link.id, j))
            qin, qout = flows[link.id]
            worst = max(
                worst,
                linkmodel.compatibility_violation(
                    fd, link.geometry, state.densities[link.id], qin, qout, state.T
                ),
            )
    return worst
