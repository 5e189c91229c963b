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

from . import linkmodel, lwr, network
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
        if not all(0 <= level < np.inf for level in self.levels):
            raise ValueError(f"levels {self.levels} are not all finite nonnegative numbers")
        if not all(p >= 0 for p in self.probs):  # also refuses NaN
            raise ValueError(f"probs {self.probs} are not all nonnegative numbers")
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


@dataclass(frozen=True)
class ObjectiveWeights:
    w0: float = 1e-4
    w1: float = 0.01
    w2: float = 0.02
    w3: float = 0.003
    w4: float = 10.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value >= 0:  # also refuses NaN
                raise ValueError(f"weight {name} is {value}, not a nonnegative number")


@dataclass
class HorizonState:
    """Traffic state at the start of an optimization window."""

    densities: dict  # fd link id -> per-segment array
    queues: dict  # entry link id -> backlog (veh/s-equivalent)
    n_steps: int
    T: float
    t0: float = 0.0

    def __post_init__(self):
        for lid, q in self.queues.items():
            if not q >= -1e-9:  # also refuses NaN
                raise ValueError(f"queue of {lid} is {q}, not a nonnegative number")


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
    """A built MILP plus the metadata needed to read a solution back.  The
    readers take each quantity from the columns ``template`` laid out for
    it; scenario j's block starts at column ``n_first + j * width``."""

    lp: LinearProgram
    template: ModelTemplate
    corridor: network.Corridor
    state: HorizonState
    weights: ObjectiveWeights
    scenarios: list
    options: ModelOptions
    obj_const: float = 0.0

    def total_objective(self, solution) -> float:
        return solution.objective + self.obj_const

    # -- solution readers ---------------------------------------------------

    def _read(self, solution, j: int, offsets) -> np.ndarray:
        """Scenario j's values of the block columns at ``offsets``."""
        return solution.x[self.template.n_first + j * self.template.width + offsets]

    def control(self, solution, entry_id: str) -> np.ndarray:
        return solution.x[self.template.controls[entry_id]]

    def published_control(self, solution, entry_id: str) -> np.ndarray:
        """Control after the uniqueness push: wherever every scenario has
        exhausted its cumulative demand, the control is raised to capacity
        without changing any inflow (the first-stage reward makes this the
        unique optimum, but its weight sits below the MIP gap, so it is
        applied as an exact post-step)."""
        n = self.state.n_steps
        cap = entry_capacity(self.corridor, entry_id)
        ctrl = self.control(solution, entry_id)
        inflows = [self._read(solution, j, self.template.flows[entry_id][0]).tolist()
                   for j in range(len(self.scenarios))]
        for t in range(1, n + 1):
            floatable = True
            level = ctrl[t - 1]
            for qin, scenario in zip(inflows, self.scenarios):
                cum_d = float(np.sum(scenario.demand[entry_id][:t]))
                level = max(level, qin[t - 1])
                if sum(qin[:t]) < cum_d - 1e-6 * max(cum_d, 1.0):
                    floatable = False
            ctrl[t - 1] = cap if floatable else level
        return ctrl

    def selected_speed(self, solution, link_id: str, j: int = 0) -> float:
        """The candidate speed of the largest ``delta``, the first on a tie."""
        deltas = self._read(solution, j, self.template.deltas[link_id])
        return self.corridor.link(link_id).speeds[int(np.argmax(deltas))]

    def scenario_flows(self, solution, j: int = 0) -> dict:
        """Link id -> (inflows, outflows) of scenario j, in link order."""
        return {lid: (self._read(solution, j, qin), self._read(solution, j, qout))
                for lid, (qin, qout) in self.template.flows.items()}


def entry_capacity(corridor: network.Corridor, entry_id: str) -> float:
    """Capacity of the link an entry feeds; bounds its control and inflow."""
    for ramp, _, down in corridor.roles:
        if ramp is not None and ramp.id == entry_id:
            return corridor.link(down).capacity
    raise ValueError(f"{entry_id!r} is not an entry link of the corridor")


class ModelTemplate:
    """Every column and row of the control MILPs of one shape: a corridor,
    ``n_steps`` steps of length ``T``, a scenario count and the penalized
    inflow-change pairs.  Only numbers differ between the models of one
    shape, so the pattern is assembled once and ``evaluate`` fills in a
    state's numbers.  ``fluct_pairs`` keeps the pairs it penalizes.

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

    The columns a closed loop reads are kept as index arrays: ``controls``
    maps each controlled entry to its "qp" column ids, ``flows`` each link to
    the offsets in a scenario block of its inflow and outflow columns (an
    entry link's outflow is its inflow), and ``deltas`` each VSL link to the
    offsets of its speed binaries.
    """

    def __init__(self, corridor: network.Corridor, n_steps: int, T: float,
                 n_scenarios: int, fluct_pairs: tuple):
        self.corridor, self.n_steps, self.T = corridor, n_steps, T
        self.fluct_pairs = fluct_pairs
        steps = range(1, n_steps + 1)
        controlled = corridor.controlled_entries
        caps = {l.id: entry_capacity(corridor, l.id) for l in corridor.entry_links}

        # one scenario's columns: (key without the scenario index, lb, ub, binary)
        block, fd_links = [], []
        self.flows, self.deltas = {}, {}  # link id -> column offsets in a block
        for link in corridor.links:
            at = len(block)
            if link.kind == ENTRY:
                cols = np.arange(at, at + n_steps)
                self.flows[link.id] = (cols, cols)  # a point queue: what enters leaves
                block += [(("qin", link.id, t), 0.0, caps[link.id], False) for t in steps]
                continue
            template = linkmodel.link_template(link, n_steps, T)
            fd_links.append((link.id, template, at))
            offsets = {}  # kind -> offsets, in index order
            for (kind, *idx), lb, ub, var_kind in template.columns:
                offsets.setdefault(kind, []).append(len(block))
                block.append(((kind, link.id, *idx), lb, ub, var_kind == BINARY))
            self.flows[link.id] = (np.array(offsets["qin"]), np.array(offsets["qout"]))
            if link.is_vsl:
                self.deltas[link.id] = np.array(offsets["delta"])
        block += [(key, 0.0, 1.0, True) for jn in corridor.junctions
                  for key in network.merge_binary_keys(jn, n_steps)]
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
        self.controls = {l.id: np.arange(k * n_steps, (k + 1) * n_steps)
                         for k, l in enumerate(controlled)}
        self._left = np.array([n_steps - t + 1 for t in steps], dtype=float)
        self._vsl_in = np.array([c for l in corridor.vsl_links for c in self.flows[l.id][0]],
                                dtype=int)
        self._u = np.array(u_cols, dtype=int)
        self._exit_out = np.array([c for l in corridor.exit_links for c in self.flows[l.id][1]],
                                  dtype=int)
        self._exit_left = np.tile(self._left, len(corridor.exit_links))

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
        for array in (self.lb, self.ub, self.binary, *self.rows, *self.controls.values(),
                      *self.deltas.values(), *(c for pair in self.flows.values() for c in pair)):
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
        for lid in self.controls:
            e0 = state.queues.get(lid, 0.0)
            block_cost[self.flows[lid][0]] = -w.w2 + w.w3 * (1.0 + e0) * self._left
        block_cost[self._vsl_in] = -w.w1
        block_cost[self._exit_out] = self._exit_left
        block_cost[self._u] = -w.w4
        obj = np.zeros(len(self.keys))
        obj[:self.n_first] = w.w0

        # the committed controls cap the first-stage controls they cover, whose
        # bounds are the entry capacity
        ub = self.ub.copy()
        for lid, cols in self.controls.items():
            committed = options.committed_controls.get(lid, ())[:n]
            cols = cols[:len(committed)]
            ub[cols] = np.minimum(np.asarray(committed, dtype=float), self.ub[cols])

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
            at = self.n_first + j * self.width
            obj[at:at + self.width] = p * block_cost
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
def model_template(corridor: network.Corridor, n_steps: int, T: float, n_scenarios: int,
                   fluct_pairs: tuple) -> ModelTemplate:
    """The ModelTemplate of one shape, built on first use.  The key holds no
    state, so every horizon of a closed loop that keeps the shape reuses it,
    and equal corridors share one template."""
    return ModelTemplate(corridor, n_steps, T, n_scenarios, fluct_pairs)


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
    template = model_template(corridor, state.n_steps, state.T, len(scenarios),
                              tuple((int(t1), int(t2)) for t1, t2 in pairs))
    for link in corridor.fd_links:
        dens = np.asarray(state.densities[link.id], dtype=float)
        rho_m = link.fd.rho_m
        if not (np.all(dens >= -1e-9) and np.all(dens <= rho_m + 1e-9)):  # refuses NaN
            raise ValueError(f"initial densities of {link.id} outside [0, rho_m]")
    total_p = sum(s.prob for s in scenarios)
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError("scenario probabilities must sum to 1")
    lp, const = template.evaluate(state, scenarios, weights, options, name)
    return ModelBundle(lp, template, corridor, state, weights, list(scenarios), options, const)


def apply_queue_update(column: np.ndarray, e: float, capacity: float):
    """Fold a backlog of e (veh/s-equivalent) into a demand column.

    Steps are topped up toward ``capacity`` first-step-first until the
    backlog is exhausted or the column runs out.  Returns the updated column
    and the residual backlog.
    """
    if e < 0:
        raise ValueError("backlog must be nonnegative")
    out = np.array(column, dtype=float, copy=True)
    left = e
    for i in range(len(out)):
        if left <= 0:
            break
        add = min(max(capacity - out[i], 0.0), left)
        out[i] += add
        left -= add
    return out, left


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
                col, _ = apply_queue_update(col, e, entry_capacity(corridor, link.id))
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
    corridor = bundle.corridor
    out = {"scenarios": [], "w0_control": 0.0}

    for cols in bundle.template.controls.values():
        for value in solution.x[cols].tolist():
            out["w0_control"] += w.w0 * value

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
            for t1, t2 in bundle.template.fluct_pairs:
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


def certify_solution(bundle: ModelBundle, solution) -> float:
    """Worst violation, in vehicles, of the kinematic-wave solution by the
    solved flows over all scenarios and links with a flux law (0 when none
    is violated).

    Each link's flows go into an ``lwr.LaxHopfKernel`` with the flux law of
    its selected speed, independent of the model's rows.  On each side, the
    cumulative count through the boundary may not exceed the most the link
    can send (``max_exit_count``) or receive (``max_entry_count``) at any of
    each step's ``lwr.step_check_times``, and no step's flow may exceed the
    capacity, as the simulator's step rates hold them."""
    worst = 0.0
    state = bundle.state
    T = state.T
    for j in range(len(bundle.scenarios)):
        flows = bundle.scenario_flows(solution, j)
        for link in bundle.corridor.fd_links:
            fd = link.fd
            if link.is_vsl:
                fd = link.fd_for_speed(bundle.selected_speed(solution, link.id, j))
            vc = lwr.ValueConditionSet(state.densities[link.id], *flows[link.id], T)
            kernel = lwr.LaxHopfKernel(vc, fd, link.geometry)
            for Q, count_fn, side, edge_kinks, lag in kernel.boundaries():
                done = 0.0
                for n, q in enumerate(side, 1):
                    worst = max(worst, (q - Q) * T)
                    for t in lwr.step_check_times(T, n, edge_kinks, lag):
                        worst = max(worst, done + (t - (n - 1) * T) * q - count_fn(t))
                    done += T * q
    return worst
