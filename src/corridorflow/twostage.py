"""Extensive-form assembly of the boundary-flow + speed-limit control MILP.

One shared set of first-stage boundary controls feeds per-scenario copies of
the link and junction constraints.  Scenario blocks force the realized
inflow to the largest value allowed by the control and the scenario's
cumulative demand, and score: time-weighted exit outflow, small inflow
penalties, a backlog penalty scaled by the queue at the horizon start, and
an epigraph-linearized penalty on inflow changes between consecutive steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import demand as demand_ops
from . import linkmodel, network
from .linkmodel import ENTRY, LinkVariables
from .lp import BINARY, GE, LE, LinearProgram


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
        warm = {}
        for v in self.lp.variables:
            if v.kind == BINARY:
                warm[v.key] = round(float(solution.x[v.vid]))
        return warm


def entry_capacity(corridor: network.Corridor, entry_id: str) -> float:
    """Capacity of the link an entry feeds; bounds its control and inflow."""
    for jn in corridor.junctions:
        if entry_id in jn.incoming:
            return corridor.link(jn.outgoing[0]).capacity
    raise network.TopologyError(f"entry link {entry_id} feeds no junction")


def _add_scenario_block(
    lp: LinearProgram,
    corridor: network.Corridor,
    state: HorizonState,
    scenario: Scenario,
    weights: ObjectiveWeights,
    options: ModelOptions,
    j: int,
    link_rows: dict,
) -> float:
    """Variables, constraints and probability-weighted objective for one
    scenario; returns the constant objective contribution.  ``link_rows``
    maps each FD link id to its BlockTemplate and the template's rows at the
    state's densities, shared by all scenarios."""
    n = state.n_steps
    T = state.T
    p = scenario.prob
    w = weights
    exit_ids = {l.id for l in corridor.exit_links}
    vsl_ids = {l.id for l in corridor.vsl_links}

    def qin(link_id, t):
        return (j, "qin", link_id, t)

    first_column = {}
    for link in corridor.links:
        if link.kind == ENTRY:
            cap = entry_capacity(corridor, link.id)
            for t in range(1, n + 1):
                obj = 0.0
                if link.controlled:
                    obj = p * (-w.w2 + w.w3 * (1.0 + state.queues.get(link.id, 0.0)) * (n - t + 1))
                lp.add_variable(qin(link.id, t), 0.0, cap, obj=obj)
            continue
        first_column[link.id] = lp.n_vars
        template, _ = link_rows[link.id]
        for (kind, _, *idx), lb, ub, var_kind in template.columns:
            obj = 0.0
            if kind == "qin" and link.id in vsl_ids:
                obj = -p * w.w1
            elif kind == "qout" and link.id in exit_ids:
                obj = p * (n - idx[0] + 1)
            lp.add_variable((j, kind, link.id, *idx), lb, ub, var_kind, obj)

    # link physics
    for link in corridor.fd_links:
        lp.add_rows(link_rows[link.id][1], first_column[link.id])

    # junction coupling
    link_vars = {link.id: LinkVariables(link, n) for link in corridor.links}
    for jn in corridor.junctions:
        if jn.kind == network.MERGE:
            for key in network.merge_binary_keys(jn, n):
                lp.add_variable((j,) + key, kind=BINARY)
        rows = network.build_node_constraints(
            corridor, jn, link_vars, n, ramp_queues=state.queues, T=T
        )
        for row in rows:
            lp.add_constraint({(j,) + k: v for k, v in row.coeffs.items()}, row.sense, row.rhs)

    # bottleneck cap on the corridor exits
    for link in corridor.exit_links:
        for t in range(1, n + 1):
            cap_t = corridor.exit_cap(link.id, state.t0 + (t - 1) * T)
            if cap_t < link.capacity - 1e-12:
                lp.add_constraint({(j, "qout", link.id, t): 1.0}, LE, cap_t)

    # inflow forcing against the shared control
    const_total = 0.0
    for link in corridor.controlled_entries:
        cap = entry_capacity(corridor, link.id)
        d = np.asarray(scenario.demand[link.id], dtype=float)
        cum_d = np.cumsum(d)
        for t in range(1, n + 1):
            force = lp.add_variable((j, "force", link.id, t), kind=BINARY)
            control = ("qp", link.id, t)
            lp.add_constraint({qin(link.id, t): 1.0, control: -1.0}, LE, 0.0)
            cum_coeffs = {qin(link.id, i): 1.0 for i in range(1, t + 1)}
            lp.add_constraint(cum_coeffs, LE, float(cum_d[t - 1]))
            # indicator=0: inflow reaches the control; indicator=1: demand is
            # exhausted. big-Ms are the exact worst cases (control <= cap,
            # cumulative inflow >= 0), which keeps the relaxation tight.
            lp.add_constraint({qin(link.id, t): 1.0, force: cap, control: -1.0}, GE, 0.0)
            coeffs = dict(cum_coeffs)
            coeffs[force] = -float(cum_d[t - 1])
            lp.add_constraint(coeffs, GE, 0.0)
        # backlog-penalty constant: -w3 (1+e) sum_t cum_d(t)
        e0 = state.queues.get(link.id, 0.0)
        const_total += -p * w.w3 * (1.0 + e0) * float(np.sum(cum_d))

        # inflow-change epigraph
        pairs = options.fluct_pairs
        if pairs is None:
            pairs = [(t, t + 1) for t in range(1, n)]
        for t1, t2 in pairs:
            u = lp.add_variable((j, "u", link.id, t1), obj=-p * w.w4)
            lp.add_constraint({u: 1.0, qin(link.id, t1): -1.0, qin(link.id, t2): 1.0}, GE, 0.0)
            lp.add_constraint({u: 1.0, qin(link.id, t1): 1.0, qin(link.id, t2): -1.0}, GE, 0.0)
    return const_total


def assemble_model(
    corridor: network.Corridor,
    state: HorizonState,
    scenarios: list,
    weights: ObjectiveWeights,
    options: ModelOptions | None = None,
    name: str = "corridor-control",
) -> ModelBundle:
    """Shared first-stage controls plus one block per scenario."""
    errors = network.validate_topology(corridor)
    if errors:
        raise network.TopologyError("; ".join(errors))
    for link in corridor.fd_links:
        dens = np.asarray(state.densities[link.id], dtype=float)
        rho_m = link.fd.rho_m
        if np.any(dens < -1e-9) or np.any(dens > rho_m + 1e-9):
            raise ValueError(f"initial densities of {link.id} outside [0, rho_m]")
    total_p = sum(s.prob for s in scenarios)
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError("scenario probabilities must sum to 1")

    options = options or ModelOptions()
    lp = LinearProgram(name)
    for link in corridor.controlled_entries:
        cap = entry_capacity(corridor, link.id)
        committed = options.committed_controls.get(link.id, ())
        for t in range(1, state.n_steps + 1):
            ub = cap
            if t <= len(committed):
                ub = min(float(committed[t - 1]), cap)
            lp.add_variable(("qp", link.id, t), 0.0, ub, obj=weights.w0)

    link_rows = {}
    for link in corridor.fd_links:
        template = linkmodel.link_template(link, state.n_steps, state.T)
        link_rows[link.id] = (template, template.evaluate(state.densities[link.id]))
    const = 0.0
    for j, scenario in enumerate(scenarios):
        const += _add_scenario_block(lp, corridor, state, scenario, weights, options, j,
                                     link_rows)
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
