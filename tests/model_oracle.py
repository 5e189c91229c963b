"""Reference assembly for the model tests: the row-by-row builder that
``twostage.ModelTemplate`` replaced, kept as an oracle only.

It lists every column, and every junction, exit-cap, forcing and epigraph
row as a coefficient dict, once per scenario, in model order.  Two changes
from the replaced code: the junction rows no longer carry the ramp's
backlog, so it is added here to the rows ``network.build_node_constraints``
lists for the ramp; and the lists are built into a model once at the end
(``conftest.build_lp``) where columns and rows were added to a mutable model
one at a time.

The solution readers at the end are the ones ``twostage.ModelBundle`` had
before it read a solved model by its template's column arrays: each value is
looked up by its column key.  The link rows are ``BlockTemplate.evaluate``'s, as in the
template, so a speed-selection coefficient of magnitude
``lp.COEFFICIENT_FLOOR`` or less is 0 here too and dropped with the zeros, as
is a forcing coefficient of a cumulative demand that small.
"""

import numpy as np

from corridorflow import linkmodel, network
from corridorflow.linkmodel import ENTRY
from corridorflow.lp import BINARY, COEFFICIENT_FLOOR, GE, LE
from corridorflow.twostage import ModelOptions, entry_capacity

from conftest import build_lp, value


def _add_scenario_block(columns, rows, corridor, state, scenario, weights, options, j,
                        link_rows):
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
                columns.append((qin(link.id, t), 0.0, cap, False, obj))
            continue
        first_column[link.id] = len(columns)
        template, _ = link_rows[link.id]
        for (kind, *idx), lb, ub, var_kind in template.columns:
            obj = 0.0
            if kind == "qin" and link.id in vsl_ids:
                obj = -p * w.w1
            elif kind == "qout" and link.id in exit_ids:
                obj = p * (n - idx[0] + 1)
            columns.append(((j, kind, link.id, *idx), lb, ub, var_kind == BINARY, obj))

    # link physics
    for link in corridor.fd_links:
        keys = [key for key, *_ in columns[first_column[link.id]:]]
        rows += link_rows[link.id][1].constraints(keys)

    # junction coupling
    for jn in corridor.junctions:
        if jn.kind == network.MERGE:
            for key in network.merge_binary_keys(jn, n):
                columns.append(((j,) + key, 0.0, 1.0, True, 0.0))
        node_rows, ramp_rows = network.build_node_constraints(corridor, jn, n, T)
        for ramp_id, positions in ramp_rows.items():
            for pos in positions:
                row = node_rows[pos]
                node_rows[pos] = row._replace(rhs=row.rhs + state.queues.get(ramp_id, 0.0))
        rows += [({(j,) + k: v for k, v in row.coeffs.items()}, row.sense, row.rhs)
                 for row in node_rows]

    # bottleneck cap on the corridor exits
    for link in corridor.exit_links:
        for t in range(1, n + 1):
            cap_t = corridor.exit_cap(link.id, state.t0 + (t - 1) * T)
            if cap_t < link.capacity - 1e-12:
                rows.append(({(j, "qout", link.id, t): 1.0}, LE, cap_t))

    # inflow forcing against the shared control
    const_total = 0.0
    for link in corridor.controlled_entries:
        cap = entry_capacity(corridor, link.id)
        d = np.asarray(scenario.demand[link.id], dtype=float)
        cum_d = np.cumsum(d)
        for t in range(1, n + 1):
            force = (j, "force", link.id, t)
            columns.append((force, 0.0, 1.0, True, 0.0))
            control = ("qp", link.id, t)
            rows.append(({qin(link.id, t): 1.0, control: -1.0}, LE, 0.0))
            cum_coeffs = {qin(link.id, i): 1.0 for i in range(1, t + 1)}
            rows.append((cum_coeffs, LE, float(cum_d[t - 1])))
            rows.append(({qin(link.id, t): 1.0, force: cap, control: -1.0}, GE, 0.0))
            coeffs = dict(cum_coeffs)
            coeffs[force] = 0.0 if cum_d[t - 1] <= COEFFICIENT_FLOOR else -float(cum_d[t - 1])
            rows.append((coeffs, GE, 0.0))
        e0 = state.queues.get(link.id, 0.0)
        const_total += -p * w.w3 * (1.0 + e0) * float(np.sum(cum_d))

        # inflow-change epigraph
        pairs = options.fluct_pairs
        if pairs is None:
            pairs = [(t, t + 1) for t in range(1, n)]
        for t1, t2 in pairs:
            u = (j, "u", link.id, t1)
            columns.append((u, 0.0, np.inf, False, -p * w.w4))
            rows.append(({u: 1.0, qin(link.id, t1): -1.0, qin(link.id, t2): 1.0}, GE, 0.0))
            rows.append(({u: 1.0, qin(link.id, t1): 1.0, qin(link.id, t2): -1.0}, GE, 0.0))
    return const_total


def assemble_model(corridor, state, scenarios, weights, options=None,
                   name="corridor-control"):
    """(LinearProgram, constant objective term) of ``twostage.assemble_model``,
    built row by row."""
    options = options or ModelOptions()
    columns, rows = [], []
    for link in corridor.controlled_entries:
        cap = entry_capacity(corridor, link.id)
        committed = options.committed_controls.get(link.id, ())
        for t in range(1, state.n_steps + 1):
            ub = cap
            if t <= len(committed):
                ub = min(float(committed[t - 1]), cap)
            columns.append((("qp", link.id, t), 0.0, ub, False, weights.w0))

    link_rows = {}
    for link in corridor.fd_links:
        template = linkmodel.link_template(link, state.n_steps, state.T)
        link_rows[link.id] = (template, template.evaluate(state.densities[link.id]))
    const = 0.0
    for j, scenario in enumerate(scenarios):
        const += _add_scenario_block(columns, rows, corridor, state, scenario, weights,
                                     options, j, link_rows)
    return build_lp(columns, rows, name), const


# -- keyed solution readers -----------------------------------------------


def control(bundle, solution, entry_id):
    n = bundle.state.n_steps
    return np.array([value(solution, bundle.lp, ("qp", entry_id, t)) for t in range(1, n + 1)])


def published_control(bundle, solution, entry_id):
    n = bundle.state.n_steps
    cap = entry_capacity(bundle.corridor, entry_id)
    ctrl = control(bundle, solution, entry_id)
    for t in range(1, n + 1):
        floatable = True
        level = ctrl[t - 1]
        for j, scenario in enumerate(bundle.scenarios):
            qin = [value(solution, bundle.lp, (j, "qin", entry_id, i)) for i in range(1, t + 1)]
            cum_d = float(np.sum(scenario.demand[entry_id][:t]))
            level = max(level, qin[-1])
            if sum(qin) < cum_d - 1e-6 * max(cum_d, 1.0):
                floatable = False
        ctrl[t - 1] = cap if floatable else level
    return ctrl


def selected_speed(bundle, solution, link_id, j=0):
    link = bundle.corridor.link(link_id)
    best_s = max(range(len(link.speeds)),
                 key=lambda s: value(solution, bundle.lp, (j, "delta", link_id, s)))
    return link.speeds[best_s]


def scenario_flows(bundle, solution, j=0):
    out = {}
    n = bundle.state.n_steps
    for link in bundle.corridor.links:
        qin = np.array([value(solution, bundle.lp, (j, "qin", link.id, t))
                        for t in range(1, n + 1)])
        if link.kind == ENTRY:
            out[link.id] = (qin, qin.copy())
        else:
            qout = np.array([value(solution, bundle.lp, (j, "qout", link.id, t))
                             for t in range(1, n + 1)])
            out[link.id] = (qin, qout)
    return out


def w0_control(bundle, solution):
    """The first-stage term of ``twostage.objective_breakdown``."""
    total = 0.0
    for link in bundle.corridor.controlled_entries:
        for t in range(1, bundle.state.n_steps + 1):
            total += bundle.weights.w0 * value(solution, bundle.lp, ("qp", link.id, t))
    return total
