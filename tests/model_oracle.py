"""Reference assembly for the model tests: the row-by-row builder that
``twostage.ModelTemplate`` replaced, kept as an oracle only.

It creates every column with ``add_variable`` and every junction, exit-cap,
forcing and epigraph row with ``add_constraint``, once per scenario.  The
one change from the replaced code: the junction rows no longer carry the
ramp's backlog, so it is added here to the rows that name it
(``LinRow.backlog``).
"""

import numpy as np

from corridorflow import linkmodel, network
from corridorflow.linkmodel import ENTRY, LinkVariables
from corridorflow.lp import BINARY, GE, LE, LinearProgram
from corridorflow.twostage import ModelOptions, entry_capacity


def _add_scenario_block(lp, corridor, state, scenario, weights, options, j, link_rows):
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
        for row in network.build_node_constraints(corridor, jn, link_vars, n, T=T):
            rhs = row.rhs
            if row.backlog is not None:
                rhs = rhs + state.queues.get(row.backlog, 0.0)
            lp.add_constraint({(j,) + k: v for k, v in row.coeffs.items()}, row.sense, rhs)

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
            lp.add_constraint({qin(link.id, t): 1.0, force: cap, control: -1.0}, GE, 0.0)
            coeffs = dict(cum_coeffs)
            coeffs[force] = -float(cum_d[t - 1])
            lp.add_constraint(coeffs, GE, 0.0)
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


def assemble_model(corridor, state, scenarios, weights, options=None,
                   name="corridor-control"):
    """(LinearProgram, constant objective term) of ``twostage.assemble_model``,
    built row by row."""
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
    return lp, const
