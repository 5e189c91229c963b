import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs_core

from corridorflow import lwr
from corridorflow.experiments import case_study
from corridorflow.lp import Columns, Constraint, LinearProgram, pack_rows


@pytest.fixture(scope="session")
def fd():
    # four-lane aggregate of the reference flux law
    return lwr.TriangularFD(30.0, -4.9, 0.5)


@pytest.fixture(scope="session")
def geom():
    return lwr.LinkGeometry(0.0, 1200.0, 2)


@pytest.fixture(scope="session")
def config():
    return case_study()


def compatible_vc(fd, geom, rng, n_steps=8, T=20.0, densities=None,
                  desired_in=None, desired_out=None):
    """Random value conditions made mutually consistent by clipping desired
    boundary flows with the link's analytic sending/receiving capability.

    Flows are clipped at every step end and at the wave-arrival kinks inside
    each step (a component can become finite mid-step below the boundary
    line, which step-end checks alone would miss).
    """
    if densities is None:
        densities = rng.uniform(0.0, fd.rho_m, geom.k_max)
    densities = np.asarray(densities, dtype=float)
    edges = geom.segment_edges()
    kinks_supply = [(geom.xi - e) / fd.w for e in edges[:-1]]
    kinks_demand = [(geom.chi - e) / fd.vf for e in edges[1:]]

    def max_flow(count_fn, cum_prev, t_prev, t_next, kinks):
        checks = [t_next] + [t for t in kinks if t_prev < t <= t_next]
        bound = fd.Q
        for t in checks:
            if t - t_prev < 1e-12:
                continue
            bound = min(bound, (count_fn(t) - cum_prev) / (t - t_prev))
        return max(bound, 0.0)

    inflow, outflow = [], []
    for n in range(1, n_steps + 1):
        vc = lwr.ValueConditionSet(
            densities,
            np.array(inflow + [0.0]),
            np.array(outflow + [0.0]),
            T,
        )
        supply = max_flow(
            lambda t: lwr.max_entry_count(vc, fd, geom, t),
            sum(inflow) * T, (n - 1) * T, n * T, kinks_supply,
        )
        demand = max_flow(
            lambda t: lwr.max_exit_count(vc, fd, geom, t),
            sum(outflow) * T, (n - 1) * T, n * T, kinks_demand,
        )
        want_in = desired_in[n - 1] if desired_in is not None else rng.uniform(0.0, fd.Q)
        want_out = desired_out[n - 1] if desired_out is not None else rng.uniform(0.0, fd.Q)
        inflow.append(min(want_in, supply))
        outflow.append(min(want_out, demand))
    return lwr.ValueConditionSet(densities, np.array(inflow), np.array(outflow), T)


def read_with_highs(path):
    """A HiGHS instance holding the model file at ``path`` as HiGHS's own
    LP/MPS reader parses it (the binding ``solver`` drives)."""
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == highs_core.HighsStatus.kOk
    return highs


def build_lp(columns, rows, name="model"):
    """A LinearProgram of ``columns`` given as (key, lb, ub, binary, obj) and
    ``rows`` as (coefficients by key, sense, rhs).  Zero coefficients are
    dropped and binary columns' bounds clamped to [0, 1]."""
    keys, lb, ub, binary, obj = zip(*columns)
    binary = np.array(binary, dtype=bool)
    lb = np.where(binary, np.maximum(lb, 0.0), np.array(lb, dtype=float))
    ub = np.where(binary, np.minimum(ub, 1.0), np.array(ub, dtype=float))
    rows = [Constraint({k: v for k, v in coeffs.items() if v != 0.0}, sense, rhs)
            for coeffs, sense, rhs in rows]
    return LinearProgram(name, keys, Columns(np.array(obj, dtype=float), lb, ub, binary),
                         pack_rows(rows, keys))


def with_fixed(lp, values):
    """A copy of ``lp`` with the columns of ``values`` (key -> value) fixed
    at their value."""
    columns = lp.column_arrays()
    lb, ub = columns.lb.copy(), columns.ub.copy()
    for key, val in values.items():
        lb[lp.var_id(key)] = ub[lp.var_id(key)] = val
    return LinearProgram(lp.name, lp.keys, columns._replace(lb=lb, ub=ub), lp.row_arrays())
