import dataclasses
import hashlib
import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as highs_core

from corridorflow import solver, twostage
from corridorflow.lp import EQ, GE, GE_CODE, LE, LE_CODE, LinearProgram, pack_rows
from corridorflow.solver import (
    GAP_LIMIT,
    INFEASIBLE,
    NODE_LIMIT,
    OPTIMAL,
    branch_and_bound,
    export_model,
)

import export_oracle
import reference_search
from conftest import build_lp, read_with_highs, solve_lp_relaxation, with_fixed
from test_acceptance import _states_for_certification
from test_twostage import drawn_models


def toy_lp():
    return build_lp([(("x",), 0.0, math.inf, False, 1.0)], [({("x",): 1.0}, LE, 2.1)], "toy")


class TestLPRelaxation:
    def test_simple_bound(self):
        sol = solve_lp_relaxation(toy_lp())
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(2.1, abs=1e-9)

    def test_infeasible_pair(self):
        lp = build_lp([(("x",), 0.0, 10.0, False, 1.0)],
                      [({("x",): 1.0}, LE, 0.0), ({("x",): 1.0}, GE, 1.0)])
        assert solve_lp_relaxation(lp).status == INFEASIBLE

    def test_binaries_relaxed(self):
        lp = build_lp([(("b",), 0.0, 1.0, True, 1.0)], [({("b",): 2.0}, LE, 1.0)])
        sol = solve_lp_relaxation(lp)
        assert sol.objective == pytest.approx(0.5, abs=1e-9)


class TestLinearProgram:
    def test_rows_outside_the_columns_are_refused(self):
        lp = toy_lp()
        for column in (-1, lp.n_vars):
            rows = lp.row_arrays()._replace(indices=np.array([column]))
            with pytest.raises(KeyError):
                LinearProgram("bad", lp.keys, lp.column_arrays(), rows)

    def test_zero_coefficients_are_refused(self):
        lp = toy_lp()
        rows = lp.row_arrays()._replace(data=np.array([0.0]))
        with pytest.raises(ValueError):
            LinearProgram("bad", lp.keys, lp.column_arrays(), rows)


def random_knapsack(rng, n_items):
    values = rng.integers(1, 20, n_items)
    weights = rng.integers(1, 12, n_items)
    budget = int(weights.sum() * 0.4) + 1
    keys = [(f"item{i}",) for i in range(n_items)]
    lp = build_lp([(key, 0.0, 1.0, True, float(v)) for key, v in zip(keys, values)],
                  [({key: float(w) for key, w in zip(keys, weights)}, LE, budget)], "knapsack")
    return lp, values, weights, budget


def brute_force(values, weights, budget):
    best = 0.0
    for mask in itertools.product((0, 1), repeat=len(values)):
        if np.dot(mask, weights) <= budget:
            best = max(best, float(np.dot(mask, values)))
    return best


class TestBranchAndBound:
    @pytest.mark.parametrize("n_items", [3, 8, 12])
    def test_matches_exhaustive_enumeration(self, n_items):
        rng = np.random.default_rng(n_items)
        for _ in range(3):
            lp, values, weights, budget = random_knapsack(rng, n_items)
            sol = branch_and_bound(lp)
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(
                brute_force(values, weights, budget), abs=1e-7
            )

    def test_fixed_binaries_reduce_to_relaxation(self):
        lp, *_ = random_knapsack(np.random.default_rng(1), 6)
        best = branch_and_bound(lp)
        lp = with_fixed(lp, {lp.keys[vid]: round(best.x[vid]) for vid in lp.binary_ids()})
        relaxed = solve_lp_relaxation(lp)
        assert branch_and_bound(lp).objective == pytest.approx(
            relaxed.objective, abs=1e-9
        )
        assert relaxed.objective == pytest.approx(best.objective, abs=1e-9)

    def test_bound_sandwich_and_verification(self):
        lp, *_ = random_knapsack(np.random.default_rng(5), 10)
        rel = solve_lp_relaxation(lp)
        sol = branch_and_bound(lp)
        assert rel.objective >= sol.objective - 1e-9
        assert lp.max_violation(sol.x) <= 1e-6

    def test_deterministic_reruns(self):
        lp, *_ = random_knapsack(np.random.default_rng(9), 11)
        a = branch_and_bound(lp)
        b = branch_and_bound(lp)
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)
        assert a.nodes == b.nodes

    def test_integer_infeasible(self):
        lp = build_lp([(("b1",), 0.0, 1.0, True, 0.0), (("b2",), 0.0, 1.0, True, 0.0)],
                      [({("b1",): 1.0, ("b2",): 1.0}, EQ, 0.5)])
        assert branch_and_bound(lp).status == INFEASIBLE

    def test_node_limit_status(self, monkeypatch):
        lp, *_ = random_knapsack(np.random.default_rng(2), 12)
        monkeypatch.setattr(solver, "MAX_NODES", 1)
        sol = branch_and_bound(lp)
        assert sol.status in (NODE_LIMIT, OPTIMAL, GAP_LIMIT)

    def test_warm_start_accepted(self):
        lp, values, weights, budget = random_knapsack(np.random.default_rng(3), 10)
        cold = branch_and_bound(lp)
        sol = branch_and_bound(lp, warm_binaries=cold.x[lp.binary_ids()])
        assert sol.objective == pytest.approx(cold.objective, abs=1e-9)


def count_searches(monkeypatch) -> list:
    """A list that grows by one per search run: each search ends in one cold
    ``linprog`` solve, and a search looked up in the memo runs none."""
    searches, linprog = [], solver.linprog

    def spy(*args, **kwargs):
        searches.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(solver, "linprog", spy)
    return searches


def changed(lp, part, field, at=0, by=1.0):
    """``lp`` with entry ``at`` of one of its arrays moved by ``by``; ``part``
    is "rows" or "columns"."""
    cols, rows = lp.column_arrays(), lp.row_arrays()
    arrays = rows if part == "rows" else cols
    values = getattr(arrays, field).copy()
    values[at] += by
    arrays = arrays._replace(**{field: values})
    return LinearProgram(lp.name, lp.keys, arrays if part == "columns" else cols,
                         arrays if part == "rows" else rows)


class TestSharedSearches:
    """Inside ``solver.shared_searches()`` a repeated search is looked up."""

    def test_a_repeat_is_looked_up_and_equal(self, monkeypatch):
        lp, *_ = random_knapsack(np.random.default_rng(4), 8)
        alone = branch_and_bound(lp)
        searches = count_searches(monkeypatch)
        with solver.shared_searches():
            first, again = branch_and_bound(lp), branch_and_bound(lp)
        assert len(searches) == 1
        for sol in (first, again):
            assert dataclasses.replace(sol, x=None) == dataclasses.replace(alone, x=None)
            assert sol.x.tobytes() == alone.x.tobytes()

    @pytest.mark.parametrize("part, field", [
        ("rows", "rhs"), ("rows", "data"), ("columns", "lb"), ("columns", "ub"),
        ("columns", "obj")])
    def test_any_changed_number_searches_again(self, monkeypatch, part, field):
        lp, *_ = random_knapsack(np.random.default_rng(4), 8)
        # a binary's bounds move to 1 (lb) or 0 (ub): the search rounds binaries
        by = {"lb": 1.0, "ub": -1.0}.get(field, 0.5)
        other = changed(lp, part, field, by=by)
        searches = count_searches(monkeypatch)
        with solver.shared_searches():
            branch_and_bound(lp)
            branch_and_bound(other)
            branch_and_bound(other)
        assert len(searches) == 2

    def test_a_changed_warm_start_searches_again(self, monkeypatch):
        lp, *_ = random_knapsack(np.random.default_rng(4), 8)
        cold = branch_and_bound(lp)
        warm = cold.x[lp.binary_ids()]
        flipped = warm.copy()
        flipped[0] = 1.0 - flipped[0]
        searches = count_searches(monkeypatch)
        with solver.shared_searches():
            for start in (None, warm, flipped, warm, None):
                branch_and_bound(lp, warm_binaries=start)
        assert len(searches) == 3

    def test_outside_the_block_every_call_searches(self, monkeypatch):
        lp, *_ = random_knapsack(np.random.default_rng(4), 8)
        searches = count_searches(monkeypatch)
        with solver.shared_searches():
            branch_and_bound(lp)
        branch_and_bound(lp)
        branch_and_bound(lp)
        assert len(searches) == 3

    def test_a_hit_hands_out_its_own_point(self):
        lp, *_ = random_knapsack(np.random.default_rng(4), 8)
        with solver.shared_searches():
            first = branch_and_bound(lp)
            kept = first.x.copy()
            first.x[:] = -7.0
            hit = branch_and_bound(lp)
            hit.x[:] = 9.0
            assert branch_and_bound(lp).x.tobytes() == kept.tobytes()

    def test_the_memo_keeps_digests_and_solutions_and_ends_with_the_block(self):
        lp, *_ = random_knapsack(np.random.default_rng(4), 8)
        assert solver._searches.get() is None
        with solver.shared_searches():
            branch_and_bound(lp)
            branch_and_bound(lp, warm_binaries=np.zeros(len(lp.binary_ids())))
            memo = solver._searches.get()
            assert len(memo) == 2
            assert all(isinstance(key, bytes) and type(sol) is solver.Solution
                       for key, sol in memo.items())
        assert solver._searches.get() is None

    def test_a_bad_warm_start_is_refused_inside_the_block(self):
        lp, *_ = random_knapsack(np.random.default_rng(3), 4)
        cold = branch_and_bound(lp)
        with solver.shared_searches():
            for warm in ({vid: round(cold.x[vid]) for vid in lp.binary_ids()},
                         cold.x[lp.binary_ids()][:-1], [1.0] * 5):
                with pytest.raises(ValueError, match="warm_binaries"):
                    branch_and_bound(lp, warm_binaries=warm)


@pytest.fixture(scope="module")
def certification_models(config):
    """Two-stage and d-mean models of the three certification states."""
    models = []
    for corridor, state in _states_for_certification(config):
        models.append(twostage.build_deterministic_equivalent(
            corridor, state, config.distribution(), config.weights()).lp)
        models.append(twostage.build_deterministic_baseline(
            corridor, state, config.distribution().mean(), config.weights()).lp)
    return models


def milp_optimum(lp):
    """The optimum of ``lp`` found by ``scipy.optimize.milp`` at a relative
    gap of 1e-9 (a test oracle only)."""
    c, lb, ub, binary = lp.column_arrays()
    A_ub, b_ub, A_eq, b_eq = solver._linprog_rows(lp)
    res = milp(-c, integrality=binary, bounds=Bounds(lb, ub),
               constraints=[LinearConstraint(A_ub, -np.inf, b_ub),
                            LinearConstraint(A_eq, b_eq, b_eq)],
               options={"mip_rel_gap": 1e-9})
    assert res.status == 0
    return -res.fun


class TestReportedBound:
    def test_bound_holds_the_optimum_within_the_gap(self, certification_models):
        # the search discards nodes whose LP bound lies within the gap above
        # the incumbent; their bounds must still count in the reported one
        gap = solver.MIP_GAP
        for lp in certification_models:
            sol = branch_and_bound(lp)
            optimum = milp_optimum(lp)
            scale = max(1.0, abs(optimum))
            assert sol.objective <= optimum + 1e-9 * scale
            assert sol.bound >= optimum - 1e-9 * scale
            assert sol.bound - sol.objective <= gap * max(1.0, abs(sol.objective)) + 1e-9 * scale


#: (status, nodes, objective, bound, sha256 of x) of each certification model
#: solved cold, then warm-started from its own binaries
SOLVES = [
    [("optimal", 98, 0.49800000000000016, 0.49800000000000016,
      "a21cd25218169e11a36c1adfa69ae55a93697823986c06f8c703e69f0d893398"),
     ("optimal", 2, 0.49800000000000016, 0.49800000000000033,
      "a21cd25218169e11a36c1adfa69ae55a93697823986c06f8c703e69f0d893398")],
    [("optimal", 23, 0.498, 0.498,
      "a82d0bc6767addfb884b3599b5ddb04ef5ec65458e9bac32ada4f833b8420160"),
     ("optimal", 2, 0.498, 0.49800000000000977,
      "a82d0bc6767addfb884b3599b5ddb04ef5ec65458e9bac32ada4f833b8420160")],
    [("optimal", 20, 51.244052800000006, 51.248600813753576,
      "6001ec8c4c740bbb3759dd150b0a10563680c11eb728ee39ad6159e7e61b5287"),
     ("optimal", 2, 51.244052800000006, 51.248600813753576,
      "6001ec8c4c740bbb3759dd150b0a10563680c11eb728ee39ad6159e7e61b5287")],
    [("optimal", 13, 51.2440528, 51.248600813753576,
      "cb161c1bc76e29b64ab5ee0673c0d227141a3d5642b6c0ec37f92d1a3eed5109"),
     ("optimal", 2, 51.2440528, 51.248600813753576,
      "cb161c1bc76e29b64ab5ee0673c0d227141a3d5642b6c0ec37f92d1a3eed5109")],
    [("optimal", 20, 50.527575, 50.53221796203437,
      "0218fcf6ba277fc8dc5a07fae59b942ea6c74599105075458e8f89a61082dbe0"),
     ("optimal", 4, 50.527575, 50.53221796203437,
      "0218fcf6ba277fc8dc5a07fae59b942ea6c74599105075458e8f89a61082dbe0")],
    [("optimal", 15, 50.582975, 50.58730981375357,
      "588058fa3407fbac824c61df47a90b186689aea7580ea0d3f970c20807b9ed44"),
     ("optimal", 2, 50.582975, 50.58730981375357,
      "588058fa3407fbac824c61df47a90b186689aea7580ea0d3f970c20807b9ed44")],
]


class TestPinnedSolves:
    """The search's every observable, bit for bit: a change that moves a pin
    moves the search, and must say why."""

    def test_cold_and_warm_solves_repeat(self, certification_models):
        def pin(sol):
            return (sol.status, sol.nodes, sol.objective, sol.bound,
                    hashlib.sha256(sol.x.tobytes()).hexdigest())

        got = []
        for lp in certification_models:
            cold = branch_and_bound(lp)
            warm = branch_and_bound(lp, warm_binaries=cold.x[lp.binary_ids()])
            got.append([pin(cold), pin(warm)])
        assert got == SOLVES


def assert_relaxation_holds(lp):
    """``solver._Relaxation(lp)``'s HiGHS instance holds exactly ``lp``,
    compared with no tolerance: minimize ``-c`` over continuous columns with
    the model's bounds (infinite ones as HiGHS's infinity), the row bounds
    read from the sense codes, and every entry of the row block column by
    column, rows ascending within each column."""
    model = solver._Relaxation(lp).highs.getLp()
    c, lb, ub, _ = lp.column_arrays()
    indptr, indices, data, sense, rhs = lp.row_arrays()
    n, m, inf = lp.n_vars, lp.n_constraints, highs_core.kHighsInf
    assert (model.num_col_, model.num_row_) == (n, m)
    assert model.sense_ == highs_core.ObjSense.kMinimize
    assert all(t == highs_core.HighsVarType.kContinuous for t in model.integrality_)

    def same(actual, expected):
        assert np.array_equal(np.asarray(actual), expected)

    same(model.col_cost_, -c)
    same(model.col_lower_, np.where(lb == -np.inf, -inf, lb))
    same(model.col_upper_, np.where(ub == np.inf, inf, ub))
    same(model.row_lower_, np.where(sense == LE_CODE, -inf, rhs))
    same(model.row_upper_, np.where(sense == GE_CODE, inf, rhs))
    matrix = model.a_matrix_
    assert matrix.format_ == highs_core.MatrixFormat.kColwise
    entry_row = np.repeat(np.arange(m), np.diff(indptr))
    order = np.lexsort((entry_row, indices))
    same(matrix.start_, np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=n)))))
    same(matrix.index_, entry_row[order])
    same(matrix.value_, data[order])


def residue_model(config, m3=(0.37705676, 0.0)):
    """The two-stage model of a state with the exit cap binding from t = 0,
    four steps, and every link empty but M3, whose segment densities are
    ``m3``.  The default ones make speed-selection (``delta``) coefficients
    of rounding residue of an exact 0, 2.84e-14 in magnitude."""
    corridor = dataclasses.replace(config, capacity_drop_start=0.0).corridor()
    densities = {l.id: np.zeros(l.geometry.k_max) for l in corridor.fd_links}
    densities["M3"] = np.array(m3)
    state = twostage.HorizonState(densities, {l.id: 0.0 for l in corridor.entry_links}, 4,
                                  config.T)
    return twostage.build_deterministic_equivalent(corridor, state, config.distribution(),
                                                   config.weights()).lp


def tiny_demand_model(config):
    """The two-stage model of the empty corridor, eight steps, with the
    entry's demand at 1e-10 or at the case study's top level."""
    corridor = config.corridor()
    densities = {l.id: np.zeros(l.geometry.k_max) for l in corridor.fd_links}
    state = twostage.HorizonState(densities, {l.id: 0.0 for l in corridor.entry_links}, 8,
                                  config.T)
    dist = twostage.DemandDistribution((1e-10, max(config.demand_levels)), (0.5, 0.5))
    return twostage.build_deterministic_equivalent(corridor, state, dist, config.weights()).lp


class TestRelaxationHoldsTheModel:
    def test_certification_models(self, certification_models):
        for lp in certification_models:
            assert_relaxation_holds(lp)

    def test_state_with_rounding_residue(self, config):
        assert_relaxation_holds(residue_model(config))

    def test_state_with_coefficients_at_the_floor(self, config):
        # M3 at 1e-12 makes three delta coefficients of exactly 1e-9, which
        # HiGHS drops on load
        assert_relaxation_holds(residue_model(config, m3=(1e-12, 1e-12)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_models(self, data, config):
        _, bundle = data.draw(drawn_models(config))
        assert_relaxation_holds(bundle.lp)


def node_bound_sets(lp, rng, n_nodes=30):
    """Seeded node bounds: binaries fixed, freed and re-fixed, with every
    seventh node fixing two speeds of one link at once (infeasible) and the
    node after it freeing them again."""
    bins = lp.binary_ids()
    deltas = [vid for vid in bins if lp.keys[vid][1] == "delta"]
    _, lb0, ub0, _ = lp.column_arrays()
    fixings: dict = {}
    for node in range(n_nodes):
        move = rng.integers(3) if fixings else 0
        if node % 7 == 6:
            fixings.update({deltas[0]: 1.0, deltas[1]: 1.0})
        elif node % 7 == 0 and node:
            fixings.pop(deltas[0], None)
            fixings.pop(deltas[1], None)
        elif move == 0:
            free = [vid for vid in bins if vid not in fixings]
            for vid in rng.choice(free, size=rng.integers(1, 6), replace=False):
                fixings[int(vid)] = float(rng.integers(2))
        elif move == 1:
            for vid in rng.choice(list(fixings), size=min(len(fixings), 3), replace=False):
                del fixings[int(vid)]
        else:
            vid = int(rng.choice(list(fixings)))
            fixings[vid] = 1.0 - fixings[vid]
        lb, ub = lb0.copy(), ub0.copy()
        for vid, val in fixings.items():
            lb[vid] = ub[vid] = val
        yield lb, ub


class TestWarmRelaxation:
    """Warm node re-solves against cold linprog solves of the same bounds."""

    def test_node_sequence_matches_cold_solves(self, certification_models):
        rng = np.random.default_rng(2018)
        for lp in certification_models:
            relaxation = solver._Relaxation(lp)
            bins = lp.binary_ids()
            statuses = set()
            for lb, ub in node_bound_sets(lp, rng):
                warm = relaxation.solve(lb[bins], ub[bins])
                cold = solver._solve_lp(lp, lb, ub)
                assert warm.status == cold.status
                statuses.add(cold.status)
                if cold.status == OPTIMAL:
                    assert abs(warm.objective - cold.objective) <= 1e-9 * max(
                        1.0, abs(cold.objective))
            assert statuses == {OPTIMAL, INFEASIBLE}

    def test_returned_point_is_the_cold_solve_with_binaries_fixed(
            self, certification_models):
        for lp in certification_models:
            sol = branch_and_bound(lp)
            _, lb, ub, _ = lp.column_arrays()
            lb, ub = lb.copy(), ub.copy()
            for vid in lp.binary_ids():
                lb[vid] = ub[vid] = round(sol.x[vid])
            cold = solver._solve_lp(lp, lb, ub)
            assert sol.x.tobytes() == cold.x.tobytes()
            assert sol.objective == lp.objective_value(cold.x)


def searched(search, lp, max_nodes=solver.MAX_NODES, **kwargs):
    """``search(lp, **kwargs)``'s (status, nodes, objective, bound, x bytes)
    and the binaries' bounds, as bytes, of each ``_Relaxation.solve`` call."""
    calls = []
    solve = solver._Relaxation.solve

    def spy(relaxation, lo, hi):
        calls.append((np.asarray(lo, dtype=float).tobytes(),
                      np.asarray(hi, dtype=float).tobytes()))
        return solve(relaxation, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver._Relaxation, "solve", spy)
        patch.setattr(solver, "MAX_NODES", max_nodes)
        sol = search(lp, **kwargs)
    x = None if sol.x is None else sol.x.tobytes()
    return (sol.status, sol.nodes, sol.objective, sol.bound, x), calls


def assert_matches_reference(lp, warm=None, max_nodes=solver.MAX_NODES):
    """The array search and the loop search of ``reference_search`` solve the
    same node LPs in the same order and return the same solution, bit for
    bit; ``warm`` is a warm start in binary_ids() order."""
    warm_map = None if warm is None else dict(zip(lp.binary_ids(), warm))
    got = searched(branch_and_bound, lp, max_nodes, warm_binaries=warm)
    expected = searched(reference_search.branch_and_bound, lp, max_nodes,
                        warm_binaries=warm_map)
    assert got[1] == expected[1]  # the node LPs, in order
    assert got[0] == expected[0]


@st.composite
def knapsacks(draw):
    """Knapsacks of one or two budget rows, some with a continuous column
    that a row caps, and a warm start: none, 0/1 values, or values in
    [0, 1] that the search rounds."""
    n = draw(st.integers(1, 9))
    ints = st.integers(1, 20)
    keys = [(f"item{i}",) for i in range(n)]
    columns = [(key, 0.0, 1.0, True, float(draw(ints))) for key in keys]
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        weights = [float(draw(ints)) for _ in keys]
        rows.append(({k: w for k, w in zip(keys, weights)}, LE,
                     float(draw(st.integers(1, int(sum(weights)))))))
    if draw(st.booleans()):
        columns.append((("slack",), 0.0, math.inf, False, draw(st.sampled_from([0.5, 1.5]))))
        rows.append(({("slack",): 1.0, keys[0]: 2.0}, LE, 1.5))
    lp = build_lp(columns, rows, "knapsack")
    warm = draw(st.none() | st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)
                | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return lp, warm


class TestArraySearchMatchesReference:
    """The array search against the loop search it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=knapsacks(), max_nodes=st.sampled_from([solver.MAX_NODES, 1, 2, 5]))
    def test_drawn_knapsacks(self, drawn, max_nodes):
        lp, warm = drawn
        assert_matches_reference(lp, warm, max_nodes)

    def test_certification_models(self, certification_models):
        for lp in certification_models:
            cold = branch_and_bound(lp)
            assert_matches_reference(lp)
            assert_matches_reference(lp, cold.x[lp.binary_ids()])

    def test_warm_start_must_be_one_value_per_binary(self):
        lp, *_ = random_knapsack(np.random.default_rng(3), 4)
        cold = branch_and_bound(lp)
        for warm in ({vid: round(cold.x[vid]) for vid in lp.binary_ids()},
                     cold.x[lp.binary_ids()][:-1], [1.0] * 5, [], 1.0):
            with pytest.raises(ValueError, match="warm_binaries"):
                branch_and_bound(lp, warm_binaries=warm)


def assert_reads_back(lp, path):
    """HiGHS's reader finds ``lp`` in the file at ``path``: maximize, and the
    costs, bounds, integrality, row bounds and matrix of ``column_arrays()``
    and ``row_arrays()`` to 1e-11 relative, with columns matched by their names
    x<vid>/b<vid> and rows by c<i>."""
    model = read_with_highs(path).getLp()
    n, m = lp.n_vars, lp.n_constraints
    assert model.sense_ == highs_core.ObjSense.kMaximize
    assert (model.num_col_, model.num_row_) == (n, m)
    cols = [int(name[1:]) for name in model.col_names_]
    rows = [int(name[1:]) for name in model.row_names_]
    assert sorted(cols) == list(range(n)) and sorted(rows) == list(range(m))
    binary = lp.column_arrays().binary
    assert list(model.col_names_) == [("b" if binary[vid] else "x") + str(vid) for vid in cols]
    assert list(model.row_names_) == [f"c{i}" for i in rows]
    col_pos, row_pos = np.argsort(cols), np.argsort(rows)

    def close(actual, expected):
        np.testing.assert_allclose(np.asarray(actual, dtype=float), expected,
                                   rtol=1e-11, atol=0.0)

    c, lb, ub, _ = lp.column_arrays()
    close(np.array(model.col_cost_)[col_pos], c)
    close(np.array(model.col_lower_)[col_pos], lb)
    close(np.array(model.col_upper_)[col_pos], ub)
    integer = [t == highs_core.HighsVarType.kInteger for t in model.integrality_] or [False] * n
    assert np.array(integer)[col_pos].tolist() == binary.tolist()

    indptr, indices, data, sense, rhs = lp.row_arrays()
    close(np.array(model.row_lower_)[row_pos], np.where(sense == LE_CODE, -np.inf, rhs))
    close(np.array(model.row_upper_)[row_pos], np.where(sense == GE_CODE, np.inf, rhs))
    matrix = model.a_matrix_
    assert matrix.format_ == highs_core.MatrixFormat.kColwise
    read = sparse.csc_matrix((matrix.value_, matrix.index_, matrix.start_), shape=(m, n))
    want = sparse.csr_matrix((data, indices, indptr), shape=(m, n))
    excess = abs(read[row_pos][:, col_pos] - want) - 1e-11 * abs(want)
    assert (excess > 0.0).nnz == 0


class TestExport:
    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_two_variable_roundtrip(self, fmt, tmp_path):
        x, b = ("x",), ("b",)
        lp = build_lp([(x, 0.0, 5.0, False, 1.25), (b, 0.0, 1.0, True, -0.5)],
                      [({x: 1.0, b: -2.0}, LE, 3.0), ({x: 0.5, b: 1.0}, GE, 0.25),
                       ({x: 1.0}, EQ, 1.0)], "tiny")
        path = tmp_path / f"model.{fmt}"
        export_model(lp, path, fmt=fmt)
        assert_reads_back(lp, path)
        assert b"\r" not in path.read_bytes()

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_model_without_costs_names_its_first_column(self, fmt, tmp_path):
        b, x = ("b",), ("x",)
        lp = build_lp([(b, 0.0, 1.0, True, 0.0), (x, 0.0, 4.0, False, 0.0)],
                      [({b: 1.0, x: 1.0}, LE, 2.0)], "no costs")
        path = tmp_path / f"model.{fmt}"
        export_model(lp, path, fmt=fmt)
        assert_reads_back(lp, path)

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_certification_models_read_back(self, fmt, certification_models, tmp_path):
        for i, lp in enumerate(certification_models):
            path = tmp_path / f"model{i}.{fmt}"
            export_model(lp, path, fmt=fmt)
            assert_reads_back(lp, path)

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_state_with_rounding_residue_reads_back(self, fmt, config, tmp_path):
        lp = residue_model(config)
        path = tmp_path / f"model.{fmt}"
        export_model(lp, path, fmt=fmt)
        assert_reads_back(lp, path)

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_state_with_coefficients_at_the_floor_reads_back(self, fmt, config, tmp_path):
        lp = residue_model(config, m3=(1e-12, 1e-12))
        path = tmp_path / f"model.{fmt}"
        export_model(lp, path, fmt=fmt)
        assert_reads_back(lp, path)

    def test_state_with_a_tiny_demand_level_solves_and_reads_back(self, config, tmp_path):
        # its cumulative demand, at most 8e-10 over the horizon, is a forcing
        # coefficient HiGHS would drop, so the model writes it as 0
        lp = tiny_demand_model(config)
        assert branch_and_bound(lp).status == OPTIMAL
        for fmt in ("lp", "mps"):
            path = tmp_path / f"model.{fmt}"
            export_model(lp, path, fmt=fmt)
            assert_reads_back(lp, path)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_drawn_models_export(self, data, config, tmp_path_factory):
        _, bundle = data.draw(drawn_models(config))
        for fmt in ("lp", "mps"):
            path = tmp_path_factory.getbasetemp() / f"drawn-model.{fmt}"
            export_model(bundle.lp, path, fmt=fmt)
            assert_reads_back(bundle.lp, path)

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_export_bit_reproducible(self, fmt, tmp_path):
        lp, *_ = random_knapsack(np.random.default_rng(7), 8)
        p1, p2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        export_model(lp, p1, fmt=fmt)
        export_model(lp, p2, fmt=fmt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        lp = build_lp([(("x",), 0.0, 1.0, False, 1.0 / 3.0)], [({("x",): 2.0 / 3.0}, LE, 1.0)])
        path = tmp_path / "digits.lp"
        export_model(lp, path, fmt="lp")
        assert "0.333333333333" in path.read_text()
        assert "0.666666666667" in path.read_text()

    def test_case_study_variable_count_structure(self, config, tmp_path):
        corridor = config.corridor()
        dist = config.distribution()
        state = twostage.HorizonState(
            {l.id: np.zeros(l.geometry.k_max) for l in corridor.fd_links},
            {l.id: 0.0 for l in corridor.entry_links},
            config.n_project,
            config.T,
        )
        full = twostage.build_deterministic_equivalent(
            corridor, state, dist, config.weights()
        )
        single = twostage.build_deterministic_baseline(
            corridor, state, 1.5, config.weights()
        )
        n_first = config.n_project * len(corridor.controlled_entries)
        block = single.lp.n_vars - n_first
        assert full.lp.n_vars == n_first + len(dist.levels) * block
        path = tmp_path / "full.lp"
        export_model(full.lp, path, fmt="lp")
        assert read_with_highs(path).getLp().num_col_ == full.lp.n_vars
        assert path.read_text().splitlines()[1] == "Maximize"


#: costs, coefficients and right-hand sides of drawn models: signed zeros,
#: numbers printed in exponent notation and ones that are not
VALUES = (-0.0, 0.0, 1e-13, 1e20, -2.5, 1.0 / 3.0, -1e-7, 1e14)


@st.composite
def program_parts(draw, readable):
    """``build_lp``'s columns and rows of models of 1-5 columns (binaries
    among them) and 0-4 rows of every sense, with costs, coefficients and
    right-hand sides from VALUES.

    ``readable`` keeps to the values HiGHS's reader keeps as written: it
    reads finite costs, bounds and right-hand sides of 1e20 or more as
    infinite, drops coefficients of 1e-9 or less and rejects those of 1e15
    and above.
    ``build_lp`` drops zero coefficients, so a row may have no entries and a
    column may have none.
    """
    def pick(values, least=0.0):
        kept = [v for v in values if not readable
                or ((math.isinf(v) or abs(v) < 1e20) and not 0.0 < abs(v) <= least)]
        return draw(st.sampled_from(kept))

    columns = []
    for j in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            columns.append((("b", j), 0.0, math.inf, True, pick(VALUES)))
            continue
        lb = pick([-math.inf, -1e20, -0.0, 0.0, 1e-13, -3.25, 2.0])
        ub = max(lb, pick([math.inf, 1e20, 0.0, 1e-13, 4.5]))
        columns.append((("x", j), lb, ub, False, pick(VALUES)))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        cols = draw(st.lists(st.integers(0, len(columns) - 1), min_size=1, unique=True))
        rows.append(({columns[c][0]: pick(VALUES, least=1e-9) for c in cols},
                     draw(st.sampled_from([LE, GE, EQ])), pick(VALUES)))
    return columns, rows


def small_programs():
    """Models built from ``program_parts(readable=True)``."""
    return program_parts(readable=True).map(lambda parts: build_lp(*parts, "drawn"))


class TestConstraintView:
    @settings(max_examples=300, deadline=None)
    @given(lp=small_programs())
    def test_packing_the_records_gives_the_rows_back(self, lp):
        # Constraint is both pack_rows' input and the constraints view's output
        packed, rows = pack_rows(lp.constraints, range(lp.n_vars)), lp.row_arrays()
        for a, b in zip(packed, rows):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestExportMatchesLineWriters:
    """The export against the line-by-line writers it replaced
    (``export_oracle``), on the cases the golden models never reach:
    free and nonzero lower bounds, columns without entries or costs, signed
    zeros and exponent notation."""

    @settings(max_examples=300, deadline=None)
    @given(lp=small_programs())
    def test_same_text(self, lp):
        assert solver._write_lp_text(lp) == export_oracle.lp_text(lp)
        assert solver._write_mps_text(lp) == export_oracle.mps_text(lp)

    @settings(max_examples=300, deadline=None)
    @given(lp=small_programs())
    def test_same_bytes_read_back(self, lp, tmp_path_factory):
        for fmt, oracle in (("lp", export_oracle.lp_text), ("mps", export_oracle.mps_text)):
            path = tmp_path_factory.getbasetemp() / f"drawn.{fmt}"
            export_model(lp, path, fmt=fmt)
            assert path.read_bytes() == oracle(lp).encode()
            assert_reads_back(lp, path)


@st.composite
def one_pattern_twice(draw):
    """(A, B, other): readable models A and B with one pattern (the name, the
    binary flags, each row's columns and sense, which columns have costs and
    which are free, have a zero or a nonzero lower bound and a finite upper
    bound) and numbers drawn apart, and a readable model ``other`` of another
    pattern."""
    a = draw(small_programs())
    cost, lb, ub, binary = a.column_arrays()
    indptr, indices, data, sense, rhs = a.row_arrays()

    def numbers(values, size):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=size, max_size=size)))

    readable = [v for v in VALUES if abs(v) < 1e20]
    costed, free, upper = cost != 0.0, lb == -math.inf, ub != math.inf
    cost = np.where(costed, numbers([v for v in readable if v != 0.0], len(cost)),
                    numbers([-0.0, 0.0], len(cost)))
    new_lb = np.where(free, -math.inf, np.where(lb != 0.0, numbers([1e-13, -3.25, 2.0], len(lb)),
                                                numbers([-0.0, 0.0], len(lb))))
    new_ub = np.where(upper, np.maximum(new_lb, numbers([0.0, 1e-13, 4.5], len(ub))), math.inf)
    lb, ub = np.where(binary, lb, new_lb), np.where(binary, ub, new_ub)
    data = numbers([v for v in readable if abs(v) >= 1e-9], len(data))
    b = LinearProgram(a.name, a.keys, (cost, lb, ub, binary),
                      (indptr, indices, data, sense, numbers(readable, len(rhs))))
    other = draw(small_programs())
    assume(any(solver._layout_key(fmt, other) != solver._layout_key(fmt, a)
               for fmt in ("lp", "mps")))
    return a, b, other


class TestLayouts:
    """Each format's layout is built once per pattern and reused; a reused
    one carries no number of an earlier model."""

    @settings(max_examples=150, deadline=None)
    @given(models=one_pattern_twice())
    def test_reused_layout_writes_each_models_numbers(self, models, tmp_path_factory):
        a, b, other = models
        # A's numbers under another name: the name is part of the pattern
        renamed = LinearProgram(a.name + " renamed", a.keys, a.column_arrays(), a.row_arrays())
        solver._layouts.clear()
        for lp in (a, b, renamed, other, a):
            for fmt, oracle in (("lp", export_oracle.lp_text), ("mps", export_oracle.mps_text)):
                path = tmp_path_factory.getbasetemp() / f"reused.{fmt}"
                export_model(lp, path, fmt=fmt)
                assert path.read_bytes() == oracle(lp).encode()
        assert len(solver._layouts) == 4 + sum(
            solver._layout_key(fmt, other) != solver._layout_key(fmt, a) for fmt in ("lp", "mps"))

    def test_export_formats_only_the_numbers_that_changed(self, tmp_path, monkeypatch):
        # B differs from A in one coefficient, one right-hand side (0.0 to
        # -0.0, equal as floats) and one upper bound
        x, y = ("x",), ("y",)

        def model(coef, rhs, ub):
            return build_lp([(x, 0.0, ub, False, 1.5), (y, -1.0, 4.0, False, -2.0)],
                            [({x: coef, y: 2.0}, LE, 3.0), ({x: 1.0, y: -1.0}, GE, rhs)],
                            "one pattern")

        a, b = model(0.25, 0.0, 5.0), model(-7.5, -0.0, 4.5)
        assert ">= -0\n" in export_oracle.lp_text(b) and ">= 0\n" in export_oracle.lp_text(a)
        formatted = []
        texts = solver._texts

        def counted(values, fmt):
            formatted.append(len(values))
            return texts(values, fmt)

        monkeypatch.setattr(solver, "_texts", counted)
        solver._layouts.clear()
        counts = {"lp": [], "mps": []}
        for lp in (a, a, b, a, b, b):
            for fmt, oracle in (("lp", export_oracle.lp_text), ("mps", export_oracle.mps_text)):
                formatted.clear()
                path = tmp_path / f"model.{fmt}"
                export_model(lp, path, fmt=fmt)
                assert path.read_bytes() == oracle(lp).encode()
                counts[fmt].append(sum(formatted))
        # the first export formats every number (LP: 2 costs, 4 coefficients,
        # 2 right-hand sides, 2 lower and 2 upper bounds; MPS: the same but
        # the zero lower bound), a re-export none, and a switch between A and
        # B the coefficient, the right-hand side and the upper bound
        assert counts == {"lp": [12, 0, 3, 3, 3, 0], "mps": [11, 0, 3, 3, 3, 0]}

    def test_layouts_kept_are_bounded(self, tmp_path):
        solver._layouts.clear()
        models = [build_lp([(("x", j), 0.0, 1.0, False, 1.0) for j in range(n)],
                           [({("x", 0): 1.0}, LE, 1.0)], f"n{n}")
                  for n in range(1, solver.LAYOUTS_KEPT + 4)]
        exported = []
        for lp in models:
            for fmt in ("lp", "mps"):
                export_model(lp, tmp_path / f"model.{fmt}", fmt=fmt)
                exported.append(solver._layout_key(fmt, lp))
                assert len(solver._layouts) <= solver.LAYOUTS_KEPT
        # the least recently used went first
        assert list(solver._layouts) == exported[-solver.LAYOUTS_KEPT:]

    def test_threads_sharing_a_layout_write_their_own_numbers(self):
        # eight threads fill one layout per format with their own model's
        # numbers, switching as often as the interpreter allows
        x, y = ("x",), ("y",)
        models = [build_lp([(x, 0.0, 5.0, False, v), (y, 0.0, 1.0, True, -v)],
                           [({x: v, y: 2.0}, LE, v), ({x: 1.0, y: -v}, GE, 0.5)], "shared")
                  for v in np.arange(1.0, 9.0)]
        wrong = []

        def export(lp):
            want = export_oracle.lp_text(lp), export_oracle.mps_text(lp)
            for _ in range(200):
                if (solver._write_lp_text(lp), solver._write_mps_text(lp)) != want:
                    wrong.append(lp)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=export, args=(lp,)) for lp in models]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestUnreadableValues:
    """``LinearProgram`` refuses the values HiGHS would not read as written,
    from the arrays or from a file's 12-digit text (the ones
    ``program_parts(readable=True)`` leaves out)."""

    @pytest.mark.parametrize("column, row, place", [
        ({"obj": math.nan}, None, "column 0 ('x',) has cost nan"),
        ({"obj": math.inf}, None, "column 0 ('x',) has cost inf"),
        ({"obj": -math.inf}, None, "column 0 ('x',) has cost -inf"),
        ({"obj": 1e20}, None, "column 0 ('x',) has cost 1e+20"),
        ({"lb": math.nan}, None, "column 0 ('x',) has lower bound nan"),
        ({"lb": -1e20}, None, "column 0 ('x',) has lower bound -1e+20"),
        ({"ub": math.nan}, None, "column 0 ('x',) has upper bound nan"),
        ({"ub": 1e20}, None, "column 0 ('x',) has upper bound 1e+20"),
        ({}, (1.0, math.nan), "row 1 has right-hand side nan"),
        ({}, (1.0, 1e20), "row 1 has right-hand side 1e+20"),
        ({}, (math.nan, 1.0), "row 1, column 0 ('x',) has coefficient nan"),
        ({}, (-math.inf, 1.0), "row 1, column 0 ('x',) has coefficient -inf"),
        ({}, (1e15, 1.0), "row 1, column 0 ('x',) has coefficient 1000000000000000.0"),
        ({}, (1e-13, 1.0), "row 1, column 0 ('x',) has coefficient 1e-13"),
        ({}, (1e-9, 1.0), "row 1, column 0 ('x',) has coefficient 1e-09"),
        # values the file's 12 digits carry onto a limit
        ({"obj": float(np.nextafter(1e20, 0.0))}, None,
         "column 0 ('x',) has cost 9.999999999999998e+19"),
        ({"ub": float(np.nextafter(1e20, 0.0))}, None,
         "column 0 ('x',) has upper bound 9.999999999999998e+19"),
        ({}, (1.0, float(np.nextafter(-1e20, 0.0))),
         "row 1 has right-hand side -9.999999999999998e+19"),
        ({}, (float(np.nextafter(1e-9, 1.0)), 1.0),
         "row 1, column 0 ('x',) has coefficient 1.0000000000000003e-09"),
        ({}, (float(np.nextafter(1e15, 0.0)), 1.0),
         "row 1, column 0 ('x',) has coefficient 999999999999999.9"),
    ], ids=["cost-nan", "cost-inf", "cost--inf", "cost-1e20", "lower-nan", "lower-1e20",
            "upper-nan", "upper-1e20", "rhs-nan", "rhs-1e20", "coefficient-nan",
            "coefficient-inf", "coefficient-1e15", "coefficient-1e-13", "coefficient-1e-9",
            "cost-near-1e20", "upper-near-1e20", "rhs-near-1e20", "coefficient-near-1e-9",
            "coefficient-near-1e15"])
    def test_value_is_named(self, column, row, place):
        column = {"lb": 0.0, "ub": 5.0, "obj": 1.0, **column}
        coefficient, rhs = row or (1.0, 2.1)
        with pytest.raises(ValueError, match=re.escape(
                f"toy: {place}, which HiGHS would not read as written")):
            build_lp([(("x",), column["lb"], column["ub"], False, column["obj"]),
                      (("y",), 0.0, 1.0, False, 1.0)],
                     [({("y",): 1.0}, LE, 1.0), ({("x",): coefficient, ("y",): 1.0}, LE, rhs)],
                     "toy")

    def test_a_coefficient_highs_drops_is_refused(self):
        # HiGHS drops 5e-10 on load, and the search found x = 10 optimal
        # though the model's optimum is x = 2
        with pytest.raises(ValueError, match=re.escape(
                "toy: row 0, column 0 ('x',) has coefficient 5e-10")):
            build_lp([(("x",), 0.0, 10.0, False, 1.0)], [({("x",): 5e-10}, LE, 1e-9)], "toy")

    @settings(max_examples=200, deadline=None)
    @given(parts=program_parts(readable=False))
    def test_refused_exactly_when_unreadable(self, parts, tmp_path_factory):
        columns, rows = parts
        _, lb, ub, _, cost = zip(*columns)
        numbers = np.array(cost + lb + ub + tuple(rhs for _, _, rhs in rows))
        data = np.array([v for coeffs, _, _ in rows for v in coeffs.values() if v != 0.0])
        unreadable = (np.any(np.isfinite(numbers) & (np.abs(numbers) >= 1e20))
                      or np.any((np.abs(data) >= 1e15) | (np.abs(data) <= 1e-9)))
        if unreadable:
            with pytest.raises(ValueError, match="which HiGHS would not read as written"):
                build_lp(columns, rows, "drawn")
            return
        lp = build_lp(columns, rows, "drawn")
        for fmt in ("lp", "mps"):
            path = tmp_path_factory.getbasetemp() / f"refused.{fmt}"
            export_model(lp, path, fmt=fmt)
            assert_reads_back(lp, path)
