import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
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
    SolveOptions,
    branch_and_bound,
    export_model,
    solve_lp_relaxation,
)

import export_oracle
from conftest import build_lp, read_with_highs, with_fixed
from test_acceptance import _states_for_certification


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
        lp = with_fixed(lp, {lp.key(vid): round(best.x[vid]) for vid in lp.binary_ids()})
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

    def test_node_limit_status(self):
        lp, *_ = random_knapsack(np.random.default_rng(2), 12)
        sol = branch_and_bound(lp, SolveOptions(node_limit=1))
        assert sol.status in (NODE_LIMIT, OPTIMAL, GAP_LIMIT)

    def test_warm_start_accepted(self):
        lp, values, weights, budget = random_knapsack(np.random.default_rng(3), 10)
        cold = branch_and_bound(lp)
        warm = {vid: round(cold.x[vid]) for vid in lp.binary_ids()}
        sol = branch_and_bound(lp, warm_binaries=warm)
        assert sol.objective == pytest.approx(cold.objective, abs=1e-9)


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
    c, A_ub, b_ub, A_eq, b_eq, lb, ub = lp.to_arrays()
    res = milp(-c, integrality=lp.column_arrays().binary, bounds=Bounds(lb, ub),
               constraints=[LinearConstraint(A_ub, -np.inf, b_ub),
                            LinearConstraint(A_eq, b_eq, b_eq)],
               options={"mip_rel_gap": 1e-9})
    assert res.status == 0
    return -res.fun


class TestReportedBound:
    def test_bound_holds_the_optimum_within_the_gap(self, certification_models):
        # the search discards nodes whose LP bound lies within the gap above
        # the incumbent; their bounds must still count in the reported one
        gap = SolveOptions().mip_gap
        for lp in certification_models:
            sol = branch_and_bound(lp)
            optimum = milp_optimum(lp)
            scale = max(1.0, abs(optimum))
            assert sol.objective <= optimum + 1e-9 * scale
            assert sol.bound >= optimum - 1e-9 * scale
            assert sol.bound - sol.objective <= gap * max(1.0, abs(sol.objective)) + 1e-9 * scale


def node_bound_sets(lp, rng, n_nodes=30):
    """Seeded node bounds: binaries fixed, freed and re-fixed, with every
    seventh node fixing two speeds of one link at once (infeasible) and the
    node after it freeing them again."""
    bins = lp.binary_ids()
    deltas = [vid for vid in bins if lp.key(vid)[1] == "delta"]
    _, _, _, _, _, lb0, ub0 = lp.to_arrays()
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
            statuses = set()
            for lb, ub in node_bound_sets(lp, rng):
                warm = relaxation.solve(lb, ub)
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
            _, _, _, _, _, lb, ub = lp.to_arrays()
            lb, ub = lb.copy(), ub.copy()
            for vid in lp.binary_ids():
                lb[vid] = ub[vid] = round(sol.x[vid])
            cold = solver._solve_lp(lp, lb, ub)
            assert sol.x.tobytes() == cold.x.tobytes()
            assert sol.objective == lp.objective_value(cold.x)


def assert_reads_back(lp, path):
    """HiGHS's reader finds ``lp`` in the file at ``path``: maximize, and the
    costs, bounds, integrality, row bounds and matrix of ``to_arrays()`` and
    ``row_arrays()`` to 1e-11 relative, with columns matched by their names
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

    c, _, _, _, _, lb, ub = lp.to_arrays()
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
def small_programs(draw, readable):
    """Models of 1-5 columns (binaries among them) and 0-4 rows of every
    sense, with costs, coefficients and right-hand sides from VALUES.

    ``readable`` keeps to the values HiGHS's reader keeps as written: it
    reads finite costs, bounds and right-hand sides of 1e20 or more as
    infinite, drops coefficients below 1e-9 and rejects those of 1e15 and
    above.
    ``build_lp`` drops zero coefficients, so a row may have no entries and a
    column may have none.
    """
    def pick(values, least=0.0):
        kept = [v for v in values if not readable
                or ((math.isinf(v) or abs(v) < 1e20) and not 0.0 < abs(v) < least)]
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
    return build_lp(columns, rows, "drawn")


class TestConstraintView:
    @settings(max_examples=300, deadline=None)
    @given(lp=small_programs(readable=False))
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
    @given(lp=small_programs(readable=False))
    def test_same_text(self, lp):
        assert solver._write_lp_text(lp) == export_oracle.lp_text(lp)
        assert solver._write_mps_text(lp) == export_oracle.mps_text(lp)

    @settings(max_examples=300, deadline=None)
    @given(lp=small_programs(readable=True))
    def test_same_bytes_read_back(self, lp, tmp_path_factory):
        for fmt, oracle in (("lp", export_oracle.lp_text), ("mps", export_oracle.mps_text)):
            path = tmp_path_factory.getbasetemp() / f"drawn.{fmt}"
            export_model(lp, path, fmt=fmt)
            assert path.read_bytes() == oracle(lp).encode()
            assert_reads_back(lp, path)


class TestUnreadableValues:
    """``export_model`` refuses the values HiGHS's reader would not read back
    as written (the ones ``small_programs(readable=True)`` leaves out)."""

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    @pytest.mark.parametrize("column, row, message", [
        ({"obj": 1e20}, None, "x0: cost 1e+20"),
        ({"lb": -1e20}, None, "x0: lower bound -1e+20"),
        ({"ub": 1e20}, None, "x0: upper bound 1e+20"),
        ({}, (1.0, 1e20), "c0: right-hand side 1e+20"),
        ({}, (1e15, 1.0), "c0, x0: coefficient 1e+15"),
        ({}, (1e-13, 1.0), "c0, x0: coefficient 1e-13"),
    ])
    def test_value_is_named(self, fmt, column, row, message, tmp_path):
        column = {"lb": 0.0, "ub": 5.0, "obj": 1.0, **column}
        rows = [] if row is None else [({("x",): row[0]}, LE, row[1])]
        lp = build_lp([(("x",), column["lb"], column["ub"], False, column["obj"])], rows,
                      "unreadable")
        path = tmp_path / f"model.{fmt}"
        with pytest.raises(ValueError, match=re.escape(message)):
            export_model(lp, path, fmt=fmt)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(lp=small_programs(readable=False))
    def test_refused_exactly_when_unreadable(self, lp, tmp_path_factory):
        c, _, _, _, _, lb, ub = lp.to_arrays()
        _, _, data, _, rhs = lp.row_arrays()
        numbers = np.concatenate([c, lb, ub, rhs])
        unreadable = (np.any(np.isfinite(numbers) & (np.abs(numbers) >= 1e20))
                      or np.any((np.abs(data) >= 1e15) | (np.abs(data) < 1e-9)))
        for fmt in ("lp", "mps"):
            path = tmp_path_factory.getbasetemp() / f"refused.{fmt}"
            if unreadable:
                with pytest.raises(ValueError):
                    export_model(lp, path, fmt=fmt)
            else:
                export_model(lp, path, fmt=fmt)
                assert_reads_back(lp, path)
