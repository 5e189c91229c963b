import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridorflow import controller as ctl
from corridorflow import linkmodel, solver, twostage
from corridorflow.network import TopologyError
from corridorflow.twostage import (
    DemandDistribution,
    HorizonState,
    ModelOptions,
    ObjectiveWeights,
    build_deterministic_baseline,
    build_deterministic_equivalent,
    certify_solution,
    entry_capacity,
    objective_breakdown,
)

import model_oracle
from conftest import point_distribution, value, var_id
from test_acceptance import _states_for_certification

N = 8
T = 20.0


@pytest.fixture(scope="module")
def corridor(config):
    return config.corridor()


def make_state(corridor, densities=0.0, queue=0.0, t0=0.0):
    dens = {}
    for link in corridor.fd_links:
        k = link.geometry.k_max
        dens[link.id] = np.full(k, densities) if np.ndim(densities) == 0 else np.asarray(
            densities
        )
    queues = {l.id: queue if l.controlled else 0.0 for l in corridor.entry_links}
    return HorizonState(dens, queues, N, T, t0)


def solve(bundle, gap=1e-4):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "MIP_GAP", gap)
        sol = solver.branch_and_bound(bundle.lp)
    assert sol.ok
    return sol


class TestDistribution:
    def test_case_study_mean(self, config):
        assert config.distribution().mean() == pytest.approx(1.5, abs=1e-12)

    def test_support_extremes(self, config):
        dist = config.distribution()
        assert dist.min_level() == 1.0 and dist.max_level() == 2.0
        degenerate = DemandDistribution((1.0, 1.5, 2.0), (0.0, 1.0, 0.0))
        assert degenerate.min_level() == degenerate.max_level() == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DemandDistribution((1.0, 2.0), (0.7, 0.7))
        with pytest.raises(ValueError):
            ObjectiveWeights(w4=-1.0)


NAN = float("nan")


def nan_density_model(config):
    state = make_state(config.corridor())
    state.densities["M2"] = np.array([0.1, NAN])
    return build_deterministic_baseline(config.corridor(), state, 1.5, config.weights())


class TestValueTypesRefuseNaN:
    """Each value type refuses NaN (and the other values it cannot hold),
    naming the field, where a NaN would pass its comparisons and fail later
    or not at all."""

    @pytest.mark.parametrize("build, field", [
        (lambda config: DemandDistribution((1.0, NAN), (0.5, 0.5)), "levels"),
        (lambda config: DemandDistribution((1.0, -1.0), (0.5, 0.5)), "levels"),
        (lambda config: DemandDistribution((1.0, 2.0), (NAN, 1.0)), "probs"),
        (lambda config: ctl.HorizonConfig(8, 4, NAN), "T=nan"),
        (lambda config: ctl.HorizonConfig(8, 4, 0.0), "T=0.0"),
        (lambda config: ctl.HorizonConfig(8, 4, -20.0), "T=-20.0"),
        (lambda config: HorizonState({}, {"E": NAN}, N, T), "queue of E"),
        (nan_density_model, "initial densities of M2"),
        (lambda config: ObjectiveWeights(w3=NAN), "weight w3 is nan"),
        (lambda config: ObjectiveWeights(w0=-1e-4), "weight w0 is -0.0001"),
    ], ids=["level-nan", "level-negative", "prob-nan", "T-nan", "T-zero", "T-negative",
            "queue-nan", "density-nan", "weight-nan", "weight-negative"])
    def test_refused(self, config, build, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            build(config)

    def test_exit_cap_from_a_nan_time(self, config):
        corridor = config.corridor()
        with pytest.raises(TopologyError, match="exit cap on M4 starts at nan"):
            dataclasses.replace(corridor, exit_caps={"M4": (1.4, NAN)})


class TestDegenerateEquivalence:
    def test_point_distribution_equals_baseline(self, corridor, config):
        state = make_state(corridor, densities=0.1, queue=2.0)
        weights = config.weights()
        point = point_distribution(1.5)
        two = build_deterministic_equivalent(corridor, state, point, weights)
        base = build_deterministic_baseline(corridor, state, 1.5, weights)
        sol_two = solve(two, gap=1e-6)
        sol_base = solve(base, gap=1e-6)
        assert two.total_objective(sol_two) == pytest.approx(
            base.total_objective(sol_base), abs=1e-6
        )
        np.testing.assert_allclose(
            two.published_control(sol_two, "E"),
            base.published_control(sol_base, "E"),
            atol=1e-6,
        )


class TestTemplateCache:
    def test_corridors_built_alike_share_a_template(self, config):
        def exit_cap_steps(bundle):
            """The steps t of scenario 0's rows qout(M4, t) <= 1.4."""
            keys = [[bundle.lp.keys[i] for i in row.coeffs] for row in bundle.lp.constraints
                    if row.rhs == 1.4]
            return [key[0][3] for key in keys if len(key) == 1 and key[0][:3] == (0, "qout", "M4")]

        def build(corridor):
            return build_deterministic_equivalent(corridor, make_state(corridor, 0.1),
                                                  config.distribution(), config.weights())

        build(config.corridor())
        before = twostage.model_template.cache_info()
        alike = build(config.corridor())
        after = twostage.model_template.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        later = build(dataclasses.replace(config, capacity_drop_start=100.0).corridor())
        assert twostage.model_template.cache_info().misses == before.misses + 1
        # t0 = 0: the drop caps every step at first, and steps from t = 100 s later
        assert exit_cap_steps(alike) == list(range(1, N + 1))
        assert exit_cap_steps(later) == list(range(6, N + 1))


class TestObjectiveStructure:
    def test_zero_demand_scenario_floats_control_to_capacity(self, corridor, config):
        state = make_state(corridor)
        bundle = build_deterministic_baseline(corridor, state, 0.0, config.weights())
        sol = solve(bundle)
        cap = entry_capacity(corridor, "E")
        ctrl = bundle.published_control(sol, "E")
        np.testing.assert_allclose(ctrl, cap, atol=1e-6)
        flows = bundle.scenario_flows(sol, 0)
        np.testing.assert_allclose(flows["E"][0], 0.0, atol=1e-9)

    def test_breakdown_matches_solver_objective(self, corridor, config):
        state = make_state(corridor, densities=0.15, queue=1.0)
        bundle = build_deterministic_equivalent(
            corridor, state, config.distribution(), config.weights()
        )
        sol = solve(bundle)
        bd = objective_breakdown(bundle, sol)
        assert bd["total"] == pytest.approx(bundle.total_objective(sol), abs=1e-6)

    def test_blocked_case_hand_value(self, corridor, config):
        # capped control 1.4 against constant demand 2.0 blocks 0.6 per step:
        # the backlog term is w3 * sum_t 0.6 t = 0.003 * 0.6 * 36.  Inflow
        # penalties are zeroed so the cap is the only restriction.
        state = make_state(corridor)
        opts = ModelOptions(committed_controls={"E": [1.4] * N})
        weights = ObjectiveWeights(w0=config.w0, w1=0.0, w2=0.0, w3=config.w3,
                                   w4=config.w4)
        bundle = build_deterministic_baseline(corridor, state, 2.0, weights, opts)
        sol = solve(bundle)
        flows = bundle.scenario_flows(sol, 0)
        np.testing.assert_allclose(flows["E"][0], 1.4, atol=1e-6)
        bd = objective_breakdown(bundle, sol)
        assert bd["scenarios"][0]["w3_block"] == pytest.approx(
            0.003 * 0.6 * 36.0, abs=1e-6
        )

    def test_epigraph_tight_at_optimum(self, corridor, config):
        state = make_state(corridor, densities=0.12, queue=3.0)
        bundle = build_deterministic_equivalent(
            corridor, state, config.distribution(), config.weights()
        )
        sol = solve(bundle)
        lp = bundle.lp
        for j in range(len(bundle.scenarios)):
            qin = bundle.scenario_flows(sol, j)["E"][0]
            for t in range(1, N):
                u = value(sol, lp, (j, "u", "E", t))
                assert u == pytest.approx(abs(qin[t - 1] - qin[t]), abs=1e-6)

    def test_forcing_invariant(self, corridor, config):
        state = make_state(corridor, densities=0.05, queue=1.5)
        bundle = build_deterministic_equivalent(
            corridor, state, config.distribution(), config.weights()
        )
        sol = solve(bundle)
        for j, scen in enumerate(bundle.scenarios):
            qin = bundle.scenario_flows(sol, j)["E"][0]
            ctrl = bundle.control(sol, "E")
            cum_d = np.cumsum(scen.demand["E"])
            cum_q = np.cumsum(qin)
            for t in range(N):
                control_tight = abs(qin[t] - ctrl[t]) <= 1e-5
                demand_tight = abs(cum_q[t] - cum_d[t]) <= 1e-5
                assert control_tight or demand_tight, (j, t)

    def test_fluctuation_monotone_in_weight(self, corridor, config):
        state = make_state(corridor, densities=0.1, queue=4.0)
        dist = config.distribution()
        fluct_values = []
        for w4 in (0.1, 1.0, 10.0):
            weights = ObjectiveWeights(w4=w4)
            bundle = build_deterministic_equivalent(corridor, state, dist, weights)
            sol = solve(bundle)
            bd = objective_breakdown(bundle, sol)
            total_fluct = sum(
                s["w4_fluctuation"] / w4 for s in bd["scenarios"]
            )
            fluct_values.append(total_fluct)
        assert fluct_values[0] >= fluct_values[1] - 1e-6
        assert fluct_values[1] >= fluct_values[2] - 1e-6

    def test_certification_of_solved_models(self, corridor, config):
        for state in (
            make_state(corridor),
            make_state(corridor, densities=0.2, queue=5.0),
        ):
            bundle = build_deterministic_equivalent(
                corridor, state, config.distribution(), config.weights()
            )
            sol = solve(bundle)
            assert certify_solution(bundle, sol) <= 1e-6

    def test_congestion_mitigation_restricts_control(self, corridor, config):
        # every scenario above the dropped exit capacity and the corridor in
        # its congested steady state: the solved control stays strictly
        # below the entry demand instead of feeding the queue into the links
        state = make_state(corridor, densities=0.224, queue=5.0)
        dist = DemandDistribution((1.5, 2.0), (0.5, 0.5))
        bundle = build_deterministic_equivalent(corridor, state, dist,
                                                config.weights())
        sol = solve(bundle)
        ctrl = bundle.published_control(sol, "E")
        assert np.all(ctrl < dist.min_level() - 1e-6)
        assert np.all(ctrl > 1.0)  # still serving roughly the bottleneck rate

    def test_committed_controls_cap_copy(self, corridor, config):
        state = make_state(corridor, queue=1.0)
        opts = ModelOptions(committed_controls={"E": [1.0, 1.0]})
        bundle = build_deterministic_baseline(
            corridor, state, 2.0, config.weights(), opts
        )
        sol = solve(bundle)
        ctrl = bundle.control(sol, "E")
        assert ctrl[0] <= 1.0 + 1e-9 and ctrl[1] <= 1.0 + 1e-9

    def test_invalid_densities_rejected(self, corridor, config):
        state = make_state(corridor, densities=0.9)  # above jam density
        with pytest.raises(ValueError):
            build_deterministic_baseline(corridor, state, 1.0, config.weights())


class TestStepDemandSupply:
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_solved_flows_within_sending_and_receiving_counts(self, data, config):
        # the model states no demand or supply rows: its compatibility rows
        # must keep every link's cumulative outflow within what the link can
        # send and its cumulative inflow within what it can receive, checked
        # by the simulator's numeric kernel, not the model's templates
        _, bundle = data.draw(drawn_models(config))
        worst = certify_solution(bundle, solve(bundle))
        assert worst <= 1e-6, worst

    def test_certification_caps_each_step_at_capacity(self, corridor, config):
        # every link at capacity, but the first sends nothing in step 1 and
        # twice its capacity in step 2: its count never runs ahead of what it
        # could have sent, yet step 2 overdraws its capacity by Q*T vehicles
        first = corridor.fd_links[0]
        bundle = build_deterministic_baseline(
            corridor, make_state(corridor, densities=first.fd.rho_c), 1.0, config.weights())
        lp = bundle.lp
        x = np.zeros(lp.n_vars)
        for link in corridor.fd_links:
            for n in range(1, N + 1):
                x[var_id(lp, (0, "qin", link.id, n))] = link.fd.Q
                x[var_id(lp, (0, "qout", link.id, n))] = link.fd.Q
            if link.is_vsl:
                x[var_id(lp, (0, "delta", link.id, link.vsl_set.speeds.index(link.fd.vf)))] = 1.0
        x[var_id(lp, (0, "qout", first.id, 1))] = 0.0
        x[var_id(lp, (0, "qout", first.id, 2))] = 2 * first.fd.Q
        worst = certify_solution(bundle, solver.Solution(solver.OPTIMAL, x=x))
        assert worst == pytest.approx(first.fd.Q * T, abs=1e-9)

    def test_certification_sees_a_template_fault(self, config, monkeypatch):
        # every compatibility row's right-hand side lowered by half a vehicle:
        # the model still solves, and its flows overdraw the kernel's counts
        rhs = linkmodel.CompatTemplate.rhs
        monkeypatch.setattr(linkmodel.CompatTemplate, "rhs",
                            lambda self, terms: rhs(self, terms) - 0.5)
        corridor, state = next(_states_for_certification(config))  # empty links
        bundle = build_deterministic_equivalent(corridor, state, config.distribution(),
                                                config.weights())
        assert certify_solution(bundle, solve(bundle)) > 1e-6


@st.composite
def drawn_models(draw, config):
    """(corridor, template-built bundle) over the state features that change
    a model's numbers or drop its entries: empty links (no VSL ``delta``
    coefficients), ramp and entry backlogs, zero demand (no forcing
    coefficient), ``t0`` before and after the exit cap binds, committed
    controls, and both forms of the fluctuation pairs."""
    drop_start = draw(st.sampled_from([0.0, 90.0, 1e6]))
    corridor = dataclasses.replace(config, capacity_drop_start=drop_start).corridor()
    n = draw(st.sampled_from([4, N]))
    densities = {}
    for link in corridor.fd_links:
        k = link.geometry.k_max
        if draw(st.booleans()):
            densities[link.id] = np.zeros(k)
        else:
            values = st.floats(0.0, link.fd.rho_m, allow_subnormal=False)
            densities[link.id] = np.array(draw(st.lists(values, min_size=k, max_size=k)))
    backlog = st.sampled_from([0.0, 0.5, 7.25])
    queues = {l.id: draw(backlog) for l in corridor.entry_links}
    state = HorizonState(densities, queues, n, T, draw(st.sampled_from([0.0, 40.0, 160.0])))
    options = ModelOptions()
    if draw(st.booleans()):
        options.fluct_pairs = [(t, t + 1) for t in range(1, n) if t != n // 2]
    if draw(st.booleans()):
        committed = draw(st.lists(st.sampled_from([0.0, 0.9, 1.8, 9.0]), max_size=n))
        options.committed_controls = {"E": np.array(committed)}
    demand = draw(st.sampled_from(["two-stage", 0.0, 1.5, "vector"]))
    weights = config.weights()
    if demand == "two-stage":
        bundle = build_deterministic_equivalent(corridor, state, config.distribution(),
                                                weights, options)
    else:
        if demand == "vector":
            demand = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]),
                                            min_size=n, max_size=n)))
        bundle = build_deterministic_baseline(corridor, state, demand, weights, options)
    return corridor, bundle


class TestTemplateMatchesRowBuilder:
    """Template-built models against the row-by-row reference builder
    (``model_oracle``): the same arrays, constant and LP/MPS bytes."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_model(self, data, config):
        corridor, bundle = data.draw(drawn_models(config))
        lp = bundle.lp
        oracle, const = model_oracle.assemble_model(
            corridor, bundle.state, bundle.scenarios, bundle.weights, bundle.options, lp.name)
        assert bundle.obj_const == const
        assert lp.keys == oracle.keys
        for got, want in zip([*lp.column_arrays(), *lp.row_arrays()],
                             [*oracle.column_arrays(), *oracle.row_arrays()]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert solver._write_lp_text(lp) == solver._write_lp_text(oracle)
        assert solver._write_mps_text(lp) == solver._write_mps_text(oracle)


class TestTemplateReaders:
    """The readers of a solved model take each quantity from the columns its
    template laid out; they equal the keyed readers of ``model_oracle`` bit
    for bit."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_same_values_as_keyed_readers(self, data, config):
        corridor, drawn = data.draw(drawn_models(config))
        state, weights, options = drawn.state, drawn.weights, drawn.options
        bundles = [
            drawn,
            build_deterministic_equivalent(corridor, state, config.distribution(), weights,
                                           options),
            # every scenario has exhausted its demand: the control floats to capacity
            build_deterministic_baseline(corridor, state, 0.0, weights, options),
        ]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for bundle in bundles:
            n_vars = bundle.lp.n_vars
            # few distinct values, so the speed binaries tie, up to all at once
            for x in (rng.choice([0.0, 0.5, 1.0, 1.25], n_vars), np.full(n_vars, 0.5)):
                sol = solver.Solution(solver.OPTIMAL, x=x)
                for link in corridor.controlled_entries:
                    for read in ("control", "published_control"):
                        got = getattr(bundle, read)(sol, link.id)
                        want = getattr(model_oracle, read)(bundle, sol, link.id)
                        assert got.dtype == want.dtype and np.array_equal(got, want), read
                for j in range(len(bundle.scenarios)):
                    for link in corridor.vsl_links:
                        assert (bundle.selected_speed(sol, link.id, j)
                                == model_oracle.selected_speed(bundle, sol, link.id, j))
                    got = bundle.scenario_flows(sol, j)
                    want = model_oracle.scenario_flows(bundle, sol, j)
                    assert list(got) == list(want)
                    for lid, (qin, qout) in want.items():
                        assert np.array_equal(got[lid][0], qin)
                        assert np.array_equal(got[lid][1], qout)
                assert (objective_breakdown(bundle, sol)["w0_control"]
                        == model_oracle.w0_control(bundle, sol))
