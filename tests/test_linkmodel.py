from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridorflow import linkmodel, lwr, solver
from corridorflow.linkmodel import LinkSpec
from corridorflow.lp import EQ, GE, LE

import lwr_oracle
from conftest import build_lp, compatible_vc, solve_lp_relaxation, value, var_id, with_fixed

T = 20.0
N = 8


@pytest.fixture(scope="module")
def link(fd, geom):
    return LinkSpec("l", "fd", geom, fd)


@pytest.fixture(scope="module")
def vsl_link(fd, geom):
    return LinkSpec("v", "fd", geom, fd, (10.0, 15.0, 20.0, 25.0, 30.0))


class TestLinkSpec:
    @pytest.mark.parametrize("link_id, change, field", [
        ("M1", {"kind": "FD"}, "kind"),
        ("E", {"speeds": (10.0, 30.0)}, "speeds"),
        ("M1", {"controlled": True}, "controlled"),
        ("M1", {"demand": 0.3}, "demand"),
        ("E", {"geometry": lwr.LinkGeometry(0.0, 1200.0, 2)}, "geometry"),
        ("E", {"fd": lwr.TriangularFD(30.0, -4.9, 0.5)}, "fd"),
        ("M1", {"fd": SimpleNamespace(vf=30.0, w=-4.9, rho_m=0.5)}, "fd"),
    ], ids=["kind typo", "speeds on entry", "controlled on fd", "demand on fd",
            "geometry on entry", "fd on entry", "fd not triangular"])
    def test_a_fact_foreign_to_the_kind_is_refused(self, config, link_id, change, field):
        link = config.corridor().link(link_id)
        with pytest.raises(ValueError, match=f"link {link_id}: .*{field}"):
            replace(link, **change)

    @pytest.mark.parametrize("vf", [25.0, 35.0])
    def test_fd_must_be_the_fastest_candidates_law(self, geom, vf):
        with pytest.raises(ValueError, match="link v: fd .* is not the law of the fastest"):
            LinkSpec("v", "fd", geom, lwr.TriangularFD(vf, -4.9, 0.5), (10.0, 30.0))

    def test_every_candidate_shares_the_backward_wave_and_jam_density(self, vsl_link, fd):
        assert [law.vf for law in vsl_link.speed_fds] == list(vsl_link.speeds)
        assert {(law.w, law.rho_m) for law in vsl_link.speed_fds} == {(fd.w, fd.rho_m)}
        assert vsl_link.capacity == fd.Q


def flow_point(lp, link_id, inflow, outflow):
    """The point of ``lp`` with the given per-step boundary flows."""
    x = np.zeros(lp.n_vars)
    for n in range(1, len(inflow) + 1):
        x[var_id(lp, ("qin", link_id, n))] = inflow[n - 1]
        x[var_id(lp, ("qout", link_id, n))] = outflow[n - 1]
    return x


def lp_with_rows(rows, link_id, fd, objective=None):
    columns = [(key, 0.0, fd.Q, False, (objective or {}).get(key, 0.0))
               for n in range(1, N + 1) for key in (("qin", link_id, n), ("qout", link_id, n))]
    return build_lp(columns, rows)


class TestCompatibilityRows:
    def test_row_count_matches_hand_enumeration(self, link):
        rows = linkmodel.build_compatibility(link, [0.1, 0.2], N, T)
        # initial components: 16 step-end rows at chi + 1 kink row (segment 1
        # free-flow arrival), 10 step-end rows at xi + 1 backwave kink row
        # (segment 2, 122.4 s); inflow components: 28 later-step rows at xi,
        # 28 rows at chi (travel = 2 steps), 6 in-horizon kink rows; outflow
        # components: backwave never reaches xi in-horizon, 28 rows at chi
        assert len(rows) == (16 + 1 + 10 + 1) + (28 + 28 + 6) + 28 == 118

    def test_capacity_steady_state_feasible(self, link, fd):
        rows = linkmodel.build_compatibility(link, [fd.rho_c, fd.rho_c], N, T)
        lp = lp_with_rows(rows, "l", fd)
        x = flow_point(lp, "l", [fd.Q] * N, [fd.Q] * N)
        assert lp.max_violation(x) <= 1e-9

    def test_empty_link_requires_travel_time_before_outflow(self, link, fd):
        rows = linkmodel.build_compatibility(link, [0.0, 0.0], N, T)
        # outflow at capacity from the start exits vehicles that are not
        # there yet; the causality row fails by exactly 2 steps of capacity
        lp = lp_with_rows(rows, "l", fd)
        x = flow_point(lp, "l", [fd.Q] * N, [fd.Q] * N)
        assert lp.max_violation(x) == pytest.approx(2 * fd.Q * T, abs=1e-9)
        # delaying the outflow by the travel time makes everything feasible
        x = flow_point(lp, "l", [fd.Q] * N, [0.0, 0.0] + [fd.Q] * (N - 2))
        assert lp.max_violation(x) <= 1e-9

    def test_jammed_link_blocks_inflow(self, link, fd):
        rows = linkmodel.build_compatibility(link, [fd.rho_m, fd.rho_m], N, T)
        lp = lp_with_rows(rows, "l", fd, objective={("qin", "l", 1): 1.0})
        sol = solve_lp_relaxation(lp)
        assert sol.status == solver.OPTIMAL
        assert value(sol, lp, ("qin", "l", 1)) == pytest.approx(0.0, abs=1e-9)
        # cross-check: the finite-volume oracle admits nothing either
        vc = lwr.ValueConditionSet([fd.rho_m, fd.rho_m], [fd.Q] * N, [0.0] * N, T)
        field = lwr_oracle.godunov_oracle(vc, fd, link.geometry, 2.5, 150.0)
        assert field.cum_in[-1] == pytest.approx(0.0, abs=1e-9)

    def test_simulated_flows_certify(self, link, fd, geom):
        rng = np.random.default_rng(31)
        # flows the kernel allows satisfy the template's rows
        for _ in range(4):
            vc = compatible_vc(fd, geom, rng)
            lp = lp_with_rows(linkmodel.build_compatibility(link, vc.initial_density, N, T),
                              "l", fd)
            assert lp.max_violation(flow_point(lp, "l", vc.inflow, vc.outflow)) <= 1e-7

    def test_all_rows_linear(self, link, vsl_link):
        for l in (link, vsl_link):
            rows = linkmodel.build_compatibility(l, [0.1, 0.3], N, T)
            for row in rows:
                assert row.sense in (LE, GE, EQ)
                for coef in row.coeffs.values():
                    assert np.isfinite(coef)


def _folded(expr, fd):
    """A component expression as (flow coefficients, constant), its 1/vf and
    rho_c*vf parts folded with the flux law in the order the model rows take
    them."""
    coeffs = {}
    const = expr.const + expr.rcvf * fd.Q
    for n, a in expr.qin.items():
        coeffs[("qin", n)] = coeffs.get(("qin", n), 0.0) + a
    for n, a in expr.qout.items():
        coeffs[("qout", n)] = coeffs.get(("qout", n), 0.0) + a
    for n, a in expr.kin.items():
        coeffs[("qin", n)] = coeffs.get(("qin", n), 0.0) + a / fd.vf
    return coeffs, const


def _term_bits(term):
    """A row term's keys, constant kind and every float's bytes, so -0.0 and
    0.0 differ."""
    if term is None:
        return None
    coeffs, (kind, *const) = term
    return list(coeffs), kind, np.array([*coeffs.values(), *const]).tobytes()


class TestRowTermsMatchOracle:
    @given(xi=st.floats(-3000.0, 3000.0).filter(lambda v: v != 0.0),
           length=st.floats(100.0, 3000.0), k_max=st.integers(1, 4),
           T=st.floats(1.0, 60.0), n_max=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_inflow_and_outflow_terms_equal_folded_expressions(self, fd, xi, length, k_max,
                                                               T, n_max):
        geom = lwr.LinkGeometry(xi, xi + length, k_max)
        zero = np.zeros(k_max)
        speeds = (10.0, 15.0, 20.0, 25.0, 30.0)
        for law in (fd, *LinkSpec("v", "fd", geom, fd, speeds).speed_fds):
            ends = [p * T for p in range(1, n_max + 1)]
            arrivals = [n * T + geom.length / law.vf for n in range(1, n_max + 1)]
            arrivals += [n * T + (geom.xi - geom.chi) / law.w for n in range(1, n_max + 1)]
            for x in (geom.xi, geom.chi):
                for t in ends + arrivals:
                    for n in range(1, n_max + 1):
                        up = lwr_oracle.upstream_component_expr(law, geom, T, n, t, x)
                        want = None
                        if up is not None:
                            coeffs, const = _folded(up, law)
                            want = coeffs, (linkmodel._FIXED, const)
                        got = linkmodel._inflow_term(law, geom, T, n, t, x)
                        assert _term_bits(got) == _term_bits(want), (law, n, t, x)

                        dn = lwr_oracle.downstream_component_expr(law, geom, zero, T, n, t, x)
                        want = None
                        if dn is not None:
                            # at zero density the expression's constant is -R
                            coeffs, _ = _folded(dn, law)
                            want = coeffs, (linkmodel._OUTFLOW, -dn.const, dn.rcvf * law.Q)
                        got = linkmodel._outflow_term(law, geom, T, n, t, x)
                        assert _term_bits(got) == _term_bits(want), (law, n, t, x)


def _solve_vsl_maxflow(vsl_link, fd, densities, fixed_s=None, inflow_cost=0.0):
    """Max-flow model of the VSL link over the link-local keys of its
    speed linearization, with its compatibility rows' link id dropped."""
    rows = [row._replace(coeffs={(kind, *idx): v for (kind, _, *idx), v in row.coeffs.items()})
            for row in linkmodel.build_compatibility(vsl_link, densities, N, T)]
    rows += linkmodel.build_vsl_linearization(vsl_link, N)
    fds, q_max = vsl_link.speed_fds, vsl_link.capacity
    columns = []
    for n in range(1, N + 1):
        columns.append((("qin", n), 0.0, q_max, False, -inflow_cost))
        columns.append((("qout", n), 0.0, q_max, False, float(N - n + 1)))
    columns += [(("delta", s), 0.0, 1.0, True, 0.0) for s in range(len(fds))]
    columns.append((("rcvf",), 0.0, q_max, False, 0.0))
    for n in range(1, N + 1):
        columns.append((("kin", n), 0.0, max(fd_s.rho_c for fd_s in fds), False, 0.0))
        for s, fd_s in enumerate(fds):
            columns.append((("ka", s, n), 0.0, fd_s.rho_c, False, 0.0))
            columns.append((("qa", s, n), 0.0, fd_s.Q, False, 0.0))
    lp = build_lp(columns, rows)
    if fixed_s is not None:
        lp = with_fixed(lp, {("delta", s): 1.0 if s == fixed_s else 0.0
                              for s in range(len(fds))})
        sol = solve_lp_relaxation(lp)
    else:
        sol = solver.branch_and_bound(lp)
    return lp, sol


class TestVSLLinearization:
    def test_requires_vsl_link(self, link):
        with pytest.raises(ValueError):
            linkmodel.build_vsl_linearization(link, N)

    def test_selected_speed_propagates_aux_values(self, vsl_link, fd):
        # fastest speed selected with inflow pinned at 2.1
        lp, _ = _solve_vsl_maxflow(vsl_link, fd, [0.0, 0.0], fixed_s=4)
        lp = with_fixed(lp, {("qin", n): 2.1 for n in range(1, N + 1)})
        sol = solve_lp_relaxation(lp)
        assert sol.status == solver.OPTIMAL
        for n in (1, 5, 8):
            assert value(sol, lp, ("ka", 4, n)) == pytest.approx(0.07, abs=1e-9)
            for s in range(4):
                assert value(sol, lp, ("ka", s, n)) == pytest.approx(0.0, abs=1e-9)
            assert value(sol, lp, ("kin", n)) == pytest.approx(0.07, abs=1e-9)

    def test_zero_inflow_zeroes_aux(self, vsl_link, fd):
        lp, _ = _solve_vsl_maxflow(vsl_link, fd, [0.0, 0.0], fixed_s=2)
        lp = with_fixed(lp, {("qin", n): 0.0 for n in range(1, N + 1)})
        sol = solve_lp_relaxation(lp)
        for n in (1, 4):
            assert value(sol, lp, ("kin", n)) == pytest.approx(0.0, abs=1e-9)

    def test_exactly_one_candidate_bound_active(self, vsl_link):
        rows = linkmodel.build_vsl_linearization(vsl_link, N)
        pick = [r for r in rows if r.sense == EQ and r.rhs == 1.0]
        assert len(pick) == 1
        assert pick[0].coeffs == {("delta", s): 1.0 for s in range(len(vsl_link.speeds))}

    @pytest.mark.parametrize("s", [0, 2, 4])
    def test_fixed_selection_equals_static_model(self, vsl_link, fd, geom, s):
        # spec invariant: with delta pinned, the speed-controlled constraint
        # set collapses to the plain one built with that candidate's flux law
        densities = [0.15, 0.05]
        _, sol_vsl = _solve_vsl_maxflow(vsl_link, fd, densities, fixed_s=s)

        fd_s = vsl_link.speed_fds[s]
        static = LinkSpec("s", "fd", geom, fd_s)
        rows = linkmodel.build_compatibility(static, densities, N, T)
        lp = lp_with_rows(
            rows, "s", fd_s,
            objective={("qout", "s", n): float(N - n + 1) for n in range(1, N + 1)},
        )
        sol_static = solve_lp_relaxation(lp)
        assert sol_vsl.objective == pytest.approx(sol_static.objective, abs=1e-6)


class TestChaining:
    def test_time_zero_returns_initial(self, link, fd):
        vc = lwr.ValueConditionSet([0.2, 0.05], [0.0] * N, [0.0] * N, T)
        out = lwr_oracle.segment_mean_densities(vc, fd, link.geometry, 0.0, resolution=4)
        assert out == pytest.approx([0.2, 0.05], abs=1e-12)

    def test_stationary_capacity_flow(self, link, fd):
        vc = lwr.ValueConditionSet(
            [fd.rho_c, fd.rho_c], [fd.Q] * N, [fd.Q] * N, T
        )
        out = lwr_oracle.segment_mean_densities(vc, fd, link.geometry, 4 * T, resolution=4)
        assert out == pytest.approx([fd.rho_c, fd.rho_c], abs=1e-9)

    def test_mass_conservation_and_resolution_invariance(self, link, fd, geom):
        rng = np.random.default_rng(13)
        for _ in range(4):
            vc = compatible_vc(fd, geom, rng)
            t = 4 * T
            out = lwr_oracle.segment_mean_densities(vc, fd, geom, t, resolution=4)
            out1 = lwr_oracle.segment_mean_densities(vc, fd, geom, t, resolution=9)
            assert out == pytest.approx(out1, abs=1e-9)
            stored = float(np.sum(out)) * geom.X
            entered = float(np.sum(vc.inflow[:4])) * T
            exited = float(np.sum(vc.outflow[:4])) * T
            initial = float(np.sum(vc.initial_density)) * geom.X
            assert stored == pytest.approx(initial + entered - exited, abs=1e-6)

    def test_bounds_clamped(self, link, fd, geom):
        rng = np.random.default_rng(29)
        vc = compatible_vc(fd, geom, rng)
        out = lwr_oracle.segment_mean_densities(vc, fd, geom, 8 * T, resolution=4)
        assert np.all(out >= 0.0) and np.all(out <= fd.rho_m)
