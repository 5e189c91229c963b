from types import SimpleNamespace

import pytest

from corridorflow import network, solver
from corridorflow.linkmodel import ENTRY, FD, LinkSpec, LinkVariables
from corridorflow.lwr import LinkGeometry
from corridorflow.network import MERGE, SERIAL, Corridor, Junction

from conftest import build_lp

N = 8
T = 20.0


@pytest.fixture
def corridor(config):
    return config.corridor()


class TestValidateTopology:
    def test_case_study_layout_is_valid(self, corridor):
        assert network.validate_topology(corridor) == []

    def test_unknown_link_reference(self, fd):
        geom = LinkGeometry(0.0, 1200.0, 2)
        links = [LinkSpec("a", FD, geom, fd), LinkSpec("e", ENTRY, controlled=True)]
        junctions = [Junction("j", ("e",), ("ghost",), SERIAL)]
        errors = network.validate_topology(Corridor(links, junctions))
        assert any("unknown link" in e for e in errors)

    def test_serial_arity(self, fd):
        geom = LinkGeometry(0.0, 1200.0, 2)
        links = [
            LinkSpec("a", FD, geom, fd),
            LinkSpec("b", FD, geom, fd),
            LinkSpec("e", ENTRY, controlled=True),
        ]
        junctions = [Junction("j", ("e", "a"), ("b",), SERIAL)]
        errors = network.validate_topology(Corridor(links, junctions))
        assert any("1-in/1-out" in e for e in errors)

    def test_flux_law_inconsistency_detected(self, corridor):
        bad = SimpleNamespace(vf=30.0, w=-4.9, rho_m=0.5, rho_c=0.123, Q=2.1)
        links = [
            LinkSpec.__new__(LinkSpec)
        ]
        link = links[0]
        link.id = "bad"
        link.kind = FD
        link.geometry = LinkGeometry(0.0, 1200.0, 2)
        link.fd = bad
        link.is_vsl = False
        link.vsl_set = None
        link.controlled = False
        link.demand = 0.0
        entry = LinkSpec("e", ENTRY, controlled=True)
        c = Corridor([entry, link], [Junction("j", ("e",), ("bad",), SERIAL)])
        errors = network.validate_topology(c)
        assert any("FD inconsistency" in e for e in errors)


def _merge_lp(corridor, supply_cap, ramp_demand=None, objective="main"):
    """Small LP around the case-study merge with the downstream inflow
    limited by a fixed supply."""
    jn = next(j for j in corridor.junctions if j.kind == MERGE)
    if ramp_demand is not None:
        corridor.link("R").demand = ramp_demand
    lv = {lid: LinkVariables(corridor.link(lid), N) for lid in ("M2", "R", "M3")}
    rows = network.build_node_constraints(corridor, jn, lv, N, T=T)
    columns = []
    for n in range(1, N + 1):
        columns.append((lv["M2"].qout(n), 0.0, corridor.link("M2").capacity, False,
                        1.0 if objective == "main" else 0.0))
        columns.append((lv["R"].qin(n), 0.0, corridor.link("M3").capacity, False, 0.0))
        columns.append((lv["M3"].qin(n), 0.0, supply_cap, False, 1.0))
    merge = {key: None for row in rows for key in row.coeffs if key[0] == "merge"}
    columns += [(key, 0.0, 1.0, True, 0.0) for key in merge]
    lp = build_lp(columns, [(row.coeffs, row.sense, row.rhs) for row in rows])
    sol = solver.branch_and_bound(lp)
    assert sol.ok
    return lp, lv, sol


class TestMergePriority:
    def test_ramp_served_then_mainline_residual(self, config):
        corridor = config.corridor()
        lp, lv, sol = _merge_lp(corridor, supply_cap=1.4)
        for n in (1, 4, 8):
            assert sol.value(lp, lv["R"].qin(n)) == pytest.approx(0.05, abs=1e-6)
            assert sol.value(lp, lv["M2"].qout(n)) <= 1.35 + 1e-6
        # maximizing junction flow drives the mainline to the residual
        assert sol.value(lp, lv["M2"].qout(1)) == pytest.approx(1.35, abs=1e-6)

    def test_zero_supply_blocks_everything(self, config):
        corridor = config.corridor()
        lp, lv, sol = _merge_lp(corridor, supply_cap=0.0)
        for n in (1, 5):
            assert sol.value(lp, lv["R"].qin(n)) == pytest.approx(0.0, abs=1e-9)
            assert sol.value(lp, lv["M2"].qout(n)) == pytest.approx(0.0, abs=1e-9)

    def test_supply_limited_ramp_preempts_mainline(self, config):
        corridor = config.corridor()
        lp, lv, sol = _merge_lp(corridor, supply_cap=0.03, ramp_demand=0.05)
        for n in (1, 8):
            assert sol.value(lp, lv["M2"].qout(n)) == pytest.approx(0.0, abs=1e-6)
            assert sol.value(lp, lv["R"].qin(n)) == pytest.approx(0.03, abs=1e-6)


class TestSerialJunction:
    def test_through_flow_reaches_capacity(self, config, fd):
        corridor = config.corridor()
        jn = next(j for j in corridor.junctions if j.incoming == ("M1",))
        lv = {lid: LinkVariables(corridor.link(lid), N) for lid in ("M1", "M2")}
        rows = network.build_node_constraints(corridor, jn, lv, N, T=T)
        columns = []
        for n in range(1, N + 1):
            columns.append((lv["M1"].qout(n), 0.0, 2.1, False, 0.0))
            columns.append((lv["M2"].qin(n), 0.0, 2.1, False, 1.0))
        lp = build_lp(columns, [(row.coeffs, row.sense, row.rhs) for row in rows])
        sol = solver.solve_lp_relaxation(lp)
        assert sol.objective == pytest.approx(2.1 * N, abs=1e-6)
        # conservation holds row by row
        for n in (1, 8):
            assert sol.value(lp, lv["M1"].qout(n)) == pytest.approx(
                sol.value(lp, lv["M2"].qin(n)), abs=1e-9
            )

    def test_exit_cap_schedule(self, config):
        corridor = config.corridor()
        assert corridor.exit_cap("M4", 0.0) == pytest.approx(1.4)
        assert corridor.exit_cap("M4", 6000.0) == pytest.approx(1.4)
        corridor.exit_caps["M4"] = (1.4, 100.0)
        assert corridor.exit_cap("M4", 0.0) == pytest.approx(corridor.link("M4").capacity)
        assert corridor.exit_cap("M4", 100.0) == pytest.approx(1.4)
