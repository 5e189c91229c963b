from types import SimpleNamespace

import pytest

from corridorflow import network, solver
from corridorflow.linkmodel import ENTRY, FD, LinkSpec
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


def _merge_lp(corridor, supply_cap, ramp_demand=None, objective="main", backlog=0.0):
    """Small LP around the case-study merge with the downstream inflow
    limited by a fixed supply and ``backlog`` added to the rows
    ``build_node_constraints`` flags for the ramp."""
    jn = next(j for j in corridor.junctions if j.kind == MERGE)
    if ramp_demand is not None:
        corridor.link("R").demand = ramp_demand
    rows, ramp_rows = network.build_node_constraints(corridor, jn, N, T)
    assert list(ramp_rows) == ["R"]
    for pos in ramp_rows["R"]:
        rows[pos] = rows[pos]._replace(rhs=rows[pos].rhs + backlog)
    columns = []
    for n in range(1, N + 1):
        columns.append((("qout", "M2", n), 0.0, corridor.link("M2").capacity, False,
                        1.0 if objective == "main" else 0.0))
        columns.append((("qin", "R", n), 0.0, corridor.link("M3").capacity, False, 0.0))
        columns.append((("qin", "M3", n), 0.0, supply_cap, False, 1.0))
    merge = {key: None for row in rows for key in row.coeffs if key[0] == "merge"}
    columns += [(key, 0.0, 1.0, True, 0.0) for key in merge]
    lp = build_lp(columns, rows)
    sol = solver.branch_and_bound(lp)
    assert sol.ok
    return lp, sol


class TestMergePriority:
    def test_ramp_served_then_mainline_residual(self, config):
        corridor = config.corridor()
        lp, sol = _merge_lp(corridor, supply_cap=1.4)
        for n in (1, 4, 8):
            assert sol.value(lp, ("qin", "R", n)) == pytest.approx(0.05, abs=1e-6)
            assert sol.value(lp, ("qout", "M2", n)) <= 1.35 + 1e-6
        # maximizing junction flow drives the mainline to the residual
        assert sol.value(lp, ("qout", "M2", 1)) == pytest.approx(1.35, abs=1e-6)

    def test_zero_supply_blocks_everything(self, config):
        corridor = config.corridor()
        lp, sol = _merge_lp(corridor, supply_cap=0.0)
        for n in (1, 5):
            assert sol.value(lp, ("qin", "R", n)) == pytest.approx(0.0, abs=1e-9)
            assert sol.value(lp, ("qout", "M2", n)) == pytest.approx(0.0, abs=1e-9)

    def test_supply_limited_ramp_preempts_mainline(self, config):
        corridor = config.corridor()
        lp, sol = _merge_lp(corridor, supply_cap=0.03, ramp_demand=0.05)
        for n in (1, 8):
            assert sol.value(lp, ("qout", "M2", n)) == pytest.approx(0.0, abs=1e-6)
            assert sol.value(lp, ("qin", "R", n)) == pytest.approx(0.03, abs=1e-6)

    def test_backlog_is_served_first(self, config):
        # the flagged rows cap and force the ramp's cumulative admissions at
        # arrivals plus backlog, so the whole backlog leaves in the first step
        corridor = config.corridor()
        lp, sol = _merge_lp(corridor, supply_cap=5.0, ramp_demand=0.05, backlog=0.5)
        assert sol.value(lp, ("qin", "R", 1)) == pytest.approx(0.55, abs=1e-6)
        for n in range(2, N + 1):
            assert sol.value(lp, ("qin", "R", n)) == pytest.approx(0.05, abs=1e-6)


class TestSerialJunction:
    def test_through_flow_reaches_capacity(self, config, fd):
        corridor = config.corridor()
        jn = next(j for j in corridor.junctions if j.incoming == ("M1",))
        rows, ramp_rows = network.build_node_constraints(corridor, jn, N, T)
        assert ramp_rows == {}
        columns = []
        for n in range(1, N + 1):
            columns.append((("qout", "M1", n), 0.0, 2.1, False, 0.0))
            columns.append((("qin", "M2", n), 0.0, 2.1, False, 1.0))
        lp = build_lp(columns, rows)
        sol = solver.solve_lp_relaxation(lp)
        assert sol.objective == pytest.approx(2.1 * N, abs=1e-6)
        # conservation holds row by row
        for n in (1, 8):
            assert sol.value(lp, ("qout", "M1", n)) == pytest.approx(
                sol.value(lp, ("qin", "M2", n)), abs=1e-9
            )

    def test_exit_cap_schedule(self, config):
        corridor = config.corridor()
        assert corridor.exit_cap("M4", 0.0) == pytest.approx(1.4)
        assert corridor.exit_cap("M4", 6000.0) == pytest.approx(1.4)
        corridor.exit_caps["M4"] = (1.4, 100.0)
        assert corridor.exit_cap("M4", 0.0) == pytest.approx(corridor.link("M4").capacity)
        assert corridor.exit_cap("M4", 100.0) == pytest.approx(1.4)
