from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import pytest

from corridorflow import network, solver
from corridorflow.linkmodel import ENTRY, FD, LinkSpec
from corridorflow.lwr import LinkGeometry
from corridorflow.network import MERGE, SERIAL, Corridor, Junction, TopologyError

from conftest import build_lp, solve_lp_relaxation, value

N = 8
T = 20.0


@pytest.fixture
def corridor(config):
    return config.corridor()


class TestCorridor:
    def test_case_study_layout_is_valid(self, corridor):
        # built without a TopologyError; each junction resolves to its roles
        assert [(r.ramp and r.ramp.id, r.main, r.down) for r in corridor.roles] == [
            ("E", None, "M1"), (None, "M1", "M2"), ("R", "M2", "M3"), (None, "M3", "M4")]

    def test_unknown_link_reference(self, fd):
        geom = LinkGeometry(0.0, 1200.0, 2)
        links = [LinkSpec("a", FD, geom, fd), LinkSpec("e", ENTRY, controlled=True)]
        junctions = [Junction("j", ("e",), ("ghost",), SERIAL)]
        with pytest.raises(TopologyError, match="junction j references unknown link ghost"):
            Corridor(links, junctions)

    def test_serial_arity(self, fd):
        geom = LinkGeometry(0.0, 1200.0, 2)
        links = [
            LinkSpec("a", FD, geom, fd),
            LinkSpec("b", FD, geom, fd),
            LinkSpec("e", ENTRY, controlled=True),
        ]
        junctions = [Junction("j", ("e", "a"), ("b",), SERIAL)]
        with pytest.raises(TopologyError, match="junction j: serial junctions are 1-in/1-out"):
            Corridor(links, junctions)

    def test_flux_law_inconsistency_detected(self, corridor):
        bad = SimpleNamespace(vf=30.0, w=-4.9, rho_m=0.5, rho_c=0.123, Q=2.1)
        link = replace(corridor.link("M1"), id="bad", fd=bad)
        entry = LinkSpec("e", ENTRY, controlled=True)
        with pytest.raises(TopologyError, match="link bad: FD inconsistency"):
            Corridor([entry, link], [Junction("j", ("e",), ("bad",), SERIAL)])

    def test_merge_of_two_mainline_links(self, fd, geom):
        links = [LinkSpec("e", ENTRY, controlled=True)] + [
            LinkSpec(i, FD, geom, fd) for i in ("a", "b", "c")]
        junctions = [Junction("jE", ("e",), ("a",)), Junction("j", ("a", "b"), ("c",), MERGE)]
        with pytest.raises(TopologyError, match="junction j: a merge joins one entry-link ramp"):
            Corridor(links, junctions)

    def test_merge_of_two_ramps(self, fd, geom):
        links = [LinkSpec("e", ENTRY, controlled=True), LinkSpec("r", ENTRY, demand=0.05),
                 LinkSpec("a", FD, geom, fd)]
        with pytest.raises(TopologyError, match="junction j: a merge joins one entry-link ramp"):
            Corridor(links, [Junction("j", ("e", "r"), ("a",), MERGE)])

    def test_dangling_entry_link(self, corridor):
        junctions = [jn for jn in corridor.junctions if jn.kind == SERIAL]
        junctions.insert(2, Junction("j2", ("M2",), ("M3",)))
        with pytest.raises(TopologyError, match="entry link R feeds no junction"):
            replace(corridor, junctions=junctions)

    def test_every_problem_is_listed(self, corridor):
        junctions = corridor.junctions[:2] + (Junction("j2", ("M2", "M3"), ("M9",), MERGE),)
        with pytest.raises(TopologyError) as err:
            replace(corridor, junctions=junctions)
        assert str(err.value) == (
            "junction j2 references unknown link M9; junction j2: a merge joins one entry-link "
            "ramp and one mainline link into one link; entry link R feeds no junction")

    def test_fields_cannot_be_assigned(self, corridor):
        for name in ("links", "junctions", "exit_caps"):
            with pytest.raises(FrozenInstanceError):
                setattr(corridor, name, ())
        with pytest.raises(TypeError):
            corridor.links[0] = corridor.links[1]
        with pytest.raises(FrozenInstanceError):
            corridor.link("R").demand = 0.1
        with pytest.raises(FrozenInstanceError):
            corridor.junctions[0].incoming = ("R",)
        assert corridor.exit_caps == (("M4", (1.4, 0.0)),)

    @pytest.mark.parametrize("lid, cap, problem", [
        ("M9", 1.4, "exit cap on M9, which is not an exit link"),
        ("M2", 1.4, "exit cap on M2, which is not an exit link"),
        ("M4", -1.0, "exit cap on M4 is -1.0, not a nonnegative number"),
        ("M4", float("nan"), "exit cap on M4 is nan, not a nonnegative number"),
    ], ids=["unknown link", "inner link", "negative", "nan"])
    def test_bad_exit_cap_is_refused(self, corridor, lid, cap, problem):
        # such a cap would otherwise be dropped (off an exit link) or read as
        # a negative supply or as no cap at all, by the model and simulator
        with pytest.raises(TopologyError) as err:
            replace(corridor, exit_caps={lid: (cap, 0.0)})
        assert str(err.value) == problem

    def test_duplicate_junction_ids(self, corridor):
        # two merges sharing an id would share their ("merge", id, n) binaries
        junctions = [replace(jn, id="j2") if jn.id == "j1" else jn for jn in corridor.junctions]
        with pytest.raises(TopologyError, match="^duplicate junction ids$"):
            replace(corridor, junctions=junctions)

    def test_serial_junctions_have_no_merge_binaries(self, corridor):
        keys = [network.merge_binary_keys(jn, N) for jn in corridor.junctions]
        assert keys[0] == keys[1] == keys[3] == []
        assert keys[2] == [("merge", "j2", n) for n in range(1, N + 1)]


def _merge_lp(corridor, supply_cap, ramp_demand=None, objective="main", backlog=0.0):
    """Small LP around the case-study merge with the downstream inflow
    limited by a fixed supply and ``backlog`` added to the rows
    ``build_node_constraints`` flags for the ramp."""
    jn = next(j for j in corridor.junctions if j.kind == MERGE)
    if ramp_demand is not None:
        links = [replace(l, demand=ramp_demand) if l.id == "R" else l for l in corridor.links]
        corridor = replace(corridor, links=links)
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
            assert value(sol, lp, ("qin", "R", n)) == pytest.approx(0.05, abs=1e-6)
            assert value(sol, lp, ("qout", "M2", n)) <= 1.35 + 1e-6
        # maximizing junction flow drives the mainline to the residual
        assert value(sol, lp, ("qout", "M2", 1)) == pytest.approx(1.35, abs=1e-6)

    def test_zero_supply_blocks_everything(self, config):
        corridor = config.corridor()
        lp, sol = _merge_lp(corridor, supply_cap=0.0)
        for n in (1, 5):
            assert value(sol, lp, ("qin", "R", n)) == pytest.approx(0.0, abs=1e-9)
            assert value(sol, lp, ("qout", "M2", n)) == pytest.approx(0.0, abs=1e-9)

    def test_supply_limited_ramp_preempts_mainline(self, config):
        corridor = config.corridor()
        lp, sol = _merge_lp(corridor, supply_cap=0.03, ramp_demand=0.05)
        for n in (1, 8):
            assert value(sol, lp, ("qout", "M2", n)) == pytest.approx(0.0, abs=1e-6)
            assert value(sol, lp, ("qin", "R", n)) == pytest.approx(0.03, abs=1e-6)

    def test_backlog_is_served_first(self, config):
        # the flagged rows cap and force the ramp's cumulative admissions at
        # arrivals plus backlog, so the whole backlog leaves in the first step
        corridor = config.corridor()
        lp, sol = _merge_lp(corridor, supply_cap=5.0, ramp_demand=0.05, backlog=0.5)
        assert value(sol, lp, ("qin", "R", 1)) == pytest.approx(0.55, abs=1e-6)
        for n in range(2, N + 1):
            assert value(sol, lp, ("qin", "R", n)) == pytest.approx(0.05, abs=1e-6)


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
        sol = solve_lp_relaxation(lp)
        assert sol.objective == pytest.approx(2.1 * N, abs=1e-6)
        # conservation holds row by row
        for n in (1, 8):
            assert value(sol, lp, ("qout", "M1", n)) == pytest.approx(
                value(sol, lp, ("qin", "M2", n)), abs=1e-9
            )

    def test_exit_cap_schedule(self, config):
        corridor = config.corridor()
        assert corridor.exit_cap("M4", 0.0) == pytest.approx(1.4)
        assert corridor.exit_cap("M4", 6000.0) == pytest.approx(1.4)
        corridor = replace(corridor, exit_caps={"M4": (1.4, 100.0)})
        assert corridor.exit_cap("M4", 0.0) == pytest.approx(corridor.link("M4").capacity)
        assert corridor.exit_cap("M4", 100.0) == pytest.approx(1.4)
