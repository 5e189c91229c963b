"""Checks of the benchmark itself, on workloads small enough for the test run.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import corridorflow
from corridorflow import controller as ctl
from corridorflow import sim as sim_mod
from perfbench import report
from perfbench.run import run_units
from perfbench.tracer import Tracer
from perfbench.workloads import (
    CaseStudy,
    MilpExport,
    SimReplay,
    UnitResult,
    closed_loop_timeline,
    lp_file_counts,
    mps_file_counts,
    trajectory_problems,
)

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "case_study": lambda seed, d: CaseStudy(seed, d, n_horizons=2, controllers=("d-min",),
                                            trace_units=1),
    "milp_export": lambda seed, d: MilpExport(seed, d, n_states=2, trace_units=2),
    "sim_replay": lambda seed, d: SimReplay(seed, d, n_horizons=2, trace_units=2),
}


def traced_pass(name, seed, workdir):
    workload = SMALL[name](seed, workdir)
    with Tracer(corridorflow) as tracer:
        results, wall = run_units(workload, units=workload.trace_units, tracer=tracer)
    counters = sum((r.counters for r in results), Counter())
    return workload, results, wall, tracer, report.per_layer(tracer, counters)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_and_trajectory_repeat_for_one_seed(name, tmp_path):
    _, first, _, _, layers_a = traced_pass(name, 3, tmp_path)
    _, second, _, _, layers_b = traced_pass(name, 3, tmp_path)
    counts = [m for m, (unit, _, _) in report.PER_LAYER.items() if unit == "count"]
    assert {m: layers_a[m] for m in counts} == {m: layers_b[m] for m in counts}
    assert [r.digest for r in first] == [r.digest for r in second]
    assert all(not r.failures for r in first + second)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_is_accounted_and_unchanged(name, tmp_path):
    workload, traced, wall, tracer, layers = traced_pass(name, 1, tmp_path)
    ok, err = report.self_check(tracer, wall)
    assert ok, f"spans account for the wall clock only within {err:.2%}"
    untraced, _ = run_units(workload, units=workload.trace_units)
    assert [r.digest for r in untraced] == [r.digest for r in traced]
    busy = {"case_study": "solver.self_s", "milp_export": "twostage.build_s",
            "sim_replay": "sim.step_s"}[name]
    assert layers[busy] > 0


def test_tracer_restores_every_patched_name(tmp_path):
    before = (ctl.run_closed_loop, sim_mod.CorridorSimulator.step,
              corridorflow.solver.linprog, corridorflow.linkmodel.build_compatibility)
    with Tracer(corridorflow):
        assert ctl.run_closed_loop is not before[0]
        assert corridorflow.solver.linprog is not before[2]
    after = (ctl.run_closed_loop, sim_mod.CorridorSimulator.step,
             corridorflow.solver.linprog, corridorflow.linkmodel.build_compatibility)
    assert after == before


def test_solve_time_inside_scipy_is_its_own_layer(tmp_path):
    *_, tracer, layers = traced_pass("case_study", 0, tmp_path)
    assert layers["solver.highs_calls"] >= layers["solver.solves"] > 0
    assert 0 < layers["solver.highs_s"]
    assert layers["solver.nodes"] >= layers["solver.solves"]


def test_failed_attempts_are_counted_not_raised(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("no model")

    monkeypatch.setattr(corridorflow.twostage, "build_deterministic_baseline", broken)
    res = MilpExport(0, tmp_path, n_states=1).run_unit(0)
    assert (res.attempts, len(res.failures), res.ops) == (2, 1, 1)
    assert "RuntimeError: no model" in res.failures[0]
    monkeypatch.undo()

    infeasible = corridorflow.solver.Solution(corridorflow.solver.INFEASIBLE)
    monkeypatch.setattr(corridorflow.solver, "branch_and_bound", lambda *a, **k: infeasible)
    res = SMALL["case_study"](0, tmp_path).run_unit(0)
    assert (res.attempts, res.ops, res.latencies) == (1, 0, [])
    assert "ClosedLoopError" in res.failures[0]


def test_decision_latency_takes_the_gap_after_each_stage():
    cfg = ctl.HorizonConfig(4, 2, 20.0)
    steps = [(10.0 * k + 1.0, 10.0 * k + 2.0) for k in range(8)]  # two horizons
    res = UnitResult()
    res.take(closed_loop_timeline(-0.5, [(0.0, steps)], 73.0, cfg))
    # entry to the first step, then after steps 2, 4 and 6 (the last ends the run)
    assert res.latencies == [1.0, 9.0, 9.0, 9.0]
    assert res.busy_s == 73.5


def test_fastest_takes_each_segment_at_its_least_time():
    runs = [UnitResult(ops=2, segments=[1.0, 5.0, 2.0], spans=[(1, 3)], input=0),
            UnitResult(ops=2, segments=[2.0, 4.0, 3.0], spans=[(1, 3)], input=0),
            UnitResult(ops=1, segments=[9.0], spans=[(0, 1)], input=1),
            UnitResult(ops=1, segments=[1.0], spans=[(0, 1)], input=1, failures=["x"])]
    best = {r.input: r for r in report.fastest(runs)}
    assert (best[0].segments, best[0].latencies) == ([1.0, 4.0, 2.0], [6.0])
    assert best[1].segments == [9.0]
    metrics = report.end_to_end(runs, 0.5, 80.0)
    assert metrics["throughput_per_s"] == 3 / 16.0
    assert metrics["latency_p50_ms"] == 7500.0


def test_tail_leaves_ten_samples_above():
    value, pct, n = report.tail(range(100))
    assert (value, pct, n) == (89, 90.0, 100)
    assert report.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_trajectory_gate_flags_each_violation():
    rho_m = {"M1": 0.5}
    good = {"step": 0, "densities": {"M1": [0.0, 0.5]}, "queues": {"E": 0.0}}
    assert trajectory_problems([good], rho_m, 0.0) == []
    bad_density = dict(good, densities={"M1": [0.0, 0.51]})
    bad_queue = dict(good, queues={"E": -1e-9})
    problems = trajectory_problems([bad_density, bad_queue], rho_m, 2e-6)
    assert len(problems) == 3


def test_export_counts_match_the_model(tmp_path):
    workload = MilpExport(0, tmp_path, n_states=1)
    for label, build in workload._builds(0):
        bundle = build()
        want = (bundle.lp.n_vars, bundle.lp.n_constraints)
        for fmt, counts in (("lp", lp_file_counts), ("mps", mps_file_counts)):
            path = tmp_path / f"{label}.{fmt}"
            corridorflow.solver.export_model(bundle.lp, path, fmt=fmt)
            assert counts(path.read_text(encoding="utf-8")) == want


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_replay", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(report.END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(report.PER_LAYER) | {"trace.overhead_s"}
    assert {w["name"] for w in spec["workloads"]} == set(SMALL)
