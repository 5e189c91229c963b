"""Metrics from unit results and traces.

End-to-end metrics carry the same names on every workload; what an
operation is depends on the workload (see README.md).  Per-layer
metrics are read from a ``Tracer`` by the rules in ``PER_LAYER``.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict

from perfbench.tracer import contains, ends_with
from perfbench.workloads import UnitResult

#: workload -> the names its throughput and latency carry in the project's
#: own vocabulary, printed beside the shared metric names
OPERATIONS = {
    "case_study": ("horizons_per_s", "decision"),
    "milp_export": ("models_per_s", "state_models"),
    "sim_replay": ("sim_steps_per_s", "step"),
}


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile that leaves at least
    ten samples above it; the maximum when there are ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return math.nan, math.nan, 0
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def fastest(results) -> list:
    """Per input, its runs folded into one: every segment of the unit's work
    at the least time any run took for it.

    Every run of one input does the same work in the same segments, so the
    least time of a segment is the one the shared host slowed least; the
    slower readings measure the host, not the program.  Runs with a failure
    are left out.
    """
    runs = defaultdict(list)
    for r in results:
        if r.ops and not r.failures:
            runs[r.input].append(r)
    best = []
    for reps in runs.values():
        # runs that split the work differently cannot be folded: take the fastest whole
        if len({(len(r.segments), tuple(r.spans)) for r in reps}) > 1:
            reps = [min(reps, key=lambda r: r.busy_s)]
        segments = [min(seg) for seg in zip(*(r.segments for r in reps))]
        best.append(UnitResult(ops=reps[0].ops, segments=segments, spans=reps[0].spans,
                               input=reps[0].input))
    return best


def end_to_end(results, setup_s: float, peak_rss_mb: float) -> dict:
    """Throughput and latency of each input's runs folded by ``fastest``."""
    best = fastest(results)
    ops = sum(r.ops for r in best)
    busy = sum(r.busy_s for r in best)
    lat = [x for r in best for x in r.latencies]
    return {  # zero only when every attempt failed
        "throughput_per_s": ops / busy if busy > 0 else 0.0,
        "latency_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _any(label):
    return True


def _self(layer, match=_any):
    return lambda tr, c: tr.layer_self_s(layer, match)


def _calls(layer, match=_any):
    return lambda tr, c: tr.call_count(layer, match)


def _counter(name):
    return lambda tr, c: c[name]


def _models(field):
    return lambda tr, c: sum(getattr(m, field) for m in tr.models)


def _nodes(tr, c):
    return sum(n for _, n in tr.solves)


def _build_s(tr, c):
    return tr.layer_self_s("twostage", lambda label: ("twostage", label) in tr.model_labels)


def _controller_s(tr, c):
    """Orchestration: the controller (but its CSV writer), ``demand``, and the
    model bundle's solution readers."""
    return (tr.layer_self_s("controller", lambda label: not label.endswith("to_csv"))
            + tr.layer_self_s("demand")
            + tr.layer_self_s("twostage") - _build_s(tr, c))


_COUNT = ends_with("max_exit_count", "max_entry_count")

# name -> (unit, better, rule(tracer, counters)); ``_s`` is self time: the
# layer's busy time while entered through the matching callables, with the
# spans it opened in other layers subtracted.
PER_LAYER = {
    "twostage.build_s": ("s", "lower", _build_s),
    "twostage.builds": ("count", "higher", lambda tr, c: len(tr.models)),
    "twostage.vars": ("count", "lower", _models("vars")),
    "twostage.rows": ("count", "lower", _models("rows")),
    "twostage.binaries": ("count", "lower", _models("binaries")),
    "twostage.nnz": ("count", "lower", _models("nnz")),
    "linkmodel.compat_s": ("s", "lower", _self("linkmodel", contains("compat"))),
    "linkmodel.vsl_s": ("s", "lower", _self("linkmodel", contains("vsl"))),
    "linkmodel.self_s": ("s", "lower", _self("linkmodel")),
    "linkmodel.rows": ("count", "lower", lambda tr, c: tr.row_count("linkmodel")),
    "network.node_s": ("s", "lower", _self("network", contains("node"))),
    "network.rows": ("count", "lower", lambda tr, c: tr.row_count("network")),
    "lp.add_constraint_calls": ("count", "lower", _calls("lp", ends_with("add_constraint"))),
    "lp.add_variable_calls": ("count", "lower", _calls("lp", ends_with("add_variable"))),
    "lp.to_arrays_s": ("s", "lower", _self("lp", ends_with("to_arrays"))),
    "lp.self_s": ("s", "lower", _self("lp")),
    "solver.self_s": ("s", "lower", _self("solver", lambda label: "export" not in label)),
    "solver.highs_s": ("s", "lower", _self("solver.external")),
    "solver.highs_calls": ("count", "lower", _calls("solver.external")),
    "solver.solves": ("count", "higher", lambda tr, c: len(tr.solves)),
    "solver.nodes": ("count", "lower", _nodes),
    "solver.nodes_per_solve": ("count", "lower",
                               lambda tr, c: _nodes(tr, c) / max(len(tr.solves), 1)),
    "solver.gap_limited": ("count", "lower",
                           lambda tr, c: sum(s == "gap-limit" for s, _ in tr.solves)),
    "solver.export_s": ("s", "lower", _self("solver", contains("export"))),
    "solver.export_bytes": ("count", "lower", _counter("solver.export_bytes")),
    "controller.self_s": ("s", "lower", _controller_s),
    "controller.decisions": ("count", "higher", _counter("controller.decisions")),
    "sim.step_s": ("s", "lower", _self("sim", ends_with("step"))),
    "sim.steps": ("count", "higher", _calls("sim", ends_with("step"))),
    "sim.end_period_s": ("s", "lower", _self("sim", ends_with("end_period"))),
    "sim.end_periods": ("count", "higher", _calls("sim", ends_with("end_period"))),
    "sim.segment_densities_s": ("s", "lower", _self("sim", ends_with("segment_densities"))),
    "sim.segment_densities_calls": ("count", "lower",
                                    _calls("sim", ends_with("segment_densities"))),
    "lwr.count_s": ("s", "lower", _self("lwr", _COUNT)),
    "lwr.count_calls": ("count", "lower", _calls("lwr", _COUNT)),
    "lwr.segment_mean_densities_s": ("s", "lower",
                                     _self("lwr", ends_with("segment_mean_densities"))),
    "lwr.segment_mean_densities_calls": ("count", "lower",
                                         _calls("lwr", ends_with("segment_mean_densities"))),
    "lwr.self_s": ("s", "lower", _self("lwr")),
    "experiments.metrics_s": ("s", "lower", _self("experiments", contains("metrics"))),
    "experiments.csv_s": ("s", "lower", lambda tr, c: (
        _self("controller", ends_with("to_csv"))(tr, c)
        + _self("experiments", ends_with("to_csv"))(tr, c))),
    "experiments.csv_bytes": ("count", "lower", _counter("experiments.csv_bytes")),
}


def per_layer(tr, counters: Counter) -> dict:
    return {name: float(rule(tr, counters)) for name, (_, _, rule) in PER_LAYER.items()}


def self_check(tr, wall_s: float, tol: float = 0.03) -> tuple[bool, float]:
    """Layer and harness self times plus tracer bookkeeping must account
    for the traced wall clock; returns (ok, relative error)."""
    accounted = tr.total_self_s() + tr.bookkeeping_s
    err = abs(wall_s - accounted) / wall_s if wall_s > 0 else math.inf
    return err <= tol, err
