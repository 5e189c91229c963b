"""Run one benchmark workload on the corridorflow sources of this checkout.

    python3 perfbench/run.py --workload case_study --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the workload cycles through its inputs, unit after unit,
until ``--seconds`` have passed, and the end-to-end metrics are reported from
the least time each segment of each input's work took (``report.fastest``).
With ``--trace 1`` a fixed
number of units runs twice, untraced and then traced, and the per-layer
metrics are reported; a fixed amount of work makes the counts of one seed
repeat exactly.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import corridorflow\n"
    "from corridorflow.experiments import case_study\n"
    "case_study().corridor()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median over fresh interpreters of importing corridorflow and building
    the case-study corridor, the set-up every CLI command pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(workload, seconds=None, units=None, tracer=None):
    """Run units until ``seconds`` have passed and every input has run, or
    until ``units`` have run; unit ``k`` runs input ``k`` mod
    ``workload.n_inputs``.  Returns (results, wall seconds)."""
    results = []
    t0 = time.perf_counter()
    while True:
        if units is not None and len(results) >= units:
            break
        if (seconds is not None and len(results) >= workload.n_inputs
                and time.perf_counter() - t0 >= seconds):
            break
        k = len(results) % workload.n_inputs
        result = workload.run_unit(k, tracer)
        result.input = k
        results.append(result)
    return results, time.perf_counter() - t0


def _failures(results) -> tuple[int, int, list]:
    attempted = sum(r.attempts for r in results)
    messages = [m for r in results for m in r.failures]
    return attempted, len(messages), messages


def measure_end_to_end(workload, seconds) -> tuple[bool, int, int, dict]:
    from perfbench import report

    setup = setup_seconds()
    results, wall = run_units(workload, seconds=seconds)
    metrics = report.end_to_end(results, setup, peak_rss_mb())
    attempted, failed, messages = _failures(results)

    thr_name, lat_name = report.OPERATIONS[workload.name]
    lat = [x for r in report.fastest(results) for x in r.latencies]
    tail_v, pct, n = report.tail(lat)
    print(f"{workload.name}: {len(results)} units ({workload.n_inputs} inputs) in "
          f"{wall:.2f} s, {attempted} attempts, {failed} failed")
    print(f"  {thr_name} = {metrics['throughput_per_s']:.6g} 1/s")
    print(f"  {lat_name}_p50_s = {metrics['latency_p50_ms'] / 1e3:.6g} s (n={n})")
    print(f"  {lat_name}_tail_s = {tail_v:.6g} s "
          f"(p{pct:.2f}, n={n}, 10 samples above; printed, not gated)")
    print(f"  setup_s = {setup:.6g} s (median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    for msg in messages[:10]:
        print(f"  FAILED: {msg}")
    units = report.END_TO_END_UNITS
    return failed == 0, attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}


def measure_per_layer(workload) -> tuple[bool, int, int, dict]:
    import corridorflow
    from perfbench import report
    from perfbench.tracer import Tracer

    base, base_wall = run_units(workload, units=workload.trace_units)
    with Tracer(corridorflow) as tracer:
        t0 = time.perf_counter()
        traced, _ = run_units(workload, units=workload.trace_units, tracer=tracer)
        traced_wall = time.perf_counter() - t0
    counters = sum((r.counters for r in traced), Counter())
    metrics = report.per_layer(tracer, counters)
    metrics["trace.overhead_s"] = traced_wall - base_wall
    attempted, failed, messages = _failures(traced)

    check_ok, err = report.self_check(tracer, traced_wall)
    same = [a.digest == b.digest for a, b in zip(base, traced)]
    print(f"{workload.name} traced: {len(traced)} units, {traced_wall:.2f} s traced, "
          f"{base_wall:.2f} s untraced, {attempted} attempts, {failed} failed")
    print(f"  self-check: layer + harness self times account for the traced wall "
          f"within {100 * err:.3f}% ({'ok' if check_ok else 'FAILED'}; "
          f"{tracer.unaccounted_s:.4f} s unaccounted, "
          f"{tracer.bookkeeping_s:.4f} s bookkeeping)")
    print(f"  traced and untraced outputs identical: {all(same)}")
    for (layer, label), s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:15]:
        print(f"  {layer:20s} {label:40s} {s:9.4f} s  {tracer.entries[(layer, label)]} spans")
    for msg in messages[:10]:
        print(f"  FAILED: {msg}")
    units = {name: spec[0] for name, spec in report.PER_LAYER.items()}
    units["trace.overhead_s"] = "s"
    correct = failed == 0 and check_ok and all(same)
    return correct, attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corridorflow" / "__init__.py").is_file():
        print(f"no corridorflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import corridorflow

    if Path(corridorflow.__file__).resolve().parent != SRC / "corridorflow":
        print(f"imported corridorflow from {corridorflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            correct, attempted, failed, metrics = measure_per_layer(workload)
        else:
            correct, attempted, failed, metrics = measure_end_to_end(workload, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
