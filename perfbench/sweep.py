"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads case_study,milp_export,sim_replay \
        --seeds 0-9 --seconds 30 [--trace 0|1] [--out runs.json]

Each run is a fresh ``run.py`` process.  For every workload and metric the
summary gives the median, the quartiles and the quartile spread as a share
of the median (``statistics.quantiles(values, n=4)``), the figures a bound
in ``BENCHMARK.json`` is checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
    }


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="case_study,milp_export,sim_replay")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"machine": machine(), "seconds": float(args.seconds), "trace": int(args.trace),
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            *lines, last = out.stdout.strip().splitlines()
            result = json.loads(last)
            result["seed"] = seed
            result["report"] = lines
            runs.append(result)
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], values if len(values) < 8 else "",
                  flush=True)
        names = list(runs[0]["metrics"])
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in names}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
            "reports": {r["seed"]: r["report"] for r in runs},
        }
        for name, s in summary.items():
            print(f"  {workload:12s} {name:34s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
