"""Command-line interface: single runs, controller comparisons, the
demand-variation sweep, and model-file export."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import solver, twostage
from .controller import CONTROLLER_KINDS, TWO_STAGE, plan_model
from .experiments import (
    ExperimentConfig,
    SweepError,
    case_study,
    load_config,
    run_comparison,
    run_sd_sweep,
    run_single,
    save_config,
    sweep_to_csv,
    write_manifest,
)


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="experiment config file (INI)")
    parser.add_argument("--output-dir", type=Path, default=Path("runs"))


def _worker_count(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _add_jobs(parser):
    parser.add_argument("--jobs", type=_worker_count, default=1, help="parallel workers")


def _load(args) -> ExperimentConfig:
    if args.config:
        return load_config(args.config)
    return case_study()


def _prepare_dir(args, config) -> Path:
    out = args.output_dir
    out.mkdir(parents=True, exist_ok=True)
    save_config(config, out / "config.ini")
    return out


def cmd_simulate(args) -> int:
    config = _load(args)
    out = _prepare_dir(args, config)
    traj, metrics = run_single(config, args.controller, args.seed)
    traj.to_csv(out / f"trajectory_{args.controller}_seed{args.seed}.csv")
    solve_log = [
        {"horizon": s.horizon, "stage": s.stage, "status": s.status,
         "objective": s.objective, "bound": s.bound, "nodes": s.nodes,
         "solve_time": round(s.solve_time, 4)}
        for s in traj.solves
    ]
    write_manifest(config, out / "manifest.json", [args.seed],
                   {"command": "simulate", "controller": args.controller,
                    "solves": solve_log,
                    "conservation_error": traj.conservation_error})
    print(f"controller={args.controller} seed={args.seed}")
    print(f"block_penalty={metrics.block_penalty:.6f}")
    print(f"fluctuation={metrics.fluctuation:.6f}")
    print(f"combined={metrics.combined:.6f}")
    print(f"throughput={metrics.throughput:.3f}")
    print(f"conservation_error={traj.conservation_error:.3e}")
    return 0


def cmd_compare(args) -> int:
    config = _load(args)
    out = _prepare_dir(args, config)
    seeds = args.seeds if args.seeds else list(range(config.n_seeds))
    comp = run_comparison(config, seeds, jobs=args.jobs)
    comp.to_csv(out / "comparison.csv")
    write_manifest(config, out / "manifest.json", seeds, {"command": "compare"})
    if comp.failures:
        for key, msg in comp.failures.items():
            print(f"FAILED {key}: {msg}", file=sys.stderr)
        return 1
    for kind in CONTROLLER_KINDS:
        agg = comp.aggregate(kind)
        print(f"{kind:10s} block={agg['block_penalty']:10.4f} "
              f"fluct={agg['fluctuation']:10.4f} combined={agg['combined']:10.4f} "
              f"throughput={agg['throughput']:10.1f}")
    for kind, frac in comp.reductions().items():
        print(f"reduction vs {kind}: {100 * frac:.1f}%")
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    out = _prepare_dir(args, config)
    try:
        rows = run_sd_sweep(config, jobs=args.jobs)
    except SweepError as err:
        for key, msg in err.failures.items():
            print(f"FAILED {key}: {msg}", file=sys.stderr)
        return 1
    sweep_to_csv(rows, out / "sweep.csv")
    write_manifest(config, out / "manifest.json",
                   list(range(config.sweep_seeds)), {"command": "sweep"})
    for row in rows:
        print(f"p={row['p']:.3f} sd={row['sd']:.4f} "
              + " ".join(f"{k}={row[k]:.3f}" for k in row if "/combined" in k))
    return 0


def cmd_export_milp(args) -> int:
    config = _load(args)
    out = _prepare_dir(args, config)
    corridor = config.corridor()
    state = twostage.HorizonState(
        {l.id: np.zeros(l.geometry.k_max) for l in corridor.fd_links},
        {l.id: 0.0 for l in corridor.entry_links},
        config.n_project,
        config.T,
    )
    bundle = plan_model(corridor, state, args.controller, config.distribution(),
                        config.weights())
    path = out / f"horizon_{args.controller}.{args.format}"
    solver.export_model(bundle.lp, path, fmt=args.format)
    print(f"wrote {path} ({bundle.lp.n_vars} variables, "
          f"{bundle.lp.n_constraints} constraints)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="corridorflow",
        description="Corridor boundary-flow and speed-limit control studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one controller on one seeded stream")
    _add_common(p)
    p.add_argument("--controller", choices=CONTROLLER_KINDS, default=TWO_STAGE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="compare all controllers over seeds")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--seeds", type=int, nargs="*", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="demand-variation sweep")
    _add_common(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-milp", help="write one horizon's model file")
    _add_common(p)
    p.add_argument("--controller", choices=CONTROLLER_KINDS, default=TWO_STAGE)
    p.add_argument("--format", choices=("lp", "mps"), default="lp")
    p.set_defaults(func=cmd_export_milp)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
