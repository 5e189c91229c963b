"""Acceptance gate: every criterion at its stated tolerance.

Criterion 6 runs the full ten-seed, forty-horizon study with the built-in
solver; it is the long pole (minutes, parallelized over two workers) and its
results also feed the conservation suite.  Each criterion prints one
PASS/FAIL line (visible with ``pytest -s``).
"""

import dataclasses
import itertools

import numpy as np
import pytest

from corridorflow import controller as ctl
from corridorflow import lwr, solver, twostage
from corridorflow.experiments import (
    case_study,
    distribution_sd,
    run_comparison,
    symmetric_distribution,
)
from corridorflow.twostage import HorizonState

import lwr_oracle
from conftest import build_lp, compatible_vc, point_distribution, solve_lp_relaxation

CONTROLLERS = ctl.CONTROLLER_KINDS


def _report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[acceptance] {tag} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def config():
    return case_study()


@pytest.fixture(scope="module")
def study(config):
    """Ten seeded streams, four controllers each, full horizon count."""
    comp = run_comparison(config, seeds=range(10), jobs=2)
    assert not comp.failures, comp.failures
    return comp


class TestCriterion1FDConsistency:
    def test_critical_density_and_capacity(self):
        rho_c = lwr.critical_density(30.0, -4.9, 0.5)
        fd = lwr.TriangularFD(30.0, -4.9, 0.5)
        capacity = lwr_oracle.flux(fd, 0.07)
        ok = abs(rho_c - 0.0702) <= 1e-4 and abs(capacity - 2.1) <= 1e-3
        _report(1, ok, f"rho_c={rho_c:.6f} veh/m, capacity={capacity:.6f} veh/s")


class TestCriterion2OracleAgreement:
    def test_randomized_instances_converge(self, fd, geom):
        rng = np.random.default_rng(2024)
        T, t_end = 20.0, 160.0
        worst_density = 0.0
        regressions = 0
        for _ in range(5):
            # block-structured boundary flows give clean shock/fan patterns
            a, b = rng.uniform(0.0, fd.Q, 2)
            c, d = rng.uniform(0.0, fd.Q, 2)
            vc = compatible_vc(fd, geom, rng, desired_in=[a] * 4 + [b] * 4,
                               desired_out=[c] * 4 + [d] * 4)
            count_err = []
            for refine in (1, 2, 4, 8):
                dx = geom.X / (8 * refine)
                field = lwr_oracle.godunov_oracle(vc, fd, geom, dx / fd.vf, dx)
                step = field.densities.shape[0] - 1
                count_err.append(max(
                    abs(field.count(step, x, geom) - lwr_oracle.moskowitz(vc, fd, geom, t_end, x))
                    for x in (300.0, 600.0, 900.0)
                ))
                if refine == 1:
                    edges = geom.xi + dx * np.arange(field.densities.shape[1] + 1)
                    counts = np.array(
                        [lwr_oracle.moskowitz(vc, fd, geom, t_end, x) for x in edges]
                    )
                    analytic = -np.diff(counts) / dx
                    jump = np.abs(np.diff(analytic, prepend=analytic[0],
                                          append=analytic[-1]))
                    near = np.maximum(jump[:-1], jump[1:]) >= 0.05 * fd.rho_m
                    mask = near.copy()
                    for off in (1, 2):
                        mask[off:] |= near[:-off]
                        mask[:-off] |= near[off:]
                    err = float(np.max(np.abs(analytic - field.densities[step])[~mask],
                                       initial=0.0))
                    worst_density = max(worst_density, err)
            if count_err[-1] > 0.3 * count_err[0] + 0.02:
                regressions += 1
        ok = worst_density <= 0.15 * fd.rho_m and regressions == 0
        _report(2, ok, f"max off-shock density gap {worst_density:.4f} "
                       f"(limit {0.15 * fd.rho_m:.4f}), refinement regressions {regressions}")


def _states_for_certification(config):
    corridor = config.corridor()
    zeros = {l.id: np.zeros(l.geometry.k_max) for l in corridor.fd_links}
    congested = {l.id: np.full(l.geometry.k_max, 0.21) for l in corridor.fd_links}
    mixed = {l.id: np.array([0.05, 0.35]) for l in corridor.fd_links}
    for dens, queue in ((zeros, 0.0), (congested, 6.0), (mixed, 1.5)):
        queues = {l.id: queue if l.controlled else 0.0 for l in corridor.entry_links}
        yield corridor, HorizonState(dens, queues, config.n_project, config.T)


class TestCriterion3CompatibilityCertification:
    def test_solved_models_certify(self, config):
        worst = 0.0
        for corridor, state in _states_for_certification(config):
            for build in (
                lambda: twostage.build_deterministic_equivalent(
                    corridor, state, config.distribution(), config.weights()),
                lambda: twostage.build_deterministic_baseline(
                    corridor, state, 2.0, config.weights()),
            ):
                bundle = build()
                sol = solver.branch_and_bound(bundle.lp)
                assert sol.ok
                worst = max(worst, twostage.certify_solution(bundle, sol))
        _report(3, worst <= 1e-6, f"max compatibility violation {worst:.2e}")


class TestCriterion4DegenerateEquivalence:
    def test_point_distribution_matches_baseline(self, config):
        corridor = config.corridor()
        dist = point_distribution(1.5)
        cfg = config.horizon()
        stream = [1.5] * 3
        traj_two = ctl.run_closed_loop(corridor, stream, ctl.TWO_STAGE, dist,
                                       config.weights(), cfg)
        traj_base = ctl.run_closed_loop(corridor, stream, ctl.D_MEAN, dist,
                                        config.weights(), cfg)
        flow_gap = 0.0
        for lid in ("E", "M1", "M2", "M3", "M4", "R"):
            for kind in ("qin", "qout"):
                flow_gap = max(flow_gap, float(np.max(np.abs(
                    traj_two.series(kind, lid) - traj_base.series(kind, lid)))))
        obj_gap = max(
            abs(a.objective - b.objective)
            for a, b in zip(traj_two.solves, traj_base.solves)
        )
        ok = flow_gap <= 1e-6 and obj_gap <= 1e-6
        _report(4, ok, f"trajectory gap {flow_gap:.2e}, objective gap {obj_gap:.2e}")


class TestCriterion5SolverCorrectness:
    def test_enumeration_and_bounds(self, config):
        rng = np.random.default_rng(55)
        worst_gap = 0.0
        for n_items in (6, 10, 12):
            values = rng.integers(1, 30, n_items)
            weights = rng.integers(1, 10, n_items)
            budget = int(weights.sum() * 0.45) + 1
            keys = [(f"i{i}",) for i in range(n_items)]
            lp = build_lp([(key, 0.0, 1.0, True, float(v)) for key, v in zip(keys, values)],
                          [({key: float(w) for key, w in zip(keys, weights)}, "<=", budget)],
                          "knap")
            best = 0.0
            for mask in itertools.product((0, 1), repeat=n_items):
                if np.dot(mask, weights) <= budget:
                    best = max(best, float(np.dot(mask, values)))
            sol = solver.branch_and_bound(lp)
            worst_gap = max(worst_gap, abs(sol.objective - best))

        bound_ok = True
        for corridor, state in _states_for_certification(config):
            bundle = twostage.build_deterministic_equivalent(
                corridor, state, config.distribution(), config.weights())
            relax = solve_lp_relaxation(bundle.lp)
            incumbent = solver.branch_and_bound(bundle.lp)
            bound_ok = bound_ok and relax.objective >= incumbent.objective - 1e-7
        ok = worst_gap <= 1e-7 and bound_ok
        _report(5, ok, f"enumeration gap {worst_gap:.2e}, "
                       f"relaxation bounds hold: {bound_ok}")


class TestCriterion6CaseStudy:
    def test_a_throughput_spread(self, study):
        totals = {kind: study.aggregate(kind)["throughput"] for kind in CONTROLLERS}
        spread = (max(totals.values()) - min(totals.values())) / min(totals.values())
        _report("6a", spread <= 0.01,
                f"throughput spread {100 * spread:.3f}% across controllers")

    def test_b_combined_metric_reduction(self, study):
        reductions = study.reductions()
        two = study.aggregate(ctl.TWO_STAGE)["combined"]
        detail = ", ".join(f"{k}: {100 * v:.1f}%" for k, v in reductions.items())
        ok = all(v >= 0.30 for v in reductions.values()) and all(
            two < study.aggregate(k)["combined"] for k in reductions
        )
        _report("6b", ok, f"two-stage combined {two:.2f}; reductions {detail}")

    def test_b_soft_per_seed_fluctuation(self, study):
        wins = {kind: 0 for kind in (ctl.D_MIN, ctl.D_MEAN, ctl.D_MAX)}
        for seed in study.seeds:
            two = study.records[(seed, ctl.TWO_STAGE)].fluctuation
            for kind in wins:
                if two <= study.records[(seed, kind)].fluctuation + 1e-9:
                    wins[kind] += 1
        ok = all(w >= 8 for w in wins.values())
        _report("6b-soft", ok, f"per-seed fluctuation wins {wins} (need >= 8/10)")

    def test_c_fluctuation_signs(self, study):
        worst_max = -np.inf
        worst_min = np.inf
        for seed in study.seeds:
            d_max = np.concatenate(study.records[(seed, ctl.D_MAX)].fluct_diffs)
            d_min = np.concatenate(study.records[(seed, ctl.D_MIN)].fluct_diffs)
            worst_max = max(worst_max, float(d_max.max()))
            worst_min = min(worst_min, float(d_min.min()))
        ok = worst_max <= 1e-6 and worst_min >= -1e-6
        _report("6c", ok, f"d-max largest diff {worst_max:+.2e} (<=0), "
                          f"d-min smallest diff {worst_min:+.2e} (>=0)")


class TestCriterion7SweepEndpoints:
    def test_zero_variance_point_and_sd_grid(self, config):
        dist0 = symmetric_distribution(config.demand_levels, 0.0)
        config = dataclasses.replace(config, demand_probs=dist0.probs)
        comp = run_comparison(config, seeds=[0, 1], n_horizons=6, jobs=2)
        base = comp.records[(0, CONTROLLERS[0])]
        spread = 0.0
        for seed in (0, 1):
            recs = [comp.records[(seed, k)] for k in CONTROLLERS]
            ref = recs[0]
            for rec in recs[1:]:
                spread = max(
                    spread,
                    abs(rec.block_penalty - ref.block_penalty),
                    abs(rec.fluctuation - ref.fluctuation),
                    abs(rec.throughput - ref.throughput),
                )
        sd_errs = [
            abs(distribution_sd(symmetric_distribution(config.demand_levels, 0.4)) - 0.447),
            abs(distribution_sd(symmetric_distribution(config.demand_levels, 0.35)) - 0.418),
            abs(distribution_sd(symmetric_distribution(config.demand_levels, 0.0)) - 0.0),
        ]
        ok = spread <= 1e-9 and max(sd_errs) <= 1e-3
        _report(7, ok, f"zero-variance metric spread {spread:.2e}, "
                       f"sd grid error {max(sd_errs):.2e}")


class TestCriterion8Conservation:
    def test_conservation_and_bounds_every_run(self, study):
        worst_cons = 0.0
        worst_density = 0.0
        worst_queue = 0.0
        for rec in study.records.values():
            scale = max(rec.throughput, 1.0)
            worst_cons = max(worst_cons, rec.conservation_error / scale)
            worst_density = max(worst_density, rec.density_excess)
            worst_queue = min(worst_queue, rec.queue_min)
        ok = worst_cons <= 1e-6 and worst_density <= 1e-9 and worst_queue >= -1e-9
        _report(8, ok, f"relative conservation error {worst_cons:.2e}, "
                       f"density overshoot {worst_density:.2e}, "
                       f"most negative queue {worst_queue:.2e}")
