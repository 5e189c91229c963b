import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corridorflow import lwr, sim
from corridorflow.lwr import (
    InvalidParameterError,
    LinkGeometry,
    TriangularFD,
    ValueConditionSet,
)

import lwr_oracle
from conftest import compatible_vc
from lwr_oracle import CFLError

T = 20.0


def steps(*vals):
    return np.asarray(vals, dtype=float)


def value(comp, fd, vc):
    """A component expression's value for the flows of ``vc``."""
    return lwr_oracle.component_value(comp, fd, vc.inflow, vc.outflow)


class TestCriticalDensity:
    def test_reference_value(self):
        # 0.0702 veh/m aggregate = 4 lanes x 0.01755
        assert lwr.critical_density(30.0, -4.9, 0.5) == pytest.approx(0.0702, abs=1e-4)

    def test_symmetric_apex(self):
        # w = -vf puts the apex at half the jam density
        assert lwr.critical_density(12.0, -12.0, 0.3) == pytest.approx(0.15, abs=1e-12)

    def test_reduced_speed_value(self):
        # frozen: 0.5*4.9 / (20+4.9)
        assert lwr.critical_density(20.0, -4.9, 0.5) == pytest.approx(
            0.09839357429718876, abs=1e-9
        )

    @pytest.mark.parametrize("bad", [(0.0, -4.9, 0.5), (30.0, 4.9, 0.5), (30.0, -4.9, -1.0)])
    def test_sign_preconditions(self, bad):
        with pytest.raises(InvalidParameterError):
            lwr.critical_density(*bad)


class TestFlux:
    def test_empty_and_jammed(self, fd):
        assert lwr_oracle.flux(fd, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert lwr_oracle.flux(fd, fd.rho_m) == pytest.approx(0.0, abs=1e-12)

    def test_capacity_at_reference_critical_density(self, fd):
        assert lwr_oracle.flux(fd, 0.07) == pytest.approx(2.1, abs=1e-9)

    def test_out_of_range(self, fd):
        with pytest.raises(InvalidParameterError):
            lwr_oracle.flux(fd, fd.rho_m + 0.1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_concave_and_maximal_at_critical(self, a, b, lam):
        fd = TriangularFD(30.0, -4.9, 0.5)
        r1, r2 = a * fd.rho_m, b * fd.rho_m
        mid = lam * r1 + (1 - lam) * r2
        flux = lwr_oracle.flux
        assert flux(fd, mid) >= lam * flux(fd, r1) + (1 - lam) * flux(fd, r2) - 1e-9
        assert flux(fd, fd.rho_c) >= flux(fd, r1) - 1e-9

    def test_apex_consistency(self, fd):
        assert fd.Q == pytest.approx(fd.vf * fd.rho_c, abs=1e-12)
        assert fd.Q == pytest.approx(fd.w * (fd.rho_c - fd.rho_m), abs=1e-12)
        assert 0.0 < fd.rho_c < fd.rho_m


class TestInitialComponent:
    def test_zero_density_free_flow_region(self, fd):
        geom = LinkGeometry(0.0, 600.0, 1)
        vc = ValueConditionSet([0.0], steps(0, 0), steps(0, 0), T)
        # any point downstream of the forward characteristic keeps count 0
        c = lwr_oracle.initial_component_expr(fd, geom, vc.initial_density, 1, 10.0, 450.0)
        assert value(c, fd, vc) == pytest.approx(0.0, abs=1e-12)

    def test_jammed_backward_branch_value(self, fd, geom):
        vc = ValueConditionSet([fd.rho_m, fd.rho_m], steps(*[0] * 8), steps(*[0] * 8), T)
        t = 30.0
        x = t * fd.w + geom.X / 2
        c = lwr_oracle.initial_component_expr(fd, geom, vc.initial_density, 1, t, x)
        assert value(c, fd, vc) == pytest.approx(-fd.rho_m * x, abs=1e-9)

    def test_outside_cone_is_infinite(self, fd, geom):
        assert lwr_oracle.initial_component_expr(fd, geom, [0.1, 0.1], 2, 1.0, 0.0) is None


class TestUpstreamComponent:
    def test_boundary_value_is_cumulative_count(self, fd, geom):
        vc = ValueConditionSet([0.0, 0.0], steps(*[2.1] * 8), steps(*[0] * 8), T)
        for n in range(1, 9):
            c = lwr_oracle.upstream_component_expr(fd, geom, T, n, n * T, geom.xi)
            assert value(c, fd, vc) == pytest.approx(2.1 * n * T, abs=1e-9)

    def test_translated_count_along_characteristic(self, fd, geom):
        vc = ValueConditionSet([0.0, 0.0], steps(*[2.1] * 8), steps(*[0] * 8), T)
        # 20 s of inflow at 2.1 observed 600 m downstream
        c = lwr_oracle.upstream_component_expr(fd, geom, T, 1, 40.0, geom.xi + 600.0)
        assert value(c, fd, vc) == pytest.approx(42.0, abs=1e-9)

    def test_before_characteristic_infinite(self, fd, geom):
        assert lwr_oracle.upstream_component_expr(fd, geom, T, 1, 5.0, geom.chi) is None


class TestDownstreamComponent:
    def test_boundary_value_subtracts_initial_mass(self, fd, geom):
        vc = ValueConditionSet([0.0, 0.0], steps(*[0] * 8), steps(*[1.0] * 8), T)
        for n in (1, 4, 8):
            c = lwr_oracle.downstream_component_expr(fd, geom, vc.initial_density, T, n,
                                                     n * T, geom.chi)
            assert value(c, fd, vc) == pytest.approx(1.0 * n * T, abs=1e-9)

    def test_before_backwave_infinite(self, fd, geom):
        c = lwr_oracle.downstream_component_expr(fd, geom, [0.1, 0.1], T, 1, 1.0, geom.xi)
        assert c is None

    def test_blocked_outflow_jam_accumulation(self, fd, geom):
        vc = ValueConditionSet([0.0, 0.0], steps(*[0] * 8), steps(*[0] * 8), T)
        c = lwr_oracle.downstream_component_expr(fd, geom, vc.initial_density, T, 5, 100.0,
                                                 geom.chi - 49.0)
        assert value(c, fd, vc) == pytest.approx(24.5, abs=1e-9)


class TestMoskowitz:
    def test_initial_time_matches_initial_condition(self, fd, geom):
        rng = np.random.default_rng(11)
        vc = compatible_vc(fd, geom, rng)
        for k, x in ((1, 200.0), (2, 800.0)):
            expected = -np.sum(vc.initial_density[: k - 1]) * geom.X - vc.initial_density[
                k - 1
            ] * (x - (k - 1) * geom.X)
            assert lwr_oracle.moskowitz(vc, fd, geom, 0.0, x) == pytest.approx(expected, abs=1e-9)

    def test_upstream_component_attains_minimum_on_empty_road(self, fd, geom):
        vc = ValueConditionSet([0.0, 0.0], steps(*[2.1] * 8), steps(*[2.1] * 8), T)
        t, x = 40.0, geom.xi + 600.0
        comps = lwr_oracle.all_component_exprs(vc, fd, geom, t, x)
        values = {c.tag: value(c, fd, vc) for c in comps}
        best = min(values.values())
        assert lwr_oracle.moskowitz(vc, fd, geom, t, x) == pytest.approx(best, abs=1e-12)
        assert min(values, key=values.get).startswith("up")

    def test_lower_bound_of_every_component(self, fd, geom):
        rng = np.random.default_rng(3)
        for _ in range(5):
            vc = compatible_vc(fd, geom, rng)
            t = rng.uniform(0.0, 8 * T)
            x = rng.uniform(geom.xi, geom.chi)
            m = lwr_oracle.moskowitz(vc, fd, geom, t, x)
            for comp in lwr_oracle.all_component_exprs(vc, fd, geom, t, x):
                assert m <= value(comp, fd, vc) + 1e-9

    def test_monotone_in_time_and_space(self, fd, geom):
        rng = np.random.default_rng(7)
        for _ in range(5):
            vc = compatible_vc(fd, geom, rng)
            ts = np.sort(rng.uniform(0.0, 8 * T, 4))
            xs = np.sort(rng.uniform(geom.xi, geom.chi, 4))
            for x in xs:
                vals = [lwr_oracle.moskowitz(vc, fd, geom, t, x) for t in ts]
                assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
            for t in ts:
                vals = [lwr_oracle.moskowitz(vc, fd, geom, t, x) for x in xs]
                assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))


class TestGodunovOracle:
    def test_empty_road_stays_empty(self, fd, geom):
        vc = ValueConditionSet([0.0, 0.0], steps(*[0] * 8), steps(*[0] * 8), T)
        field = lwr_oracle.godunov_oracle(vc, fd, geom, 2.5, 150.0)
        assert np.max(np.abs(field.densities)) == 0.0

    def test_zero_flux_riemann_interface(self, fd):
        geom = LinkGeometry(0.0, 1200.0, 2)
        vc = ValueConditionSet([0.0, fd.rho_m], steps(*[0] * 8), steps(*[0] * 8), T)
        field = lwr_oracle.godunov_oracle(vc, fd, geom, 2.5, 150.0)
        # empty head and jammed tail exchange nothing while the exit is shut
        assert np.allclose(field.densities[-1], vc.initial_density.repeat(4))

    def test_cfl_guard(self, fd, geom):
        vc = ValueConditionSet([0.0, 0.0], steps(*[0] * 8), steps(*[0] * 8), T)
        with pytest.raises(CFLError):
            lwr_oracle.godunov_oracle(vc, fd, geom, 10.0, 150.0)

    def test_counts_and_densities_converge_to_analytic(self, fd, geom):
        rng = np.random.default_rng(42)
        t_end = 8 * T
        probes = (300.0, 600.0, 900.0)
        for trial in range(5):
            vc = compatible_vc(fd, geom, rng)
            count_errors = []
            for refine in (1, 2, 4, 8):
                dx = geom.X / (8 * refine)
                field = lwr_oracle.godunov_oracle(vc, fd, geom, dx / fd.vf, dx)
                step = field.densities.shape[0] - 1
                count_errors.append(
                    max(
                        abs(field.count(step, x, geom) - lwr_oracle.moskowitz(vc, fd, geom, t_end, x))
                        for x in probes
                    )
                )
                if refine == 1:
                    # exact cell means via count differences match the finite
                    # volume's own averaging
                    edges = geom.xi + dx * np.arange(field.densities.shape[1] + 1)
                    counts = np.array(
                        [lwr_oracle.moskowitz(vc, fd, geom, t_end, x) for x in edges]
                    )
                    analytic = -np.diff(counts) / dx
                    numeric = field.densities[step]
                    # mask the smear neighborhood of each exact-profile jump
                    jump = np.abs(
                        np.diff(analytic, prepend=analytic[0], append=analytic[-1])
                    )
                    near_jump = np.maximum(jump[:-1], jump[1:]) >= 0.05 * fd.rho_m
                    shockish = near_jump.copy()
                    for off in (1, 2):
                        shockish[off:] |= near_jump[:-off]
                        shockish[:-off] |= near_jump[off:]
                    err = np.max(np.abs(analytic - numeric)[~shockish], initial=0.0)
                    assert err <= 0.15 * fd.rho_m, f"trial {trial}: {err}"
            # the integral (count) error shrinks under refinement; near shocks
            # the scheme converges at roughly sqrt(dx), so compare the ends
            # of an 8x refinement ladder
            assert count_errors[-1] <= 0.7 * count_errors[0] + 0.02

    def test_cumulative_count_identity(self, fd, geom):
        # stored mass change equals inflow minus outflow at any resolution
        rng = np.random.default_rng(5)
        vc = compatible_vc(fd, geom, rng)
        field = lwr_oracle.godunov_oracle(vc, fd, geom, 2.5, 150.0)
        stored0 = np.sum(field.densities[0]) * field.dx
        stored1 = np.sum(field.densities[-1]) * field.dx
        assert stored1 - stored0 == pytest.approx(
            field.cum_in[-1] - field.cum_out[-1], abs=1e-9
        )


class TestLinkGeometry:
    @pytest.mark.parametrize("xi, chi, k_max", [(0.0, 1200.0, 2), (300.0, 1300.0, 7),
                                                (-250.0, 350.0, 3)])
    def test_segment_edges_computed_once_and_read_only(self, xi, chi, k_max):
        geom = LinkGeometry(xi, chi, k_max)
        edges = geom.segment_edges()
        assert edges is geom.segment_edges()
        assert not edges.flags.writeable
        with pytest.raises(ValueError):
            edges[0] = 1.0
        assert edges.tobytes() == (xi + geom.X * np.arange(k_max + 1)).tobytes()
        # the cached array is no field: linkmodel's caches key on the fields
        twin = LinkGeometry(xi, chi, k_max)
        assert twin == geom and hash(twin) == hash(geom)
        assert repr(geom) == f"LinkGeometry(xi={xi!r}, chi={chi!r}, k_max={k_max!r})"


class TestSegmentMeans:
    def test_resolution_invariance_and_conservation(self, fd, geom):
        rng = np.random.default_rng(9)
        vc = compatible_vc(fd, geom, rng)
        t = 8 * T
        m1 = lwr_oracle.segment_mean_densities(vc, fd, geom, t, resolution=1)
        m4 = lwr_oracle.segment_mean_densities(vc, fd, geom, t, resolution=4)
        assert m1 == pytest.approx(m4, abs=1e-9)
        stored = float(np.sum(m1)) * geom.X
        expected = (
            float(np.sum(vc.initial_density)) * geom.X
            + (np.sum(vc.inflow) - np.sum(vc.outflow)) * T
        )
        assert stored == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# The numeric kernel against the component expressions, bit for bit.
# ---------------------------------------------------------------------------


def _bits(value) -> bytes:
    """Exact float identity: tells -0.0 from 0.0 and compares inf."""
    return np.float64(value).tobytes()


def _min_value(comps, vc, fd, best=math.inf):
    for c in comps:
        if c is not None:
            best = min(best, value(c, fd, vc))
    return best


def expr_moskowitz(vc, fd, geom, t, x):
    comps = lwr_oracle.all_component_exprs(vc, fd, geom, t, x)
    if not comps:
        return math.inf
    return min(value(c, fd, vc) for c in comps)


def expr_segment_means(vc, fd, geom, t, resolution):
    edges = geom.segment_edges()
    means = np.empty(geom.k_max)
    for k in range(geom.k_max):
        sub = np.linspace(edges[k], edges[k + 1], resolution + 1)
        total = 0.0
        for a, b in zip(sub[:-1], sub[1:]):
            total += expr_moskowitz(vc, fd, geom, t, a) - expr_moskowitz(vc, fd, geom, t, b)
        means[k] = total / geom.X
    return np.clip(means, 0.0, fd.rho_m)


def _initial_exprs(vc, fd, geom, t, x):
    return [lwr_oracle.initial_component_expr(fd, geom, vc.initial_density, k, t, x)
            for k in range(1, geom.k_max + 1)]


def expr_max_exit(vc, fd, geom, t):
    best = _min_value(_initial_exprs(vc, fd, geom, t, geom.chi), vc, fd)
    best = _min_value((lwr_oracle.upstream_component_expr(fd, geom, vc.T, n, t, geom.chi)
                       for n in range(1, len(vc.inflow) + 1)), vc, fd, best)
    mass = float(np.sum(vc.initial_density)) * geom.X
    return best + mass if best < math.inf else math.inf


def expr_max_entry(vc, fd, geom, t):
    best = _min_value(_initial_exprs(vc, fd, geom, t, geom.xi), vc, fd)
    return _min_value(
        (lwr_oracle.downstream_component_expr(fd, geom, vc.initial_density, vc.T, n, t,
                                              geom.xi)
         for n in range(1, len(vc.inflow) + 1)), vc, fd, best)


def evaluation_points(geom, resolution=4):
    edges = geom.segment_edges()
    points = [edges[0]]
    for k in range(geom.k_max):
        points.extend(np.linspace(edges[k], edges[k + 1], resolution + 1)[1:])
    return points


def kink_times(fd, geom, T, n_steps):
    """Times at which some component appears or switches branch at one of
    the evaluation points: wave arrivals, step ends and the edges of the
    initial-density fans."""
    times = {0.0}
    X = geom.X
    for x in evaluation_points(geom):
        xh, xt = x - geom.xi, x - geom.chi
        for m in range(n_steps + 2):
            times.update((m * T, m * T + xh / fd.vf, m * T + xt / fd.w))
        for k in range(1, geom.k_max + 1):
            left, right = (k - 1) * X, k * X
            times.update(((xh - left) / fd.w, (xh - right) / fd.vf,
                          (xh - left) / fd.vf, (xh - right) / fd.w))
    return sorted(t for t in times if t >= 0.0)


@st.composite
def link_cases(draw):
    fd = TriangularFD(draw(st.sampled_from([10.0, 20.0, 30.0])),
                      draw(st.sampled_from([-4.9, -6.1])), draw(st.sampled_from([0.5, 0.42])))
    k_max = draw(st.integers(1, 4))
    n_steps = draw(st.integers(0, 12))
    level = st.sampled_from([0.0, fd.rho_m, fd.rho_c, fd.rho_c + lwr.GUARD_TOL,
                             fd.rho_c - lwr.GUARD_TOL]) | st.floats(0.0, fd.rho_m)
    flow = st.sampled_from([0.0, fd.Q]) | st.floats(0.0, fd.Q)
    densities = draw(st.lists(level, min_size=k_max, max_size=k_max))
    inflow = draw(st.lists(flow, min_size=n_steps, max_size=n_steps))
    outflow = draw(st.lists(flow, min_size=n_steps, max_size=n_steps))
    xi = draw(st.sampled_from([0.0, 1200.0]))
    geom = LinkGeometry(xi, xi + draw(st.sampled_from([600.0, 1000.0, 1200.0])), k_max)
    T = draw(st.sampled_from([15.0, 20.0]))
    t = draw(st.sampled_from(kink_times(fd, geom, T, n_steps)))
    return ValueConditionSet(densities, inflow, outflow, T), fd, geom, t


class TestKernelMatchesExpressions:
    """The simulator's kernel must reproduce the expression path exactly:
    any difference in the last bit would move trajectories."""

    @given(link_cases())
    @settings(max_examples=300, deadline=None)
    def test_point_evaluations_bit_identical(self, case):
        vc, fd, geom, t = case
        for x in evaluation_points(geom):
            assert _bits(lwr_oracle.moskowitz(vc, fd, geom, t, x)) == _bits(
                expr_moskowitz(vc, fd, geom, t, x))
        assert _bits(lwr_oracle.max_exit_count(vc, fd, geom, t)) == _bits(
            expr_max_exit(vc, fd, geom, t))
        assert _bits(lwr_oracle.max_entry_count(vc, fd, geom, t)) == _bits(
            expr_max_entry(vc, fd, geom, t))

    @given(link_cases(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_segment_means_bit_identical(self, case, resolution):
        vc, fd, geom, t = case
        got = lwr_oracle.segment_mean_densities(vc, fd, geom, t, resolution)
        want = expr_segment_means(vc, fd, geom, t, resolution)
        assert got.tobytes() == want.tobytes()

    def test_float_sum_is_numpys(self):
        # numpy adds fewer than 8 values in order and sums pairwise from 8 on
        rng = np.random.default_rng(0)
        for n in range(21):
            for _ in range(200):
                values = (rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-8, 9, n)).tolist()
                assert _bits(lwr._fsum(values)) == _bits(np.sum(values))
            assert _bits(lwr._fsum([-0.0] * n)) == _bits(np.sum([-0.0] * n))

    def test_segment_means_clip_as_numpy_does(self, fd):
        geom = LinkGeometry(0.0, 1200.0, 5)
        kernel = lwr.LaxHopfKernel(ValueConditionSet(np.zeros(5), [], [], T), fd, geom)
        X, tiny = geom.X, 5e-324
        # per segment: NaN, +inf, an underflow to -0.0, below 0, inside
        counts = [math.inf, math.inf, 0.0, tiny, tiny + 0.1 * X, tiny - 0.1 * X]
        points = iter(counts)
        kernel._count = lambda t, x: next(points)
        got = kernel.segment_mean_densities(0.0)
        raw = np.array([(0.0 + (a - b)) / X for a, b in zip(counts, counts[1:])])
        assert got.tobytes() == np.clip(raw, 0.0, fd.rho_m).tobytes()
        assert math.isnan(got[0]) and _bits(got[2]) == _bits(-0.0)

    def test_domain_checks_kept(self, fd, geom):
        vc = ValueConditionSet([0.1, 0.1], steps(1.0), steps(1.0), T)
        with pytest.raises(InvalidParameterError):
            lwr_oracle.moskowitz(vc, fd, geom, -1.0, 100.0)
        with pytest.raises(InvalidParameterError):
            lwr_oracle.moskowitz(vc, fd, geom, 10.0, geom.chi + 1.0)
        with pytest.raises(InvalidParameterError):
            lwr_oracle.segment_mean_densities(vc, fd, geom, -1.0)


# ---------------------------------------------------------------------------
# The kernel as the simulator drives it: flows appended and overwritten.
# ---------------------------------------------------------------------------


def full_scan_times(T, n, edge_kinks, lag):
    """The times at which ``sim._step_rate`` reads the count, by scanning
    every kink: the step end, then the edge kinks and the arrivals m*T + lag
    (m = 1..n) strictly inside the open step n, in that order."""
    t_prev = (n - 1) * T
    t_next = t_prev + T
    inner = edge_kinks + [m * T + lag for m in range(1, n + 1)]
    return [t_next] + [t for t in inner if t_prev < t < t_next]


class TestSimulatorStepSequence:
    @given(link_cases())
    @settings(max_examples=150, deadline=None)
    def test_stepped_kernel_matches_a_fresh_one(self, case):
        # each step: open it at zero flow, read demand and supply, write the
        # realized flows, read the segment means; every read must equal a
        # fresh kernel's on the flows written so far
        vc, fd, geom, _ = case
        assume(len(vc.inflow) >= 1)
        T, rho = vc.T, vc.initial_density
        kernel = lwr.LaxHopfKernel(ValueConditionSet(rho, [], [], T), fd, geom)
        demand, supply = kernel.boundaries()
        for n in range(1, len(vc.inflow) + 1):
            kernel.inflow.append(0.0)
            kernel.outflow.append(0.0)
            opened = ValueConditionSet(rho, np.append(vc.inflow[:n - 1], 0.0),
                                       np.append(vc.outflow[:n - 1], 0.0), T)
            for rates, oracle in ((demand, lwr_oracle.max_exit_count),
                                  (supply, lwr_oracle.max_entry_count)):
                Q, _, flows, kinks, lag = rates
                fresh = sim._step_rate(T, Q, lambda t: oracle(opened, fd, geom, t), flows,
                                       kinks, lag)
                assert _bits(sim._step_rate(T, *rates)) == _bits(fresh)
            kernel.inflow[-1] = float(vc.inflow[n - 1])
            kernel.outflow[-1] = float(vc.outflow[n - 1])
            written = ValueConditionSet(rho, vc.inflow[:n], vc.outflow[:n], T)
            got = kernel.segment_mean_densities(n * T)
            want = lwr_oracle.segment_mean_densities(written, fd, geom, n * T)
            assert got.tobytes() == want.tobytes()

    def test_step_rate_reads_the_full_scans_times(self):
        geom = LinkGeometry(0.0, 1200.0, 3)
        kink_sets = ([], [(geom.chi - e) / 30.0 for e in geom.segment_edges()[1:]],
                     [(geom.xi - e) / -4.9 for e in geom.segment_edges()[:-1]])
        calls = []

        def count(t):
            calls.append(t)
            return 0.0

        for T in (3.1, 4.7, 10.0, 15.0, 20.0):
            # a grid, and the arrivals that land on a step boundary or next to it
            lags = np.linspace(0.0, 250.0, 126).tolist()
            for j in range(int(250.0 / T) + 1):
                lags += [j * T, math.nextafter(j * T, 0.0), math.nextafter(j * T, math.inf)]
            for lag in lags:
                for n, kinks in zip(range(1, 61), itertools.cycle(kink_sets)):
                    calls.clear()
                    sim._step_rate(T, 1.0, count, [0.5] * n, kinks, lag)
                    want = full_scan_times(T, n, kinks, lag)
                    assert np.array(calls).tobytes() == np.array(want).tobytes(), (T, lag, n)
