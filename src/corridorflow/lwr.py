"""Closed-form cumulative-count (Moskowitz) solutions for the kinematic-wave
model with a triangular flux law.

A link [xi, chi] carries a piecewise-constant initial density over k_max
equal segments plus per-step inflow and outflow sequences at its boundaries.
Each of those value conditions generates an explicit piecewise-affine
solution; the true cumulative count at any (t, x) is the pointwise minimum
over all of them, and the density is the negative space-slope of whichever
component attains the minimum.

``LaxHopfKernel`` evaluates every component directly as a float: the
simulator reads every count through it, and ``twostage.certify_solution``
checks solved flows with it.  ``linkmodel`` writes the same components as
model rows, affine in the boundary flows, in the kernel's floating-point
order.  The tests keep the components as expressions in ``lwr_oracle``,
the kernel's bit-for-bit reference, and a finite-volume solution to compare
the closed form against.

All quantities are SI and lane-aggregated: m, s, veh/m, veh/s.  Segment and
step indices in the public functions are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: absolute tolerance for the case guards; boundaries between adjacent cases
#: are shared, so either branch is valid at a boundary point.
GUARD_TOL = 1e-9

INF = math.inf


class InvalidParameterError(ValueError):
    pass


def critical_density(vf: float, w: float, rho_m: float) -> float:
    """Density at which a triangular flux law reaches capacity."""
    if vf <= 0 or w >= 0 or rho_m <= 0:
        raise InvalidParameterError(
            f"need vf > 0, w < 0, rho_m > 0; got vf={vf}, w={w}, rho_m={rho_m}"
        )
    return -rho_m * w / (vf - w)


@dataclass(frozen=True)
class TriangularFD:
    """Triangular flux law: free-flow slope vf, congested slope w (< 0)."""

    vf: float
    w: float
    rho_m: float

    def __post_init__(self):
        critical_density(self.vf, self.w, self.rho_m)  # validates signs

    @property
    def rho_c(self) -> float:
        return critical_density(self.vf, self.w, self.rho_m)

    @property
    def Q(self) -> float:
        return self.vf * self.rho_c


@dataclass(frozen=True)
class LinkGeometry:
    """Spatial extent of a link split into k_max equal segments."""

    xi: float
    chi: float
    k_max: int

    def __post_init__(self):
        if self.chi <= self.xi or self.k_max < 1:
            raise InvalidParameterError("need chi > xi and k_max >= 1")
        # not a field: equality and hashing (linkmodel's caches key on the
        # geometry) see xi, chi and k_max only
        edges = self.xi + self.X * np.arange(self.k_max + 1)
        edges.flags.writeable = False
        object.__setattr__(self, "_edges", edges)

    @property
    def X(self) -> float:
        return (self.chi - self.xi) / self.k_max

    @property
    def length(self) -> float:
        return self.chi - self.xi

    def segment_edges(self) -> np.ndarray:
        """The k_max + 1 segment edges, computed once; the array is read-only."""
        return self._edges


@dataclass
class ValueConditionSet:
    """Initial densities plus boundary flow sequences for one link."""

    initial_density: np.ndarray
    inflow: np.ndarray
    outflow: np.ndarray
    T: float

    def __post_init__(self):
        self.initial_density = np.asarray(self.initial_density, dtype=float)
        self.inflow = np.asarray(self.inflow, dtype=float)
        self.outflow = np.asarray(self.outflow, dtype=float)
        if self.T <= 0:
            raise InvalidParameterError("step size must be positive")
        if len(self.inflow) != len(self.outflow):
            raise InvalidParameterError("inflow/outflow must cover the same steps")


# ---------------------------------------------------------------------------
# Numeric kernel: the component values as floats, for simulation.
# ---------------------------------------------------------------------------


def _fsum(values) -> float:
    """``float(np.sum(values))`` bit for bit.  numpy adds fewer than 8 values
    one by one from 0.0, so those are summed here without building an array;
    from 8 values on it sums pairwise, so those go to numpy."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for v in values:
        total += v
    return total


class LaxHopfKernel:
    """Point evaluations of one link's value conditions.

    The link's constants (edges, rho_c, Q, per-segment head sums, initial
    mass and the boundary flows) are read once, as Python floats: numpy
    scalars would make every operation several times slower without
    changing its result.  Every component value is computed with the same
    floating-point operations, in the same order, as the tests' evaluation
    of the matching component expression (``lwr_oracle.component_value``:
    const + rcvf*Q, the inflow terms in step order, the kin term, the
    outflow terms), and minima are taken over the components in the order
    of ``lwr_oracle.all_component_exprs``, so results are bit-identical to
    that reference.  The literal ``+ 0.0`` terms stand for the expressions'
    zero coefficients (``rcvf * Q`` with rcvf = 0, a flow coefficient
    started from 0.0): they turn -0.0 into 0.0 just as the expressions do.

    The head sums and the mass depend only on the period's initial
    densities, so a caller may extend (or overwrite entries of) ``inflow``
    and ``outflow`` as steps complete, keeping both lists the same length;
    ``densities`` and ``fd`` keep the period's initial data.
    """

    def __init__(self, vc: ValueConditionSet, fd: TriangularFD, geom: LinkGeometry):
        rho = vc.initial_density
        self.densities, self.fd = rho, fd
        self.geom = geom
        self.vf, self.w, self.rho_m = fd.vf, fd.w, fd.rho_m
        self.rho_c, self.Q = fd.rho_c, fd.Q
        X = self.X = geom.X
        self.xi, self.chi = float(geom.xi), float(geom.chi)
        self.edges = geom.segment_edges().tolist()
        #: each segment's (left, right) offset from xi
        self.spans = [(k * X, (k + 1) * X) for k in range(geom.k_max)]
        self.rho = rho.tolist()
        self.head = [-_fsum(self.rho[:k]) * X for k in range(geom.k_max)]
        self.mass = _fsum(self.rho) * X
        self.T = vc.T
        self.inflow = vc.inflow.tolist()
        self.outflow = vc.outflow.tolist()

    def _count(self, t: float, x: float, best=None, up: bool = True,
               down: bool = True) -> float:
        """The cumulative count at (t, x): one running minimum over the
        component values, the initial ones by segment, then the inflow and
        outflow ones of each step in turn.  A value replaces the minimum only
        when it is smaller, as ``min`` does, and ``best`` None starts it at
        the first value (INF when there is none).  The boundary counts start
        it at INF and leave out one side's components with ``up``/``down``."""
        vf, w, rc, X, T, Q = self.vf, self.w, self.rho_c, self.X, self.T, self.Q
        xh, xt = x - self.xi, x - self.chi
        tw, tvf, jam = t * w, vf * t, self.rho_m * t * w
        for (left, right), head, rk in zip(self.spans, self.head, self.rho):
            if xh < left + tw - GUARD_TOL or xh > right + tvf + GUARD_TOL:
                continue
            if rk <= rc + GUARD_TOL:
                if xh >= left + tvf - GUARD_TOL:
                    v = head + rk * (tvf + left - xh) + 0.0
                else:
                    v = head + rc * (tvf + left - xh) + 0.0
            elif xh <= right + tw + GUARD_TOL:
                v = head + rk * (tw + left - xh) - jam + 0.0
            else:
                v = head - rk * X + rc * (tw + right - xh) - jam + 0.0
            if best is None or v < best:
                best = v
        # each side keeps its steps' T*q terms, added in step order; its waves
        # arrive in step order, so it ends at the first step whose wave has not
        up_lag, up_base, up_done, up_terms = xh / vf, -rc * xh, 0.0, []
        dn_lag, dn_base, dn_terms = xt / w, -self.mass - rc * xt, []
        dn_done = (-self.mass - self.rho_m * xt) + 0.0
        for n, (qi, qo) in enumerate(zip(self.inflow, self.outflow), 1):
            t0, t1 = (n - 1) * T, n * T
            up = up and not t < t0 + up_lag - GUARD_TOL
            down = down and not t < t0 + dn_lag - GUARD_TOL
            if up:
                up_terms.append(T * qi)
                if t <= t1 + up_lag + GUARD_TOL:
                    v = up_done + (0.0 + (t - t0)) * qi + -xh * qi / vf
                else:
                    v = up_base + (t - t1) * Q
                    for a in up_terms:
                        v += a
                if best is None or v < best:
                    best = v
                up_done += up_terms[-1]
            elif not down:
                break
            if down:
                dn_terms.append(T * qo)
                if t <= t1 + dn_lag + GUARD_TOL:
                    v = dn_done + (0.0 + (t - dn_lag - t0)) * qo
                else:
                    v = dn_base + (t - t1) * Q
                    for a in dn_terms:
                        v += a
                if best is None or v < best:
                    best = v
                dn_done += dn_terms[-1]
        return INF if best is None else best

    def segment_mean_densities(self, t: float) -> np.ndarray:
        """Per-segment mean densities at time t from the cumulative-count
        differences at the segment edges, clipped to [0, rho_m].  The edges
        lie in the link by construction, so only t is checked."""
        _check_domain(self.geom, t, self.xi)
        counts = [self._count(t, x) for x in self.edges]
        X, rho_m = self.X, self.rho_m
        # np.clip's result, NaN and -0.0 included
        return np.array([min(max((0.0 + (a - b)) / X, 0.0), rho_m)
                         for a, b in zip(counts, counts[1:])])

    def max_exit_count(self, t: float) -> float:
        """Most vehicles that could have left through chi by time t if the
        downstream were unrestricted (initial + upstream components only)."""
        best = self._count(t, self.chi, INF, down=False)
        return best + self.mass if best < INF else INF

    def max_entry_count(self, t: float) -> float:
        """Most vehicles that could have entered through xi by time t if the
        upstream demand were unrestricted (initial + downstream components)."""
        return self._count(t, self.xi, INF, up=False)

    def boundaries(self) -> tuple:
        """The period-fixed data of the link's two boundary checks, the exit
        (demand) and then the entry (supply) side, each as (capacity, count
        function, the side's flow list, the segment-edge kinks, the wave
        lag); ``step_check_times`` takes the last two.  The flow lists are
        the kernel's own, so they follow the steps appended to them."""
        demand = (self.Q, self.max_exit_count, self.outflow,
                  [(self.chi - e) / self.vf for e in self.edges[1:]],
                  (self.chi - self.xi) / self.vf)
        supply = (self.Q, self.max_entry_count, self.inflow,
                  [(self.xi - e) / self.w for e in self.edges[:-1]],
                  (self.xi - self.chi) / self.w)
        return demand, supply


def step_check_times(T: float, n: int, edge_kinks: list, lag: float) -> list:
    """The times at which one side's boundary count can kink in step n: the
    step end, then the ``edge_kinks`` and the wave arrivals m*T + lag
    (m = 1..n) strictly inside the step, in that order.  A component can
    turn finite mid-step below the straight boundary line, so the step end
    alone does not bound a step's flow.  m*T + lag does not decrease with m,
    so the scan starts at most two below the first arrival past the step
    start and stops at the step end."""
    t_prev = (n - 1) * T
    t_next = t_prev + T
    times = [t_next]
    for t in edge_kinks:
        if t_prev < t < t_next:
            times.append(t)
    for m in range(max(1, int((t_prev - lag) / T)), n + 1):
        t = m * T + lag
        if not t < t_next:
            break
        if t_prev < t:
            times.append(t)
    return times


def _check_domain(geom: LinkGeometry, t: float, x: float):
    if t < -GUARD_TOL:
        raise InvalidParameterError("t must be nonnegative")
    if x < geom.xi - GUARD_TOL or x > geom.chi + GUARD_TOL:
        raise InvalidParameterError(f"x={x} outside [{geom.xi}, {geom.chi}]")
