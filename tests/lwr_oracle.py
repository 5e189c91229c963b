"""Test-only references for the kinematic-wave engine, kept out of
``corridorflow.lwr`` because no run reaches them.

- ``flux`` is the triangular flux law at a density.
- ``ComponentExpr`` holds one value-condition component at a point, affine
  in the boundary flows.  ``initial_component_expr``,
  ``upstream_component_expr`` and ``downstream_component_expr`` give the
  initial-density, inflow and outflow components as such records,
  ``component_value`` evaluates any of them, and ``all_component_exprs``
  lists every component at a point in the order the kernel takes its
  minima.  They are the one reference both evaluation paths in
  ``corridorflow`` are checked against bit for bit: ``LaxHopfKernel``'s
  counts, and the model-row terms ``linkmodel`` folds with the flux law.
- ``moskowitz``, ``segment_mean_densities``, ``max_exit_count`` and
  ``max_entry_count`` evaluate one set of value conditions through a fresh
  ``LaxHopfKernel``.
- ``godunov_oracle`` marches the conservation law with a first-order finite
  volume scheme, the independent check of the closed-form solution.
"""

from dataclasses import dataclass, field

import numpy as np

from corridorflow.lwr import (
    GUARD_TOL,
    InvalidParameterError,
    LaxHopfKernel,
    LinkGeometry,
    TriangularFD,
    ValueConditionSet,
    _check_domain,
)


def flux(fd: TriangularFD, rho: float) -> float:
    """Flow at a given density; concave, zero at rho=0 and rho=rho_m."""
    if rho < -GUARD_TOL or rho > fd.rho_m + GUARD_TOL:
        raise InvalidParameterError(f"density {rho} outside [0, {fd.rho_m}]")
    return min(fd.vf * rho, fd.w * (rho - fd.rho_m))


@dataclass
class ComponentExpr:
    """One value-condition component at a fixed (t, x), affine in the flows.

    value = const + rcvf * (rho_c*vf) + sum qin[n]*q_in(n) + sum qout[n]*q_out(n)
                  + sum kin[n] * (q_in(n)/vf)

    ``rcvf`` and ``kin`` terms are kept separate because the kernel adds
    them as terms of their own; ``linkmodel`` folds them into the row's
    constant and inflow coefficient.
    """

    const: float = 0.0
    rcvf: float = 0.0
    qin: dict = field(default_factory=dict)
    qout: dict = field(default_factory=dict)
    kin: dict = field(default_factory=dict)
    tag: str = ""


def upstream_component_expr(
    fd: TriangularFD, geom: LinkGeometry, T: float, n: int, t: float, x: float
) -> ComponentExpr | None:
    """Component generated by the inflow of step n; None before its
    free-flow characteristic reaches x."""
    xh = x - geom.xi
    lag = xh / fd.vf
    if t < (n - 1) * T + lag - GUARD_TOL:
        return None
    expr = ComponentExpr(tag=f"up{n}")
    for i in range(1, n):
        expr.qin[i] = T
    if t <= n * T + lag + GUARD_TOL:
        # affine in the step-n inflow; the /vf part stays separate
        expr.qin[n] = expr.qin.get(n, 0.0) + (t - (n - 1) * T)
        expr.kin[n] = -xh
        expr.tag += "b"
        return expr
    expr.qin[n] = expr.qin.get(n, 0.0) + T
    expr.rcvf = t - n * T
    expr.const = -fd.rho_c * xh
    expr.tag += "c"
    return expr


def downstream_component_expr(
    fd: TriangularFD,
    geom: LinkGeometry,
    densities,
    T: float,
    n: int,
    t: float,
    x: float,
) -> ComponentExpr | None:
    """Component generated by the outflow of step n; None before its
    backward wave reaches x."""
    rho = np.asarray(densities, dtype=float)
    xt = x - geom.chi
    lag = xt / fd.w  # >= 0 for x <= chi
    mass = float(np.sum(rho)) * geom.X
    if t < (n - 1) * T + lag - GUARD_TOL:
        return None
    expr = ComponentExpr(tag=f"dn{n}")
    for i in range(1, n):
        expr.qout[i] = T
    if t <= n * T + lag + GUARD_TOL:
        expr.qout[n] = expr.qout.get(n, 0.0) + (t - lag - (n - 1) * T)
        expr.const = -mass - fd.rho_m * xt
        expr.tag += "b"
        return expr
    expr.qout[n] = expr.qout.get(n, 0.0) + T
    expr.rcvf = t - n * T
    expr.const = -mass - fd.rho_c * xt
    expr.tag += "c"
    return expr


def component_value(expr: ComponentExpr, fd: TriangularFD, inflow, outflow) -> float:
    """The value of ``expr`` for the given flows, the terms added in the
    order the kernel adds them."""
    v = expr.const + expr.rcvf * fd.Q
    for n, a in expr.qin.items():
        v += a * inflow[n - 1]
    for n, a in expr.kin.items():
        v += a * inflow[n - 1] / fd.vf
    for n, a in expr.qout.items():
        v += a * outflow[n - 1]
    return v


def initial_component_expr(
    fd: TriangularFD, geom: LinkGeometry, densities, k: int, t: float, x: float
) -> ComponentExpr | None:
    """Component generated by the initial density of segment k (Eq. branch
    selection per the triangular specialization); None outside its cone."""
    rho = np.asarray(densities, dtype=float)
    xh = x - geom.xi
    X = geom.X
    left = (k - 1) * X
    right = k * X
    if xh < left + t * fd.w - GUARD_TOL or xh > right + fd.vf * t + GUARD_TOL:
        return None
    head = -float(np.sum(rho[: k - 1])) * X
    rk = float(rho[k - 1])
    rc = fd.rho_c
    if rk <= rc + GUARD_TOL:
        if xh >= left + fd.vf * t - GUARD_TOL:
            val = head + rk * (t * fd.vf + left - xh)
            return ComponentExpr(const=val, tag=f"ic{k}b")
        val = head + rc * (t * fd.vf + left - xh)
        return ComponentExpr(const=val, tag=f"ic{k}c")
    if xh <= right + t * fd.w + GUARD_TOL:
        val = head + rk * (t * fd.w + left - xh) - fd.rho_m * t * fd.w
        return ComponentExpr(const=val, tag=f"ic{k}d")
    val = head - rk * X + rc * (t * fd.w + right - xh) - fd.rho_m * t * fd.w
    return ComponentExpr(const=val, tag=f"ic{k}e")


def all_component_exprs(
    vc: ValueConditionSet, fd: TriangularFD, geom: LinkGeometry, t: float, x: float
) -> list[ComponentExpr]:
    """Every component present at (t, x): the initial ones by segment, then
    the inflow and outflow ones of each step in turn."""
    comps = []
    for k in range(1, geom.k_max + 1):
        c = initial_component_expr(fd, geom, vc.initial_density, k, t, x)
        if c is not None:
            comps.append(c)
    for n in range(1, len(vc.inflow) + 1):
        c = upstream_component_expr(fd, geom, vc.T, n, t, x)
        if c is not None:
            comps.append(c)
        c = downstream_component_expr(fd, geom, vc.initial_density, vc.T, n, t, x)
        if c is not None:
            comps.append(c)
    return comps


def moskowitz(
    vc: ValueConditionSet, fd: TriangularFD, geom: LinkGeometry, t: float, x: float
) -> float:
    """Pointwise minimum over all value-condition components."""
    return _kernel_count(LaxHopfKernel(vc, fd, geom), t, x)


def _kernel_count(kernel: LaxHopfKernel, t: float, x: float) -> float:
    _check_domain(kernel.geom, t, x)
    return kernel._count(t, x)


def segment_mean_densities(
    vc: ValueConditionSet,
    fd: TriangularFD,
    geom: LinkGeometry,
    t: float,
    resolution: int = 1,
) -> np.ndarray:
    """The kernel's segment means, or with ``resolution`` > 1 the sums of the
    count differences over that many equal pieces of each segment, clipped
    as the kernel clips; subdividing telescopes to the same values."""
    kernel = LaxHopfKernel(vc, fd, geom)
    r = max(1, int(resolution))
    if r == 1:
        return kernel.segment_mean_densities(t)
    edges = kernel.edges
    xs = [edges[0]]
    for a, b in zip(edges, edges[1:]):
        xs += np.linspace(a, b, r + 1)[1:].tolist()
    counts = [_kernel_count(kernel, t, x) for x in xs]
    means = []
    for k in range(0, len(xs) - 1, r):
        total = 0.0
        for j in range(k, k + r):
            total += counts[j] - counts[j + 1]
        means.append(min(max(total / geom.X, 0.0), fd.rho_m))
    return np.array(means)


def max_exit_count(
    vc: ValueConditionSet, fd: TriangularFD, geom: LinkGeometry, t: float
) -> float:
    return LaxHopfKernel(vc, fd, geom).max_exit_count(t)


def max_entry_count(
    vc: ValueConditionSet, fd: TriangularFD, geom: LinkGeometry, t: float
) -> float:
    return LaxHopfKernel(vc, fd, geom).max_entry_count(t)


# ---------------------------------------------------------------------------
# First-order finite-volume reference solution.
# ---------------------------------------------------------------------------


class CFLError(ValueError):
    pass


@dataclass
class GodunovField:
    """Cell densities over time plus cumulative boundary counts."""

    dt: float
    dx: float
    densities: np.ndarray  # (n_steps+1, n_cells)
    cum_in: np.ndarray  # (n_steps+1,)
    cum_out: np.ndarray

    def count(self, step: int, x: float, geom: LinkGeometry) -> float:
        """Cumulative count at (step*dt, x): inflow so far minus vehicles
        currently stored between xi and x."""
        rho = self.densities[step]
        edges = geom.xi + self.dx * np.arange(len(rho) + 1)
        stored = 0.0
        for i in range(len(rho)):
            if edges[i + 1] <= x:
                stored += rho[i] * self.dx
            elif edges[i] < x:
                stored += rho[i] * (x - edges[i])
        return self.cum_in[step] - stored


def godunov_oracle(
    vc: ValueConditionSet,
    fd: TriangularFD,
    geom: LinkGeometry,
    dt: float,
    dx: float,
) -> GodunovField:
    """March the conservation law with demand/supply interface fluxes.

    The prescribed inflow is clipped by the first cell's receiving capacity
    and the prescribed outflow by the last cell's sending capacity, mirroring
    how boundary conditions act on the exact solution.
    """
    if dt > dx / fd.vf + GUARD_TOL:
        raise CFLError(f"dt={dt} violates dt <= dx/vf = {dx / fd.vf}")
    n_cells = int(round(geom.length / dx))
    if abs(n_cells * dx - geom.length) > 1e-6:
        raise InvalidParameterError("dx must divide the link length")
    n_max = len(vc.inflow)
    t_end = n_max * vc.T
    n_steps = int(round(t_end / dt))

    # start cells from the segment-wise initial densities
    rho = np.empty(n_cells)
    centers = geom.xi + dx * (np.arange(n_cells) + 0.5)
    seg = np.minimum(((centers - geom.xi) / geom.X).astype(int), geom.k_max - 1)
    rho[:] = vc.initial_density[seg]

    def sending(r):
        return np.minimum(fd.vf * r, fd.Q)

    def receiving(r):
        return np.minimum(fd.Q, fd.w * (r - fd.rho_m))

    densities = np.empty((n_steps + 1, n_cells))
    densities[0] = rho
    cum_in = np.zeros(n_steps + 1)
    cum_out = np.zeros(n_steps + 1)

    for s in range(n_steps):
        t = s * dt
        step_idx = min(int(t / vc.T), n_max - 1)
        q_in = min(vc.inflow[step_idx], receiving(rho[0]))
        q_out = min(vc.outflow[step_idx], sending(rho[-1]))
        flows = np.minimum(sending(rho[:-1]), receiving(rho[1:]))
        rho = rho + (dt / dx) * (
            np.concatenate(([q_in], flows)) - np.concatenate((flows, [q_out]))
        )
        densities[s + 1] = rho
        cum_in[s + 1] = cum_in[s] + q_in * dt
        cum_out[s + 1] = cum_out[s] + q_out * dt
    return GodunovField(dt, dx, densities, cum_in, cum_out)
