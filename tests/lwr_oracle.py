"""Test-only references for the kinematic-wave engine, kept out of
``corridorflow.lwr`` because no run reaches them.

- ``all_component_exprs`` lists every value-condition component at a point
  as a ``ComponentExpr``, in the order the kernel takes its minima; the
  kernel tests compare against it bit for bit.
- ``moskowitz``, ``segment_mean_densities``, ``max_exit_count`` and
  ``max_entry_count`` evaluate one set of value conditions through a fresh
  ``LaxHopfKernel``.
- ``godunov_oracle`` marches the conservation law with a first-order finite
  volume scheme, the independent check of the closed-form solution.
"""

from dataclasses import dataclass

import numpy as np

from corridorflow.lwr import (
    GUARD_TOL,
    ComponentExpr,
    InvalidParameterError,
    LaxHopfKernel,
    LinkGeometry,
    TriangularFD,
    ValueConditionSet,
    downstream_component_expr,
    initial_component_expr,
    upstream_component_expr,
)


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
    for n in range(1, vc.n_max + 1):
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
    return LaxHopfKernel(vc, fd, geom).moskowitz(t, x)


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
    counts = [kernel.moskowitz(t, x) for x in xs]
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
    t_end = vc.n_max * vc.T
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
        step_idx = min(int(t / vc.T), vc.n_max - 1)
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
