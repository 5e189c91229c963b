"""Closed-loop traffic simulation on the analytic kinematic-wave engine.

Each link's state for a period is one ``lwr.LaxHopfKernel``: built from the
period's initial densities and flux law, it keeps the realized boundary
flows of the period's completed steps.  A step first opens itself by
appending a zero flow to every kernel's inflow and outflow; each link's step
demand and supply come from its boundary-evaluated cumulative-count
components with the open step at zero, junction flows take the greedy min
(ramp served first at merges), and the realized flows overwrite the open
step's zeros.  The step then records each link's per-segment densities from
exact cumulative-count differences; state reads and, at period boundaries
(speed-limit changes, horizon rolls), the fresh kernels start from those,
so vehicles are conserved to float precision.
"""

from __future__ import annotations

import numpy as np

from . import lwr
from .linkmodel import ENTRY
from .network import MERGE, SERIAL, Corridor


def _step_rate(k: lwr.LaxHopfKernel, side: str) -> float:
    """Largest constant rate the link can send (``side="demand"``) or
    receive (``"supply"``) over its open step, the last of its flow lists.

    Checked at the step end and at every wave-arrival kink inside the
    step; a component can turn finite mid-step below the straight
    boundary line, so step-end checks alone would overdraw.
    """
    T = k.T
    n = len(k.inflow)
    if side == "supply":
        count_fn, flows = k.max_entry_count, k.inflow
        kinks = [(k.xi - e) / k.w for e in k.edges[:-1]]
        lag = (k.xi - k.chi) / k.w
    else:
        count_fn, flows = k.max_exit_count, k.outflow
        kinks = [(k.chi - e) / k.vf for e in k.edges[1:]]
        lag = (k.chi - k.xi) / k.vf
    kinks += [m * T + lag for m in range(1, n + 1)]
    cum_prev = lwr._fsum(flows[:-1]) * T
    t_prev = (n - 1) * T
    t_next = t_prev + T
    rate = k.Q
    for t in [t_next] + [t for t in kinks if t_prev < t < t_next]:
        rate = min(rate, (count_fn(t) - cum_prev) / (t - t_prev))
    return max(rate, 0.0)


class CorridorSimulator:
    """Step-by-step corridor evolution under given controls and arrivals."""

    def __init__(
        self,
        corridor: Corridor,
        T: float,
        initial_densities: dict | None = None,
        initial_queues: dict | None = None,
        initial_speeds: dict | None = None,
    ):
        self.corridor = corridor
        self.T = T
        self.global_step = 0
        #: link id -> the running period's kernel
        self.states: dict[str, lwr.LaxHopfKernel] = {}
        #: link id -> the densities at the last step end, the simulator's own
        #: array: records and state reads get copies
        self._densities: dict[str, np.ndarray] = {}
        for link in corridor.fd_links:
            dens = np.zeros(link.geometry.k_max)
            if initial_densities and link.id in initial_densities:
                dens = np.asarray(initial_densities[link.id], dtype=float).copy()
            fd = link.fd
            if link.is_vsl:
                speed = (initial_speeds or {}).get(link.id, max(link.vsl_set.speeds))
                fd = link.fd_for_speed(speed)
            self.states[link.id] = self._kernel(dens, fd, link.geometry)
            self._densities[link.id] = dens
        self.queues = {l.id: 0.0 for l in corridor.entry_links}
        if initial_queues:
            self.queues.update({k: float(v) for k, v in initial_queues.items()})
        self.total_admitted = {l.id: 0.0 for l in corridor.entry_links}
        self.total_exited = {l.id: 0.0 for l in corridor.exit_links}
        self.initial_mass = self.stored_mass()
        self.records: list[dict] = []

    def _kernel(self, densities, fd, geom) -> lwr.LaxHopfKernel:
        """A period's kernel: ``densities`` at its start, no steps yet."""
        vc = lwr.ValueConditionSet(densities, [], [], self.T)
        return lwr.LaxHopfKernel(vc, fd, geom)

    # -- state inspection ---------------------------------------------------

    def active_speed(self, link_id: str) -> float:
        return self.states[link_id].fd.vf

    def stored_mass(self) -> float:
        total = 0.0
        for lid, k in self.states.items():
            total += float(np.sum(self._densities[lid])) * k.X
        return total

    def segment_densities(self, link_id: str) -> np.ndarray:
        """The link's densities as the last step recorded them (its initial
        densities before the first step), as a new array."""
        return self._densities[link_id].copy()

    # -- evolution ----------------------------------------------------------

    def step(self, controls: dict, demands: dict) -> dict:
        """Advance one step.

        ``controls`` caps admissions of controlled entries; ``demands`` gives
        each entry link's arrival rate this step.  Returns the realized
        per-link flows.
        """
        T = self.T
        t_start = self.global_step * T
        for k in self.states.values():
            k.inflow.append(0.0)
            k.outflow.append(0.0)
        D = {lid: _step_rate(k, "demand") for lid, k in self.states.items()}
        S = {lid: _step_rate(k, "supply") for lid, k in self.states.items()}

        qin: dict[str, float] = {}
        qout: dict[str, float] = {}
        for jn in self.corridor.junctions:
            down = jn.outgoing[0]
            if jn.kind == SERIAL:
                up = self.corridor.link(jn.incoming[0])
                if up.kind == ENTRY:
                    avail = self.queues[up.id] + demands.get(up.id, up.demand)
                    flow = min(avail, S[down])
                    if up.controlled:
                        flow = min(flow, controls.get(up.id, np.inf))
                    qin[up.id] = flow
                else:
                    flow = min(D[up.id], S[down])
                    qout[up.id] = flow
                qin[down] = flow
            elif jn.kind == MERGE:
                ramp = next(
                    self.corridor.link(i) for i in jn.incoming
                    if self.corridor.link(i).kind == ENTRY
                )
                main = next(i for i in jn.incoming if i != ramp.id)
                avail = self.queues[ramp.id] + demands.get(ramp.id, ramp.demand)
                q_ramp = min(avail, S[down])
                if ramp.controlled:
                    q_ramp = min(q_ramp, controls.get(ramp.id, np.inf))
                q_main = min(D[main], S[down] - q_ramp)
                qin[ramp.id] = q_ramp
                qout[main] = q_main
                qin[down] = q_ramp + q_main
            else:
                raise ValueError(f"unsupported junction kind {jn.kind}")
        for link in self.corridor.exit_links:
            cap = self.corridor.exit_cap(link.id, t_start)
            qout[link.id] = min(D[link.id], cap)

        for lid, k in self.states.items():
            k.inflow[-1] = qin.get(lid, 0.0)
            k.outflow[-1] = qout.get(lid, 0.0)
        for link in self.corridor.entry_links:
            arrived = demands.get(link.id, link.demand)
            admitted = qin.get(link.id, 0.0)
            self.queues[link.id] = max(self.queues[link.id] + arrived - admitted, 0.0)
            self.total_admitted[link.id] += admitted * T
        for link in self.corridor.exit_links:
            self.total_exited[link.id] += qout[link.id] * T

        self.global_step += 1
        self._densities = {lid: k.segment_mean_densities(len(k.inflow) * T)
                           for lid, k in self.states.items()}
        record = {
            "step": self.global_step - 1,
            "t": t_start,
            "qin": dict(qin),
            "qout": dict(qout),
            "queues": dict(self.queues),
            "demands": {l.id: demands.get(l.id, l.demand) for l in self.corridor.entry_links},
            "controls": dict(controls),
            "speeds": {l.id: self.active_speed(l.id) for l in self.corridor.vsl_links},
            "densities": {lid: d.copy() for lid, d in self._densities.items()},
        }
        self.records.append(record)
        return record

    def end_period(self, new_speeds: dict | None = None, links=None) -> None:
        """Chain densities into a fresh period and optionally switch speeds.

        ``links`` restricts chaining to a subset (e.g. just the link whose
        speed limit changes mid-horizon); other links keep their running
        value conditions, which the grid-free solution permits.  A link in
        ``links`` without a flux law, or a speed for a link that this call
        does not chain or that has no speed control, raises ``ValueError``.
        """
        new_speeds = new_speeds or {}
        chain = set(self.states) if links is None else set(links)
        unknown = sorted(chain - self.states.keys())
        if unknown:
            raise ValueError(f"cannot chain link {unknown[0]!r}: it has no flux law")
        for lid in new_speeds:
            if lid not in chain:
                raise ValueError(f"speed for link {lid!r}, which this call does not chain")
            if not self.corridor.link(lid).is_vsl:
                raise ValueError(f"speed for link {lid!r}, which has no speed control")
        for lid in [lid for lid in self.states if lid in chain]:
            k = self.states[lid]
            fd = k.fd
            if lid in new_speeds:
                fd = self.corridor.link(lid).fd_for_speed(new_speeds[lid])
            self.states[lid] = self._kernel(self._densities[lid], fd, k.geom)

    def conservation_error(self) -> float:
        """|initial + admitted - stored - exited| in vehicles."""
        stored = self.stored_mass()
        admitted = sum(self.total_admitted.values())
        exited = sum(self.total_exited.values())
        return abs(self.initial_mass + admitted - stored - exited)
