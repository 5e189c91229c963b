"""Closed-loop traffic simulation on the analytic kinematic-wave engine.

The corridor advances one control step at a time: each link's step demand
and supply come from its boundary-evaluated cumulative-count components,
junction flows take the greedy min (ramp served first at merges), and the
realized flows are appended to the link's value conditions.  At period
boundaries (speed-limit changes, horizon rolls) densities are re-initialized
from exact per-segment cumulative-count differences, so vehicles are
conserved to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lwr
from .linkmodel import ENTRY, LinkSpec
from .network import MERGE, SERIAL, Corridor


@dataclass
class _LinkState:
    link: LinkSpec
    fd: lwr.TriangularFD
    densities: np.ndarray
    inflows: list = field(default_factory=list)
    outflows: list = field(default_factory=list)

    def kernel(self, T: float, pad: int = 0) -> lwr.LaxHopfKernel:
        """Numeric evaluator of the running period's value conditions, with
        ``pad`` zero-flow steps appended."""
        vc = lwr.ValueConditionSet(
            self.densities,
            np.array(self.inflows + [0.0] * pad),
            np.array(self.outflows + [0.0] * pad),
            T,
        )
        return lwr.LaxHopfKernel(vc, self.fd, self.link.geometry)


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
        self.states: dict[str, _LinkState] = {}
        for link in corridor.fd_links:
            dens = np.zeros(link.geometry.k_max)
            if initial_densities and link.id in initial_densities:
                dens = np.asarray(initial_densities[link.id], dtype=float).copy()
            fd = link.fd
            if link.is_vsl:
                speed = (initial_speeds or {}).get(link.id, max(link.vsl_set.speeds))
                fd = link.fd_for_speed(speed)
            self.states[link.id] = _LinkState(link, fd, dens)
        self.queues = {l.id: 0.0 for l in corridor.entry_links}
        if initial_queues:
            self.queues.update({k: float(v) for k, v in initial_queues.items()})
        self.total_admitted = {l.id: 0.0 for l in corridor.entry_links}
        self.total_exited = {l.id: 0.0 for l in corridor.exit_links}
        self.initial_mass = self.stored_mass()
        self.records: list[dict] = []

    # -- state inspection ---------------------------------------------------

    def active_speed(self, link_id: str) -> float:
        return self.states[link_id].fd.vf

    def stored_mass(self) -> float:
        total = 0.0
        for lid, st in self.states.items():
            total += float(np.sum(self.segment_densities(lid))) * st.link.geometry.X
        return total

    def segment_densities(self, link_id: str) -> np.ndarray:
        st = self.states[link_id]
        t_local = len(st.inflows) * self.T
        if t_local == 0:
            return st.densities.copy()
        return st.kernel(self.T).segment_mean_densities(t_local)

    def _step_rate(self, st: _LinkState, count_fn, cum_prev: float, kinks) -> float:
        """Largest constant rate sustainable over the coming step.

        Checked at the step end and at every wave-arrival kink inside the
        step; a component can turn finite mid-step below the straight
        boundary line, so step-end checks alone would overdraw.
        """
        T = self.T
        t_prev = len(st.inflows) * T
        t_next = t_prev + T
        rate = st.fd.Q
        for t in [t_next] + [t for t in kinks if t_prev < t < t_next]:
            rate = min(rate, (count_fn(t) - cum_prev) / (t - t_prev))
        return max(rate, 0.0)

    def _kink_times(self, st: _LinkState, side: str) -> list:
        geom = st.link.geometry
        edges = geom.segment_edges()
        n = len(st.inflows)
        if side == "supply":
            kinks = [(geom.xi - e) / st.fd.w for e in edges[:-1]]
            back = (geom.xi - geom.chi) / st.fd.w
            kinks += [m * self.T + back for m in range(1, n + 2)]
        else:
            kinks = [(geom.chi - e) / st.fd.vf for e in edges[1:]]
            travel = geom.length / st.fd.vf
            kinks += [m * self.T + travel for m in range(1, n + 2)]
        return kinks

    def step_demand(self, link_id: str) -> float:
        """Sending capability of the link over the coming step."""
        st = self.states[link_id]
        already = float(np.sum(st.outflows)) * self.T
        return self._step_rate(
            st,
            st.kernel(self.T, pad=1).max_exit_count,
            already,
            self._kink_times(st, "demand"),
        )

    def step_supply(self, link_id: str) -> float:
        """Receiving capability of the link over the coming step."""
        st = self.states[link_id]
        already = float(np.sum(st.inflows)) * self.T
        return self._step_rate(
            st,
            st.kernel(self.T, pad=1).max_entry_count,
            already,
            self._kink_times(st, "supply"),
        )

    # -- evolution ----------------------------------------------------------

    def step(self, controls: dict, demands: dict) -> dict:
        """Advance one step.

        ``controls`` caps admissions of controlled entries; ``demands`` gives
        each entry link's arrival rate this step.  Returns the realized
        per-link flows.
        """
        T = self.T
        t_start = self.global_step * T
        D = {lid: self.step_demand(lid) for lid in self.states}
        S = {lid: self.step_supply(lid) for lid in self.states}

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

        for lid, st in self.states.items():
            st.inflows.append(qin.get(lid, 0.0))
            st.outflows.append(qout.get(lid, 0.0))
        for link in self.corridor.entry_links:
            arrived = demands.get(link.id, link.demand)
            admitted = qin.get(link.id, 0.0)
            self.queues[link.id] = max(self.queues[link.id] + arrived - admitted, 0.0)
            self.total_admitted[link.id] += admitted * T
        for link in self.corridor.exit_links:
            self.total_exited[link.id] += qout[link.id] * T

        self.global_step += 1
        record = {
            "step": self.global_step - 1,
            "t": t_start,
            "qin": dict(qin),
            "qout": dict(qout),
            "queues": dict(self.queues),
            "demands": {l.id: demands.get(l.id, l.demand) for l in self.corridor.entry_links},
            "controls": dict(controls),
            "speeds": {l.id: self.active_speed(l.id) for l in self.corridor.vsl_links},
            "densities": {lid: self.segment_densities(lid) for lid in self.states},
        }
        self.records.append(record)
        return record

    def end_period(self, new_speeds: dict | None = None, links=None) -> None:
        """Chain densities into a fresh period and optionally switch speeds.

        ``links`` restricts chaining to a subset (e.g. just the link whose
        speed limit changes mid-horizon); other links keep their running
        value conditions, which the grid-free solution permits.
        """
        T = self.T
        chain = set(links) if links is not None else set(self.states)
        for st in self.states.values():
            if st.link.id not in chain:
                continue
            t_local = len(st.inflows) * T
            if t_local > 0:
                st.densities = st.kernel(T).segment_mean_densities(t_local)
                st.inflows = []
                st.outflows = []
            if new_speeds and st.link.id in new_speeds:
                st.fd = st.link.fd_for_speed(new_speeds[st.link.id])

    def conservation_error(self) -> float:
        """|initial + admitted - stored - exited| in vehicles."""
        stored = self.stored_mass()
        admitted = sum(self.total_admitted.values())
        exited = sum(self.total_exited.values())
        return abs(self.initial_mass + admitted - stored - exited)
