"""Closed-loop traffic simulation on the analytic kinematic-wave engine.

Each link's state for a period is one ``lwr.LaxHopfKernel``: built from the
period's initial densities and flux law, it keeps the realized boundary
flows of the period's completed steps.  A step first opens itself by
appending a zero flow to every kernel's inflow and outflow; each link's step
demand and supply come from its boundary-evaluated cumulative-count
components with the open step at zero, junction flows take the greedy min
(ramp served first at merges, over the junction roles the corridor
resolved), and the realized flows overwrite the open step's zeros.  The
step then records each link's per-segment densities from exact
cumulative-count differences; state reads and, at period boundaries
(speed-limit changes, horizon rolls), the fresh kernels start from those,
so vehicles are conserved to float precision.
"""

from __future__ import annotations

import numpy as np

from . import lwr
from .network import Corridor


def _step_rate(T: float, Q: float, count_fn, flows: list, edge_kinks: list,
               lag: float) -> float:
    """Largest constant rate, at most ``Q``, at which the link can send
    (demand) or receive (supply) over its open step, the last of ``flows``:
    the count is read at each of the step's ``lwr.step_check_times``."""
    n = len(flows)
    cum_prev = lwr._fsum(flows[:-1]) * T
    t_prev = (n - 1) * T
    rate = Q
    for t in lwr.step_check_times(T, n, edge_kinks, lag):
        rate = min(rate, (count_fn(t) - cum_prev) / (t - t_prev))
    return max(rate, 0.0)


def _refuse_unknown(values: dict, known: list, what: str, why: str) -> None:
    for lid in values:
        if lid not in known:
            raise ValueError(f"initial {what} for link {lid!r}: {why}")


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
        """Start every link of ``corridor`` in its first period.

        ``initial_densities`` maps a link with a flux law to its ``k_max``
        segment densities (zeros otherwise), ``initial_queues`` an entry link
        to its backlog (0 otherwise) and ``initial_speeds`` a link with speed
        control to its speed (the fastest candidate otherwise).  An id that
        does not fit its argument, or a density list of the wrong length,
        raises ``ValueError``.
        """
        initial_densities = initial_densities or {}
        initial_queues = initial_queues or {}
        initial_speeds = initial_speeds or {}
        fd_links = corridor.fd_links
        self._entries = corridor.entry_links
        self._exit_ids = [l.id for l in corridor.exit_links]
        self._vsl_ids = [l.id for l in corridor.vsl_links]
        _refuse_unknown(initial_densities, [l.id for l in fd_links], "densities",
                        "it has no flux law")
        _refuse_unknown(initial_queues, [l.id for l in self._entries], "queue",
                        "it is not an entry link")
        _refuse_unknown(initial_speeds, self._vsl_ids, "speed",
                        "it has no speed control")
        self.corridor = corridor
        self.T = T
        self.global_step = 0
        self._junctions = corridor.roles
        #: link id -> the running period's kernel
        self.states: dict[str, lwr.LaxHopfKernel] = {}
        #: link id -> ``boundaries()`` of its kernel
        self._rates: dict[str, tuple] = {}
        #: link id -> the densities at the last step end, the simulator's own
        #: array: records and state reads get copies
        self._densities: dict[str, np.ndarray] = {}
        for link in fd_links:
            k_max = link.geometry.k_max
            dens = np.zeros(k_max)
            if link.id in initial_densities:
                dens = np.asarray(initial_densities[link.id], dtype=float).copy()
                if dens.shape != (k_max,):
                    raise ValueError(f"densities for link {link.id!r} have shape "
                                     f"{dens.shape}, not its {k_max} segments")
            fd = link.fd_for_speed(initial_speeds.get(link.id, link.fd.vf))
            self._start_period(link.id, dens, fd, link.geometry)
            self._densities[link.id] = dens
        self.queues = {l.id: 0.0 for l in self._entries}
        self.queues.update({k: float(v) for k, v in initial_queues.items()})
        self.total_admitted = {l.id: 0.0 for l in self._entries}
        self.total_exited = {lid: 0.0 for lid in self._exit_ids}
        self.initial_mass = self.stored_mass()
        self.records: list[dict] = []

    def _start_period(self, link_id, densities, fd, geom) -> None:
        """Give the link a fresh kernel: ``densities`` at its start, no steps yet."""
        vc = lwr.ValueConditionSet(densities, [], [], self.T)
        k = self.states[link_id] = lwr.LaxHopfKernel(vc, fd, geom)
        self._rates[link_id] = k.boundaries()

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
        D = {lid: _step_rate(T, *demand) for lid, (demand, _) in self._rates.items()}
        S = {lid: _step_rate(T, *supply) for lid, (_, supply) in self._rates.items()}

        qin: dict[str, float] = {}
        qout: dict[str, float] = {}
        for ramp, main, down in self._junctions:
            if ramp is None:  # serial, from a link with a flux law
                flow = min(D[main], S[down])
                qout[main] = flow
                qin[down] = flow
                continue
            avail = self.queues[ramp.id] + demands.get(ramp.id, ramp.demand)
            q_ramp = min(avail, S[down])
            if ramp.controlled:
                q_ramp = min(q_ramp, controls.get(ramp.id, np.inf))
            qin[ramp.id] = q_ramp
            if main is None:  # serial, from an entry
                qin[down] = q_ramp
            else:  # merge: the ramp is served first
                q_main = min(D[main], S[down] - q_ramp)
                qout[main] = q_main
                qin[down] = q_ramp + q_main
        for lid in self._exit_ids:
            qout[lid] = min(D[lid], self.corridor.exit_cap(lid, t_start))

        for lid, k in self.states.items():
            k.inflow[-1] = qin.get(lid, 0.0)
            k.outflow[-1] = qout.get(lid, 0.0)
        arrivals = {l.id: demands.get(l.id, l.demand) for l in self._entries}
        for lid, arrived in arrivals.items():
            admitted = qin.get(lid, 0.0)
            self.queues[lid] = max(self.queues[lid] + arrived - admitted, 0.0)
            self.total_admitted[lid] += admitted * T
        for lid in self._exit_ids:
            self.total_exited[lid] += qout[lid] * T

        self.global_step += 1
        self._densities = {lid: k.segment_mean_densities(len(k.inflow) * T)
                           for lid, k in self.states.items()}
        record = {
            "step": self.global_step - 1,
            "t": t_start,
            "qin": qin,
            "qout": qout,
            "queues": dict(self.queues),
            "demands": arrivals,
            "controls": dict(controls),
            "speeds": {lid: self.states[lid].fd.vf for lid in self._vsl_ids},
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
            self._start_period(lid, self._densities[lid], fd, k.geom)

    def conservation_error(self) -> float:
        """|initial + admitted - stored - exited| in vehicles."""
        stored = self.stored_mass()
        admitted = sum(self.total_admitted.values())
        exited = sum(self.total_exited.values())
        return abs(self.initial_mass + admitted - stored - exited)
