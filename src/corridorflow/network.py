"""Corridor topology and junction-level flow coupling.

A corridor is a directed path of links with optional merge junctions where
an on-ramp joins the mainline.  Junction constraints tie one link's outflow
to the next link's inflow; at a merge the ramp is served before the mainline
(one binary per step flags the rare case where the ramp itself is
supply-limited, in which case the mainline yields entirely).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linkmodel import ENTRY, FD, LinkSpec
from .lp import EQ, GE, LE, Constraint

SERIAL = "serial"
MERGE = "merge"


@dataclass
class Junction:
    id: str
    incoming: tuple
    outgoing: tuple
    kind: str = SERIAL

    def __post_init__(self):
        self.incoming = tuple(self.incoming)
        self.outgoing = tuple(self.outgoing)


@dataclass
class Corridor:
    links: list
    junctions: list
    #: exit link id -> (downstream supply cap, active-from time)
    exit_caps: dict = field(default_factory=dict)

    def __post_init__(self):
        self._by_id = {l.id: l for l in self.links}

    def link(self, link_id: str) -> LinkSpec:
        return self._by_id[link_id]

    @property
    def fd_links(self) -> list:
        return [l for l in self.links if l.kind == FD]

    @property
    def entry_links(self) -> list:
        return [l for l in self.links if l.kind == ENTRY]

    @property
    def controlled_entries(self) -> list:
        return [l for l in self.links if l.kind == ENTRY and l.controlled]

    @property
    def vsl_links(self) -> list:
        return [l for l in self.links if l.is_vsl]

    @property
    def exit_links(self) -> list:
        downstream_of = {l.id for l in self.links}
        for jn in self.junctions:
            downstream_of -= set(jn.incoming)
        return [self._by_id[i] for i in sorted(downstream_of) if self._by_id[i].kind == FD]

    def exit_cap(self, link_id: str, t: float) -> float:
        cap = self.exit_caps.get(link_id)
        if cap is None:
            return self.link(link_id).capacity
        value, t_start = cap
        return float(value) if t >= t_start else self.link(link_id).capacity


class TopologyError(ValueError):
    pass


def validate_topology(corridor: Corridor) -> list[str]:
    """Structural checks; returns a list of problems (empty when valid)."""
    errors = []
    ids = [l.id for l in corridor.links]
    if len(set(ids)) != len(ids):
        errors.append("duplicate link ids")
    known = set(ids)

    in_roles: dict[str, int] = {i: 0 for i in ids}
    out_roles: dict[str, int] = {i: 0 for i in ids}
    for jn in corridor.junctions:
        for lid in jn.incoming + jn.outgoing:
            if lid not in known:
                errors.append(f"junction {jn.id} references unknown link {lid}")
        if jn.kind == SERIAL and (len(jn.incoming), len(jn.outgoing)) != (1, 1):
            errors.append(f"junction {jn.id}: serial junctions are 1-in/1-out")
        if jn.kind == MERGE and (len(jn.incoming), len(jn.outgoing)) != (2, 1):
            errors.append(f"junction {jn.id}: merge junctions are 2-in/1-out")
        if jn.kind not in (SERIAL, MERGE):
            errors.append(f"junction {jn.id}: unsupported kind {jn.kind}")
        for lid in jn.incoming:
            if lid in in_roles:
                in_roles[lid] += 1
        for lid in jn.outgoing:
            if lid in out_roles:
                out_roles[lid] += 1

    for l in corridor.links:
        if in_roles[l.id] > 1 or out_roles[l.id] > 1:
            errors.append(f"link {l.id} appears in multiple junction roles")
        if l.kind == ENTRY and out_roles[l.id] > 0:
            errors.append(f"entry link {l.id} cannot be a junction outflow")
        if l.kind == FD:
            fd = l.fd
            rc_expected = -fd.rho_m * fd.w / (fd.vf - fd.w)
            if abs(fd.rho_c - rc_expected) > 1e-9:
                errors.append(f"link {l.id}: FD inconsistency")
            if l.is_vsl:
                sls = l.vsl_set
                if sls is None:
                    errors.append(f"link {l.id}: VSL link missing speed set")
                else:
                    for v, rc, Q in zip(sls.speeds, sls.rho_cs, sls.capacities):
                        if abs(rc + sls.rho_m * sls.w / (v - sls.w)) > 1e-9:
                            errors.append(f"link {l.id}: speed set inconsistent at {v}")
                        if abs(Q - v * rc) > 1e-9:
                            errors.append(f"link {l.id}: capacity inconsistent at {v}")

    if not corridor.entry_links:
        errors.append("no entry links")
    if not corridor.exit_links:
        errors.append("no exit link")
    return errors


def merge_big_m(corridor: Corridor, junction: Junction, n_max: int, T: float) -> float:
    down = corridor.link(junction.outgoing[0])
    return down.capacity * (n_max + 1) * T


def build_node_constraints(corridor: Corridor, junction: Junction, n_max: int,
                           T: float) -> tuple[list, dict]:
    """Flow coupling rows for one junction as (rows, {ramp id: positions of
    the rows whose right-hand side its backlog adds to}), over the keys
    (kind, link id, n).

    Serial: the upstream outflow is the downstream inflow.  Merge: flows
    conserve and the ramp is served before the mainline; binary ("merge", id,
    n) switches to the supply-limited regime where the mainline yields.
    Demand and supply caps are implied by the links' compatibility rows and
    conservation, so no junction row states them.  The ramp rows' right-hand
    sides count arrivals only; the ramp's backlog at the horizon start adds to
    them.
    """
    rows: list[Constraint] = []
    down_id = junction.outgoing[0]

    def out_key(link_id, n):
        # entry links are point queues: what leaves them is what was admitted
        return ("qin" if corridor.link(link_id).kind == ENTRY else "qout", link_id, n)

    if junction.kind == SERIAL:
        up_id = junction.incoming[0]
        for n in range(1, n_max + 1):
            rows.append(Constraint({out_key(up_id, n): 1.0, ("qin", down_id, n): -1.0}, EQ, 0.0))
        return rows, {}

    if junction.kind != MERGE:
        raise TopologyError(f"unsupported junction kind {junction.kind}")

    ramp_candidates = [i for i in junction.incoming if corridor.link(i).kind == ENTRY]
    if len(ramp_candidates) != 1:
        raise TopologyError(f"merge {junction.id} needs exactly one entry-link ramp")
    ramp_id = ramp_candidates[0]
    main_id = next(i for i in junction.incoming if i != ramp_id)
    ramp = corridor.link(ramp_id)
    big_m = merge_big_m(corridor, junction, n_max, T)
    main_cap = corridor.link(main_id).capacity

    backlog = []
    for n in range(1, n_max + 1):
        admitted = {("qin", ramp_id, i): 1.0 for i in range(1, n + 1)}
        z = ("merge", junction.id, n)
        backlog += [len(rows) + 1, len(rows) + 2]
        rows += [
            Constraint({out_key(main_id, n): 1.0, ("qin", ramp_id, n): 1.0,
                        ("qin", down_id, n): -1.0}, EQ, 0.0),
            # ramp availability: cumulative admissions capped by arrivals + backlog
            Constraint(admitted, LE, ramp.demand * n),
            # ramp served first: demand-limited unless flagged supply-limited,
            # in which case the mainline yields the junction entirely
            Constraint({**admitted, z: big_m}, GE, ramp.demand * n),
            Constraint({out_key(main_id, n): 1.0, z: main_cap}, LE, main_cap),
        ]
    return rows, {ramp_id: backlog}


def merge_binary_keys(junction: Junction, n_max: int) -> list:
    return [("merge", junction.id, n) for n in range(1, n_max + 1)]
