"""Corridor topology and junction-level flow coupling.

A corridor is a directed path of links with optional merge junctions where
an on-ramp joins the mainline.  ``Corridor`` is a frozen value that checks
itself on construction and resolves each junction once into its ``Roles``,
so the simulator and the control model read the topology from it and check
nothing themselves; this is the one module that reads junction kinds.
Junction constraints tie one link's outflow to the next link's inflow; at a
merge the ramp is served before the mainline (one binary per step flags the
rare case where the ramp itself is supply-limited, in which case the
mainline yields entirely).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .linkmodel import ENTRY, FD, LinkSpec
from .lp import EQ, GE, LE, Constraint

SERIAL = "serial"
MERGE = "merge"


class TopologyError(ValueError):
    pass


class Roles(NamedTuple):
    """One junction's links: ``ramp`` the spec of the entry link that feeds
    it (None when none does), ``main`` the id of the upstream link with a
    flux law (None when none does) and ``down`` the downstream link's id.  A
    serial junction has one of ramp and main, a merge both."""

    ramp: LinkSpec | None
    main: str | None
    down: str


@dataclass(frozen=True)
class Junction:
    id: str
    incoming: tuple
    outgoing: tuple
    kind: str = SERIAL

    def __post_init__(self):
        object.__setattr__(self, "incoming", tuple(self.incoming))
        object.__setattr__(self, "outgoing", tuple(self.outgoing))


@dataclass(frozen=True)
class Corridor:
    """Links, junctions and exit caps, checked on construction.

    ``links`` and ``junctions`` are held as tuples and ``exit_caps`` (exit
    link id -> (downstream supply cap, active-from time), given as a dict or
    as such pairs) as pairs sorted by id, so corridors built alike compare
    and hash equal.  A corridor that breaks a rule of ``_resolve`` raises
    ``TopologyError`` listing every problem.  ``roles`` holds each junction's
    Roles, in the order of ``junctions``.
    """

    links: tuple
    junctions: tuple
    exit_caps: tuple = ()

    def __post_init__(self):
        caps = {lid: (value, t_start) for lid, (value, t_start) in dict(self.exit_caps).items()}
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "junctions", tuple(self.junctions))
        object.__setattr__(self, "exit_caps", tuple(sorted(caps.items())))
        # not fields: equality and hashing see links, junctions and exit caps only
        object.__setattr__(self, "_by_id", {l.id: l for l in self.links})
        object.__setattr__(self, "_caps", caps)
        roles, errors = _resolve(self)
        if errors:
            raise TopologyError("; ".join(errors))
        object.__setattr__(self, "roles", tuple(roles))

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
        cap = self._caps.get(link_id)
        if cap is None:
            return self.link(link_id).capacity
        value, t_start = cap
        return float(value) if t >= t_start else self.link(link_id).capacity


def _resolve(corridor: Corridor) -> tuple[list, list[str]]:
    """Each junction's Roles and every problem of ``corridor``: unknown or
    duplicate link or junction ids, a serial junction that is not
    1-in/1-out, a merge that does not join one entry-link ramp and one
    mainline link into one link, a link in two junction roles, an entry link
    that is a junction outflow or feeds no junction, an inconsistent flux
    law, no entry or no exit link, and an exit cap on a link that is not an
    exit link, that is not a nonnegative number or whose start is NaN."""
    errors = []
    by_id = corridor._by_id
    if len(by_id) != len(corridor.links):
        errors.append("duplicate link ids")
    if len({jn.id for jn in corridor.junctions}) != len(corridor.junctions):
        errors.append("duplicate junction ids")

    roles = []
    in_roles = Counter(lid for jn in corridor.junctions for lid in jn.incoming)
    out_roles = Counter(lid for jn in corridor.junctions for lid in jn.outgoing)
    for jn in corridor.junctions:
        for lid in jn.incoming + jn.outgoing:
            if lid not in by_id:
                errors.append(f"junction {jn.id} references unknown link {lid}")
        ramps = [by_id[i] for i in jn.incoming if i in by_id and by_id[i].kind == ENTRY]
        mains = [i for i in jn.incoming if i in by_id and by_id[i].kind != ENTRY]
        if jn.kind == SERIAL and (len(jn.incoming), len(jn.outgoing)) != (1, 1):
            errors.append(f"junction {jn.id}: serial junctions are 1-in/1-out")
        elif jn.kind == MERGE and (len(ramps), len(mains), len(jn.outgoing)) != (1, 1, 1):
            errors.append(f"junction {jn.id}: a merge joins one entry-link ramp and one "
                          "mainline link into one link")
        elif jn.kind not in (SERIAL, MERGE):
            errors.append(f"junction {jn.id}: unsupported kind {jn.kind}")
        roles.append(Roles(ramps[0] if ramps else None, mains[0] if mains else None,
                           jn.outgoing[0] if jn.outgoing else None))

    for l in corridor.links:
        if in_roles[l.id] > 1 or out_roles[l.id] > 1:
            errors.append(f"link {l.id} appears in multiple junction roles")
        if l.kind == ENTRY and out_roles[l.id] > 0:
            errors.append(f"entry link {l.id} cannot be a junction outflow")
        if l.kind == ENTRY and in_roles[l.id] == 0:
            errors.append(f"entry link {l.id} feeds no junction")
        if l.kind == FD:
            fd = l.fd
            rc_expected = -fd.rho_m * fd.w / (fd.vf - fd.w)
            if abs(fd.rho_c - rc_expected) > 1e-9:
                errors.append(f"link {l.id}: FD inconsistency")

    if not corridor.entry_links:
        errors.append("no entry links")
    exit_ids = {l.id for l in corridor.exit_links}
    if not exit_ids:
        errors.append("no exit link")
    for lid, (value, t_start) in corridor.exit_caps:
        if lid not in exit_ids:
            errors.append(f"exit cap on {lid}, which is not an exit link")
        elif not value >= 0.0:  # also refuses NaN
            errors.append(f"exit cap on {lid} is {value}, not a nonnegative number")
        elif t_start != t_start:
            errors.append(f"exit cap on {lid} starts at {t_start}, not a number")
    return roles, errors


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
    ramp, main_id, down_id = corridor.roles[corridor.junctions.index(junction)]
    if ramp is None or main_id is None:
        # entry links are point queues: what leaves them is what was admitted
        up = ("qout", main_id) if ramp is None else ("qin", ramp.id)
        rows = [Constraint({(*up, n): 1.0, ("qin", down_id, n): -1.0}, EQ, 0.0)
                for n in range(1, n_max + 1)]
        return rows, {}

    big_m = merge_big_m(corridor, junction, n_max, T)
    main_cap = corridor.link(main_id).capacity
    rows, backlog = [], []
    for n in range(1, n_max + 1):
        admitted = {("qin", ramp.id, i): 1.0 for i in range(1, n + 1)}
        z = ("merge", junction.id, n)
        backlog += [len(rows) + 1, len(rows) + 2]
        rows += [
            Constraint({("qout", main_id, n): 1.0, ("qin", ramp.id, n): 1.0,
                        ("qin", down_id, n): -1.0}, EQ, 0.0),
            # ramp availability: cumulative admissions capped by arrivals + backlog
            Constraint(admitted, LE, ramp.demand * n),
            # ramp served first: demand-limited unless flagged supply-limited,
            # in which case the mainline yields the junction entirely
            Constraint({**admitted, z: big_m}, GE, ramp.demand * n),
            Constraint({("qout", main_id, n): 1.0, z: main_cap}, LE, main_cap),
        ]
    return rows, {ramp.id: backlog}


def merge_binary_keys(junction: Junction, n_max: int) -> list:
    """The merge's regime binaries; a serial junction has none."""
    if junction.kind != MERGE:
        return []
    return [("merge", junction.id, n) for n in range(1, n_max + 1)]
