"""Linear constraint blocks for a single link.

Everything a link contributes to the control MILP is emitted here as rows
over link-local variable keys:

* compatibility conditions tying boundary flows to the initial state,
* the discrete speed-limit linearization (selection binaries, the rho_c*vf
  product, and the q_in/vf auxiliaries).

A link's step demand and supply need no rows of their own: the
compatibility conditions already cap the cumulative outflow by the initial
and inflow components at the exit, and the cumulative inflow by the initial
and outflow components at the entrance.

Rows are lp.Constraint records.  The templates key a link's columns
link-locally, as (kind, *index): ("qin", n), ("qout", n), ("kin", n),
("delta", s), ("ka", s, n), ("qa", s, n) and ("rcvf",).  The control model
places them at (scenario, kind, link_id, *index), and build_compatibility at
(kind, link_id, *index).  The control model takes each link's rows from a
BlockTemplate: a CSR block built once per (flux law, geometry, speeds,
n_steps, T), whose only density-dependent parts are evaluated vectorized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .lp import (BINARY, CONTINUOUS, EQ, GE, LE, SMALL_COEFFICIENT, Constraint, RowBlock,
                 pack_rows)
from .lwr import GUARD_TOL, LinkGeometry, TriangularFD

FD = "fd"
ENTRY = "entry"


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one link.

    A link of kind ``FD`` has a ``geometry`` and a flux law ``fd``; with
    speed control, ``speeds`` lists its candidate free-flow speeds in order,
    each with the law ``TriangularFD(v, fd.w, fd.rho_m)`` (``speed_fds``),
    and ``fd`` is the fastest candidate's law.  A link of kind ``ENTRY`` is a
    point queue fed at rate ``demand``, with a boundary control when
    ``controlled``.  A fact that does not belong to the link's kind, or an
    ``fd`` that is not the fastest candidate's law, raises ``ValueError``
    naming the link and the field.
    """

    id: str
    kind: str = FD
    geometry: LinkGeometry | None = None
    fd: TriangularFD | None = None
    speeds: tuple | None = None
    controlled: bool = False
    demand: float = 0.0

    def __post_init__(self):
        if self.kind not in (FD, ENTRY):
            raise ValueError(f"link {self.id}: kind {self.kind!r} is neither {FD!r} nor {ENTRY!r}")
        if self.kind == FD and (self.geometry is None or not isinstance(self.fd, TriangularFD)):
            raise ValueError(f"link {self.id}: a link with a flux law needs a geometry and "
                             f"a TriangularFD fd, got fd={self.fd!r}")
        foreign = ("geometry", "fd", "speeds") if self.kind == ENTRY else ("controlled", "demand")
        given = [f.name for f in fields(self)
                 if f.name in foreign and getattr(self, f.name) != f.default]
        if given:
            raise ValueError(f"link {self.id}: {', '.join(given)} cannot be set on a link "
                             f"of kind {self.kind!r}")
        speeds = None if self.speeds is None else tuple(self.speeds)
        object.__setattr__(self, "speeds", speeds)
        if speeds is not None and (
                not speeds or self.fd != TriangularFD(max(speeds), self.fd.w, self.fd.rho_m)):
            raise ValueError(f"link {self.id}: fd {self.fd} is not the law of the fastest "
                             f"of speeds {speeds}")
        # not a field: equality and hashing see the speeds alone
        object.__setattr__(self, "speed_fds", tuple(
            TriangularFD(v, self.fd.w, self.fd.rho_m) for v in speeds or ()))

    @property
    def is_vsl(self) -> bool:
        return self.speeds is not None

    @property
    def capacity(self) -> float:
        if self.kind != FD:
            raise ValueError(f"entry link {self.id} has no capacity of its own")
        return self.fd.Q

    def fd_for_speed(self, speed: float) -> TriangularFD:
        if not self.is_vsl:
            return self.fd
        for v, fd in zip(self.speeds, self.speed_fds):
            if abs(v - speed) < 1e-9:
                return fd
        raise ValueError(f"speed {speed} not in candidate set of link {self.id}")


# ---------------------------------------------------------------------------
# Compatibility conditions.
# ---------------------------------------------------------------------------


def _vc_coeffs(flow: str, T: float, p: int, t: float) -> dict:
    """Flow part of a boundary value condition at t in step p: the count
    through that boundary, over the keys (flow, 1..p)."""
    coeffs = {(flow, i): T for i in range(1, p)}
    coeffs[(flow, p)] = coeffs.get((flow, p), 0.0) + (t - (p - 1) * T)
    return coeffs


def _step_containing(t: float, T: float, n_max: int) -> int | None:
    """1-based step whose interval [(p-1)T, pT] contains t, or None."""
    if t < -GUARD_TOL or t > n_max * T + GUARD_TOL:
        return None
    p = int(math.floor(t / T + GUARD_TOL)) + 1
    return min(p, n_max)


# kinds of a component constant, see CompatTemplate
_FIXED, _INITIAL, _OUTFLOW = range(3)


def _initial_term(fd: TriangularFD, geom: LinkGeometry, k: int, t: float, x: float):
    """Constant of segment k's initial-density component at (t, x) as the
    (P, C, D) of ``head_k + rho_k*P + C - D``, first for a free-flow and then
    for a congested rho_k (the four branches of the initial component, in
    the floating-point order of ``lwr.LaxHopfKernel`` and of the tests'
    ``lwr_oracle.initial_component_expr``); None outside the component's
    cone."""
    xh = x - geom.xi
    X = geom.X
    left = (k - 1) * X
    right = k * X
    if xh < left + t * fd.w - GUARD_TOL or xh > right + fd.vf * t + GUARD_TOL:
        return None
    rc = fd.rho_c
    if xh >= left + fd.vf * t - GUARD_TOL:
        free = (t * fd.vf + left - xh, 0.0, 0.0)
    else:
        free = (0.0, rc * (t * fd.vf + left - xh), 0.0)
    jam = fd.rho_m * t * fd.w
    if xh <= right + t * fd.w + GUARD_TOL:
        congested = (t * fd.w + left - xh, 0.0, jam)
    else:
        congested = (-X, rc * (t * fd.w + right - xh), jam)
    return free + congested


def _inflow_term(fd: TriangularFD, geom: LinkGeometry, T: float, n: int, t: float,
                 x: float):
    """Step n's inflow component at (t, x) as (flow coefficients, (_FIXED,
    K)), the flux law folded in; None before its free-flow characteristic
    reaches x.  The terms are those of ``lwr.LaxHopfKernel`` in its
    floating-point order (the ``0.0 +`` turns -0.0 into 0.0)."""
    xh = x - geom.xi
    lag = xh / fd.vf
    if t < (n - 1) * T + lag - GUARD_TOL:
        return None
    coeffs = {("qin", i): T for i in range(1, n)}
    if t <= n * T + lag + GUARD_TOL:
        coeffs[("qin", n)] = (0.0 + (t - (n - 1) * T)) + -xh / fd.vf
        return coeffs, (_FIXED, 0.0)
    coeffs[("qin", n)] = T
    return coeffs, (_FIXED, -fd.rho_c * xh + (t - n * T) * fd.Q)


def _outflow_term(fd: TriangularFD, geom: LinkGeometry, T: float, n: int, t: float,
                  x: float):
    """Step n's outflow component at (t, x) as (flow coefficients,
    (_OUTFLOW, R, F)), its constant being ``-mass - R + F``; None before its
    backward wave reaches x.  Same floating-point order as
    ``_inflow_term``."""
    xt = x - geom.chi
    lag = xt / fd.w  # >= 0 for x <= chi
    if t < (n - 1) * T + lag - GUARD_TOL:
        return None
    coeffs = {("qout", i): T for i in range(1, n)}
    if t <= n * T + lag + GUARD_TOL:
        coeffs[("qout", n)] = 0.0 + (t - lag - (n - 1) * T)
        return coeffs, (_OUTFLOW, fd.rho_m * xt, 0.0)
    coeffs[("qout", n)] = T
    return coeffs, (_OUTFLOW, fd.rho_c * xt, (t - n * T) * fd.Q)


def _compat_rows(fd: TriangularFD, geom: LinkGeometry, n_max: int, T: float) -> list:
    """Every row ``component >= value condition`` of one flux law as
    (flow coefficients, name, downstream boundary?, component constant).

    A component constant is (_FIXED, K), (_INITIAL, k-1, *_initial_term)
    or (_OUTFLOW, R, F) for ``-mass - R + F``.  Rows whose flow
    coefficients cancel keep an empty dict."""
    rows = []
    edges = geom.segment_edges()

    def add(name, comp, p, t, downstream):
        if comp is None:
            return
        coeffs, term = comp
        for key, v in _vc_coeffs("qout" if downstream else "qin", T, p, t).items():
            coeffs[key] = coeffs.get(key, 0.0) - v
        coeffs = {k: v for k, v in coeffs.items() if abs(v) > 1e-12}
        rows.append((coeffs, name, downstream, term))

    def initial(k, t, x):
        term = _initial_term(fd, geom, k, t, x)
        return None if term is None else ({}, (_INITIAL, k - 1, *term))

    inflow = functools.partial(_inflow_term, fd, geom, T)
    outflow = functools.partial(_outflow_term, fd, geom, T)

    # initial components against both boundary conditions
    for k in range(1, geom.k_max + 1):
        for p in range(1, n_max + 1):
            add(f"ic{k}_beta{p}", initial(k, p * T, geom.chi), p, p * T, True)
            add(f"ic{k}_gamma{p}", initial(k, p * T, geom.xi), p, p * T, False)
        # kink of segment k's forward characteristic at chi
        t_star = (geom.chi - edges[k]) / fd.vf
        p = _step_containing(t_star, T, n_max)
        if p is not None:
            add(f"ic{k}_beta_arr", initial(k, t_star, geom.chi), p, t_star, True)
        # kink of segment k's backward characteristic at xi
        t_star = (geom.xi - edges[k - 1]) / fd.w
        p = _step_containing(t_star, T, n_max)
        if p is not None:
            add(f"ic{k}_gamma_arr", initial(k, t_star, geom.xi), p, t_star, False)

    # inflow components against both boundary conditions
    travel = geom.length / fd.vf
    for n in range(1, n_max + 1):
        for p in range(1, n_max + 1):
            add(f"up{n}_gamma{p}", inflow(n, p * T, geom.xi), p, p * T, False)
            add(f"up{n}_beta{p}", inflow(n, p * T, geom.chi), p, p * T, True)
        t_star = n * T + travel
        p = _step_containing(t_star, T, n_max)
        if p is not None:
            add(f"up{n}_beta_arr", inflow(n, t_star, geom.chi), p, t_star, True)

    # outflow components against both boundary conditions
    backtravel = (geom.xi - geom.chi) / fd.w
    for n in range(1, n_max + 1):
        for p in range(1, n_max + 1):
            add(f"dn{n}_gamma{p}", outflow(n, p * T, geom.xi), p, p * T, False)
            add(f"dn{n}_beta{p}", outflow(n, p * T, geom.chi), p, p * T, True)
        t_star = n * T + backtravel
        p = _step_containing(t_star, T, n_max)
        if p is not None:
            add(f"dn{n}_gamma_arr", outflow(n, t_star, geom.xi), p, t_star, False)
    return rows


def _density_terms(densities, X: float) -> tuple:
    """The parts of b(rho) that depend on the segment densities alone, so
    every flux law on one geometry shares them: (rho, -mass, the head sums
    -sum(rho[:k]) * X)."""
    rho = np.asarray(densities, dtype=float)
    head = np.array([-float(np.sum(rho[:k])) * X for k in range(len(rho))])
    return rho, -(float(np.sum(rho)) * X), head


class CompatTemplate:
    """Compatibility inequalities ``A q >= b(rho)`` of one flux law on one
    link geometry over ``n_max`` steps of length ``T``.

    The columns of A are the link's flows q_in(1), q_out(1), q_in(2), ...
    (``keys``).  Its pattern and coefficients do not depend on the initial
    segment densities rho; only b does.  Each row's b is the boundary's
    value-condition constant (-mass at the downstream end, 0 upstream) minus
    the constant of one value-condition component, which is fixed (inflow
    components), affine in the mass (outflow components) or, for segment k's
    initial density, affine in head_k and rho_k on a branch chosen by
    rho_k <= rho_c.  ``rhs`` evaluates b vectorized in the floating-point
    order of ``lwr.LaxHopfKernel``.  Rows whose flow coefficients cancel are
    not in A; their constants are checked instead.
    """

    def __init__(self, fd: TriangularFD, geom: LinkGeometry, n_max: int, T: float):
        self.fd, self.geom = fd, geom
        self.keys = [(kind, n) for n in range(1, n_max + 1) for kind in ("qin", "qout")]
        rows = _compat_rows(fd, geom, n_max, T)
        self.rows = pack_rows([Constraint(row[0], GE, 0.0) for row in rows if row[0]], self.keys)

        self._live = np.array([bool(row[0]) for row in rows], dtype=bool)
        self._all_names = [row[1] for row in rows]
        self._downstream = np.array([row[2] for row in rows], dtype=bool)
        terms = [row[3] for row in rows]

        def params(kind, width):
            """Parameters of the constants of one kind, one row per
            parameter, zero in the columns of other kinds."""
            return np.array([t[1:] if t[0] == kind else (0.0,) * width for t in terms],
                            dtype=float).reshape(-1, width).T

        kind = np.array([t[0] for t in terms], dtype=int)
        self._initial, self._outflowing = (np.flatnonzero(kind == _INITIAL),
                                           np.flatnonzero(kind == _OUTFLOW))
        self._dead = np.flatnonzero(~self._live)
        (self._fixed,) = params(_FIXED, 1)
        seg, *initial = params(_INITIAL, 7)[:, self._initial]
        self._seg = seg.astype(int)
        self._free, self._congested = np.array(initial[:3]), np.array(initial[3:])
        self._outflow = params(_OUTFLOW, 2)[:, self._outflowing]

    def rhs(self, terms: tuple) -> np.ndarray:
        """b(rho) from ``_density_terms(rho, geom.X)``; raises ValueError when
        a row without flows is violated."""
        rho, neg_mass, head = terms
        rk = rho[self._seg]
        P, C, D = np.where(rk <= self.fd.rho_c + GUARD_TOL, self._free, self._congested)
        const = self._fixed.copy()
        const[self._initial] = (((head[self._seg] + rk * P) + C) - D) + 0.0
        R, F = self._outflow
        const[self._outflowing] = (neg_mass - R) + F
        b = np.where(self._downstream, neg_mass, 0.0) - const
        violated = self._dead[b[self._dead] > 1e-9]
        if violated.size:
            name = self._all_names[violated[0]]
            raise ValueError(f"constant compatibility row violated: {name}")
        return b[self._live]


def _link_columns(link: LinkSpec, n_max: int) -> list:
    """(link-local key, lb, ub, kind) of every variable of one FD link, in
    model order."""
    cap = link.capacity
    cols = []
    for t in range(1, n_max + 1):
        cols += [(("qin", t), 0.0, cap, CONTINUOUS), (("qout", t), 0.0, cap, CONTINUOUS)]
    fds = link.speed_fds
    if fds:
        cols += [(("delta", s), 0.0, 1.0, BINARY) for s in range(len(fds))]
        cols.append((("rcvf",), 0.0, cap, CONTINUOUS))
        rc_hi = max(fd.rho_c for fd in fds)
        for t in range(1, n_max + 1):
            cols.append((("kin", t), 0.0, rc_hi, CONTINUOUS))
            for s, fd in enumerate(fds):
                cols.append((("ka", s, t), 0.0, fd.rho_c, CONTINUOUS))
                cols.append((("qa", s, t), 0.0, fd.Q, CONTINUOUS))
    return cols


class BlockTemplate:
    """Every row one FD link adds to the control MILP, over the link's own
    variables in model order.

    ``columns`` lists (key, lb, ub, kind) of those variables, keyed
    link-locally; a model creates them for its link and places ``rows`` at
    the first one's column id, filled in by ``evaluate``.  The first
    ``n_compat`` rows are the compatibility inequalities.  A plain link has
    just those, with b(rho) from its CompatTemplate as right-hand side.

    A speed-controlled link gets one copy of its compatibility rows per
    candidate speed in disaggregated form: the rows act on per-candidate
    flow copies (the inflow copies are the k_a auxiliaries of the speed
    linearization, scaled by the candidate speed) with constants switched
    by the selection binary, so the delta(s) coefficient is -b_s(rho), or 0
    where |b_s(rho)| is ``lp.SMALL_COEFFICIENT`` or less (what HiGHS would
    drop, such as rounding residue of an exact 0, which a model drops as it
    drops exact zeros); the
    aggregate flows are the sums of the copies.  The relaxation is then the
    convex hull of the per-speed flow sets, so no big-M slack is involved.
    The rows of build_vsl_linearization follow.
    """

    def __init__(self, fd: TriangularFD, geom: LinkGeometry, speeds, n_max: int, T: float):
        link = LinkSpec("", FD, geom, fd, speeds)
        self.columns = _link_columns(link, n_max)
        self._X = geom.X
        if speeds is None:
            self._compat = CompatTemplate(fd, geom, n_max, T)
            self._delta = None
            self.rows = self._compat.rows
            self.n_compat = self.rows.n_rows
            return

        rows, parts = [], []
        for s, (v_s, fd_s) in enumerate(zip(speeds, link.speed_fds)):
            tpl = CompatTemplate(fd_s, geom, n_max, T)
            first = len(rows)
            for compat in tpl.rows.constraints(tpl.keys):
                row = {("delta", s): 0.0}  # -b_s(rho), set by evaluate
                for (kind, n), coef in compat.coeffs.items():
                    if kind == "qin":
                        row[("ka", s, n)] = coef * v_s
                    else:
                        row[("qa", s, n)] = coef
                rows.append(Constraint(row, GE, 0.0))
            parts.append((tpl, first, len(rows), ("delta", s)))
            # outflow copy active only for the selected candidate
            for n in range(1, n_max + 1):
                rows.append(Constraint({("qa", s, n): 1.0, ("delta", s): -fd_s.Q}, LE, 0.0))
        # aggregate flows are the sums of the candidate copies
        for n in range(1, n_max + 1):
            coeffs = {("qin", n): 1.0}
            for s, v_s in enumerate(speeds):
                coeffs[("ka", s, n)] = -v_s
            rows.append(Constraint(coeffs, EQ, 0.0))
            coeffs = {("qout", n): 1.0}
            for s in range(len(speeds)):
                coeffs[("qa", s, n)] = -1.0
            rows.append(Constraint(coeffs, EQ, 0.0))
        self.n_compat = len(rows)
        rows += build_vsl_linearization(link, n_max)

        keys = [c[0] for c in self.columns]
        self.rows = pack_rows(rows, keys)
        indptr, indices = self.rows.indptr, self.rows.indices
        self._delta = []
        for tpl, first, end, delta in parts:
            lo, hi = indptr[first], indptr[end]
            pos = lo + np.flatnonzero(indices[lo:hi] == keys.index(delta))
            self._delta.append((tpl, pos))

    def evaluate(self, densities) -> RowBlock:
        """The block's rows for the given initial segment densities."""
        terms = _density_terms(densities, self._X)
        if self._delta is None:
            return self.rows._replace(rhs=self._compat.rhs(terms))
        data = self.rows.data.copy()
        for tpl, pos in self._delta:
            b = tpl.rhs(terms)
            data[pos] = np.where(np.abs(b) <= SMALL_COEFFICIENT, 0.0, 0.0 - b)
        return self.rows._replace(data=data)


@functools.lru_cache(maxsize=None)
def block_template(fd: TriangularFD, geom: LinkGeometry, speeds, n_max: int,
                   T: float) -> BlockTemplate:
    """The BlockTemplate of one link shape, built on first use.  The key
    holds no state, so every horizon of a closed loop reuses it."""
    return BlockTemplate(fd, geom, speeds, n_max, T)


def link_template(link: LinkSpec, n_max: int, T: float) -> BlockTemplate:
    return block_template(link.fd, link.geometry, link.speeds, n_max, T)


def build_compatibility(link: LinkSpec, initial_density, n_max: int,
                        T: float) -> list[Constraint]:
    """All compatibility inequalities for one link as linear rows in the
    boundary flows (initial densities enter as fixed parameters): the first
    ``n_compat`` rows of its BlockTemplate, keyed (kind, link.id, *index)."""
    densities = np.asarray(initial_density, dtype=float)
    if np.any(densities < -GUARD_TOL):
        raise ValueError("negative initial density")
    block = link_template(link, n_max, T)
    keys = [(kind, link.id, *idx) for (kind, *idx), *_ in block.columns]
    return block.evaluate(densities).constraints(keys)[:block.n_compat]


def build_vsl_linearization(link: LinkSpec, n_max: int) -> list[Constraint]:
    """Selection constraints for the discrete speed-limit set, over the
    link-local keys: exactly one candidate active, the rho_c*vf product
    pinned to the active candidate, and the q_in/vf auxiliaries sandwiched
    so k_in equals q_in over the active speed."""
    if not link.is_vsl:
        raise ValueError(f"link {link.id} has no speed-limit control")
    fds = link.speed_fds
    rows = [Constraint({("delta", s): 1.0 for s in range(len(fds))}, EQ, 1.0)]
    coeffs = {("rcvf",): 1.0}
    for s, fd in enumerate(fds):
        coeffs[("delta", s)] = -fd.rho_c * fd.vf
    rows.append(Constraint(coeffs, EQ, 0.0))
    q_max = link.capacity
    for n in range(1, n_max + 1):
        for s, fd in enumerate(fds):
            ka, qin, delta, v = ("ka", s, n), ("qin", n), ("delta", s), fd.vf
            rows += [
                Constraint({ka: 1.0, delta: -fd.Q / v}, LE, 0.0),
                Constraint({ka: 1.0, qin: -1.0 / v}, LE, 0.0),
                Constraint({ka: 1.0, qin: -1.0 / v, delta: -q_max / v}, GE, -q_max / v),
            ]
        coeffs = {("ka", s, n): 1.0 for s in range(len(fds))}
        coeffs[("kin", n)] = -1.0
        rows.append(Constraint(coeffs, EQ, 0.0))
    return rows
