"""Linear constraint blocks for a single link.

Everything a link contributes to the control MILP is emitted here as rows
over link-local variable keys:

* compatibility conditions tying boundary flows to the initial state,
* the discrete speed-limit linearization (selection binaries, the rho_c*vf
  product, and the q_in/vf auxiliaries),
* step demand/supply definitions built from the boundary-evaluated
  cumulative-count components,
* density chaining between consecutive solve periods.

Row coefficients reference keys like ("qin", link_id, n) or
("delta", link_id, s); callers map them into a concrete LinearProgram
namespace.  The control model itself takes each link's rows from a
BlockTemplate: a CSR block built once per (flux law, geometry, speed set,
n_steps, T), whose only density-dependent parts are evaluated vectorized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .lp import BINARY, CONTINUOUS, EQ, GE, GE_CODE, LE, SENSES, RowBlock, sense_code
from . import lwr
from .lwr import (
    GUARD_TOL,
    ComponentExpr,
    LinkGeometry,
    TriangularFD,
    ValueConditionSet,
)

FD = "fd"
ENTRY = "entry"


@dataclass(frozen=True)
class SpeedLimitSet:
    """Candidate free-flow speeds with the induced critical densities and
    capacities (backwave speed and jam density stay fixed)."""

    speeds: tuple
    w: float
    rho_m: float

    @property
    def fds(self) -> tuple:
        return tuple(TriangularFD(v, self.w, self.rho_m) for v in self.speeds)

    @property
    def rho_cs(self) -> tuple:
        return tuple(fd.rho_c for fd in self.fds)

    @property
    def capacities(self) -> tuple:
        return tuple(fd.Q for fd in self.fds)

    @property
    def Q_max(self) -> float:
        return max(self.capacities)

    def __len__(self) -> int:
        return len(self.speeds)


@dataclass
class LinkSpec:
    """Static description of one link."""

    id: str
    kind: str = FD
    geometry: LinkGeometry | None = None
    fd: TriangularFD | None = None
    is_vsl: bool = False
    vsl_set: SpeedLimitSet | None = None
    controlled: bool = False  # entry links: carries a boundary control
    demand: float = 0.0  # entry links: exogenous arrival rate (veh/s)

    def __post_init__(self):
        if self.kind == FD and (self.geometry is None or self.fd is None):
            raise ValueError(f"link {self.id}: FD links need geometry and fd")
        if self.is_vsl and self.vsl_set is None:
            raise ValueError(f"link {self.id}: VSL link without a speed set")

    @property
    def capacity(self) -> float:
        if self.kind != FD:
            raise ValueError("entry links have no capacity of their own")
        return self.vsl_set.Q_max if self.is_vsl else self.fd.Q

    def fd_for_speed(self, speed: float) -> TriangularFD:
        if not self.is_vsl:
            return self.fd
        for v, fd in zip(self.vsl_set.speeds, self.vsl_set.fds):
            if abs(v - speed) < 1e-9:
                return fd
        raise ValueError(f"speed {speed} not in candidate set of link {self.id}")


@dataclass
class LinRow:
    coeffs: dict
    sense: str
    rhs: float
    name: str = ""

    def evaluate(self, values: dict) -> float:
        """Signed slack: >= 0 means satisfied for inequality rows."""
        lhs = sum(c * values[k] for k, c in self.coeffs.items())
        if self.sense == LE:
            return self.rhs - lhs
        if self.sense == GE:
            return lhs - self.rhs
        return -abs(lhs - self.rhs)


class LinkVariables:
    """Key factory for one link's slice of the model."""

    def __init__(self, link: LinkSpec, n_max: int):
        self.link = link
        self.n_max = n_max

    def qin(self, n: int):
        return ("qin", self.link.id, n)

    def qout(self, n: int):
        return ("qout", self.link.id, n)

    def kin(self, n: int):
        return ("kin", self.link.id, n)

    def ka(self, s: int, n: int):
        return ("ka", self.link.id, s, n)

    def qa(self, s: int, n: int):
        return ("qa", self.link.id, s, n)

    def delta(self, s: int):
        return ("delta", self.link.id, s)

    def rcvf(self):
        return ("rcvf", self.link.id)

    def demand_count(self, n: int):
        return ("L", self.link.id, n)

    def demand_flow(self, n: int):
        return ("D", self.link.id, n)

    def supply_count(self, n: int):
        return ("U", self.link.id, n)

    def supply_flow(self, n: int):
        return ("S", self.link.id, n)

    def y_demand(self, n: int, c: int):
        return ("yL", self.link.id, n, c)

    def y_supply(self, n: int, c: int):
        return ("yU", self.link.id, n, c)


def count_big_m(link: LinkSpec, n_max: int, T: float) -> float:
    """Cumulative-count bound: stored vehicles plus everything that can
    cross a boundary over the horizon.  Used to relax count-scaled rows."""
    rho_m = link.fd.rho_m if link.fd else link.vsl_set.rho_m
    return rho_m * link.geometry.length + link.capacity * n_max * T


# ---------------------------------------------------------------------------
# Compatibility conditions.
# ---------------------------------------------------------------------------


def _expr_coeffs(expr: ComponentExpr, vars: LinkVariables, fd: TriangularFD):
    """Flatten a component into (coeffs, const) over link-local flow keys;
    the 1/vf and rho_c*vf parts fold numerically with the given flux law."""
    coeffs = {}
    const = expr.const + expr.rcvf * fd.Q
    for n, a in expr.qin.items():
        coeffs[vars.qin(n)] = coeffs.get(vars.qin(n), 0.0) + a
    for n, a in expr.qout.items():
        coeffs[vars.qout(n)] = coeffs.get(vars.qout(n), 0.0) + a
    for n, a in expr.kin.items():
        coeffs[vars.qin(n)] = coeffs.get(vars.qin(n), 0.0) + a / fd.vf
    return coeffs, const


def _vc_coeffs(flow, T: float, p: int, t: float) -> dict:
    """Flow part of a boundary value condition at t in step p: the count
    through that boundary, over the keys flow(1..p)."""
    coeffs = {flow(i): T for i in range(1, p)}
    coeffs[flow(p)] = coeffs.get(flow(p), 0.0) + (t - (p - 1) * T)
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
    for a congested rho_k (the four branches of lwr.initial_component_expr,
    in the same floating-point order); None outside the component's cone."""
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


def _compat_rows(fd: TriangularFD, geom: LinkGeometry, vars: LinkVariables,
                 n_max: int, T: float) -> list:
    """Every row ``component >= value condition`` of one flux law as
    (flow coefficients, name, downstream boundary?, component constant).

    A component constant is (_FIXED, K), (_INITIAL, k-1, *_initial_term)
    or (_OUTFLOW, R, F) for ``-mass - R + F``.  Rows whose flow
    coefficients cancel keep an empty dict."""
    rows = []
    edges = geom.segment_edges()
    zero = np.zeros(geom.k_max)

    def add(name, comp, p, t, downstream):
        if comp is None:
            return
        coeffs, term = comp
        coeffs = dict(coeffs)
        for key, v in _vc_coeffs(vars.qout if downstream else vars.qin, T, p, t).items():
            coeffs[key] = coeffs.get(key, 0.0) - v
        coeffs = {k: v for k, v in coeffs.items() if abs(v) > 1e-12}
        rows.append((coeffs, name, downstream, term))

    def initial(k, t, x):
        term = _initial_term(fd, geom, k, t, x)
        return None if term is None else ({}, (_INITIAL, k - 1, *term))

    def upstream(n, t, x):
        c = lwr.upstream_component_expr(fd, geom, T, n, t, x)
        if c is None:
            return None
        coeffs, const = _expr_coeffs(c, vars, fd)
        return coeffs, (_FIXED, const)

    def downstream(n, t, x):
        # at zero density the constant -mass - R of the outflow component is -R
        c = lwr.downstream_component_expr(fd, geom, zero, T, n, t, x)
        if c is None:
            return None
        coeffs, _ = _expr_coeffs(c, vars, fd)
        return coeffs, (_OUTFLOW, -c.const, c.rcvf * fd.Q)

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
            add(f"up{n}_gamma{p}", upstream(n, p * T, geom.xi), p, p * T, False)
            add(f"up{n}_beta{p}", upstream(n, p * T, geom.chi), p, p * T, True)
        t_star = n * T + travel
        p = _step_containing(t_star, T, n_max)
        if p is not None:
            add(f"up{n}_beta_arr", upstream(n, t_star, geom.chi), p, t_star, True)

    # outflow components against both boundary conditions
    backtravel = (geom.xi - geom.chi) / fd.w
    for n in range(1, n_max + 1):
        for p in range(1, n_max + 1):
            add(f"dn{n}_gamma{p}", downstream(n, p * T, geom.xi), p, p * T, False)
            add(f"dn{n}_beta{p}", downstream(n, p * T, geom.chi), p, p * T, True)
        t_star = n * T + backtravel
        p = _step_containing(t_star, T, n_max)
        if p is not None:
            add(f"dn{n}_gamma_arr", downstream(n, t_star, geom.xi), p, t_star, False)
    return rows


def _read_only(array: np.ndarray) -> np.ndarray:
    """Templates are cached and shared by every model: freeze their arrays."""
    array.setflags(write=False)
    return array


def _pack(rows: list, keys: list):
    """CSR (indptr, indices, data) of coefficient dicts over ``keys``, each
    row's entries in column order."""
    col = {key: i for i, key in enumerate(keys)}
    indptr, indices, data = [0], [], []
    for coeffs in rows:
        for c, v in sorted((col[k], v) for k, v in coeffs.items()):
            indices.append(c)
            data.append(v)
        indptr.append(len(indices))
    return (_read_only(np.array(indptr)), _read_only(np.array(indices, dtype=np.int64)),
            _read_only(np.array(data, dtype=float)))


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
    order of the component expressions in ``lwr``.  Rows whose flow
    coefficients cancel are not in A; their constants are checked instead.
    """

    def __init__(self, fd: TriangularFD, geom: LinkGeometry, n_max: int, T: float):
        self.fd, self.geom = fd, geom
        vars = LinkVariables(LinkSpec("", FD, geom, fd), n_max)
        self.keys = [key for n in range(1, n_max + 1) for key in (vars.qin(n), vars.qout(n))]
        rows = _compat_rows(fd, geom, vars, n_max, T)
        live = [row for row in rows if row[0]]
        self.indptr, self.indices, self.data = _pack([row[0] for row in live], self.keys)
        self.names = [row[1] for row in live]
        self.matrix = sparse.csr_matrix((self.data, self.indices, self.indptr),
                                        shape=(len(live), len(self.keys)))

        self._live = np.array([bool(row[0]) for row in rows], dtype=bool)
        self._all_names = [row[1] for row in rows]
        self._downstream = np.array([row[2] for row in rows], dtype=bool)
        terms = [row[3] for row in rows]

        def params(kind, width):
            """Parameters of the constants of one kind, one row per
            parameter, zero in the columns of other kinds."""
            return np.array([t[1:] if t[0] == kind else (0.0,) * width for t in terms],
                            dtype=float).reshape(-1, width).T

        self._kind = np.array([t[0] for t in terms], dtype=int)
        (self._fixed,) = params(_FIXED, 1)
        seg, *initial = params(_INITIAL, 7)
        self._seg = seg.astype(int)
        self._free, self._congested = np.array(initial[:3]), np.array(initial[3:])
        self._outflow = params(_OUTFLOW, 2)

    def row_coeffs(self) -> list[dict]:
        """The rows of A as dicts over ``keys``."""
        cols, vals, bounds = self.indices.tolist(), self.data.tolist(), self.indptr.tolist()
        return [
            {self.keys[c]: v for c, v in zip(cols[lo:hi], vals[lo:hi])}
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def rhs(self, densities) -> np.ndarray:
        """b(rho); raises ValueError when a row without flows is violated."""
        rho = np.asarray(densities, dtype=float)
        X = self.geom.X
        neg_mass = -(float(np.sum(rho)) * X)
        head = np.array([-float(np.sum(rho[:k])) * X for k in range(len(rho))])
        rk = rho[self._seg]
        P, C, D = np.where(rk <= self.fd.rho_c + GUARD_TOL, self._free, self._congested)
        initial = (((head[self._seg] + rk * P) + C) - D) + 0.0
        R, F = self._outflow
        const = np.select([self._kind == _INITIAL, self._kind == _OUTFLOW],
                          [initial, (neg_mass - R) + F], self._fixed)
        b = np.where(self._downstream, neg_mass, 0.0) - const
        violated = ~self._live & (b > 1e-9)
        if violated.any():
            name = self._all_names[int(np.argmax(violated))]
            raise ValueError(f"constant compatibility row violated: {name}")
        return b[self._live]


@functools.lru_cache(maxsize=None)
def compat_template(fd: TriangularFD, geom: LinkGeometry, n_max: int, T: float) -> CompatTemplate:
    """The CompatTemplate of one flux law and geometry, built on first use."""
    return CompatTemplate(fd, geom, n_max, T)


def _link_columns(link: LinkSpec, vars: LinkVariables, n_max: int) -> list:
    """(key, lb, ub, kind) of every variable of one FD link, in model order."""
    cap = link.capacity
    cols = []
    for t in range(1, n_max + 1):
        cols += [(vars.qin(t), 0.0, cap, CONTINUOUS), (vars.qout(t), 0.0, cap, CONTINUOUS)]
    if link.is_vsl:
        sls = link.vsl_set
        cols += [(vars.delta(s), 0.0, 1.0, BINARY) for s in range(len(sls))]
        cols.append((vars.rcvf(), 0.0, sls.Q_max, CONTINUOUS))
        rc_hi = max(sls.rho_cs)
        for t in range(1, n_max + 1):
            cols.append((vars.kin(t), 0.0, rc_hi, CONTINUOUS))
            for s in range(len(sls)):
                cols.append((vars.ka(s, t), 0.0, sls.rho_cs[s], CONTINUOUS))
                cols.append((vars.qa(s, t), 0.0, sls.capacities[s], CONTINUOUS))
    return cols


class BlockTemplate:
    """Every row one FD link adds to the control MILP, over the link's own
    variables in model order.

    ``columns`` lists (key, lb, ub, kind) of those variables, keyed as
    LinkVariables keys of a link with a blank id; a model creates them for
    its link and places the rows at the first one's column id.  The first
    ``n_compat`` rows are the compatibility inequalities.  A plain link has
    just those, with b(rho) from its CompatTemplate as right-hand side.

    A speed-controlled link gets one copy of its compatibility rows per
    candidate speed in disaggregated form: the rows act on per-candidate
    flow copies (the inflow copies are the k_a auxiliaries of the speed
    linearization, scaled by the candidate speed) with constants switched
    by the selection binary, so the delta(s) coefficient is -b_s(rho); the
    aggregate flows are the sums of the copies.  The relaxation is then the
    convex hull of the per-speed flow sets, so no big-M slack is involved.
    The rows of build_vsl_linearization follow.
    """

    def __init__(self, fd: TriangularFD, geom: LinkGeometry, vsl_set, n_max: int, T: float):
        link = LinkSpec("", FD, geom, fd, is_vsl=vsl_set is not None, vsl_set=vsl_set)
        vars = LinkVariables(link, n_max)
        self.columns = _link_columns(link, vars, n_max)
        if vsl_set is None:
            self._compat = compat_template(fd, geom, n_max, T)
            self._delta = None
            self.indptr, self.indices, self.data = (
                self._compat.indptr, self._compat.indices, self._compat.data)
            self.names = self._compat.names
            self.n_compat = len(self.names)
            self.sense = _read_only(np.full(self.n_compat, GE_CODE, dtype=np.int8))
            self.rhs = None
            return

        rows, names, parts = [], [], []
        for s, (v_s, fd_s) in enumerate(zip(vsl_set.speeds, vsl_set.fds)):
            tpl = compat_template(fd_s, geom, n_max, T)
            first = len(rows)
            for coeffs, name in zip(tpl.row_coeffs(), tpl.names):
                row = {vars.delta(s): 0.0}  # -b_s(rho), set by evaluate
                for key, coef in coeffs.items():
                    if key[0] == "qin":
                        row[vars.ka(s, key[2])] = coef * v_s
                    else:
                        row[vars.qa(s, key[2])] = coef
                rows.append((row, GE, 0.0))
                names.append(f"s{s}_{name}")
            parts.append((tpl, first, len(rows), vars.delta(s)))
            # outflow copy active only for the selected candidate
            for n in range(1, n_max + 1):
                rows.append(({vars.qa(s, n): 1.0, vars.delta(s): -fd_s.Q}, LE, 0.0))
                names.append(f"s{s}_qa_cap_{n}")
        # aggregate flows are the sums of the candidate copies
        for n in range(1, n_max + 1):
            coeffs = {vars.qin(n): 1.0}
            for s, v_s in enumerate(vsl_set.speeds):
                coeffs[vars.ka(s, n)] = -v_s
            rows.append((coeffs, EQ, 0.0))
            coeffs = {vars.qout(n): 1.0}
            for s in range(len(vsl_set)):
                coeffs[vars.qa(s, n)] = -1.0
            rows.append((coeffs, EQ, 0.0))
            names += [f"qin_agg_{n}", f"qout_agg_{n}"]
        self.n_compat = len(rows)
        for row in build_vsl_linearization(link, vars, n_max):
            rows.append((row.coeffs, row.sense, row.rhs))
            names.append(row.name)

        keys = [c[0] for c in self.columns]
        self.indptr, self.indices, self.data = _pack([r[0] for r in rows], keys)
        self.names = names
        self.sense = _read_only(np.array([sense_code(r[1]) for r in rows], dtype=np.int8))
        self.rhs = _read_only(np.array([r[2] for r in rows], dtype=float))
        self._delta = []
        for tpl, first, end, delta in parts:
            lo, hi = self.indptr[first], self.indptr[end]
            pos = lo + np.flatnonzero(self.indices[lo:hi] == keys.index(delta))
            self._delta.append((tpl, pos))

    def evaluate(self, densities) -> RowBlock:
        """The block's rows for the given initial segment densities."""
        if self._delta is None:
            return RowBlock(self.indptr, self.indices, self.data, self.sense,
                            self._compat.rhs(densities))
        data = self.data.copy()
        for tpl, pos in self._delta:
            data[pos] = 0.0 - tpl.rhs(densities)
        return RowBlock(self.indptr, self.indices, data, self.sense, self.rhs)


@functools.lru_cache(maxsize=None)
def block_template(fd: TriangularFD, geom: LinkGeometry, vsl_set, n_max: int,
                   T: float) -> BlockTemplate:
    """The BlockTemplate of one link shape, built on first use.  The key
    holds no state, so every horizon of a closed loop reuses it."""
    return BlockTemplate(fd, geom, vsl_set, n_max, T)


def link_template(link: LinkSpec, n_max: int, T: float) -> BlockTemplate:
    return block_template(link.fd, link.geometry, link.vsl_set if link.is_vsl else None,
                          n_max, T)


def build_compatibility(
    link: LinkSpec,
    vars: LinkVariables,
    initial_density,
    n_max: int,
    T: float,
) -> list[LinRow]:
    """All compatibility inequalities for one link as linear rows in the
    boundary flows (initial densities enter as fixed parameters): the first
    ``n_compat`` rows of its BlockTemplate over ``vars`` keys."""
    densities = np.asarray(initial_density, dtype=float)
    if np.any(densities < -GUARD_TOL):
        raise ValueError("negative initial density")
    block = link_template(link, n_max, T)
    indptr, indices, data, sense, rhs = block.evaluate(densities)
    keys = [getattr(vars, key[0])(*key[2:]) for key, *_ in block.columns]
    cols, vals, bounds = indices.tolist(), data.tolist(), indptr.tolist()
    return [
        LinRow({keys[c]: v for c, v in zip(cols[lo:hi], vals[lo:hi]) if v != 0.0},
               SENSES[code], b, name)
        for lo, hi, code, b, name in zip(bounds, bounds[1:], sense.tolist(),
                                         rhs.tolist(), block.names[:block.n_compat])
    ]


def build_vsl_linearization(link: LinkSpec, vars: LinkVariables, n_max: int) -> list[LinRow]:
    """Selection constraints for the discrete speed-limit set: exactly one
    candidate active, the rho_c*vf product pinned to the active candidate,
    and the q_in/vf auxiliaries sandwiched so k_in equals q_in over the
    active speed."""
    if not link.is_vsl:
        raise ValueError(f"link {link.id} has no speed-limit control")
    sls = link.vsl_set
    rows = [
        LinRow({vars.delta(s): 1.0 for s in range(len(sls))}, EQ, 1.0, "one_speed")
    ]
    coeffs = {vars.rcvf(): 1.0}
    for s, (rc, v) in enumerate(zip(sls.rho_cs, sls.speeds)):
        coeffs[vars.delta(s)] = -rc * v
    rows.append(LinRow(coeffs, EQ, 0.0, "rcvf_select"))
    q_max = sls.Q_max
    for n in range(1, n_max + 1):
        for s, (v, Q_s) in enumerate(zip(sls.speeds, sls.capacities)):
            rows.append(
                LinRow({vars.ka(s, n): 1.0, vars.delta(s): -Q_s / v}, LE, 0.0,
                       f"ka_ub_{s}_{n}")
            )
            rows.append(
                LinRow({vars.ka(s, n): 1.0, vars.qin(n): -1.0 / v}, LE, 0.0,
                       f"ka_le_qv_{s}_{n}")
            )
            rows.append(
                LinRow(
                    {vars.ka(s, n): 1.0, vars.qin(n): -1.0 / v, vars.delta(s): -q_max / v},
                    GE,
                    -q_max / v,
                    f"ka_ge_qv_{s}_{n}",
                )
            )
        coeffs = {vars.ka(s, n): 1.0 for s in range(len(sls))}
        coeffs[vars.kin(n)] = -1.0
        rows.append(LinRow(coeffs, EQ, 0.0, f"kin_def_{n}"))
    return rows


# ---------------------------------------------------------------------------
# Step demand and supply.
# ---------------------------------------------------------------------------


def _boundary_components(link, densities, n_max, T, side):
    """Numeric-FD component expressions feeding the demand (side='demand',
    at chi, initial + inflow conditions) or supply (at xi, initial + outflow
    conditions) count at each step end."""
    fd, geom = link.fd, link.geometry
    out = []
    for n in range(1, n_max + 1):
        t = n * T
        comps = []
        for k in range(1, geom.k_max + 1):
            x = geom.chi if side == "demand" else geom.xi
            c = lwr.initial_component_expr(fd, geom, densities, k, t, x)
            if c is not None:
                comps.append(c)
        for m in range(1, n_max + 1):
            if side == "demand":
                c = lwr.upstream_component_expr(fd, geom, T, m, t, geom.chi)
            else:
                c = lwr.downstream_component_expr(fd, geom, densities, T, m, t, geom.xi)
            if c is not None:
                comps.append(c)
        out.append(comps)
    return out


def build_demand_supply(
    link: LinkSpec,
    vars: LinkVariables,
    initial_density,
    n_max: int,
    T: float,
    exact: bool = True,
) -> list[LinRow]:
    """Define per-step demand D_n and supply S_n from the boundary-evaluated
    cumulative-count components.

    The count variables are upper-bounded by every applicable component; with
    ``exact`` they are also pinned to the componentwise minimum through a
    big-M selection with one binary per component.  D_n converts counts to a
    step flow net of what already left; S_n mirrors it at the entrance.
    """
    if link.is_vsl:
        raise ValueError("demand/supply builder expects a fixed-speed link")
    densities = np.asarray(initial_density, dtype=float)
    mass = float(np.sum(densities)) * link.geometry.X
    big_m = count_big_m(link, n_max, T)
    rows: list[LinRow] = []

    for side in ("demand", "supply"):
        comps_by_step = _boundary_components(link, densities, n_max, T, side)
        offset = mass if side == "demand" else 0.0
        count = vars.demand_count if side == "demand" else vars.supply_count
        flow = vars.demand_flow if side == "demand" else vars.supply_flow
        chooser = vars.y_demand if side == "demand" else vars.y_supply
        past = vars.qout if side == "demand" else vars.qin
        for n in range(1, n_max + 1):
            # the boundary's own value condition can only grow at capacity,
            # so it joins the component minimum; this caps D_n and S_n at Q
            bounds = [({past(i): T for i in range(1, n)}, link.fd.Q * T)]
            for comp in comps_by_step[n - 1]:
                coeffs, const = _expr_coeffs(comp, vars, link.fd)
                bounds.append((coeffs, const + offset))
            for c_idx, (coeffs, const) in enumerate(bounds):
                row = {count(n): 1.0}
                for k, v in coeffs.items():
                    row[k] = row.get(k, 0.0) - v
                rows.append(LinRow(row, LE, const, f"{side}_ub_{n}_{c_idx}"))
                if exact:
                    row = dict(row)
                    row[chooser(n, c_idx)] = big_m
                    rows.append(
                        LinRow(row, GE, const - big_m, f"{side}_lb_{n}_{c_idx}")
                    )
            if exact:
                rows.append(
                    LinRow({chooser(n, c): 1.0 for c in range(len(bounds))}, EQ, 1.0,
                           f"{side}_pick_{n}")
                )
            # count-to-flow conversion net of flow already through the boundary
            coeffs = {flow(n): T, count(n): -1.0}
            for i in range(1, n):
                coeffs[past(i)] = T
            rows.append(LinRow(coeffs, EQ, 0.0, f"{side}_flow_{n}"))
    return rows


# ---------------------------------------------------------------------------
# Horizon-to-horizon density chaining.
# ---------------------------------------------------------------------------


def chain_initial_densities(
    link: LinkSpec,
    solved_vc: ValueConditionSet,
    t_boundary: float,
    resolution: int = 4,
    fd: TriangularFD | None = None,
) -> np.ndarray:
    """Per-segment mean densities at a period boundary, used as the next
    period's initial condition.  Averages are cumulative-count differences,
    so the per-segment vehicle total is preserved exactly at any resolution."""
    if t_boundary < -GUARD_TOL:
        raise ValueError("t_boundary must be nonnegative")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    use_fd = fd if fd is not None else link.fd
    return lwr.segment_mean_densities(
        solved_vc, use_fd, link.geometry, t_boundary, resolution
    )


# ---------------------------------------------------------------------------
# Post-solve certification.
# ---------------------------------------------------------------------------


def compatibility_violation(
    fd: TriangularFD,
    geom: LinkGeometry,
    densities,
    inflow,
    outflow,
    T: float,
) -> float:
    """Worst violation of the compatibility inequalities for realized flows
    (0 when all rows hold): the largest entry of b(rho) - A q."""
    inflow = np.asarray(inflow, dtype=float)
    outflow = np.asarray(outflow, dtype=float)
    tpl = compat_template(fd, geom, len(inflow), T)
    q = np.column_stack([inflow, outflow]).ravel()
    return float(np.max(tpl.rhs(densities) - tpl.matrix @ q, initial=0.0))
