"""MILP solving: LP relaxation, branch and bound, and model file export.

LPs are solved by HiGHS, the simplex code that scipy ships.  The tree search
on binary variables is implemented here so that branching order and
incumbents are fully deterministic: branch on the most fractional binary
(ties broken by lowest variable id), dive depth-first, and restart from the
best-bound open node after a prune.

One search loads the LP relaxation once into a HiGHS instance (scipy's
private ``_highspy`` binding, the one ``linprog`` drives) and solves every
node by changing the binaries' column bounds, so each node is a dual simplex
re-solve from the previous basis.  After the search, the incumbent's point is
a cold ``linprog`` solve with every binary fixed at its value, so the
returned solution does not depend on the path of warm starts.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs

from .lp import BINARY, EQ_CODE, GE_CODE, LE_CODE, LinearProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap-limit"
NODE_LIMIT = "node-limit"
TIME_LIMIT = "time-limit"


@dataclass
class SolveOptions:
    feasibility_tol: float = 1e-6
    integrality_tol: float = 1e-6
    mip_gap: float = 1e-4
    node_limit: int = 200000
    time_limit: float = math.inf

    def __post_init__(self):
        if min(self.feasibility_tol, self.integrality_tol, self.mip_gap) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Solution:
    status: str
    objective: float = math.nan
    x: np.ndarray | None = None
    bound: float = math.nan
    nodes: int = 0

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, GAP_LIMIT)

    def value(self, lp: LinearProgram, key) -> float:
        return float(self.x[lp.var_id(key) if not isinstance(key, int) else key])


class SolverError(RuntimeError):
    pass


def _solve_lp(lp: LinearProgram, lb, ub) -> Solution:
    c, A_ub, b_ub, A_eq, b_eq, _, _ = lp.to_arrays()
    res = linprog(
        -c,
        A_ub=A_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=A_eq if b_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    if res.status == 2:
        return Solution(INFEASIBLE)
    if res.status == 3:
        return Solution(UNBOUNDED, objective=math.inf)
    if res.status != 0:
        raise SolverError(f"LP solve failed: {res.message}")
    return Solution(OPTIMAL, objective=-float(res.fun), x=np.asarray(res.x))


def solve_lp_relaxation(lp: LinearProgram) -> Solution:
    """Solve the LP with binaries relaxed to [0, 1]."""
    _, _, _, _, _, lb, ub = lp.to_arrays()
    sol = _solve_lp(lp, lb.copy(), ub.copy())
    if sol.status == OPTIMAL:
        sol = Solution(OPTIMAL, sol.objective, sol.x, bound=sol.objective, nodes=1)
    return sol


class _Relaxation:
    """The LP relaxation of ``lp`` held in one HiGHS instance.

    The model is loaded once: minimize ``-c`` with dual simplex and no output,
    as linprog asks, over the rows in model order as ``lo <= A x <= hi`` with
    the bounds read from the sense codes.  ``solve`` changes only the
    binaries' column bounds and re-runs, so HiGHS starts from the last basis.
    """

    def __init__(self, lp: LinearProgram):
        c, _, _, _, _, lb, ub = lp.to_arrays()
        indptr, indices, data, sense, rhs = lp.row_arrays()
        n_rows = len(sense)
        by_col = sparse.csr_matrix((data, indices, indptr), shape=(n_rows, lp.n_vars)).tocsc()
        inf = _highs.kHighsInf
        model = _highs.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = lp.n_vars
        model.num_row_ = model.a_matrix_.num_row_ = n_rows
        model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        model.a_matrix_.start_ = by_col.indptr.astype(np.int32)
        model.a_matrix_.index_ = by_col.indices.astype(np.int32)
        model.a_matrix_.value_ = by_col.data
        model.col_cost_ = -c
        model.col_lower_ = np.maximum(lb, -inf)
        model.col_upper_ = np.minimum(ub, inf)
        model.row_lower_ = np.where(sense == LE_CODE, -inf, rhs)
        model.row_upper_ = np.where(sense == GE_CODE, inf, rhs)
        self.lp = lp
        self.binary_ids = np.array(lp.binary_ids(), dtype=np.int32)
        self.highs = _highs._Highs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("simplex_strategy", int(
            _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
        if self.highs.passModel(model) == _highs.HighsStatus.kError:
            raise SolverError(f"HiGHS refused the relaxation of {lp.name}")

    def solve(self, lb, ub) -> Solution:
        """Solve with the binaries bounded by ``lb``/``ub`` (other columns
        keep the model's bounds)."""
        bins, highs = self.binary_ids, self.highs
        highs.changeColsBounds(len(bins), bins, lb[bins], ub[bins])
        highs.run()
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kOptimal:
            return Solution(OPTIMAL, objective=-highs.getInfo().objective_function_value,
                            x=np.array(highs.getSolution().col_value))
        if status == _highs.HighsModelStatus.kInfeasible:
            return Solution(INFEASIBLE)
        if status == _highs.HighsModelStatus.kUnbounded:
            return Solution(UNBOUNDED, objective=math.inf)
        # any other outcome is settled, or reported, by a cold solve
        return _solve_lp(self.lp, lb, ub)


def _most_fractional(x, binary_ids, tol):
    pick, best = None, tol
    for vid in binary_ids:
        frac = abs(x[vid] - round(x[vid]))
        if frac > best + 1e-15:
            pick, best = vid, frac
    return pick


def branch_and_bound(lp: LinearProgram, opts: SolveOptions | None = None,
                     warm_binaries: dict | None = None) -> Solution:
    """Depth-first branch and bound with best-bound restarts.

    ``warm_binaries`` maps binary variable ids to 0/1; if the assignment is
    feasible its LP solution seeds the incumbent before the search starts.
    Nodes are warm re-solves of one ``_Relaxation``; the returned point is a
    cold solve with every binary fixed at the incumbent's value.
    """
    opts = opts or SolveOptions()
    binary_ids = lp.binary_ids()
    _, _, _, _, _, lb0, ub0 = lp.to_arrays()
    t_start = time.monotonic()
    relaxation = _Relaxation(lp)

    incumbent: Solution | None = None
    inc_obj = -math.inf
    nodes = 0

    if warm_binaries:
        lb = lb0.copy()
        ub = ub0.copy()
        usable = True
        for vid, val in warm_binaries.items():
            if lp.variables[vid].kind != BINARY:
                usable = False
                break
            lb[vid] = ub[vid] = float(round(val))
        if usable:
            warm = relaxation.solve(lb, ub)
            nodes += 1
            if warm.status == OPTIMAL:
                incumbent, inc_obj = warm, warm.objective

    # node: (negated bound for heap order, tiebreak counter, fixings dict)
    root = (None, 0, {})
    heap: list = []
    counter = 1
    stack = [root]

    status_cap = OPTIMAL
    while stack or heap:
        if nodes >= opts.node_limit:
            status_cap = NODE_LIMIT
            break
        if time.monotonic() - t_start > opts.time_limit:
            status_cap = TIME_LIMIT
            break
        if stack:
            _, _, fixings = stack.pop()
        else:
            neg_bound, _, fixings = heapq.heappop(heap)
            if -neg_bound <= inc_obj + opts.mip_gap * max(1.0, abs(inc_obj)):
                continue

        lb = lb0.copy()
        ub = ub0.copy()
        for vid, val in fixings.items():
            lb[vid] = ub[vid] = val
        node_sol = relaxation.solve(lb, ub)
        nodes += 1
        if node_sol.status == UNBOUNDED:
            return Solution(UNBOUNDED, objective=math.inf, nodes=nodes)
        if node_sol.status != OPTIMAL:
            continue
        bound = node_sol.objective
        if bound <= inc_obj + opts.mip_gap * max(1.0, abs(inc_obj)):
            continue

        branch_var = _most_fractional(node_sol.x, binary_ids, opts.integrality_tol)
        if branch_var is None:
            x = node_sol.x.copy()
            for vid in binary_ids:
                x[vid] = round(x[vid])
            obj = lp.objective_value(x)
            if obj > inc_obj:
                incumbent = Solution(OPTIMAL, obj, x, nodes=nodes)
                inc_obj = obj
            continue

        frac = node_sol.x[branch_var]
        near = int(round(frac))
        far_fix = dict(fixings)
        far_fix[branch_var] = float(1 - near)
        near_fix = dict(fixings)
        near_fix[branch_var] = float(near)
        heapq.heappush(heap, (-bound, counter, far_fix))
        counter += 1
        stack.append((-bound, counter, near_fix))
        counter += 1

    del relaxation  # release the warm instance before the cold solve
    if incumbent is None:
        if status_cap != OPTIMAL:
            return Solution(status_cap, nodes=nodes)
        return Solution(INFEASIBLE, nodes=nodes)

    lb = lb0.copy()
    ub = ub0.copy()
    for vid in binary_ids:
        lb[vid] = ub[vid] = float(round(incumbent.x[vid]))
    fixed = _solve_lp(lp, lb, ub)
    if fixed.status != OPTIMAL:
        raise SolverError(f"incumbent's binaries are {fixed.status} on a cold re-solve")
    x = fixed.x
    inc_obj = lp.objective_value(x)

    remaining = [-h[0] for h in heap]
    best_open_bound = max(remaining) if remaining else -math.inf
    proven = max(best_open_bound, inc_obj)

    viol = lp.max_violation(x)
    if viol > 10 * opts.feasibility_tol:
        raise SolverError(f"incumbent violates constraints by {viol:.2e}")

    status = status_cap
    if status == OPTIMAL and best_open_bound > inc_obj + opts.mip_gap * max(1.0, abs(inc_obj)):
        status = GAP_LIMIT
    return Solution(status, inc_obj, x, bound=proven, nodes=nodes)


# -- model file export ------------------------------------------------------


def _var_names(lp: LinearProgram) -> list[str]:
    return [("b" if v.kind == BINARY else "x") + str(v.vid) for v in lp.variables]


def _num(v: float) -> str:
    return f"{v:.12g}"


def _nums(values) -> list[str]:
    """_num of each value, formatting every distinct float (by bit pattern,
    so -0.0 stays apart from 0.0) once."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [_num(v) for v in bits.view(float).tolist()]
    return [text[i] for i in inverse.ravel().tolist()]


def _signed_terms(coefs, names) -> list[str]:
    """LP-format terms such as ' - 2.5 x3'."""
    signs = np.where(np.asarray(coefs) >= 0, "+", "-").tolist()
    return [f" {s} {t} {n}" for s, t, n in zip(signs, _nums(np.abs(coefs)), names)]


def _write_lp_text(lp: LinearProgram) -> str:
    names = _var_names(lp)
    lines = ["\\ " + lp.name, "Maximize", " obj:"]
    objective = [v for v in lp.variables if v.obj != 0.0]
    lines[-1] += "".join(_signed_terms([v.obj for v in objective],
                                       [names[v.vid] for v in objective])) or " 0 x0"
    lines.append("Subject To")
    indptr, indices, data, sense, rhs = lp.row_arrays()
    terms = _signed_terms(data, [names[c] for c in indices.tolist()])
    bounds = indptr.tolist()
    ops = {LE_CODE: "<=", GE_CODE: ">=", EQ_CODE: "="}
    for i, (lo, hi, code, b) in enumerate(zip(bounds, bounds[1:], sense.tolist(), _nums(rhs))):
        lines.append(f" c{i}:{''.join(terms[lo:hi])} {ops[code]} {b}")
    lines.append("Bounds")
    for v, name in zip(lp.variables, names):
        lo = "-inf" if v.lb == -math.inf else _num(v.lb)
        hi = "+inf" if v.ub == math.inf else _num(v.ub)
        lines.append(f" {lo} <= {name} <= {hi}")
    bins = [name for v, name in zip(lp.variables, names) if v.kind == BINARY]
    if bins:
        lines.append("Binary")
        lines.append(" " + " ".join(bins))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _write_mps_text(lp: LinearProgram) -> str:
    names = _var_names(lp)
    lines = [f"NAME          {lp.name}", "OBJSENSE", "    MAX", "ROWS", " N  obj"]
    indptr, indices, data, sense, rhs = lp.row_arrays()
    tags = {LE_CODE: "L", GE_CODE: "G", EQ_CODE: "E"}
    lines += [f" {tags[code]}  c{i}" for i, code in enumerate(sense.tolist())]
    lines.append("COLUMNS")
    # column-major entries, rows ascending within each column
    by_col = sparse.csr_matrix((data, indices, indptr),
                               shape=(len(sense), lp.n_vars)).tocsc()
    rows, texts, bounds = by_col.indices.tolist(), _nums(by_col.data), by_col.indptr.tolist()
    for v, name, lo, hi in zip(lp.variables, names, bounds, bounds[1:]):
        if v.kind == BINARY:
            lines.append(f"    MARKER    'MARKER'    'INTORG'")
        if v.obj != 0.0:
            lines.append(f"    {name}  obj  {_num(v.obj)}")
        lines += [f"    {name}  c{r}  {t}" for r, t in zip(rows[lo:hi], texts[lo:hi])]
        if v.obj == 0.0 and lo == hi:
            lines.append(f"    {name}  obj  0")
        if v.kind == BINARY:
            lines.append(f"    MARKER    'MARKER'    'INTEND'")
    lines.append("RHS")
    lines += [f"    RHS  c{i}  {b}" for i, b in enumerate(_nums(rhs))]
    lines.append("BOUNDS")
    for v, name in zip(lp.variables, names):
        if v.lb == -math.inf:
            lines.append(f" MI BND  {name}")
        elif v.lb != 0.0:
            lines.append(f" LO BND  {name}  {_num(v.lb)}")
        if v.ub != math.inf:
            lines.append(f" UP BND  {name}  {_num(v.ub)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def export_model(lp: LinearProgram, destination, fmt: str = "lp") -> None:
    """Write the model as UTF-8 text with LF endings; fmt is 'lp' or 'mps'."""
    if fmt == "lp":
        text = _write_lp_text(lp)
    elif fmt == "mps":
        text = _write_mps_text(lp)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

