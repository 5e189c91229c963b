"""MILP solving: LP relaxation, branch and bound, and model file export.

The LP relaxation is delegated to scipy's HiGHS simplex backend; the tree
search on binary variables is implemented here so that branching order and
incumbents are fully deterministic: branch on the most fractional binary
(ties broken by lowest variable id), dive depth-first, and restart from the
best-bound open node after a prune.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .lp import BINARY, EQ, EQ_CODE, GE, GE_CODE, LE, LE_CODE, LinearProgram

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
    """
    import time as _time

    opts = opts or SolveOptions()
    binary_ids = lp.binary_ids()
    _, _, _, _, _, lb0, ub0 = lp.to_arrays()
    t_start = _time.monotonic()

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
            warm = _solve_lp(lp, lb, ub)
            nodes += 1
            if warm.status == OPTIMAL:
                incumbent, inc_obj = warm, warm.objective

    # node: (negated bound for heap order, tiebreak counter, fixings dict)
    root = (None, 0, {})
    heap: list = []
    counter = 1
    stack = [root]
    best_open_bound = math.inf

    status_cap = OPTIMAL
    while stack or heap:
        if nodes >= opts.node_limit:
            status_cap = NODE_LIMIT
            break
        if _time.monotonic() - t_start > opts.time_limit:
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
        node_sol = _solve_lp(lp, lb, ub)
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

    if incumbent is None:
        if status_cap != OPTIMAL:
            return Solution(status_cap, nodes=nodes)
        return Solution(INFEASIBLE, nodes=nodes)

    remaining = [-h[0] for h in heap]
    best_open_bound = max(remaining) if remaining else -math.inf
    proven = max(best_open_bound, inc_obj)

    viol = lp.max_violation(incumbent.x)
    if viol > 10 * opts.feasibility_tol:
        raise SolverError(f"incumbent violates constraints by {viol:.2e}")

    status = status_cap
    if status == OPTIMAL and best_open_bound > inc_obj + opts.mip_gap * max(1.0, abs(inc_obj)):
        status = GAP_LIMIT
    return Solution(status, inc_obj, incumbent.x, bound=proven, nodes=nodes)


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
    lines = [f"NAME          {lp.name}", "ROWS", " N  obj"]
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


def _parse_bound_token(tok: str) -> float:
    if tok in ("-inf", "-Inf"):
        return -math.inf
    if tok in ("+inf", "inf", "Inf", "+Inf"):
        return math.inf
    return float(tok)


def parse_lp_text(path) -> LinearProgram:
    """Read a model previously written by export_model(fmt='lp')."""
    with open(path, encoding="utf-8") as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    lp = LinearProgram(raw[0][2:] if raw and raw[0].startswith("\\ ") else "model")
    section = None
    var_info: dict[str, dict] = {}
    rows = []
    objective: dict[str, float] = {}

    def parse_terms(tokens):
        coeffs = {}
        sign = 1.0
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok == "+":
                sign = 1.0
            elif tok == "-":
                sign = -1.0
            else:
                coef = sign * float(tok)
                name = tokens[i + 1]
                coeffs[name] = coeffs.get(name, 0.0) + coef
                i += 1
                sign = 1.0
            i += 1
        return coeffs

    for line in raw[1:]:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped in ("Maximize", "Subject To", "Bounds", "Binary", "End"):
            section = stripped
            continue
        if section == "Maximize":
            body = stripped.split(":", 1)[1] if ":" in stripped else stripped
            objective.update(parse_terms(body.split()))
        elif section == "Subject To":
            toks = stripped.split(":", 1)[1].split()
            op_idx = next(i for i, t in enumerate(toks) if t in ("<=", ">=", "="))
            coeffs = parse_terms(toks[:op_idx])
            sense = {"<=": LE, ">=": GE, "=": EQ}[toks[op_idx]]
            rows.append((coeffs, sense, float(toks[op_idx + 1])))
        elif section == "Bounds":
            lo, _, name, _, hi = stripped.split()
            var_info.setdefault(name, {})["lb"] = _parse_bound_token(lo)
            var_info[name]["ub"] = _parse_bound_token(hi)
        elif section == "Binary":
            for name in stripped.split():
                var_info.setdefault(name, {})["binary"] = True

    for name in sorted(var_info, key=lambda s: int(s[1:])):
        info = var_info[name]
        lp.add_variable(
            key="v:" + name,
            lb=info.get("lb", 0.0),
            ub=info.get("ub", math.inf),
            kind=BINARY if info.get("binary") else "continuous",
            obj=objective.get(name, 0.0),
        )
    for coeffs, sense, rhs in rows:
        lp.add_constraint({"v:" + n: c for n, c in coeffs.items()}, sense, rhs)
    return lp


def parse_mps_text(path) -> LinearProgram:
    """Read a model previously written by export_model(fmt='mps')."""
    with open(path, encoding="utf-8") as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    lp = LinearProgram(raw[0].split(None, 1)[1] if raw and raw[0].startswith("NAME") else "model")
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    col_entries: dict[str, list[tuple[str, float]]] = {}
    col_order: list[str] = []
    binary_cols: set[str] = set()
    rhs: dict[str, float] = {}
    bounds: dict[str, dict] = {}
    in_integer = False

    for line in raw[1:]:
        if not line.strip():
            continue
        if not line.startswith(" ") or line.strip() in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            section = line.strip()
            continue
        toks = line.split()
        if section == "ROWS":
            tag, name = toks
            if tag != "N":
                row_sense[name] = {"L": LE, "G": GE, "E": EQ}[tag]
                row_order.append(name)
        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[1] == "'MARKER'":
                in_integer = toks[2] == "'INTORG'"
                continue
            name, row, val = toks[0], toks[1], float(toks[2])
            if name not in col_entries:
                col_entries[name] = []
                col_order.append(name)
            if in_integer:
                binary_cols.add(name)
            col_entries[name].append((row, val))
        elif section == "RHS":
            rhs[toks[1]] = float(toks[2])
        elif section == "BOUNDS":
            kind, _, name = toks[0], toks[1], toks[2]
            entry = bounds.setdefault(name, {})
            if kind == "MI":
                entry["lb"] = -math.inf
            elif kind == "LO":
                entry["lb"] = float(toks[3])
            elif kind == "UP":
                entry["ub"] = float(toks[3])

    row_coeffs: dict[str, dict] = {name: {} for name in row_order}
    for name in col_order:
        obj = 0.0
        for row, val in col_entries[name]:
            if row == "obj":
                obj += val
            else:
                row_coeffs[row][name] = val
        b = bounds.get(name, {})
        lp.add_variable(
            key="v:" + name,
            lb=b.get("lb", 0.0),
            ub=b.get("ub", math.inf),
            kind=BINARY if name in binary_cols else "continuous",
            obj=obj,
        )
    for name in row_order:
        lp.add_constraint(
            {"v:" + c: v for c, v in row_coeffs[name].items()},
            row_sense[name],
            rhs.get(name, 0.0),
        )
    return lp
