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

import functools
import heapq
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs

from .lp import GE_CODE, LE_CODE, LinearProgram

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
    cold solve with every binary fixed at the incumbent's value.  ``bound``
    is the largest LP bound of the incumbent and of the nodes left open or
    discarded by the gap test, so no feasible point scores above it.
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
        binary = lp.column_arrays().binary
        for vid, val in warm_binaries.items():
            if not binary[vid]:
                usable = False
                break
            lb[vid] = ub[vid] = float(round(val))
        if usable:
            warm = relaxation.solve(lb, ub)
            nodes += 1
            if warm.status == OPTIMAL:
                incumbent, inc_obj = warm, warm.objective

    # node: (negated parent bound for heap order, tiebreak counter, fixings dict);
    # the root has no parent, so its bound is +inf until it is solved
    root = (-math.inf, 0, {})
    heap: list = []
    pruned = -math.inf  # largest bound of the nodes the gap test discarded
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
                pruned = max(pruned, -neg_bound)
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
            pruned = max(pruned, bound)
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

    remaining = [-node[0] for node in heap + stack]
    best_open_bound = max(remaining) if remaining else -math.inf
    proven = max(best_open_bound, pruned, inc_obj)

    viol = lp.max_violation(x)
    if viol > 10 * opts.feasibility_tol:
        raise SolverError(f"incumbent violates constraints by {viol:.2e}")

    status = status_cap
    if status == OPTIMAL and best_open_bound > inc_obj + opts.mip_gap * max(1.0, abs(inc_obj)):
        status = GAP_LIMIT
    return Solution(status, inc_obj, x, bound=proven, nodes=nodes)


# -- model file export ------------------------------------------------------


def _texts(values, fmt) -> np.ndarray:
    """fmt(v) of each value as an object array; fmt runs once per distinct bit
    pattern (so -0.0 and 0.0 stay apart)."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    order = np.sort(bits)
    first = np.ones(len(order), dtype=bool)
    first[1:] = order[1:] != order[:-1]
    distinct = order[first]
    texts = np.array([fmt(v) for v in distinct.view(float).tolist()], dtype=object)
    return texts[np.searchsorted(distinct, bits)]


@functools.lru_cache(maxsize=None)
def _names_upto(size: int, prefix: str, suffix: str) -> np.ndarray:
    names = np.array([f"{prefix}{i}{suffix}" for i in range(size)], dtype=object)
    names.setflags(write=False)
    return names


def _numbered(n: int, prefix: str = "", suffix: str = "") -> np.ndarray:
    """prefix + str(i) + suffix for i in range(n): a slice of a cached array
    whose size is the next power of two, so each size class is built once."""
    return _names_upto(1 << max(n - 1, 0).bit_length(), prefix, suffix)[:n]


def _lp_coef(v: float) -> str:
    """An LP term's coefficient with its glue, such as ' - 2.5 '."""
    return f" {'+' if v >= 0 else '-'} {abs(v):.12g} "


def _scatter(indptr, heads, entries, tails) -> str:
    """Rows of pieces joined: row i is its heads, the pieces of each of its
    entries indptr[i]:indptr[i + 1] in turn, then its tails.  A piece is an
    array over rows (heads, tails) or entries, or a string."""
    h, k, per_row = len(heads), len(entries), len(heads) + len(tails)
    counts = np.diff(indptr)
    first = indptr[:-1] * k + np.arange(len(counts)) * per_row
    out = np.empty(len(counts) * per_row + indptr[-1] * k, dtype=object)
    at = np.repeat(first + h - indptr[:-1] * k, counts) + np.arange(indptr[-1]) * k
    for start, pieces in ((first, heads), (at, entries), (first + h + counts * k, tails)):
        for p, piece in enumerate(pieces):
            out[start + p] = piece
    return "".join(out.tolist())


def _interleave(*columns) -> str:
    """Equally long columns of pieces (a string is a constant one) joined row by row."""
    out = np.empty((np.broadcast(*columns).size, len(columns)), dtype=object)
    for p, column in enumerate(columns):
        out[:, p] = column
    return "".join(out.ravel().tolist())


def _columns(lp: LinearProgram):
    """Names (x<vid>, b<vid> for a binary), binary mask, costs and bounds of the columns."""
    cost, lb, ub, binary = lp.column_arrays()
    names = np.where(binary, "b", "x").astype(object) + _numbered(len(binary))
    return names, binary, cost, lb, ub


def _write_lp_text(lp: LinearProgram) -> str:
    names, binary, cost, lb, ub = _columns(lp)
    indptr, indices, data, sense, rhs = lp.row_arrays()
    objective = (_interleave(_texts(cost[cost != 0.0], _lp_coef), names[cost != 0.0])
                 or _interleave(" 0 ", names[:1]))
    ops = np.array([" <= ", " >= ", " = "], dtype=object)  # by sense code
    rows = _scatter(indptr, [_numbered(len(sense), "\n c", ":")],
                    [_texts(data, _lp_coef), names[indices]],
                    [ops[sense], _texts(rhs, "{:.12g}".format)])
    bounds = _interleave(_texts(lb, "\n {:.12g} <= ".format), names, _texts(
        ub, lambda v: " <= +inf" if v == math.inf else f" <= {v:.12g}"))
    binaries = "\nBinary\n " + " ".join(names[binary].tolist()) if binary.any() else ""
    return "".join(["\\ ", lp.name, "\nMaximize\n obj:", objective, "\nSubject To", rows,
                    "\nBounds", bounds, binaries, "\nEnd\n"])


def _write_mps_text(lp: LinearProgram) -> str:
    names, binary, cost, lb, ub = _columns(lp)
    indptr, indices, data, sense, rhs = lp.row_arrays()
    rows = _numbered(len(sense), "c")
    tags = np.array(["\n L  ", "\n G  ", "\n E  "], dtype=object)  # by sense code
    # column-major entries, rows ascending within each column
    by_col = sparse.csr_matrix((data, indices, indptr), shape=(len(sense), lp.n_vars)).tocsc()
    counts = np.diff(by_col.indptr)
    line = "\n    " + names + "  "
    columns = _scatter(
        by_col.indptr,
        [np.where(binary, "\n    MARKER    'MARKER'    'INTORG'", ""),
         np.where(cost != 0.0, line + _texts(cost, "obj  {:.12g}".format), "")],
        [np.repeat(line, counts), rows[by_col.indices], _texts(by_col.data, "  {:.12g}".format)],
        [np.where((cost == 0.0) & (counts == 0), line + "obj  0", ""),
         np.where(binary, "\n    MARKER    'MARKER'    'INTEND'", "")])
    free, lower, upper = lb == -math.inf, (lb != 0.0) & (lb != -math.inf), ub != math.inf
    bounds = _interleave(np.where(free, "\n MI BND  ", np.where(lower, "\n LO BND  ", "")),
                         np.where(free | lower, names, ""),
                         np.where(lower, _texts(lb, "  {:.12g}".format), ""),
                         np.where(upper, "\n UP BND  ", ""), np.where(upper, names, ""),
                         np.where(upper, _texts(ub, "  {:.12g}".format), ""))
    return "".join(["NAME          ", lp.name, "\nOBJSENSE\n    MAX\nROWS\n N  obj",
                    _interleave(tags[sense], rows), "\nCOLUMNS", columns, "\nRHS",
                    _interleave("\n    RHS  ", rows, _texts(rhs, "  {:.12g}".format)),
                    "\nBOUNDS", bounds, "\nENDATA\n"])


#: HiGHS's reader takes finite costs, bounds and right-hand sides of this
#: magnitude or more as infinite ...
INFINITE_VALUE = 1e20
#: ... refuses a model with a matrix coefficient of this magnitude or more ...
LARGE_COEFFICIENT = 1e15
#: ... and drops nonzero coefficients of magnitude below this one.
SMALL_COEFFICIENT = 1e-9


def _check_readable(lp: LinearProgram) -> None:
    """Raise ValueError, naming the row or column, at the first value that
    HiGHS's reader would not read back as written."""
    cost, lb, ub, binary = lp.column_arrays()
    indptr, indices, data, _, rhs = lp.row_arrays()

    def column(vid):
        return ("b" if binary[vid] else "x") + str(vid)

    for what, values, name in (("cost", cost, column), ("lower bound", lb, column),
                               ("upper bound", ub, column),
                               ("right-hand side", rhs, "c{}".format)):
        bad = np.flatnonzero(np.isfinite(values) & (np.abs(values) >= INFINITE_VALUE))
        if bad.size:
            raise ValueError(f"{name(bad[0])}: {what} {values[bad[0]]:.12g} would read "
                             f"back as infinite (magnitude >= {INFINITE_VALUE:g})")
    size = np.abs(data)
    # a LinearProgram holds no zero coefficients: each one below the floor is nonzero
    bad = np.flatnonzero((size >= LARGE_COEFFICIENT) | (size < SMALL_COEFFICIENT))
    if bad.size:
        at = bad[0]
        row = np.searchsorted(indptr, at, side="right") - 1
        raise ValueError(f"c{row}, {column(indices[at])}: coefficient {data[at]:.12g} is "
                         f"outside the magnitudes HiGHS reads back, "
                         f"[{SMALL_COEFFICIENT:g}, {LARGE_COEFFICIENT:g})")


def export_model(lp: LinearProgram, destination, fmt: str = "lp") -> None:
    """Write the model as UTF-8 text with LF endings; fmt is 'lp' or 'mps'.

    Raises ValueError when the model holds a value HiGHS's reader would not
    read back: a finite cost, bound or right-hand side of magnitude 1e20 or
    more, or a nonzero coefficient of magnitude 1e15 or more or below 1e-9.
    """
    if fmt not in ("lp", "mps"):
        raise ValueError(f"unknown format {fmt!r}")
    _check_readable(lp)
    text = _write_lp_text(lp) if fmt == "lp" else _write_mps_text(lp)
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

