"""MILP solving: LP relaxation, branch and bound, and model file export.

LPs are solved by HiGHS, the simplex code that scipy ships.  The tree search
on binary variables is implemented here so that branching order and
incumbents are fully deterministic: branch on the most fractional binary
(ties broken by lowest variable id), dive depth-first, and restart from the
best-bound open node after a prune.  A node is the binaries' lower and upper
bounds, two arrays in ``lp.binary_ids()`` order.

scipy is imported where a model is first solved, not on import:
``_load_scipy`` binds ``sparse``, ``linprog`` and ``_highs`` as module globals
once, called by ``_linprog_rows`` and ``_Relaxation``, and the module's
``__getattr__`` calls it when one of those names is read from outside before
any solve.  So a process that only writes models, or only reads this module's
names, loads numpy and ``lp`` alone.

One search loads the LP relaxation once, by array and with the rows as the
model's CSR block holds them, into a HiGHS instance (scipy's private
``_highspy`` binding, the one ``linprog`` drives) and solves every node by
changing the binaries' column bounds, so each node is a dual simplex
re-solve from the previous basis.  After the search, the incumbent's point is
a cold ``linprog`` solve (rows split by ``_linprog_rows``) with every binary
fixed at its value, so it does not depend on the path of warm starts.  A
search reads no clock and takes no options: its gap (``MIP_GAP``) and node
cap (``MAX_NODES``) are module constants, so its answer depends on the model
alone.  Neither the search nor the export checks a model's numbers:
``lp.LinearProgram`` refuses any that HiGHS would not read as written.

So a repeated search is wasted work.  Inside ``shared_searches()`` (a
controller comparison, or a sweep of them) each search is kept by a sha256
digest of every array it reads, the model's rows and columns and the rounded
warm start, and a search with a kept digest returns a copy of the kept
``Solution`` without solving.  The memo holds digests and solutions only, and
ends with the outermost block.

``export_model`` writes LP or MPS text through one layout per format and
pattern (the model's name, row structure and column masks): the file minus
its numbers, built on the pattern's first export and kept (``LAYOUTS_KEPT``)
with the numbers its last export wrote, so an export formats and places only
the numbers that changed since then (bit for bit; all of them on the first
export of a pattern).
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import hashlib
import heapq
import math
import threading
from dataclasses import dataclass

import numpy as np

from .lp import EQ_CODE, GE_CODE, LE_CODE, LinearProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap-limit"
NODE_LIMIT = "node-limit"

#: a binary within this distance of an integer counts as integral
INTEGRALITY_TOL = 1e-6
#: the returned point may violate a row or bound by at most 10 times this
FEASIBILITY_TOL = 1e-6
#: a search stops with status NODE_LIMIT after this many node solves
MAX_NODES = 200000
#: a node whose LP bound exceeds the incumbent's objective by no more than
#: this much, relative to max(1, |objective|), is not searched
MIP_GAP = 1e-4


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


class SolverError(RuntimeError):
    pass


def _load_scipy():
    """Bind ``sparse``, ``linprog`` and ``_highs`` as module globals, on the
    first call only, so a name replaced since (a test's spy) stays replaced."""
    global sparse, linprog, _highs
    if "_highs" in globals():
        return
    from scipy import sparse
    from scipy.optimize import linprog
    from scipy.optimize._highspy import _core as _highs


def __getattr__(name):
    if name in ("sparse", "linprog", "_highs"):
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _linprog_rows(lp: LinearProgram):
    """The rows of ``lp`` as linprog takes them, (A_ub, b_ub, A_eq, b_eq):
    ``<=`` rows and negated ``>=`` rows in A_ub, ``=`` rows in A_eq, each in
    model order, the matrices CSR."""
    _load_scipy()
    indptr, indices, data, sense, rhs = lp.row_arrays()
    sign = np.where(sense == GE_CODE, -1.0, 1.0)
    signed = sparse.csr_matrix((data * np.repeat(sign, np.diff(indptr)), indices, indptr),
                               shape=(len(sense), lp.n_vars))
    eq = sense == EQ_CODE
    return signed[~eq], (sign * rhs)[~eq], signed[eq], rhs[eq]


def _solve_lp(lp: LinearProgram, lb, ub) -> Solution:
    A_ub, b_ub, A_eq, b_eq = _linprog_rows(lp)
    res = linprog(
        -lp.column_arrays().obj,
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


class _Relaxation:
    """The LP relaxation of ``lp`` held in one HiGHS instance.

    The model is loaded once, by array and with the row block row-wise as
    the model holds it: minimize ``-c`` with dual simplex and no output, as
    linprog asks, over the rows in model order as ``lo <= A x <= hi`` with
    the bounds read from the sense codes.  ``solve`` changes only the
    binaries' column bounds and re-runs, so HiGHS starts from the last basis.
    The model's numbers are as HiGHS reads them: ``LinearProgram`` refuses
    any other.
    """

    def __init__(self, lp: LinearProgram):
        _load_scipy()
        c, lb, ub, _ = lp.column_arrays()
        indptr, indices, data, sense, rhs = lp.row_arrays()
        inf = _highs.kHighsInf
        self.lp = lp
        self.binary_ids = np.array(lp.binary_ids(), dtype=np.int32)
        self.highs = _highs._Highs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("simplex_strategy", int(
            _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
        # the binding reads each array to the counts passed, unchecked; all
        # of them come from the model's own validated arrays
        status = self.highs.passModel(
            lp.n_vars, len(sense), len(data), int(_highs.MatrixFormat.kRowwise),
            int(_highs.ObjSense.kMinimize), 0.0, -c, lb, ub,
            np.where(sense == LE_CODE, -inf, rhs), np.where(sense == GE_CODE, inf, rhs),
            indptr, indices, data, np.zeros(lp.n_vars, dtype=np.int32))
        if status == _highs.HighsStatus.kError:
            raise SolverError(f"HiGHS refused the relaxation of {lp.name}")

    def solve(self, lo, hi) -> Solution:
        """Solve with the binaries bounded by ``lo``/``hi``, one bound per
        binary in ``lp.binary_ids()`` order (other columns keep the model's
        bounds)."""
        bins, highs = self.binary_ids, self.highs
        highs.changeColsBounds(len(bins), bins, lo, hi)
        highs.run()
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kOptimal:
            return Solution(OPTIMAL, objective=-highs.getObjectiveValue(),
                            x=np.array(highs.getSolution().col_value))
        if status == _highs.HighsModelStatus.kInfeasible:
            return Solution(INFEASIBLE)
        if status == _highs.HighsModelStatus.kUnbounded:
            return Solution(UNBOUNDED, objective=math.inf)
        # any other outcome is settled, or reported, by a cold solve
        lb, ub = (bounds.copy() for bounds in self.lp.column_arrays()[1:3])
        lb[bins], ub[bins] = lo, hi
        return _solve_lp(self.lp, lb, ub)


def _most_fractional(values: list, tol):
    """The first position of the value farthest from an integer, by more than
    ``tol``, in a list of floats, which reads far faster than numpy scalars."""
    pick, best = None, tol
    for at, v in enumerate(values):
        frac = abs(v - round(v))
        if frac > best + 1e-15:
            pick, best = at, frac
    return pick


#: the searches kept inside ``shared_searches()``, digest -> Solution; None
#: outside it
_searches: contextvars.ContextVar = contextvars.ContextVar("searches", default=None)


@contextlib.contextmanager
def shared_searches():
    """Within the block, a search whose model and warm start were searched
    before in it returns a copy of that search's ``Solution``.  A block
    inside another keeps its searches in the enclosing block's memo.  The
    kept solutions go with the outermost block; a process forked inside it
    keeps its own."""
    if _searches.get() is not None:
        yield
        return
    token = _searches.set({})
    try:
        yield
    finally:
        _searches.reset(token)


def _digest(lp: LinearProgram, start) -> bytes:
    """sha256 over every array a search reads, each with its dtype and length."""
    h = hashlib.sha256()
    for a in (*lp.row_arrays(), *lp.column_arrays(), start):
        if a is None:
            h.update(b"none;")
            continue
        h.update(f"{a.dtype.str}{len(a)};".encode())
        h.update(np.ascontiguousarray(a))
    return h.digest()


def branch_and_bound(lp: LinearProgram, *, warm_binaries=None) -> Solution:
    """Depth-first branch and bound with best-bound restarts.

    ``warm_binaries`` holds one value per binary in ``lp.binary_ids()``
    order (anything else raises ValueError); rounded and fixed, if they are
    feasible their LP solution seeds the incumbent before the search starts.
    Nodes are warm re-solves of one ``_Relaxation``; the returned point is a
    cold solve with every binary fixed at the incumbent's value.  ``bound``
    is the largest LP bound of the incumbent and of the nodes left open or
    discarded by the gap test (``MIP_GAP``), so no feasible point scores
    above it.  Inside ``shared_searches()`` a repeated search is looked up,
    not run.
    """
    n_bins = int(np.count_nonzero(lp.column_arrays().binary))
    if warm_binaries is not None and np.shape(warm_binaries) != (n_bins,):
        raise ValueError(f"warm_binaries must hold one value per binary of {lp.name}, "
                         f"{n_bins} in all, in binary_ids() order")
    # + 0.0 turns the -0.0 that np.round gives a tiny negative into 0.0
    start = (None if warm_binaries is None
             else np.round(np.asarray(warm_binaries, dtype=float)) + 0.0)
    searches = _searches.get()
    if searches is None:
        return _search(lp, start)
    key = _digest(lp, start)
    if key not in searches:
        searches[key] = _search(lp, start)
    kept = searches[key]
    return dataclasses.replace(kept, x=None if kept.x is None else kept.x.copy())


def _search(lp: LinearProgram, start) -> Solution:
    """The search of ``branch_and_bound`` from the rounded warm start."""
    _, lb0, ub0, binary = lp.column_arrays()
    bins = np.flatnonzero(binary)
    relaxation = _Relaxation(lp)

    inc_bins, inc_obj = None, -math.inf  # the incumbent's binaries and objective
    nodes = 0

    if start is not None and len(bins):
        warm = relaxation.solve(start, start)
        nodes += 1
        if warm.status == OPTIMAL:
            inc_bins, inc_obj = start, warm.objective

    # the pending dive is (-parent bound, lo, hi), the root's bound +inf until
    # it is solved; open nodes wait as (-parent bound, nodes at push, lo, hi)
    dive = (-math.inf, lb0[bins], ub0[bins])
    heap: list = []
    pruned = -math.inf  # largest bound of the nodes the gap test discarded

    status_cap = OPTIMAL
    while dive or heap:
        if nodes >= MAX_NODES:
            status_cap = NODE_LIMIT
            break
        if dive:
            _, lo, hi = dive
            dive = None
        else:
            neg_bound, _, lo, hi = heapq.heappop(heap)
            if -neg_bound <= inc_obj + MIP_GAP * max(1.0, abs(inc_obj)):
                pruned = max(pruned, -neg_bound)
                continue

        node_sol = relaxation.solve(lo, hi)
        nodes += 1
        if node_sol.status == UNBOUNDED:
            return Solution(UNBOUNDED, objective=math.inf, nodes=nodes)
        if node_sol.status != OPTIMAL:
            continue
        bound = node_sol.objective
        if bound <= inc_obj + MIP_GAP * max(1.0, abs(inc_obj)):
            pruned = max(pruned, bound)
            continue

        values = node_sol.x[bins].tolist()
        at = _most_fractional(values, INTEGRALITY_TOL)
        if at is None:
            x = node_sol.x
            x[bins] = np.round(values) + 0.0
            obj = lp.objective_value(x)
            if obj > inc_obj:
                inc_bins, inc_obj = x[bins], obj
            continue

        near = round(values[at])
        far_lo, far_hi = lo.copy(), hi.copy()
        far_lo[at] = far_hi[at] = 1 - near
        heapq.heappush(heap, (-bound, nodes, far_lo, far_hi))
        lo[at] = hi[at] = near
        dive = (-bound, lo, hi)

    del relaxation  # release the warm instance before the cold solve
    if inc_bins is None:
        return Solution(INFEASIBLE if status_cap == OPTIMAL else status_cap, nodes=nodes)

    lb, ub = lb0.copy(), ub0.copy()
    lb[bins] = ub[bins] = inc_bins
    fixed = _solve_lp(lp, lb, ub)
    if fixed.status != OPTIMAL:
        raise SolverError(f"incumbent's binaries are {fixed.status} on a cold re-solve")
    x = fixed.x
    inc_obj = lp.objective_value(x)

    proven = max([-node[0] for node in heap + [dive] if node] + [pruned, inc_obj])

    viol = lp.max_violation(x)
    if viol > 10 * FEASIBILITY_TOL:
        raise SolverError(f"incumbent violates constraints by {viol:.2e}")
    return Solution(status_cap, inc_obj, x, bound=proven, nodes=nodes)


# -- model file export ------------------------------------------------------
#
# A file is its layout, the file minus its numbers, with every number put
# into one of the layout's slots.  The layout depends only on the model's
# pattern (``_layout_key``): its name, its row structure and senses, and the
# column masks of ``_masks``, which say where a cost or bound is written and
# where not.  Each format's layout is built once per pattern and kept with
# the bit patterns of the numbers it holds; an export formats and places
# only the numbers that differ from them.

#: layouts kept, the least recently used dropped first; the models of one
#: template share one pattern, so a few layouts serve a run's exports
LAYOUTS_KEPT = 8

_layouts: dict = {}  # (format, pattern) -> _Layout, least recently used first
_layouts_lock = threading.Lock()  # guards _layouts and each layout's pieces and kept


@dataclass(eq=False)
class _Layout:
    """A file but its numbers: ``pieces`` in file order (an object array
    until the first fill, a list after it), a number's place holding the
    last fill's text, ``slots`` the places of each slot's numbers (an array
    of indices into ``pieces``) in file order, the row block's entries in
    column order and, once filled, ``kept``: the bit patterns (int64) the
    last fill wrote into each slot."""

    pieces: np.ndarray | list
    slots: tuple
    order: np.ndarray | None = None
    kept: list | None = None


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


def _numbered(n: int, prefix: str = "", suffix: str = "") -> np.ndarray:
    """prefix + str(i) + suffix for i in range(n), as an object array."""
    return np.array([f"{prefix}{i}{suffix}" for i in range(n)], dtype=object)


def _lp_coef(v: float) -> str:
    """An LP term's coefficient with its glue, such as ' - 2.5 '."""
    return f" {'+' if v >= 0 else '-'} {abs(v):.12g} "


def _scatter(indptr, heads, entries, tails):
    """Rows of pieces laid out: row i is its heads, the pieces of each of its
    entries indptr[i]:indptr[i + 1] in turn, then its tails.  A piece is an
    array over rows (heads, tails) or entries, a string, or None for a slot.
    Returns the pieces and the places of each piece, in argument order."""
    h, k, per_row = len(heads), len(entries), len(heads) + len(tails)
    counts = np.diff(indptr)
    first = indptr[:-1] * k + np.arange(len(counts)) * per_row
    out = np.empty(len(counts) * per_row + indptr[-1] * k, dtype=object)
    at = np.repeat(first + h - indptr[:-1] * k, counts) + np.arange(indptr[-1]) * k
    places = []
    for start, pieces in ((first, heads), (at, entries), (first + h + counts * k, tails)):
        for p, piece in enumerate(pieces):
            places.append(start + p)
            if piece is not None:  # a new object array holds None already
                out[places[-1]] = piece
    return out, places


def _interleave(*columns):
    """Equally long columns of pieces (a string is a constant one, None a
    slot) laid out row by row; returns the pieces and each column's places."""
    out = np.empty((np.broadcast(*columns).size, len(columns)), dtype=object)
    for p, column in enumerate(columns):
        out[:, p] = column
    return out.ravel(), [np.arange(p, out.size, len(columns)) for p in range(len(columns))]


def _lay_out(*parts, order=None) -> _Layout:
    """The layout of ``parts`` in file order: a part is a string or the
    pieces of a section and its slots' places."""
    pieces, slots, at = [], [], 0
    for part in parts:
        section, places = (np.array([part], dtype=object), []) if isinstance(part, str) else part
        pieces.append(section)
        slots += [place + at for place in places]
        at += len(section)
    return _Layout(np.concatenate(pieces), tuple(slots), order)


def _fill(layout: _Layout, *numbers) -> str:
    """The layout's text with ``numbers`` put into its slots, ``(values,
    fmt)`` for each slot.  The first fill formats every value; a later one
    formats and writes only the values whose bit patterns differ from the
    ones the last fill wrote, so the places left alone already hold the same
    text and no number of another model stays."""
    with _layouts_lock:
        pieces, kept = layout.pieces, layout.kept
        first = kept is None
        for s, (place, (values, fmt)) in enumerate(zip(layout.slots, numbers, strict=True)):
            if first:
                pieces[place] = _texts(values, fmt)
                continue
            bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
            changed = np.flatnonzero(bits != kept[s])
            texts = _texts(bits[changed].view(float), fmt).tolist()
            for at, text in zip(place[changed].tolist(), texts):
                pieces[at] = text
            kept[s][changed] = bits[changed]
        if first:
            layout.kept = [np.array(values, dtype=float).view(np.int64) for values, _ in numbers]
            layout.pieces = pieces = pieces.tolist()
        return "".join(pieces)


def _masks(lp: LinearProgram) -> tuple:
    """The column masks of ``lp``'s pattern: binary, costed (a nonzero
    cost), free (lower bound -inf), nonzero lower bound (neither 0 nor
    -inf) and finite upper bound (not +inf)."""
    cost, lb, ub, binary = lp.column_arrays()
    free = lb == -math.inf
    return binary, cost != 0.0, free, (lb != 0.0) & ~free, ub != math.inf


def _names(binary) -> np.ndarray:
    """The column names: x<vid>, or b<vid> for a binary."""
    return np.where(binary, "b", "x").astype(object) + _numbered(len(binary))


def _layout_key(fmt: str, lp: LinearProgram) -> tuple:
    """The format and ``lp``'s pattern, everything its layouts hold: the
    model's name, the row block's structure, the sense codes and the column
    masks."""
    indptr, indices, _, sense, _ = lp.row_arrays()
    return (fmt, lp.name,
            *(np.asarray(a, dtype=np.int64).tobytes() for a in (indptr, indices)),
            *(np.asarray(a, dtype=np.int8).tobytes() for a in (sense, *_masks(lp))))


def _layout(fmt: str, lp: LinearProgram) -> _Layout:
    """The kept layout of ``lp``'s pattern in format ``fmt``, built on first
    use."""
    key = _layout_key(fmt, lp)
    with _layouts_lock:
        layout = _layouts.pop(key, None)
        if layout is None:
            layout = _lp_layout(lp) if fmt == "lp" else _mps_layout(lp)
            if len(_layouts) >= LAYOUTS_KEPT:
                del _layouts[next(iter(_layouts))]
        _layouts[key] = layout
    return layout


def _lp_layout(lp: LinearProgram) -> _Layout:
    binary, costed, *_ = _masks(lp)
    names = _names(binary)
    indptr, indices, _, sense, _ = lp.row_arrays()
    ops = np.array([" <= ", " >= ", " = "], dtype=object)  # by sense code
    objective, obj_at = _interleave(None, names[costed])
    # a model without costs names its first column (if it has one) at 0
    no_cost = "" if costed.any() else "".join((" 0 " + names[:1]).tolist())
    rows, at = _scatter(indptr, [_numbered(len(sense), "\n c", ":")], [None, names[indices]],
                        [ops[sense], None])
    bounds, bound_at = _interleave(None, names, None)
    binaries = "\nBinary\n " + " ".join(names[binary].tolist()) if binary.any() else ""
    return _lay_out(f"\\ {lp.name}\nMaximize\n obj:", (objective, obj_at[:1]),
                    no_cost + "\nSubject To", (rows, [at[1], at[4]]),
                    "\nBounds", (bounds, [bound_at[0], bound_at[2]]), binaries + "\nEnd\n")


def _write_lp_text(lp: LinearProgram) -> str:
    cost, lb, ub, _ = lp.column_arrays()
    _, _, data, _, rhs = lp.row_arrays()
    costed = _masks(lp)[1]
    return _fill(_layout("lp", lp), (cost[costed], _lp_coef), (data, _lp_coef),
                 (rhs, "{:.12g}".format), (lb, "\n {:.12g} <= ".format),
                 (ub, lambda v: " <= +inf" if v == math.inf else f" <= {v:.12g}"))


def _mps_layout(lp: LinearProgram) -> _Layout:
    binary, costed, free, lower, upper = _masks(lp)
    names = _names(binary)
    indptr, indices, _, sense, _ = lp.row_arrays()
    rows = _numbered(len(sense), "c")
    tags = np.array(["\n L  ", "\n G  ", "\n E  "], dtype=object)  # by sense code
    # the entries' places in the row block, column by column and rows
    # ascending within each column
    order = np.argsort(indices, kind="stable")
    counts = np.bincount(indices, minlength=len(names))
    line = "\n    " + names + "  "
    columns, at = _scatter(
        np.concatenate(([0], np.cumsum(counts))),
        [np.where(binary, "\n    MARKER    'MARKER'    'INTORG'", ""),
         np.where(costed, line + "obj  ", ""), np.where(costed, None, "")],
        [np.repeat(line, counts), rows[np.repeat(np.arange(len(sense)), np.diff(indptr))[order]],
         None],
        [np.where(~costed & (counts == 0), line + "obj  0", ""),
         np.where(binary, "\n    MARKER    'MARKER'    'INTEND'", "")])
    rhs, rhs_at = _interleave("\n    RHS  ", rows, None)
    bounds, bound_at = _interleave(
        np.where(free, "\n MI BND  " + names, np.where(lower, "\n LO BND  " + names, "")),
        np.where(lower, None, ""), np.where(upper, "\n UP BND  " + names, ""),
        np.where(upper, None, ""))
    return _lay_out(f"NAME          {lp.name}\nOBJSENSE\n    MAX\nROWS\n N  obj"
                    + "".join((tags[sense] + rows).tolist()) + "\nCOLUMNS",
                    (columns, [at[2][costed], at[5]]), "\nRHS", (rhs, [rhs_at[2]]),
                    "\nBOUNDS", (bounds, [bound_at[1][lower], bound_at[3][upper]]),
                    "\nENDATA\n", order=order)


def _write_mps_text(lp: LinearProgram) -> str:
    cost, lb, ub, _ = lp.column_arrays()
    _, _, data, _, rhs = lp.row_arrays()
    _, costed, _, lower, upper = _masks(lp)
    layout = _layout("mps", lp)
    number = "  {:.12g}".format
    return _fill(layout, (cost[costed], "{:.12g}".format), (data[layout.order], number),
                 (rhs, number), (lb[lower], number), (ub[upper], number))


def export_model(lp: LinearProgram, destination, fmt: str = "lp") -> None:
    """Write the model as UTF-8 text with LF endings; fmt is 'lp' or 'mps'.

    Every value is written with 12 significant digits, which HiGHS's reader
    reads back to 1e-11 relative: ``LinearProgram`` refuses a value whose
    text could reach one of the reader's limits.
    """
    if fmt not in ("lp", "mps"):
        raise ValueError(f"unknown format {fmt!r}")
    text = _write_lp_text(lp) if fmt == "lp" else _write_mps_text(lp)
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

