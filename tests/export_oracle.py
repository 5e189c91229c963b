"""Reference LP/MPS writers for the export tests: a frozen copy of the
line-by-line writers that ``solver.export_model``'s vectorized ones
replaced, kept as an oracle only.  The one change from the copied code is
the objective line of a model without costs, which names column 0 (``b0``
when it is binary) instead of always ``x0``.
"""

import math

import numpy as np
from scipy import sparse

from corridorflow.lp import EQ_CODE, GE_CODE, LE_CODE, LinearProgram


def _var_names(lp: LinearProgram) -> list[str]:
    return [("b" if b else "x") + str(vid)
            for vid, b in enumerate(lp.column_arrays().binary.tolist())]


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


def lp_text(lp: LinearProgram) -> str:
    names = _var_names(lp)
    cost, lb, ub, binary = (a.tolist() for a in lp.column_arrays())
    lines = ["\\ " + lp.name, "Maximize", " obj:"]
    objective = [vid for vid, c in enumerate(cost) if c != 0.0]
    lines[-1] += "".join(_signed_terms([cost[vid] for vid in objective],
                                       [names[vid] for vid in objective])) or " 0 " + names[0]
    lines.append("Subject To")
    indptr, indices, data, sense, rhs = lp.row_arrays()
    terms = _signed_terms(data, [names[c] for c in indices.tolist()])
    bounds = indptr.tolist()
    ops = {LE_CODE: "<=", GE_CODE: ">=", EQ_CODE: "="}
    for i, (lo, hi, code, b) in enumerate(zip(bounds, bounds[1:], sense.tolist(), _nums(rhs))):
        lines.append(f" c{i}:{''.join(terms[lo:hi])} {ops[code]} {b}")
    lines.append("Bounds")
    for v_lb, v_ub, name in zip(lb, ub, names):
        lo = "-inf" if v_lb == -math.inf else _num(v_lb)
        hi = "+inf" if v_ub == math.inf else _num(v_ub)
        lines.append(f" {lo} <= {name} <= {hi}")
    bins = [name for b, name in zip(binary, names) if b]
    if bins:
        lines.append("Binary")
        lines.append(" " + " ".join(bins))
    lines.append("End")
    return "\n".join(lines) + "\n"


def mps_text(lp: LinearProgram) -> str:
    names = _var_names(lp)
    cost, lb, ub, binary = (a.tolist() for a in lp.column_arrays())
    lines = [f"NAME          {lp.name}", "OBJSENSE", "    MAX", "ROWS", " N  obj"]
    indptr, indices, data, sense, rhs = lp.row_arrays()
    tags = {LE_CODE: "L", GE_CODE: "G", EQ_CODE: "E"}
    lines += [f" {tags[code]}  c{i}" for i, code in enumerate(sense.tolist())]
    lines.append("COLUMNS")
    # column-major entries, rows ascending within each column
    by_col = sparse.csr_matrix((data, indices, indptr),
                               shape=(len(sense), lp.n_vars)).tocsc()
    rows, texts, bounds = by_col.indices.tolist(), _nums(by_col.data), by_col.indptr.tolist()
    for b, c, name, lo, hi in zip(binary, cost, names, bounds, bounds[1:]):
        if b:
            lines.append(f"    MARKER    'MARKER'    'INTORG'")
        if c != 0.0:
            lines.append(f"    {name}  obj  {_num(c)}")
        lines += [f"    {name}  c{r}  {t}" for r, t in zip(rows[lo:hi], texts[lo:hi])]
        if c == 0.0 and lo == hi:
            lines.append(f"    {name}  obj  0")
        if b:
            lines.append(f"    MARKER    'MARKER'    'INTEND'")
    lines.append("RHS")
    lines += [f"    RHS  c{i}  {b}" for i, b in enumerate(_nums(rhs))]
    lines.append("BOUNDS")
    for v_lb, v_ub, name in zip(lb, ub, names):
        if v_lb == -math.inf:
            lines.append(f" MI BND  {name}")
        elif v_lb != 0.0:
            lines.append(f" LO BND  {name}  {_num(v_lb)}")
        if v_ub != math.inf:
            lines.append(f" UP BND  {name}  {_num(v_ub)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
