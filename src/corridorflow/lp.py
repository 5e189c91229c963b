"""Solver-agnostic container for mixed-integer linear programs.

Variables are created in a fixed order and addressed by integer id or by an
arbitrary hashable key, so models built from the same inputs always number
their columns identically (needed for reproducible solves and exports).
The objective sense is always maximize.

Rows are kept in one sparse form: blocks of CSR rows (column indices sorted
within each row) with a sense code and a right-hand side per row.  Single
rows come in through ``add_constraint``; whole blocks, such as a link's
templated rows, through ``add_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
GE = ">="
EQ = "=="

#: row senses in the order of their codes in ``RowBlock.sense``
SENSES = (LE, GE, EQ)
LE_CODE, GE_CODE, EQ_CODE = range(3)


@dataclass
class Variable:
    vid: int
    key: object
    lb: float
    ub: float
    kind: str = CONTINUOUS
    obj: float = 0.0


@dataclass
class Constraint:
    coeffs: dict
    sense: str
    rhs: float


class RowBlock(NamedTuple):
    """Consecutive rows in CSR form; ``sense`` holds codes into SENSES."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1


def sense_code(sense: str) -> int:
    if sense not in SENSES:
        raise ValueError(f"bad sense {sense!r}")
    return SENSES.index(sense)


class LinearProgram:
    """Sparse-row MILP with maximize objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self._by_key: dict = {}
        self._blocks: list[RowBlock] = []
        # rows from add_constraint since the last block: nnz, cols, vals, sense, rhs
        self._loose = ([], [], [], [], [])
        self._n_rows = 0
        self._rows = None
        self._arrays = None

    # -- construction -----------------------------------------------------

    def add_variable(self, key=None, lb=0.0, ub=np.inf, kind=CONTINUOUS, obj=0.0) -> int:
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        vid = len(self.variables)
        if key is None:
            key = vid
        elif isinstance(key, int):
            raise ValueError("explicit integer keys are reserved for variable ids")
        if key in self._by_key:
            raise ValueError(f"duplicate variable key {key!r}")
        self.variables.append(Variable(vid, key, float(lb), float(ub), kind, float(obj)))
        self._by_key[key] = vid
        self._arrays = None
        return vid

    def var_id(self, key) -> int:
        return self._by_key[key]

    def has_var(self, key) -> bool:
        return key in self._by_key

    def set_objective_coeff(self, key, coef, accumulate=True):
        v = self.variables[self._key_or_id(key)]
        v.obj = v.obj + coef if accumulate else coef
        self._arrays = None

    def set_bounds(self, key, lb=None, ub=None):
        v = self.variables[self._key_or_id(key)]
        if lb is not None:
            v.lb = float(lb)
        if ub is not None:
            v.ub = float(ub)
        self._arrays = None

    def add_constraint(self, coeffs: dict, sense: str, rhs: float) -> int:
        code = sense_code(sense)
        mapped = {}
        for key, coef in coeffs.items():
            if coef == 0.0:
                continue
            vid = self._key_or_id(key)
            mapped[vid] = mapped.get(vid, 0.0) + float(coef)
        nnz, cols, vals, senses, rhss = self._loose
        nnz.append(len(mapped))
        for vid in sorted(mapped):
            cols.append(vid)
            vals.append(mapped[vid])
        senses.append(code)
        rhss.append(float(rhs))
        return self._added(1) - 1

    def add_rows(self, block: RowBlock, col_offset: int = 0) -> int:
        """Append a block of rows whose column indices are relative to
        ``col_offset``; zero coefficients are dropped, as ``add_constraint``
        drops them.  Returns the number of rows."""
        indptr, indices, data = block.indptr, block.indices, block.data
        if indices.size and (indices.min() + col_offset < 0
                             or indices.max() + col_offset >= self.n_vars):
            raise KeyError("row block refers to columns outside the model")
        keep = data != 0.0
        if not keep.all():
            row = np.repeat(np.arange(block.n_rows), np.diff(indptr))
            counts = np.bincount(row[keep], minlength=block.n_rows)
            indptr = np.concatenate(([0], np.cumsum(counts)))
            indices, data = indices[keep], data[keep]
        self._flush()
        self._blocks.append(RowBlock(indptr, indices + col_offset, data,
                                     block.sense, block.rhs))
        self._added(block.n_rows)
        return block.n_rows

    def _added(self, n: int) -> int:
        self._n_rows += n
        self._rows = None
        self._arrays = None
        return self._n_rows

    def _flush(self):
        nnz, cols, vals, senses, rhss = self._loose
        if senses:
            self._blocks.append(RowBlock(
                np.concatenate(([0], np.cumsum(nnz))),
                np.array(cols, dtype=np.int64),
                np.array(vals, dtype=float),
                np.array(senses, dtype=np.int8),
                np.array(rhss, dtype=float),
            ))
            self._loose = ([], [], [], [], [])

    def _key_or_id(self, key) -> int:
        if isinstance(key, int) and not isinstance(key, bool):
            if not 0 <= key < len(self.variables):
                raise KeyError(f"variable id {key} out of range")
            return key
        return self._by_key[key]

    # -- views -------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return self._n_rows

    @property
    def constraints(self) -> list[Constraint]:
        """The rows as Constraint records, rebuilt on each access."""
        indptr, indices, data, sense, rhs = self.row_arrays()
        cols, vals = indices.tolist(), data.tolist()
        bounds = indptr.tolist()
        return [
            Constraint(dict(zip(cols[lo:hi], vals[lo:hi])), SENSES[code], b)
            for lo, hi, code, b in zip(bounds, bounds[1:], sense.tolist(), rhs.tolist())
        ]

    def binary_ids(self) -> list[int]:
        return [v.vid for v in self.variables if v.kind == BINARY]

    def objective_value(self, x) -> float:
        c, *_ = self.to_arrays()
        return float(c @ x)

    def row_arrays(self) -> RowBlock:
        """Every row in insertion order as one CSR block."""
        if self._rows is None:
            self._flush()
            blocks = self._blocks
            ends = np.cumsum([0] + [len(b.indices) for b in blocks[:-1]])
            self._rows = RowBlock(
                np.concatenate([[0]] + [b.indptr[1:] + e for b, e in zip(blocks, ends)]),
                np.concatenate([np.zeros(0, np.int64)] + [b.indices for b in blocks]),
                np.concatenate([np.zeros(0)] + [b.data for b in blocks]),
                np.concatenate([np.zeros(0, np.int8)] + [b.sense for b in blocks]),
                np.concatenate([np.zeros(0)] + [b.rhs for b in blocks]),
            )
            self._blocks = [self._rows]
        return self._rows

    def to_arrays(self):
        """Return (c, A_ub, b_ub, A_eq, b_eq, lb, ub) with >= rows negated."""
        if self._arrays is not None:
            return self._arrays
        n = self.n_vars
        c = np.array([v.obj for v in self.variables])
        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])

        indptr, indices, data, sense, rhs = self.row_arrays()
        sign = np.where(sense == GE_CODE, -1.0, 1.0)
        entry_row = np.repeat(np.arange(len(sense)), np.diff(indptr))

        def select(rows, scale):
            take = rows[entry_row]
            counts = np.diff(indptr)[rows]
            A = sparse.csr_matrix(
                ((data * scale[entry_row])[take], indices[take],
                 np.concatenate(([0], np.cumsum(counts)))),
                shape=(len(counts), n),
            )
            return A, (scale * rhs)[rows]

        eq = sense == EQ_CODE
        A_ub, b_ub = select(~eq, sign)
        A_eq, b_eq = select(eq, np.ones(len(sense)))
        self._arrays = (c, A_ub, b_ub, A_eq, b_eq, lb, ub)
        return self._arrays

    def max_violation(self, x) -> float:
        """Largest constraint/bound violation of a candidate point."""
        _, A_ub, b_ub, A_eq, b_eq, lb, ub = self.to_arrays()
        worst = 0.0
        if b_ub.size:
            worst = max(worst, float(np.max(A_ub @ x - b_ub, initial=0.0)))
        if b_eq.size:
            worst = max(worst, float(np.max(np.abs(A_eq @ x - b_eq), initial=0.0)))
        worst = max(worst, float(np.max(lb - x, initial=0.0)))
        worst = max(worst, float(np.max(x - ub, initial=0.0)))
        return worst
