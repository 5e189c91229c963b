"""Solver-agnostic container for mixed-integer linear programs.

Variables are created in a fixed order and addressed by integer id or by an
arbitrary hashable key, so models built from the same inputs always number
their columns identically (needed for reproducible solves and exports).
The objective sense is always maximize.

Columns are held as arrays: keys, costs, bounds and a binary mask, filled in
bulk by ``add_columns`` (the control models come from a cached template) or
one at a time by ``add_variable``.  Rows are kept in one sparse form: blocks
of CSR rows (column indices sorted within each row) with a sense code and a
right-hand side per row.  Single rows come in through ``add_constraint``;
whole blocks through ``add_rows``.  ``variables`` and ``constraints`` are
read-only views rebuilt on each access.
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


def stack_rows(blocks) -> RowBlock:
    """The rows of ``blocks``, one block after another, as one block."""
    ends = np.cumsum([0] + [len(b.indices) for b in blocks[:-1]])
    return RowBlock(
        np.concatenate([[0]] + [b.indptr[1:] + e for b, e in zip(blocks, ends)]),
        np.concatenate([np.zeros(0, np.int64)] + [b.indices for b in blocks]),
        np.concatenate([np.zeros(0)] + [b.data for b in blocks]),
        np.concatenate([np.zeros(0, np.int8)] + [b.sense for b in blocks]),
        np.concatenate([np.zeros(0)] + [b.rhs for b in blocks]),
    )


def sense_code(sense: str) -> int:
    if sense not in SENSES:
        raise ValueError(f"bad sense {sense!r}")
    return SENSES.index(sense)


class Columns(NamedTuple):
    """Every column's cost, bounds and binary flag, in id order."""

    obj: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class LinearProgram:
    """Sparse-row MILP with maximize objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._keys: list = []
        self._by_key: dict | None = {}  # key -> id, rebuilt on demand after add_columns
        self._cols = Columns(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))
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
        vid = self.n_vars
        if key is None:
            key = vid
        elif isinstance(key, int):
            raise ValueError("explicit integer keys are reserved for variable ids")
        index = self._index()
        if key in index:
            raise ValueError(f"duplicate variable key {key!r}")
        self._extend([key], [float(obj)], [float(lb)], [float(ub)], [kind == BINARY])
        index[key] = vid
        return vid

    def add_columns(self, keys, obj, lb, ub, binary) -> int:
        """Append columns in bulk: their keys (new and distinct, not integers)
        and arrays of costs, bounds and binary flags.  Returns the first new
        column's id."""
        first = self.n_vars
        self._extend(keys, obj, lb, ub, binary)
        self._by_key = None
        return first

    def _extend(self, keys, obj, lb, ub, binary):
        self._keys += keys
        self._cols = Columns(*(np.concatenate((old, new)) for old, new in
                               zip(self._cols, (obj, lb, ub, binary))))
        self._arrays = None

    def _index(self) -> dict:
        if self._by_key is None:
            self._by_key = {key: vid for vid, key in enumerate(self._keys)}
            if len(self._by_key) != len(self._keys):
                raise ValueError("duplicate variable key")
        return self._by_key

    def var_id(self, key) -> int:
        return self._index()[key]

    def has_var(self, key) -> bool:
        return key in self._index()

    def key(self, vid: int):
        return self._keys[vid]

    def set_objective_coeff(self, key, coef, accumulate=True):
        vid = self._key_or_id(key)
        obj = self._cols.obj
        obj[vid] = obj[vid] + coef if accumulate else coef
        self._arrays = None

    def set_bounds(self, key, lb=None, ub=None):
        vid = self._key_or_id(key)
        if lb is not None:
            self._cols.lb[vid] = float(lb)
        if ub is not None:
            self._cols.ub[vid] = float(ub)
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
            if not 0 <= key < self.n_vars:
                raise KeyError(f"variable id {key} out of range")
            return key
        return self._index()[key]

    # -- views -------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self._keys)

    @property
    def variables(self) -> list[Variable]:
        """The columns as Variable records, rebuilt on each access."""
        obj, lb, ub, binary = (a.tolist() for a in self._cols)
        return [Variable(vid, key, lo, hi, BINARY if b else CONTINUOUS, c)
                for vid, (key, c, lo, hi, b) in enumerate(zip(self._keys, obj, lb, ub, binary))]

    def column_arrays(self) -> Columns:
        """Every column's cost, bounds and binary flag as read-only arrays."""
        return Columns(*map(_frozen, self._cols))

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
        return np.flatnonzero(self._cols.binary).tolist()

    def objective_value(self, x) -> float:
        c, *_ = self.to_arrays()
        return float(c @ x)

    def row_arrays(self) -> RowBlock:
        """Every row in insertion order as one CSR block."""
        if self._rows is None:
            self._flush()
            blocks = self._blocks
            self._rows = blocks[0] if len(blocks) == 1 else stack_rows(blocks)
            self._blocks = [self._rows]
        return self._rows

    def to_arrays(self):
        """Return (c, A_ub, b_ub, A_eq, b_eq, lb, ub) with >= rows negated."""
        if self._arrays is not None:
            return self._arrays
        n = self.n_vars
        c, lb, ub = (a.copy() for a in self._cols[:3])

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
