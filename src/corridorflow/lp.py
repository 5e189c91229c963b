"""Solver-agnostic container for mixed-integer linear programs.

A model is built once, from arrays, and not changed afterwards:
``LinearProgram(name, keys, columns, rows)`` takes every column's key, its
cost, bounds and binary flag (``Columns``), and every row in one CSR block
(column indices sorted within each row) with a sense code and a right-hand
side per row (``RowBlock``).  The control models come from a cached template
(``twostage.ModelTemplate``); a row written out is a ``Constraint`` (its
coefficients by key, sense and right-hand side), and ``pack_rows`` turns such
rows into a block and ``RowBlock.constraints`` a block back into them.

Columns are numbered in the order of their keys and addressed by integer
id or by key, so models built from the same inputs number their columns
identically (needed for reproducible solves and exports).  The objective
sense is always maximize.  ``column_arrays`` and ``row_arrays`` hand out the
read-only arrays themselves and ``to_arrays`` the solver's split of the
rows into ``<=`` and ``=`` rows; ``constraints`` is a view of the rows as
records, rebuilt on each access.
"""

from __future__ import annotations

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


class Constraint(NamedTuple):
    """One row written out: coefficients by column key, sense, right-hand side."""

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

    def constraints(self, keys) -> list[Constraint]:
        """The rows as Constraint records over the column keys ``keys``,
        without their zero coefficients."""
        indptr, indices, data, sense, rhs = (array.tolist() for array in self)
        return [
            Constraint({keys[c]: v for c, v in zip(indices[lo:hi], data[lo:hi]) if v != 0.0},
                       SENSES[code], b)
            for lo, hi, code, b in zip(indptr, indptr[1:], sense, rhs)
        ]


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


def _frozen(array) -> np.ndarray:
    view = np.asarray(array).view()
    view.setflags(write=False)
    return view


def pack_rows(rows, keys) -> RowBlock:
    """Constraint rows as one read-only block over the columns ``keys``, each
    row's entries in column order.  Zero coefficients are kept: templates
    hold them as the places a state fills in."""
    col = {key: i for i, key in enumerate(keys)}
    indptr, indices, data = [0], [], []
    for row in rows:
        for c, v in sorted((col[k], v) for k, v in row.coeffs.items()):
            indices.append(c)
            data.append(v)
        indptr.append(len(indices))
    return RowBlock(*map(_frozen, (
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=float),
        np.array([sense_code(row.sense) for row in rows], dtype=np.int8),
        np.array([row.rhs for row in rows], dtype=float),
    )))


class Columns(NamedTuple):
    """Every column's cost, bounds and binary flag, in id order."""

    obj: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray


class LinearProgram:
    """Sparse-row MILP with maximize objective, fixed once built.

    ``keys`` name the columns (distinct, any hashable but int); ``columns``
    holds their costs, bounds and binary flags and ``rows`` every row, with
    no zero coefficients.  The arrays are held as read-only views."""

    def __init__(self, name: str, keys, columns: Columns, rows: RowBlock):
        self.name = name
        self.keys = tuple(keys)
        self._cols = Columns(*map(_frozen, columns))
        self._rows = RowBlock(*map(_frozen, rows))
        if any(len(array) != len(self.keys) for array in self._cols):
            raise ValueError("column arrays and keys differ in length")
        indices = self._rows.indices
        if indices.size and (indices.min() < 0 or indices.max() >= len(self.keys)):
            raise KeyError("rows refer to columns outside the model")
        if not self._rows.data.all():
            raise ValueError("rows hold a zero coefficient")
        self._by_key: dict | None = None  # key -> id, built on first lookup
        self._arrays = None

    def _index(self) -> dict:
        if self._by_key is None:
            self._by_key = {key: vid for vid, key in enumerate(self.keys)}
            if len(self._by_key) != len(self.keys):
                raise ValueError("duplicate variable key")
        return self._by_key

    def var_id(self, key) -> int:
        return self._index()[key]

    def has_var(self, key) -> bool:
        return key in self._index()

    def key(self, vid: int):
        return self.keys[vid]

    # -- views -------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.keys)

    def column_arrays(self) -> Columns:
        """Every column's cost, bounds and binary flag as read-only arrays."""
        return self._cols

    @property
    def n_constraints(self) -> int:
        return self._rows.n_rows

    @property
    def constraints(self) -> list[Constraint]:
        """The rows as Constraint records over column ids, rebuilt on each
        access."""
        # no call to RowBlock.constraints: perfbench's tracer reads this view
        # inside its bookkeeping, where a traced call's time would count twice
        indptr, indices, data, sense, rhs = self._rows
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
        """Every row in model order as one read-only CSR block."""
        return self._rows

    def to_arrays(self):
        """Return (c, A_ub, b_ub, A_eq, b_eq, lb, ub) with >= rows negated."""
        if self._arrays is not None:
            return self._arrays
        n = self.n_vars
        c, lb, ub, _ = self._cols

        indptr, indices, data, sense, rhs = self._rows
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
