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
id, so models built from the same inputs number their columns identically
(needed for reproducible solves and exports); a key names its column for a
reader of the model.  The objective sense is always maximize.
``column_arrays`` and ``row_arrays`` hand out the read-only arrays
themselves, and ``objective_value`` and ``max_violation`` read them with
numpy.  The row block is the only form of the rows; HiGHS takes it as it
is, and ``solver`` alone lays it out as linprog and the MPS writer take it;
``constraints`` is a view of the rows as records, rebuilt on each access.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
GE = ">="
EQ = "=="

#: row senses in the order of their codes in ``RowBlock.sense``
SENSES = (LE, GE, EQ)
LE_CODE, GE_CODE, EQ_CODE = range(3)

#: HiGHS drops nonzero coefficients of this magnitude or less when it loads a
#: model, so a template writes a computed coefficient of at most it as 0
SMALL_COEFFICIENT = 1e-9


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
        return _records(self, keys)


def _records(rows: RowBlock, keys) -> list[Constraint]:
    """``rows`` as Constraint records over ``keys``, without their zero
    coefficients.  Private, so perfbench's tracer, which wraps the public
    callables, does not time it a second time inside the bookkeeping that
    reads ``LinearProgram.constraints``."""
    indptr, indices, data, sense, rhs = (array.tolist() for array in rows)
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

    ``keys`` name the columns (distinct, any hashable); ``columns``
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
        return _records(self._rows, range(self.n_vars))

    def binary_ids(self) -> list[int]:
        return np.flatnonzero(self._cols.binary).tolist()

    def objective_value(self, x) -> float:
        return float(self._cols.obj @ x)

    def row_arrays(self) -> RowBlock:
        """Every row in model order as one read-only CSR block."""
        return self._rows

    def max_violation(self, x) -> float:
        """Largest violation of a candidate point: the worst ``<=`` excess,
        ``>=`` shortfall, ``=`` residual or bound violation, or 0."""
        indptr, indices, data, sense, rhs = self._rows
        _, lb, ub, _ = self._cols
        x = np.asarray(x, dtype=float)
        entry_row = np.repeat(np.arange(len(sense)), np.diff(indptr))
        excess = np.bincount(entry_row, data * x[indices], len(sense)) - rhs
        excess = np.where(sense == LE_CODE, excess,
                          np.where(sense == GE_CODE, -excess, np.abs(excess)))
        return max(float(np.max(excess, initial=0.0)), float(np.max(lb - x, initial=0.0)),
                   float(np.max(x - ub, initial=0.0)))
