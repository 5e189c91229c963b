"""Demand-matrix bookkeeping for the rolling-horizon scheme.

Queued vehicles from earlier horizons are folded back into the demand
columns by topping successive steps up toward capacity until the backlog is
spent.
"""

from __future__ import annotations

import numpy as np


def apply_queue_update(matrix: np.ndarray, e: float, capacity: float):
    """Fold a backlog of e (veh/s-equivalent) into each demand column.

    Rows are topped up toward ``capacity`` first-step-first until the backlog
    is exhausted or the column runs out.  Returns the updated matrix and the
    residual backlog per column.
    """
    if e < 0:
        raise ValueError("backlog must be nonnegative")
    out = np.array(matrix, dtype=float, copy=True)
    if out.ndim == 1:
        out = out[:, None]
        squeeze = True
    else:
        squeeze = False
    residual = np.empty(out.shape[1])
    for j in range(out.shape[1]):
        left = e
        for i in range(out.shape[0]):
            if left <= 0:
                break
            add = min(max(capacity - out[i, j], 0.0), left)
            out[i, j] += add
            left -= add
        residual[j] = left
    if squeeze:
        return out[:, 0], residual[0]
    return out, residual


def observed_demand_vector(
    observed: float,
    levels,
    probs,
    n_project: int,
    n_rolling: int,
    e: float = 0.0,
    capacity: float | None = None,
    tail_level: float | None = None,
) -> np.ndarray:
    """Demand column used by the mid-horizon re-solve: the remaining
    n_project - n_rolling steps carry the observed level, the lookahead tail
    carries the distribution mean (or a caller-chosen level), then the
    backlog is folded in."""
    tail = float(np.dot(levels, probs)) if tail_level is None else float(tail_level)
    vec = np.full(n_project, tail)
    vec[: n_project - n_rolling] = observed
    if e > 0:
        if capacity is None:
            raise ValueError("capacity required to fold in a backlog")
        vec, _ = apply_queue_update(vec, e, capacity)
    return vec

