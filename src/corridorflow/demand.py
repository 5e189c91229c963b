"""Demand-column bookkeeping for the rolling-horizon scheme.

Queued vehicles from earlier horizons are folded back into a demand column
by topping successive steps up toward capacity until the backlog is spent.
"""

from __future__ import annotations

import numpy as np


def apply_queue_update(column: np.ndarray, e: float, capacity: float):
    """Fold a backlog of e (veh/s-equivalent) into a demand column.

    Steps are topped up toward ``capacity`` first-step-first until the
    backlog is exhausted or the column runs out.  Returns the updated column
    and the residual backlog.
    """
    if e < 0:
        raise ValueError("backlog must be nonnegative")
    out = np.array(column, dtype=float, copy=True)
    left = e
    for i in range(len(out)):
        if left <= 0:
            break
        add = min(max(capacity - out[i], 0.0), left)
        out[i] += add
        left -= add
    return out, left


def observed_demand_vector(
    observed: float,
    levels,
    probs,
    n_project: int,
    n_rolling: int,
    tail_level: float | None = None,
) -> np.ndarray:
    """Demand column used by the mid-horizon re-solve: the remaining
    n_project - n_rolling steps carry the observed level, the lookahead tail
    carries the distribution mean (or a caller-chosen level).  The model
    folds each entry's backlog in itself."""
    tail = float(np.dot(levels, probs)) if tail_level is None else float(tail_level)
    vec = np.full(n_project, tail)
    vec[: n_project - n_rolling] = observed
    return vec

