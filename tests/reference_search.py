"""The loop form of ``solver.branch_and_bound``, kept as the reference the
array search must match bit for bit (a test oracle only).

A node is a dict of fixings {binary column id: 0.0/1.0}, the pending dives
a stack, and each node copies the model's full bounds and applies its
fixings one by one.  It drives the production ``solver._Relaxation``, handing
it the binaries' bounds in ``lp.binary_ids()`` order, so a spy on
``_Relaxation.solve`` sees the bounds of both searches in the same form.
"""

import heapq
import math

from corridorflow import solver
from corridorflow.solver import (
    INFEASIBLE,
    INTEGRALITY_TOL,
    NODE_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    Solution,
    SolverError,
)


def most_fractional(x: list, binary_ids, tol):
    """The binary farthest from an integer, by more than ``tol``."""
    pick, best = None, tol
    for vid in binary_ids:
        frac = abs(x[vid] - round(x[vid]))
        if frac > best + 1e-15:
            pick, best = vid, frac
    return pick


def branch_and_bound(lp, warm_binaries: dict | None = None) -> Solution:
    """Depth-first branch and bound with best-bound restarts, searching over
    fixings dicts; ``warm_binaries`` maps binary column ids to 0/1.  The gap
    and the node cap are read from ``solver`` at call time."""
    gap = solver.MIP_GAP
    binary_ids = lp.binary_ids()
    _, lb0, ub0, _ = lp.column_arrays()
    relaxation = solver._Relaxation(lp)

    def solve(lb, ub):
        return relaxation.solve(lb[binary_ids], ub[binary_ids])

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
            warm = solve(lb, ub)
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
        if nodes >= solver.MAX_NODES:
            status_cap = NODE_LIMIT
            break
        if stack:
            _, _, fixings = stack.pop()
        else:
            neg_bound, _, fixings = heapq.heappop(heap)
            if -neg_bound <= inc_obj + gap * max(1.0, abs(inc_obj)):
                pruned = max(pruned, -neg_bound)
                continue

        lb = lb0.copy()
        ub = ub0.copy()
        for vid, val in fixings.items():
            lb[vid] = ub[vid] = val
        node_sol = solve(lb, ub)
        nodes += 1
        if node_sol.status == UNBOUNDED:
            return Solution(UNBOUNDED, objective=math.inf, nodes=nodes)
        if node_sol.status != OPTIMAL:
            continue
        bound = node_sol.objective
        if bound <= inc_obj + gap * max(1.0, abs(inc_obj)):
            pruned = max(pruned, bound)
            continue

        values = node_sol.x.tolist()
        branch_var = most_fractional(values, binary_ids, INTEGRALITY_TOL)
        if branch_var is None:
            x = node_sol.x.copy()
            for vid in binary_ids:
                x[vid] = round(values[vid])
            obj = lp.objective_value(x)
            if obj > inc_obj:
                incumbent = Solution(OPTIMAL, obj, x, nodes=nodes)
                inc_obj = obj
            continue

        near = int(round(values[branch_var]))
        far_fix = dict(fixings)
        far_fix[branch_var] = float(1 - near)
        near_fix = dict(fixings)
        near_fix[branch_var] = float(near)
        heapq.heappush(heap, (-bound, counter, far_fix))
        counter += 1
        stack.append((-bound, counter, near_fix))
        counter += 1

    del relaxation, solve  # release the warm instance before the cold solve
    if incumbent is None:
        if status_cap != OPTIMAL:
            return Solution(status_cap, nodes=nodes)
        return Solution(INFEASIBLE, nodes=nodes)

    lb = lb0.copy()
    ub = ub0.copy()
    for vid in binary_ids:
        lb[vid] = ub[vid] = float(round(incumbent.x[vid]))
    fixed = solver._solve_lp(lp, lb, ub)
    if fixed.status != OPTIMAL:
        raise SolverError(f"incumbent's binaries are {fixed.status} on a cold re-solve")
    x = fixed.x
    inc_obj = lp.objective_value(x)

    proven = max([-node[0] for node in heap + stack] + [pruned, inc_obj])

    viol = lp.max_violation(x)
    if viol > 10 * solver.FEASIBILITY_TOL:
        raise SolverError(f"incumbent violates constraints by {viol:.2e}")
    return Solution(status_cap, inc_obj, x, bound=proven, nodes=nodes)
