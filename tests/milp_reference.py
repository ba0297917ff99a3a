"""An integer-programming reference for {0,1} edge-weighting that shares no
code with any solver route: it reads the edge list alone and hands the
model to scipy's MILP solver (HiGHS).

Variables are one binary weight x_e and one binary order y_e per edge
e = (u, v).  With c(w) the sum of x over w's edges and M = deg(u) + deg(v)
+ 1, the pair

    c(u) - c(v) - M y_e >= 1 - M        (y_e = 1 forces c(u) > c(v))
    c(v) - c(u) + M y_e >= 1            (y_e = 0 forces c(v) > c(u))

says that u and v get distinct colours: |c(u) - c(v)| never exceeds M - 1,
so the constraint y_e switches off always holds.  A pre-weight fixes x_e
through its bounds.  The objective is zero; only feasibility is asked.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

TIME_LIMIT_S = 20.0


def milp_solve(n, edges, pre=None, time_limit=TIME_LIMIT_S):
    """A proper weighting {edge: 0 or 1} of the graph on vertices 0..n-1
    with these edges that extends `pre`, or None when none exists.  Raises
    RuntimeError when the solver stops without deciding (its time limit)."""
    pre = pre or {}
    edges = list(edges)
    m = len(edges)
    if m == 0:
        return {}
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    incident = np.zeros((n, m))  # c = incident @ x
    for i, (u, v) in enumerate(edges):
        incident[u, i] = incident[v, i] = 1
    rows = np.zeros((2 * m, 2 * m))
    lower = np.zeros(2 * m)
    for i, (u, v) in enumerate(edges):
        big = degree[u] + degree[v] + 1
        diff = incident[u] - incident[v]  # c(u) - c(v) as a row over x
        rows[2 * i, :m], rows[2 * i, m + i], lower[2 * i] = diff, -big, 1 - big
        rows[2 * i + 1, :m], rows[2 * i + 1, m + i], lower[2 * i + 1] = -diff, big, 1
    lo = np.zeros(2 * m)
    hi = np.ones(2 * m)
    for i, e in enumerate(edges):
        if e in pre:
            lo[i] = hi[i] = pre[e]
    result = milp(
        np.zeros(2 * m),
        integrality=np.ones(2 * m),
        bounds=Bounds(lo, hi),
        constraints=LinearConstraint(rows, lower, np.inf),
        options={"time_limit": time_limit},
    )
    if result.status == 2:  # infeasible
        return None
    if result.status != 0:
        raise RuntimeError(f"MILP stopped undecided: {result.message}")
    return {e: int(round(result.x[i])) for i, e in enumerate(edges)}
