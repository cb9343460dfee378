"""Mixed-integer programming oracle for :math:`P||C_{max}` (scipy/HiGHS).

Test-only: ``test_milp.py`` uses it as an independent exact reference
for the branch-and-bound and DP solvers.  It solves the classical
assignment formulation

.. math::

    \\min C \\quad \\text{s.t.} \\quad
    \\sum_i x_{ij} = 1 \\;\\forall j, \\qquad
    \\sum_j p_j x_{ij} \\le C \\;\\forall i, \\qquad
    x_{ij} \\in \\{0, 1\\}

solved by HiGHS through :func:`scipy.optimize.milp`.  Slower than the
dedicated branch-and-bound on our instance sizes but implemented from an
entirely different angle, which is exactly what a cross-validation oracle
should be (the test suite asserts all three exact solvers agree).

Variables are laid out ``[x_00, x_01, ..., x_0(n-1), x_10, ..., C]``
(machine-major), with symmetry-breaking cuts ``load_i >= load_{i+1}``
optionally added to help HiGHS prune machine permutations.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from repro._validation import check_machine_count, check_times
from repro.exact.bnb import BnBResult

__all__ = ["milp_makespan"]


def milp_makespan(
    times: Sequence[float],
    m: int,
    *,
    symmetry_breaking: bool = True,
    time_limit: float = 60.0,
) -> BnBResult:
    """Solve :math:`P||C_{max}` exactly via MILP.

    Returns a :class:`~repro.exact.bnb.BnBResult` (with ``nodes = -1``
    since HiGHS does not expose its node count through scipy).  Raises
    ``RuntimeError`` if the solver fails or times out without proving
    optimality.
    """
    ts = check_times(times)
    check_machine_count(m)
    n = len(ts)

    if m == 1:
        return BnBResult(sum(ts), tuple(0 for _ in ts), nodes=-1)
    if m >= n:
        return BnBResult(max(ts), tuple(range(n)), nodes=-1)

    n_vars = n * m + 1  # x_{ij} machine-major, then C
    c_idx = n * m
    objective = np.zeros(n_vars)
    objective[c_idx] = 1.0

    n_rows = n + m + (m - 1 if symmetry_breaking else 0)
    a = lil_matrix((n_rows, n_vars))
    lb = np.empty(n_rows)
    ub = np.empty(n_rows)
    row = 0
    # Each task on exactly one machine.
    for j in range(n):
        for i in range(m):
            a[row, i * n + j] = 1.0
        lb[row] = 1.0
        ub[row] = 1.0
        row += 1
    # Machine loads below C.
    for i in range(m):
        for j in range(n):
            a[row, i * n + j] = ts[j]
        a[row, c_idx] = -1.0
        lb[row] = -np.inf
        ub[row] = 0.0
        row += 1
    # Symmetry breaking: load_i >= load_{i+1}.
    if symmetry_breaking:
        for i in range(m - 1):
            for j in range(n):
                a[row, i * n + j] = ts[j]
                a[row, (i + 1) * n + j] = -ts[j]
            lb[row] = 0.0
            ub[row] = np.inf
            row += 1

    integrality = np.ones(n_vars)
    integrality[c_idx] = 0.0
    bounds = Bounds(
        lb=np.concatenate([np.zeros(n * m), [0.0]]),
        ub=np.concatenate([np.ones(n * m), [float(sum(ts))]]),
    )
    result = milp(
        objective,
        constraints=LinearConstraint(a.tocsr(), lb, ub),
        integrality=integrality,
        bounds=bounds,
        # HiGHS's default relative MIP gap (1e-4) would let it stop at a
        # provably-near-optimal incumbent; as an exactness oracle we need
        # the true optimum.
        options={"time_limit": time_limit, "mip_rel_gap": 0.0},
    )
    if not result.success or result.status != 0:
        raise RuntimeError(
            f"MILP solver failed (status={result.status}): {result.message}"
        )

    x = result.x[: n * m].reshape(m, n)
    assignment = [int(np.argmax(x[:, j])) for j in range(n)]
    loads = [0.0] * m
    for j, i in enumerate(assignment):
        loads[i] += ts[j]
    return BnBResult(max(loads), tuple(assignment), nodes=-1)
