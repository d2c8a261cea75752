"""Reference two-phase simplex that re-solves its basis systems every iteration.

Test-only oracle for eprlab.simplex: the same Bland's rules, tolerances,
drive-out order and final solve, but each iteration solves for the basic
solution, the duals and the entering direction afresh with np.linalg.solve,
and the phase-one feasibility test and the drive-out solve on the basis
too, where eprlab.simplex reads all of them from one pivoted tableau.
Inputs are trusted.
"""

from __future__ import annotations

import numpy as np

from eprlab.simplex import (
    FEAS_TOL,
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LPResult,
)


def _bland_iterate(tableau_a, b, c, basis, allowed, max_iterations):
    """Run simplex iterations in place on the basis list; returns (status, iterations)."""
    m, n = tableau_a.shape
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    for iteration in range(1, max_iterations + 1):
        basis_matrix = tableau_a[:, basis]
        x_basic = np.linalg.solve(basis_matrix, b)
        dual = np.linalg.solve(basis_matrix.T, c[basis])
        reduced = c - dual @ tableau_a
        entering = -1
        for j in range(n):
            if allowed[j] and not in_basis[j] and reduced[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, iteration
        direction = np.linalg.solve(basis_matrix, tableau_a[:, entering])
        ratios = [
            (x_basic[i] / direction[i], basis[i], i)
            for i in range(m)
            if direction[i] > PIVOT_TOL
        ]
        if not ratios:
            return UNBOUNDED, iteration
        min_ratio = min(r for r, _, _ in ratios)
        # Bland's leaving rule: among minimal ratios, lowest variable index.
        _, row = min((var, i) for r, var, i in ratios if r <= min_ratio + 1e-12)
        in_basis[basis[row]] = False
        in_basis[entering] = True
        basis[row] = entering
    raise RuntimeError(f"simplex failed to converge within {max_iterations} iterations")


def solve_lp(c, a_eq, b_eq, max_iterations=MAX_ITERATIONS) -> LPResult:
    """Minimize c . x subject to a_eq x = b_eq, x >= 0, re-solving every iteration."""
    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    cost = np.asarray(c, dtype=float)
    m, n = a.shape
    negative = b < 0.0
    a[negative] *= -1.0
    b[negative] *= -1.0

    full_a = np.hstack([a, np.eye(m)])
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    allowed = np.ones(n + m, dtype=bool)
    status, iters1 = _bland_iterate(full_a, b, phase1_cost, basis, allowed, max_iterations)
    if status != OPTIMAL:
        raise RuntimeError("phase one cannot be unbounded; inputs corrupted")
    x_basic = np.linalg.solve(full_a[:, basis], b)
    if float(phase1_cost[basis] @ x_basic) > FEAS_TOL:
        return LPResult(status=INFEASIBLE, x=None, objective=None, iterations=iters1,
                        phase_one_iterations=iters1)

    for row in range(m):
        if basis[row] < n:
            continue
        inverse_row = np.linalg.solve(full_a[:, basis].T, np.eye(m)[row])
        candidates = inverse_row @ a
        replacement = -1
        for j in range(n):
            if j not in basis and abs(candidates[j]) > PIVOT_TOL:
                replacement = j
                break
        if replacement < 0:
            raise RuntimeError("constraint matrix is rank deficient")
        basis[row] = replacement

    allowed[n:] = False
    phase2_cost = np.concatenate([cost, np.zeros(m)])
    status, iters2 = _bland_iterate(full_a, b, phase2_cost, basis, allowed, max_iterations)
    iterations = iters1 + iters2
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, x=None, objective=None, iterations=iterations,
                        phase_one_iterations=iters1)
    x = np.zeros(n + m)
    x[basis] = np.linalg.solve(full_a[:, basis], b)
    solution = np.clip(x[:n], 0.0, None)
    return LPResult(status=OPTIMAL, x=solution, objective=float(cost @ solution),
                    iterations=iterations, phase_one_iterations=iters1)
