"""Dense two-phase simplex for small equality-form linear programs.

Solves min c . x subject to A x = b, x >= 0 with Bland's entering and
leaving rules, which guarantee termination without cycling and make the
returned vertex deterministic.  Sized for problems with tens of variables.
Each phase solves its starting basis once into a dense tableau
B^-1 [A | b] with a reduced-cost row beneath it, then moves between
vertices by rank-one pivots on that tableau.  The phase-one feasibility
test, the drive-out of leftover artificials and the returned point are
read from fresh solves on the final basis, so the answer depends on the
tableau only through the sequence of pivots it chose.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

Array = np.ndarray

PIVOT_TOL = 1e-9  # reduced-cost and pivot-element threshold
FEAS_TOL = 1e-8   # feasibility threshold on the phase-one objective
MAX_ITERATIONS = 10_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Solver outcome: status plus the optimal point when one exists.

    iterations counts both phases; phase_one_iterations is phase one's share.
    """

    status: str
    x: Optional[Array]
    objective: Optional[float]
    iterations: int
    phase_one_iterations: int


def _bland_iterate(
    tableau_a: Array,
    b: Array,
    c: Array,
    basis: list[int],
    allowed: Array,
    max_iterations: int,
) -> tuple[str, int]:
    """Run simplex iterations in place on the basis list.

    allowed masks the columns eligible to enter (artificials are barred in
    phase two).  Returns (status, iterations).
    """
    m, n = tableau_a.shape
    can_enter = allowed.copy()
    can_enter[basis] = False
    # Rows 0..m-1 hold B^-1 [A | b]; row m holds the reduced costs c - c_B B^-1 A.
    tab = np.linalg.solve(tableau_a[:, basis], np.column_stack([tableau_a, b]))
    tab = np.vstack([tab, np.append(c, 0.0) - c[basis] @ tab])
    reduced = tab[m, :n]
    for iteration in range(1, max_iterations + 1):
        eligible = can_enter & (reduced < -PIVOT_TOL)
        entering = int(eligible.argmax())  # Bland: the first eligible column
        if not eligible[entering]:
            return OPTIMAL, iteration
        direction = tab[:m, entering].tolist()
        ratios = [(x / d, i) for i, (x, d) in enumerate(zip(tab[:m, n].tolist(), direction))
                  if d > PIVOT_TOL]
        if not ratios:
            return UNBOUNDED, iteration
        min_ratio = min(ratios)[0]
        # Bland's leaving rule: among minimal ratios, lowest variable index.
        row = min((i for r, i in ratios if r <= min_ratio + 1e-12), key=basis.__getitem__)
        pivot_row = tab[row] / direction[row]
        tab -= tab[:, entering, None] * pivot_row
        tab[row] = pivot_row
        can_enter[basis[row]] = allowed[basis[row]]
        can_enter[entering] = False
        basis[row] = entering
    raise RuntimeError(f"simplex failed to converge within {max_iterations} iterations")


def solve_lp(
    c: Sequence[float],
    a_eq: Sequence[Sequence[float]],
    b_eq: Sequence[float],
    max_iterations: int = MAX_ITERATIONS,
) -> LPResult:
    """Minimize c . x subject to a_eq x = b_eq, x >= 0.

    Phase one minimizes the sum of artificial variables from the identity
    basis; phase two re-optimizes the original objective with artificials
    barred from entering.  Assumes a_eq has full row rank.  Raises
    ValueError on non-finite data or max_iterations below 1, and TypeError
    when max_iterations is not an integer.
    """
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float).copy()
    cost = np.asarray(c, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"constraint matrix must be 2-d, got shape {a.shape}")
    m, n = a.shape
    if b.shape != (m,) or cost.shape != (n,):
        raise ValueError("objective or right-hand side shape mismatch")
    for name, values in (("c", cost), ("a_eq", a), ("b_eq", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
    try:
        max_iterations = operator.index(max_iterations)
    except TypeError:
        raise TypeError(f"max_iterations must be an integer, got {max_iterations!r}") from None
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")

    # Orient rows so the identity basis of artificials is feasible.
    a = a.copy()
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

    # Pivot any artificial still in the basis out onto an original column.
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
    return LPResult(
        status=OPTIMAL,
        x=solution,
        objective=float(cost @ solution),
        iterations=iterations,
        phase_one_iterations=iters1,
    )
