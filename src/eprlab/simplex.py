"""Dense two-phase simplex for small equality-form linear programs.

Solves min c . x subject to A x = b, x >= 0 with Bland's entering and
leaving rules, which guarantee termination without cycling and make the
returned vertex deterministic.  Sized for problems with tens of variables.
One dense tableau lives from the first pivot to the end: phase one starts
from [A | I | b], already the tableau of the identity basis of
artificials, and phase two continues on it with the artificial columns
deleted.  Feasibility is read from its objective cell.  Only the returned
point is solved afresh on the final basis, so the answer depends on the
tableau only through the sequence of pivots it chose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

Array = np.ndarray

PIVOT_TOL = 1e-9  # reduced-cost and pivot-element threshold
_BELOW = np.array(-PIVOT_TOL)  # 0-d: an array operand spares each entering test a conversion
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


def _pivot(tab: Array, row: int, col: int) -> None:
    """Pivot the tableau in place so column col becomes basic in row."""
    pivot_row = tab[row] / tab[row, col]
    tab -= tab[:, col:col + 1] * pivot_row
    tab[row] = pivot_row


def _bland_iterate(tab: Array, basis: list[int]) -> tuple[str, int]:
    """Run simplex iterations in place on the tableau and the basis list.

    Rows 0..m-1 of tab hold B^-1 [A | b]; row m holds the reduced costs,
    with minus the objective in its last cell.  Basic columns are exact unit
    vectors with reduced cost exactly 0.0, as _pivot keeps them (x / x == 1.0
    and x - x * 1.0 == 0.0), so the reduced-cost row alone names the entering
    column.  Returns (status, iterations), and raises RuntimeError past
    MAX_ITERATIONS, read at call time.
    """
    m, n = len(basis), tab.shape[1] - 1
    reduced = tab[m, :n]
    for iteration in range(1, MAX_ITERATIONS + 1):
        eligible = reduced < _BELOW
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
        _pivot(tab, row, entering)
        basis[row] = entering
    raise RuntimeError(f"simplex failed to converge within {MAX_ITERATIONS} iterations")


def solve_lp(
    c: Sequence[float],
    a_eq: Sequence[Sequence[float]],
    b_eq: Sequence[float],
) -> LPResult:
    """Minimize c . x subject to a_eq x = b_eq, x >= 0.

    Phase one minimizes the sum of artificial variables from the identity
    basis; phase two re-optimizes the original objective with the
    artificial columns deleted.  Assumes a_eq has full row rank.  Raises
    ValueError on non-finite data, and RuntimeError if either phase needs
    more than MAX_ITERATIONS pivots.
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

    # Orient rows so the identity basis of artificials is feasible.
    a = a.copy()
    negative = b < 0.0
    a[negative] *= -1.0
    b[negative] *= -1.0

    # Phase one: [A | I | b] is already the tableau of the identity basis of
    # artificials, and the reduced costs of their sum are minus A's column sums.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n], tab[:m, n:n + m], tab[:m, -1] = a, np.eye(m), b
    tab[m] = -tab[:m].sum(axis=0)
    tab[m, n:n + m] = 0.0
    basis = list(range(n, n + m))
    status, iters1 = _bland_iterate(tab, basis)
    if status != OPTIMAL:
        raise RuntimeError("phase one cannot be unbounded; inputs corrupted")
    if -tab[m, -1] > FEAS_TOL:
        return LPResult(status=INFEASIBLE, x=None, objective=None, iterations=iters1,
                        phase_one_iterations=iters1)

    # Pivot any artificial still in the basis out onto an original column.
    # Basic columns are unit vectors, so their entry in this row is zero.
    for row in range(m):
        if basis[row] < n:
            continue
        candidates = np.flatnonzero(np.abs(tab[row, :n]) > PIVOT_TOL)
        if not candidates.size:
            raise RuntimeError("constraint matrix is rank deficient")
        basis[row] = int(candidates[0])
        _pivot(tab, row, basis[row])

    # Phase two drops the artificial columns and prices the real costs; a basic
    # column's price is c_j - c_j * 1.0, exactly 0.0.
    tab = np.concatenate([tab[:, :n], tab[:, -1:]], axis=1)
    tab[m] = np.append(cost, 0.0) - cost[basis] @ tab[:m]
    status, iters2 = _bland_iterate(tab, basis)
    iterations = iters1 + iters2
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, x=None, objective=None, iterations=iterations,
                        phase_one_iterations=iters1)
    x = np.zeros(n)
    x[basis] = np.linalg.solve(a[:, basis], b)
    solution = np.clip(x, 0.0, None)
    return LPResult(
        status=OPTIMAL,
        x=solution,
        objective=float(cost @ solution),
        iterations=iterations,
        phase_one_iterations=iters1,
    )
