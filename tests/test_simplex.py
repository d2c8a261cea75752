"""Tests for the two-phase equality-form simplex solver."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

import reference_simplex
from eprlab import hidden_variables, simplex
from eprlab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from test_hidden_variables import sixteenths


class TestBasicSolves:
    def test_single_constraint_vertex(self):
        """min -x1 on the simplex x1 + x2 = 1 puts all mass on x1."""
        result = solve_lp([-1.0, 0.0], [[1.0, 1.0]], [1.0])
        assert result.status == OPTIMAL
        assert result.x == pytest.approx([1.0, 0.0], abs=1e-9)
        assert result.objective == pytest.approx(-1.0, abs=1e-9)

    def test_two_constraints(self):
        """min x1 + x2 with x1 + 2 x2 = 4 and 3 x1 + x2 = 7."""
        result = solve_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 7.0])
        assert result.status == OPTIMAL
        assert result.x == pytest.approx([2.0, 1.0], abs=1e-9)
        assert result.objective == pytest.approx(3.0, abs=1e-9)

    def test_negative_rhs_handled(self):
        """Rows are reoriented so a negative right-hand side still solves."""
        result = solve_lp([1.0, 1.0], [[-1.0, -2.0], [3.0, 1.0]], [-4.0, 7.0])
        assert result.status == OPTIMAL
        assert result.x == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_zero_objective_is_feasibility_check(self):
        result = solve_lp([0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])
        assert result.status == OPTIMAL
        assert result.x.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.x.min() >= -1e-12


class TestStatuses:
    def test_infeasible_by_sign(self):
        """x1 + x2 = -1 has no nonnegative solution."""
        result = solve_lp([0.0, 0.0], [[1.0, 1.0]], [-1.0])
        assert result.status == INFEASIBLE
        assert result.x is None
        assert result.objective is None

    def test_infeasible_by_contradiction(self):
        result = solve_lp([0.0], [[1.0], [1.0]], [1.0, 2.0])
        assert result.status == INFEASIBLE

    def test_feasibility_tolerance_boundary(self):
        """A phase-one residual of exactly 1e-8 counts as feasible; one ulp more does not."""
        result = solve_lp([0.0], [[1.0]], [-1e-8])
        assert result.status == OPTIMAL
        assert result.x.tolist() == [0.0]
        assert solve_lp([0.0], [[1.0]], [-math.nextafter(1e-8, 1)]).status == INFEASIBLE

    def test_reduced_cost_must_fall_below_minus_pivot_tol(self):
        """From the vertex x1 = 1, x2 enters only when its reduced cost lies below -PIVOT_TOL:
        -1e-9 stays put, one ulp lower pivots to x2 = 1."""
        for cost, vertex in ((-1e-9, [1.0, 0.0]), (float(np.nextafter(-1e-9, -1.0)), [0.0, 1.0])):
            result = solve_lp([0.0, cost], [[1.0, 1.0]], [1.0])
            assert result.status == OPTIMAL and result.x.tolist() == vertex

    @pytest.mark.parametrize("gap, leaving_var", [(1e-12, 0), (math.nextafter(1e-12, 1), 1)])
    def test_ratios_within_1e_12_of_the_least_tie(self, gap, leaving_var):
        """Column 2 enters with ratios 0 (row 0, basic var 1) and gap (row 1, basic var 0): a
        gap of 1e-12 ties, and Bland's rule lets the lower variable, 0, leave; one ulp more
        does not tie, and the least ratio's row leaves."""
        tab = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, gap], [0.0, 0.0, -1.0, 0.0]])
        basis = [1, 0]
        assert simplex._bland_iterate(tab, basis) == (OPTIMAL, 2)
        assert leaving_var not in basis and 2 in basis

    @pytest.mark.parametrize("d, leaving_var", [(1e-9, 1), (math.nextafter(1e-9, 1), 0)])
    def test_pivot_element_must_exceed_pivot_tol(self, d, leaving_var):
        """Row 0 (basic var 0, ratio 0 / d) joins the ratio test only when d > PIVOT_TOL;
        otherwise row 1 (basic var 1, ratio 1) is the only one, and var 1 leaves."""
        tab = np.array([[1.0, 0.0, d, 0.0], [0.0, 1.0, 1.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
        basis = [0, 1]
        simplex._bland_iterate(tab, basis)
        assert leaving_var not in basis and 2 in basis

    def test_unbounded(self):
        """min -x1 with only x2 pinned lets x1 grow without limit."""
        result = solve_lp([-1.0, 0.0], [[0.0, 1.0]], [1.0])
        assert result.status == UNBOUNDED
        assert result.x is None

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            solve_lp([1.0], [1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="mismatch"):
            solve_lp([1.0, 2.0, 3.0], [[1.0, 1.0]], [1.0])

    @pytest.mark.parametrize("name, c, a, b", [
        ("c", [np.nan, 0.0], [[1.0, 1.0]], [1.0]),
        ("c", [-np.inf, 0.0], [[1.0, 1.0]], [1.0]),
        ("a_eq", [0.0, 0.0], [[np.nan, 1.0]], [1.0]),
        ("a_eq", [0.0, 0.0], [[1.0, np.inf]], [1.0]),
        ("b_eq", [0.0, 0.0], [[1.0, 1.0]], [np.inf]),
        ("b_eq", [0.0, 0.0], [[1.0, 1.0]], [np.nan]),
    ])
    def test_non_finite_input_rejected(self, name, c, a, b):
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite value"):
            solve_lp(c, a, b)

    def test_iteration_cap_counts_pivots(self, monkeypatch):
        """The cap is read at call time; one too small to finish a phase raises."""
        c, a, b = [1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 7.0]
        full = solve_lp(c, a, b)
        needed = max(full.phase_one_iterations, full.iterations - full.phase_one_iterations)
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", needed)
        assert solve_lp(c, a, b).status == OPTIMAL
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match="within 1 iterations"):
            solve_lp(c, a, b)

    def test_leftover_artificial_is_driven_out(self):
        """Phase one ends with an artificial basic at zero; it is pivoted onto x1."""
        system = ([-2.0, 2.0], [[-2.0, -2.0], [0.0, 2.0]], [-2.0, 2.0])
        result = solve_lp(*system)
        assert result.status == OPTIMAL
        assert result.x.tolist() == [0.0, 1.0]
        assert_same_solve(system)

    def test_rank_deficient_constraints_raise(self):
        """A redundant row leaves an artificial that no original column can replace."""
        with pytest.raises(RuntimeError, match="^constraint matrix is rank deficient$"):
            solve_lp([0.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])


class TestDeterminism:
    def test_degenerate_problem_repeats_identically(self):
        """A degenerate vertex is resolved the same way every run."""
        c = [0.0, 0.0, -1.0, 2.0]
        a = [[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0]]
        b = [1.0, 0.0]
        first = solve_lp(c, a, b)
        for _ in range(5):
            again = solve_lp(c, a, b)
            assert again.status == first.status
            assert np.array_equal(again.x, first.x)
            assert again.iterations == first.iterations


class TestRandomProblems:
    def test_constructed_feasible_problems_solve(self):
        """Problems built around a known feasible point always come back optimal."""
        rng = np.random.default_rng(61)
        for _ in range(100):
            m, n = 4, 9
            a = rng.normal(size=(m, n))
            x0 = rng.random(n)
            b = a @ x0
            c = rng.normal(size=n)
            result = solve_lp(c, a, b)
            assert result.status in (OPTIMAL, UNBOUNDED)
            if result.status == OPTIMAL:
                assert np.allclose(a @ result.x, b, atol=1e-7)
                assert result.x.min() >= -1e-9
                # The optimum cannot exceed the value at the feasible seed.
                assert result.objective <= c @ x0 + 1e-7

    def test_convex_weight_problems(self):
        """Normalization plus random moment constraints, as the callers use it."""
        rng = np.random.default_rng(67)
        for _ in range(50):
            signs = rng.choice([-1.0, 1.0], size=(3, 16))
            weights = rng.dirichlet(np.ones(16))
            a = np.vstack([np.ones(16), signs])
            b = a @ weights
            result = solve_lp(np.zeros(16), a, b)
            assert result.status == OPTIMAL
            assert np.allclose(a @ result.x, b, atol=1e-8)
            assert result.x.min() >= -1e-9


LINPROG_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


@st.composite
def lp_systems(draw):
    """(c, a_eq, b_eq) of full row rank, feasible or infeasible by construction."""
    def small_ints(shape, low, high):
        return draw(arrays(np.float64, shape, elements=st.integers(low, high).map(float)))

    m = draw(st.integers(1, 5))
    n = draw(st.integers(m, 10))
    a = small_ints((m, n), -4, 4)
    c = small_ints((n,), -5, 5)
    if draw(st.booleans()):
        # Feasible around a known x0 >= 0; a row of ones, when drawn, keeps the optimum finite.
        if draw(st.booleans()):
            a[0] = 1.0
        b = a @ small_ints((n,), 0, 3)
    else:
        # Infeasible by Farkas: y.a = z >= 0 while y.b < 0, so no x >= 0 has a x = b.
        y = small_ints((m,), -3, 3)
        assume(y.any())
        a += np.outer(y, small_ints((n,), 0, 3) - y @ a) / (y @ y)
        b = small_ints((m,), -4, 4)
        b -= y * (y @ b + draw(st.integers(1, 4))) / (y @ y)
    assume(np.linalg.matrix_rank(a) == m)
    return c, a, b


@settings(max_examples=300, deadline=None)
@given(lp_systems())
def test_agrees_with_linprog_oracle(system):
    """Status and optimal objective match SciPy's HiGHS solver on random systems."""
    c, a, b = system
    ours = solve_lp(c, a, b)
    oracle = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert ours.status == LINPROG_STATUS[oracle.status], oracle.message
    if ours.status == OPTIMAL:
        assert abs(ours.objective - oracle.fun) <= 1e-7


def fine_system(values):
    """Fine's LP for a quad (four correlators, four marginals), as fine_local_model poses it."""
    cost = np.zeros(17)
    cost[16] = -1.0
    return cost, hidden_variables._FINE_A_EQ, np.array([1.0, *values])


def assert_same_solve(system):
    """The tableau solver and the re-solving reference agree bit for bit."""
    ours, reference = solve_lp(*system), reference_simplex.solve_lp(*system)
    assert (ours.status, ours.iterations, ours.phase_one_iterations) == (
        reference.status, reference.iterations, reference.phase_one_iterations)
    assert 1 <= ours.phase_one_iterations <= ours.iterations
    if reference.x is None:
        assert ours.x is None and ours.objective is None
    else:
        assert ours.x.tobytes() == reference.x.tobytes()
        assert ours.objective.hex() == reference.objective.hex()


@settings(max_examples=300, deadline=None)
@given(lp_systems())
def test_pivots_match_resolving_reference(system):
    assert_same_solve(system)


@settings(max_examples=300, deadline=None)
@given(st.lists(sixteenths, min_size=8, max_size=8))
def test_fine_pivots_match_resolving_reference(values):
    assert_same_solve(fine_system(values))


def solve_checking_basis(system):
    """solve_lp with every basic column checked, on entry to each phase and after each pivot.

    Bland's entering test reads only the reduced-cost row, so it relies on
    basic columns being exact unit vectors with reduced cost exactly 0.0.
    """
    bland_iterate, pivot = simplex._bland_iterate, simplex._pivot
    seen = {"basis": None, "phases": 0, "pivots": 0}

    def assert_exact(tab, basis):
        columns = tab[:, basis]
        assert np.array_equal(columns[:-1], np.eye(len(basis))), columns
        assert (columns[-1] == 0.0).all(), columns[-1]

    def checked_bland_iterate(tab, basis):
        seen["basis"] = basis
        seen["phases"] += 1
        assert_exact(tab, basis)
        return bland_iterate(tab, basis)

    def checked_pivot(tab, row, col):
        pivot(tab, row, col)
        seen["pivots"] += 1
        after = list(seen["basis"])
        after[row] = col  # Bland's loop records the entering column just after the pivot
        assert_exact(tab, after)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_bland_iterate", checked_bland_iterate)
        patch.setattr(simplex, "_pivot", checked_pivot)
        result = solve_lp(*system)
    assert seen["phases"] == (1 if result.status == INFEASIBLE else 2)
    assert seen["pivots"] >= result.iterations - seen["phases"]


@settings(max_examples=300, deadline=None)
@given(lp_systems())
def test_basic_columns_stay_exact_unit_vectors(system):
    solve_checking_basis(system)


@settings(max_examples=300, deadline=None)
@given(st.lists(sixteenths, min_size=8, max_size=8))
def test_fine_basic_columns_stay_exact_unit_vectors(values):
    solve_checking_basis(fine_system(values))
