"""The paper's implications as exact statements over every two-qubit state.

At the default settings each statistic is an affine function of the four
Bell fidelities f = (f_phi+, f_phi-, f_psi+, f_psi-):

    S = 2 sqrt(2) (f_psi+ - f_psi-),   T = 2 (f_phi+ - f_psi-),   U_k = 4 f_k,

with U1, U2, U3 the fidelities with psi+, psi- and phi+.  The Pauli twirl
(1/4) sum_k (sigma_k (x) sigma_k) rho (sigma_k (x) sigma_k) keeps every
statistic and every fidelity and maps rho onto the Bell-diagonal state
sum_k f_k |bell_k><bell_k|, so the closed forms, checked on the four Bell
states, hold for every state, and f ranges over the whole probability
simplex.  Each implication of acceptance criterion 07 (a violated S or T
forces some U above 2, hence a Bell fidelity above 1/2) then says that
the statistic cannot pass its bound on the part of the simplex where the
conclusion fails.  That maximum is computed two ways: by the package's
own simplex solver, and by exact enumeration of the vertices in rational
arithmetic.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprlab.qstate import (
    IDENTITY_2,
    PAULI_VECTOR,
    BellLabel,
    TwoQubitState,
    bell_state,
    density_from_pure,
)
from eprlab.simplex import OPTIMAL, solve_lp
from eprlab.witnesses import (
    BBM_BOUND,
    EKERT_BOUND,
    KSCase,
    bbm_statistic,
    bell_fidelities,
    ekert_statistic,
    ks_functional,
)
from test_qstate import random_density

SQRT2 = float(np.sqrt(2.0))
# Each statistic as (read from the package, unit, integer coefficients on the
# fidelities in BellLabel order); the statistic is unit * coefficients . f.
STATISTICS = {
    "S": (ekert_statistic, 2.0 * SQRT2, (0, 0, 1, -1)),
    "T": (bbm_statistic, 2.0, (1, 0, 0, -1)),
    **{f"U{n}": (lambda state, case=case: ks_functional(state, case), 4.0,
                 tuple(int(label is case.bell_label) for label in BellLabel))
       for n, case in enumerate(KSCase, 1)},
}
# (statistic, sign, bound, conclusion): sign * statistic > bound forces the
# conclusion's U above 2, that is its Bell fidelity above 1/2.
IMPLICATIONS = [
    ("S", 1, EKERT_BOUND, "U1"),
    ("S", -1, EKERT_BOUND, "U2"),
    ("T", 1, BBM_BOUND, "U3"),
    ("T", -1, BBM_BOUND, "U2"),
]
IDS = [f"{'+' if sign > 0 else '-'}{name}-{u}" for name, sign, _, u in IMPLICATIONS]


def premise_polytope(conclusion: str):
    """The fidelity simplex where the conclusion fails, in equality form over (f, slack):
    sum f = 1 and f_k + slack = 1/2, with f_k the conclusion's fidelity."""
    k = STATISTICS[conclusion][2].index(1)
    a_eq = [[1, 1, 1, 1, 0], [int(i == k) for i in range(4)] + [1]]
    return a_eq, [1, Fraction(1, 2)]


@pytest.mark.parametrize("label", list(BellLabel))
def test_closed_forms_on_the_bell_states(label):
    state = density_from_pure(bell_state(label))
    fidelities = np.array(bell_fidelities(state).as_tuple())
    np.testing.assert_allclose(fidelities, [float(lbl is label) for lbl in BellLabel],
                               rtol=0.0, atol=1e-15)
    for name, (read, unit, coefficients) in STATISTICS.items():
        assert abs(read(state) - unit * (np.array(coefficients) @ fidelities)) <= 1e-15, name


def twirl(matrix: np.ndarray) -> np.ndarray:
    """(1/4) sum_k (sigma_k (x) sigma_k) rho (sigma_k (x) sigma_k), sigma_0 = I."""
    pairs = [np.kron(p, p) for p in (IDENTITY_2, *PAULI_VECTOR)]
    return sum(p @ matrix @ p for p in pairs) / 4.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), label=st.sampled_from(BellLabel),
       weight=st.floats(0.0, 1.0))
def test_twirl_keeps_every_statistic_and_fidelity(seed, label, weight):
    bell = density_from_pure(bell_state(label)).matrix
    state = TwoQubitState(weight * bell
                          + (1.0 - weight) * random_density(np.random.default_rng(seed)).matrix)
    twirled = TwoQubitState(twirl(state.matrix))
    close = dict(rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(twirled.bloch_a, 0.0, **close)
    np.testing.assert_allclose(twirled.bloch_b, 0.0, **close)
    np.testing.assert_allclose(twirled.correlations, np.diag(np.diag(state.correlations)),
                               **close)
    np.testing.assert_allclose(bell_fidelities(twirled).as_tuple(),
                               bell_fidelities(state).as_tuple(), **close)
    for name, (read, _, _) in STATISTICS.items():
        assert abs(read(twirled) - read(state)) <= 1e-12, name


@pytest.mark.parametrize("name, sign, bound, conclusion", IMPLICATIONS, ids=IDS)
def test_implication_by_the_simplex(name, sign, bound, conclusion):
    """Maximizing sign * statistic where the conclusion fails reaches exactly the bound."""
    _, unit, coefficients = STATISTICS[name]
    a_eq, b_eq = premise_polytope(conclusion)
    cost = [-sign * unit * c for c in coefficients] + [0.0]
    result = solve_lp(cost, a_eq, [float(b) for b in b_eq])
    assert result.status == OPTIMAL
    assert abs(-result.objective - bound) <= 1e-12
    assert abs(result.x[:4].sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("name, sign, bound, conclusion", IMPLICATIONS, ids=IDS)
def test_implication_by_vertex_enumeration(name, sign, bound, conclusion):
    """Every basic feasible point of the premise polytope, in exact arithmetic: the maximum
    of sign * statistic is exactly 1/2 in units of 2 sqrt(2) or 2."""
    _, unit, coefficients = STATISTICS[name]
    assert unit / 2 == bound
    a_eq, b_eq = premise_polytope(conclusion)
    values = []
    for i, j in itertools.combinations(range(5), 2):  # two constraints, two basic columns
        (a, b), (c, d) = ((row[i], row[j]) for row in a_eq)
        det = a * d - b * c
        if det == 0:
            continue
        x = [Fraction(0)] * 5
        x[i] = Fraction(b_eq[0] * d - b * b_eq[1], det)
        x[j] = Fraction(a * b_eq[1] - c * b_eq[0], det)
        if min(x) >= 0:
            values.append(sign * sum(k * f for k, f in zip(coefficients, x)))
    assert len(values) >= 4
    assert max(values) == Fraction(1, 2)
