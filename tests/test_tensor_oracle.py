"""Property tests: the correlation-tensor route against a Born-rule oracle.

eprlab reads every statistic off (r_A, r_B, T), and applies Eve's
intercept-resend channel as a map on them.  The oracle here takes the
other route: Kronecker products, projectors and traces of the 4x4 density
matrix, with its own Pauli matrices, settings and Bell vectors.  The two
routes must agree to 1e-12 on pure states, mixed states and product
mixtures, along arbitrary unit directions.  The states eprlab assembles
from (r_A, r_B, T) must equal their Kronecker-product or mixed-matrix
construction to 1e-12 and pass the public TwoQubitState checks.  The
batched joint-probability table must equal its scalar calls, and the
per-pair distributions, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprlab.hidden_variables import SeparableFunctional, separable_bound
from eprlab.protocol import InterceptResend, effective_state
from eprlab.qstate import (
    ATOL_PSD,
    ProductEnsemble,
    PureState,
    SpinSetting,
    TwoQubitState,
    correlator,
    density_from_pure,
    joint_probabilities,
    outcome_distribution,
    product_mixture,
    state_from_bloch,
    werner_state,
    _physical,
)
from eprlab.witnesses import (
    KSCase,
    bbm_statistic,
    bell_fidelities,
    ekert_statistic,
    ks_functional,
)

AGREE = 1e-12

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
EYE = np.eye(2, dtype=complex)
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
R = 1.0 / np.sqrt(2.0)
EKERT_TERMS = (  # (sign, Alice direction, Bob direction) at the default settings
    (1.0, (1, 0, 0), (R, R, 0)),
    (-1.0, (1, 0, 0), (-R, R, 0)),
    (1.0, (0, 1, 0), (R, R, 0)),
    (1.0, (0, 1, 0), (-R, R, 0)),
)
KS_SIGNS = {
    KSCase.CASE_I: (1, 1, -1),
    KSCase.CASE_II: (-1, -1, -1),
    KSCase.CASE_III: (1, -1, 1),
}
BELL_VECTORS = {
    "phi_plus": np.array([1, 0, 0, 1]) * R,
    "phi_minus": np.array([1, 0, 0, -1]) * R,
    "psi_plus": np.array([0, 1, 1, 0]) * R,
    "psi_minus": np.array([0, 1, -1, 0]) * R,
}
AXES = np.eye(3)


def spin(n) -> np.ndarray:
    return sum(c * s for c, s in zip(n, SIGMA))


def oracle_correlator(rho: np.ndarray, na, nb) -> float:
    return float(np.trace(rho @ np.kron(spin(na), spin(nb))).real)


def oracle_probabilities(rho: np.ndarray, na, nb) -> list[float]:
    """Born's rule, each probability within ATOL_PSD of zero read as 0.0, as documented."""
    born = [float(np.trace(rho @ np.kron((EYE + a * spin(na)) / 2, (EYE + b * spin(nb)) / 2)).real)
            for a, b in OUTCOMES]
    return [0.0 if p <= ATOL_PSD else p for p in born]


def oracle_statistics(rho: np.ndarray) -> dict:
    same_axis = [oracle_correlator(rho, axis, axis) for axis in AXES]
    stats = {
        "S": sum(sign * oracle_correlator(rho, a, b) for sign, a, b in EKERT_TERMS),
        "T": same_axis[0] + same_axis[2],
    }
    for case, signs in KS_SIGNS.items():
        stats[case] = 1.0 + float(np.dot(signs, same_axis))
    for name, vector in BELL_VECTORS.items():
        stats[name] = float(np.vdot(vector, rho @ vector).real)
    return stats


def oracle_intercept(rho: np.ndarray, axes) -> np.ndarray:
    """sum_+- (I (x) P+-) rho (I (x) P+-) for Bob's projectors along each axis, averaged."""
    out = np.zeros_like(rho)
    for d in axes:
        for sign in (1, -1):
            kron = np.kron(EYE, (EYE + sign * spin(d)) / 2)
            out += kron @ rho @ kron
    return out / len(axes)


def oracle_objective(functional: SeparableFunctional, u, v) -> float:
    """The functional on the pure product state with Bloch vectors u and v."""
    rho = np.kron((EYE + spin(u)) / 2, (EYE + spin(v)) / 2)
    stats = oracle_statistics(rho)
    if functional is SeparableFunctional.EKERT_S:
        return abs(stats["S"])
    if functional is SeparableFunctional.BBM_T:
        return abs(stats["T"])
    case = {
        SeparableFunctional.KS_I: KSCase.CASE_I,
        SeparableFunctional.KS_II: KSCase.CASE_II,
        SeparableFunctional.KS_III: KSCase.CASE_III,
    }[functional]
    return stats[case]


unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def unit_vectors(draw) -> np.ndarray:
    v = np.array(draw(st.tuples(unit_floats, unit_floats, unit_floats)))
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.array([0.0, 0.0, 1.0]), 1.0
    return v / norm


@st.composite
def ball_vectors(draw) -> np.ndarray:
    v = np.array(draw(st.tuples(unit_floats, unit_floats, unit_floats)))
    norm = np.linalg.norm(v)
    return v / norm if norm > 1.0 else v


@st.composite
def pure_states(draw) -> TwoQubitState:
    parts = np.array(draw(st.lists(unit_floats, min_size=8, max_size=8)))
    amplitudes = parts[:4] + 1j * parts[4:]
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-3:
        amplitudes, norm = np.array([0.0, 1.0, -1.0, 0.0]), np.sqrt(2.0)
    return density_from_pure(PureState(amplitudes / norm))


@st.composite
def mixed_states(draw) -> TwoQubitState:
    parts = np.array(draw(st.lists(unit_floats, min_size=32, max_size=32)))
    g = (parts[:16] + 1j * parts[16:]).reshape(4, 4) + 1e-3 * np.eye(4)
    m = g @ g.conj().T
    return TwoQubitState(m / m.trace())


@st.composite
def ensemble_terms(draw) -> list:
    """1-4 (weight, r_A, r_B) terms; ball_vectors gives interior and unit vectors alike."""
    n_terms = draw(st.integers(min_value=1, max_value=4))
    weights = np.array(
        draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n_terms, max_size=n_terms))
    )
    weights /= weights.sum()
    return [(w, draw(ball_vectors()), draw(ball_vectors())) for w in weights]


product_mixtures = ensemble_terms().map(lambda terms: product_mixture(ProductEnsemble(terms)))
states = st.one_of(pure_states(), mixed_states(), product_mixtures)
intercept_bases = st.one_of(st.sampled_from(["x", "z", "xz"]), unit_vectors())


def intercept_axes(basis) -> np.ndarray:
    """Eve's measurement axes for a named basis or one direction."""
    if isinstance(basis, str):
        return {"x": AXES[:1], "z": AXES[2:], "xz": AXES[::2]}[basis]
    return np.array([basis])


# The singlet measured along z and z tilted by 1e-5: two outcomes have Born probability
# 1.25e-11, which the package reads as 0.0.
SINGLET = density_from_pure(PureState(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)))
TILTED_Z = np.array([0.0, 1e-5, 1.0]) / np.hypot(1e-5, 1.0)


@settings(max_examples=150, deadline=None)
@given(state=states, na=unit_vectors(), nb=unit_vectors())
@example(state=SINGLET, na=np.array([0.0, 0.0, 1.0]), nb=TILTED_Z)
def test_tensor_route_matches_born_rule(state, na, nb):
    rho = state.matrix
    a, b = SpinSetting.alice(na), SpinSetting.bob(nb)
    assert correlator(state, a, b) == pytest.approx(oracle_correlator(rho, na, nb), abs=AGREE)
    probabilities = outcome_distribution(state, a, b)
    assert probabilities == pytest.approx(oracle_probabilities(rho, na, nb), abs=AGREE)

    oracle = oracle_statistics(rho)
    assert ekert_statistic(state) == pytest.approx(oracle["S"], abs=AGREE)
    assert bbm_statistic(state) == pytest.approx(oracle["T"], abs=AGREE)
    for case in KSCase:
        assert ks_functional(state, case) == pytest.approx(oracle[case], abs=AGREE)
    fidelities = bell_fidelities(state)
    for name in BELL_VECTORS:
        assert getattr(fidelities, name) == pytest.approx(oracle[name], abs=AGREE)


@settings(max_examples=150, deadline=None)
@given(state=states, basis=intercept_bases)
def test_intercept_resend_matches_projector_sandwich(state, basis):
    axes = intercept_axes(basis)
    eve = InterceptResend(basis=basis if isinstance(basis, str) else tuple(basis))
    got = effective_state(state, eve).matrix
    assert np.abs(got - oracle_intercept(state.matrix, axes)).max() <= AGREE


@settings(max_examples=150, deadline=None)
@given(terms=ensemble_terms(), w=st.floats(min_value=0.0, max_value=1.0), state=states,
       basis=intercept_bases)
def test_states_built_from_bloch_match_matrix_oracle(terms, w, state, basis):
    """Product mixtures, Werner states and intercept-resend images, each against its
    Kronecker-product or mixed-matrix construction, and each accepted by the public check."""
    singlet = np.outer(BELL_VECTORS["psi_minus"], BELL_VECTORS["psi_minus"])
    axes = intercept_axes(basis)
    keep = sum(np.outer(d, d) for d in axes) / len(axes)
    built = [
        (product_mixture(ProductEnsemble(terms)),
         sum(wk * np.kron((EYE + spin(a)) / 2, (EYE + spin(b)) / 2) for wk, a, b in terms)),
        (werner_state(w), w * singlet + (1.0 - w) * np.eye(4) / 4.0),
        (state_from_bloch(state.bloch_a, keep @ state.bloch_b, state.correlations @ keep),
         oracle_intercept(state.matrix, axes)),
    ]
    for got, oracle in built:
        assert np.abs(got.matrix - oracle).max() <= AGREE
        assert np.array_equal(TwoQubitState(got.matrix).matrix, got.matrix)


@pytest.mark.parametrize("functional", list(SeparableFunctional))
def test_supremum_attained_at_reported_argmax(functional):
    report = separable_bound(functional)
    value = oracle_objective(functional, report.argmax_bloch_a, report.argmax_bloch_b)
    assert value == pytest.approx(report.supremum, abs=AGREE)


@settings(max_examples=100, deadline=None)
@given(u=unit_vectors(), v=unit_vectors())
def test_no_product_state_exceeds_supremum(u, v):
    for functional in SeparableFunctional:
        supremum = separable_bound(functional).supremum
        assert oracle_objective(functional, u, v) <= supremum + AGREE


means = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(n_a=st.integers(1, 3), n_b=st.integers(1, 3), data=st.data())
def test_batched_joint_probabilities_match_scalar_calls(n_a, n_b, data):
    mean_a = np.array(data.draw(st.lists(means, min_size=n_a, max_size=n_a)))[:, None]
    mean_b = np.array(data.draw(st.lists(means, min_size=n_b, max_size=n_b)))
    mean_ab = np.array(data.draw(st.lists(means, min_size=n_a * n_b, max_size=n_a * n_b)))
    table = joint_probabilities(mean_a, mean_b, mean_ab.reshape(n_a, n_b))
    assert table.shape == (n_a, n_b, 4)
    for i in range(n_a):
        for j in range(n_b):
            scalar = joint_probabilities(float(mean_a[i, 0]), float(mean_b[j]),
                                         float(mean_ab[i * n_b + j]))
            assert scalar.shape == (4,)
            assert table[i, j].tobytes() == scalar.tobytes()


@settings(max_examples=150, deadline=None)
@given(state=states, alice=st.lists(unit_vectors(), min_size=1, max_size=3),
       bob=st.lists(unit_vectors(), min_size=1, max_size=3))
def test_probability_table_matches_outcome_distributions(state, alice, bob):
    """The (r_A, r_B, T) table run_protocol reads equals each pair's distribution."""
    table = joint_probabilities([[state.bloch_a @ a] for a in alice],
                                [state.bloch_b @ b for b in bob],
                                [[a @ state.correlations @ b for b in bob] for a in alice])
    for i, a in enumerate(alice):
        for j, b in enumerate(bob):
            dist = outcome_distribution(state, SpinSetting.alice(a), SpinSetting.bob(b))
            assert _physical(table[i, j]).tobytes() == dist.tobytes()
