"""Every state TwoQubitState accepts runs end to end, down to its eigenvalue floor.

The floor admits a least eigenvalue of -ATOL_PSD.  A projector's mean is at
least the least eigenvalue, so every probability and Bell fidelity reads at
least PROJECTOR_FLOOR (-ATOL_PSD less a rounding allowance), and each alarm
derives its threshold from that: _physical at probability scale, ks_verdict
at 4 f, BellFidelities at f, and the Tsirelson guard at rho's trace norm.
Eve's image of such a state is not checked again; it keeps the source's floor
less rounding, so the key simulation runs under every eavesdropper.  A state at
the floor of a separable one certifies nothing: VERDICT_SLACK covers what the
floor can add to a statistic.  The checks the builder of the package's own
states drops hold on every state it builds.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eprlab import cli, protocol, witnesses
from eprlab.hidden_variables import (
    SeparableFunctional,
    chsh_panel,
    fine_local_model,
    quad_from_state,
    separable_bound,
)
from eprlab.protocol import (
    InterceptResend,
    NoEve,
    Protocol,
    ProtocolConfig,
    SeparableSubstitution,
    effective_state,
    run_protocol,
)
from eprlab.qstate import (
    _BELL_AMPLITUDES,
    ATOL_CONSTRUCT,
    ATOL_DERIVED,
    ATOL_PSD,
    BELL_CORRELATORS,
    PROJECTOR_FLOOR,
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    TwoQubitState,
    X_AXIS,
    Z_AXIS,
    outcome_distribution,
    product_mixture,
    werner_state,
)
from eprlab.witnesses import (
    BellFidelities,
    KSCase,
    bbm_verdict,
    bell_fidelities,
    default_ekert_settings,
    distillable_witness,
    ekert_verdict,
    fidelity_identities_check,
    ks_verdict,
)

from conftest import ordered_dot, ordered_mixture
from test_tensor_oracle import EYE, SIGMA, intercept_bases, states as oracle_states

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# Columns are eigenvectors: the z-z and x-x product bases and the Bell basis.
ALIGNED_BASES = {"zz": np.eye(4), "xx": np.kron(_HADAMARD, _HADAMARD), "bell": _BELL_AMPLITUDES.T}


# Every eavesdropper model: intercept-resend along x, z, a coin between them and a tilted
# direction, and a separable substitute.
EVES = {
    "none": NoEve(),
    "x": InterceptResend("x"),
    "z": InterceptResend("z"),
    "xz": InterceptResend("xz"),
    "tilted": InterceptResend((0.6, 0.0, 0.8)),
    "substitution": SeparableSubstitution(
        ProductEnsemble([(0.6, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
                         (0.4, (0.6, 0.0, 0.8), (-1.0, 0.0, 0.0))])),
}


def state_with_spectrum(eigenvalues, eigenvectors) -> TwoQubitState:
    return TwoQubitState((eigenvectors * eigenvalues) @ eigenvectors.conj().T)


def least_eigenvalue(state: TwoQubitState) -> float:
    """The least eigenvalue of the matrix's Hermitian part, which every expectation reads."""
    m = state.matrix
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())


def run_chain(state: TwoQubitState) -> None:
    """Every verdict, the Fine chain and both protocol flavours under every eavesdropper;
    none may raise.  Eve's image is a separable state or a mixture of unitary conjugations
    of the source, so its least eigenvalue is at least the source's, less rounding."""
    ekert_verdict(state)
    bbm_verdict(state)
    fidelity_identities_check(state)
    distilled = distillable_witness(state)
    for case in KSCase:
        if ks_verdict(state, case).violated:
            assert distilled.distillable
    for a in (X_AXIS, Z_AXIS):
        outcome_distribution(state, SpinSetting.alice(a), SpinSetting.bob(a))
    quad = quad_from_state(state, default_ekert_settings())
    chsh_panel(quad)
    fine_local_model(quad)
    for eve in EVES.values():
        assert least_eigenvalue(effective_state(state, eve)) >= least_eigenvalue(state) - 1e-14
        for flavour in Protocol:
            run_protocol(ProtocolConfig(protocol=flavour, rounds=2_000, seed=3, source_state=state,
                                        eve=eve))


class TestStatesAtTheFloor:
    def test_z_z_diagonal_state_runs_end_to_end(self):
        """Its z-z probability read off (r_A, r_B, T) is -1.000000082740371e-10, below -ATOL_PSD
        by rounding; _physical and the BBM92 run raised 'negative probability -1.000e-10'."""
        e = ATOL_PSD
        state = TwoQubitState(np.diag([0.5 + e, 0.5 + e, -e, -e]))
        probs = outcome_distribution(state, SpinSetting.alice(Z_AXIS), SpinSetting.bob(Z_AXIS))
        assert probs.tolist() == [0.5000000001, 0.5000000001, 0.0, 0.0]
        run_chain(state)

    def test_singlet_fidelity_below_zero_runs_end_to_end(self):
        """-e |Psi-><Psi-| + (1 + e)/3 (I - |Psi-><Psi-|): f(psi-minus) reads -5e-11, and
        ks_verdict's alarm raised 'assignment functional -2.0e-10 negative'."""
        e = 5e-11
        singlet = np.outer(_BELL_AMPLITUDES[3], _BELL_AMPLITUDES[3].conj())
        state = TwoQubitState(-e * singlet + (1.0 + e) / 3.0 * (np.eye(4) - singlet))
        assert bell_fidelities(state).psi_minus == pytest.approx(-e, abs=1e-15)
        assert ks_verdict(state, KSCase.CASE_II).statistic == pytest.approx(-4 * e, abs=1e-15)
        run_chain(state)

    def test_intercept_image_of_a_diagonal_state_at_the_floor_runs_end_to_end(self):
        """Rebuilt through the constructor, Eve's z or xz image read its least eigenvalue as
        -1.000e-10, past the floor by rounding, and both flavours raised 'negative eigenvalue'."""
        e = ATOL_PSD
        run_chain(TwoQubitState(np.diag([1.0 + 3.0 * e, -e, -e, -e])))

    @pytest.mark.parametrize("basis", ALIGNED_BASES)
    @pytest.mark.parametrize("top", [1, 2], ids=["rank-one", "rank-two"])
    def test_aligned_states_with_three_eigenvalues_at_the_floor_run_end_to_end(self, basis, top):
        """One or two eigenvalues carry the weight, and the rest sit at -ATOL_PSD (scaled just
        inside it, as building the matrix rounds)."""
        e = 0.999 * ATOL_PSD
        for k in range(4):
            eigenvalues = np.full(4, -e)
            eigenvalues[[(k + j) % 4 for j in range(top)]] = (1.0 + (4 - top) * e) / top
            run_chain(state_with_spectrum(eigenvalues, ALIGNED_BASES[basis]))


def test_floor_is_checked_on_the_hermitian_part():
    """An upper triangle off by 0.99e-12 (inside ATOL_CONSTRUCT) hides -1.012e-10 from a
    check that reads one triangle; the x-x probability reads the Hermitian part's eigenvalue,
    so BBM92 raised 'negative probability -1.012e-10'.  The constructor now refuses it."""
    xx = ALIGNED_BASES["xx"]
    least = -ATOL_PSD + 3e-13
    hermitian = state_with_spectrum(np.array([least, *[(1.0 - least) / 3.0] * 3]), xx).matrix
    signs = np.sign(np.outer(xx[:, 0], xx[:, 0]))
    skewed = hermitian - 0.99e-12 * np.triu(signs, 1)
    assert np.linalg.eigvalsh(skewed).min() >= -ATOL_PSD
    with pytest.raises(ValueError, match="negative eigenvalue -1.012e-10"):
        TwoQubitState(skewed)


def test_ks_alarm_is_four_projector_floors(monkeypatch):
    """U = 4 f, so U = 4 PROJECTOR_FLOOR is returned, not violated, and one ulp lower raises."""
    value = 4.0 * PROJECTOR_FLOOR
    monkeypatch.setattr(witnesses, "ks_functional", lambda state, case: value)
    verdict = ks_verdict(None, KSCase.CASE_II)
    assert (verdict.statistic, verdict.violated) == (value, False)
    monkeypatch.setattr(witnesses, "ks_functional",
                        lambda state, case: float(np.nextafter(value, -1.0)))
    with pytest.raises(RuntimeError, match="functional -4.0004000000000005e-10 negative"):
        ks_verdict(None, KSCase.CASE_II)


def test_fidelity_range_is_the_projector_floor_and_one_less_three_floors():
    """A fidelity is a projector's mean: the least eigenvalue at most 1 - 3 times it."""
    low, high = PROJECTOR_FLOOR, 1.0 - 3.0 * PROJECTOR_FLOOR
    assert (low, high) == (-1.0001e-10, 1.00000000030003)
    BellFidelities(low, 0.5, 0.5 - low, 0.0)
    BellFidelities(high, low, low, low)
    for bad in ((np.nextafter(low, -1.0), 0.5, 0.5 - low, 0.0),
                (np.nextafter(high, 2.0), low, low, low)):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            BellFidelities(*map(float, bad))


@st.composite
def floor_states(draw):
    """A state whose least eigenvalue lies in [-ATOL_PSD, 0], held by one to three
    eigenvalues, with eigenvectors drawn at random or aligned to a product or Bell basis,
    and at times an anti-Hermitian part as large as ATOL_CONSTRUCT allows."""
    least = draw(st.floats(-ATOL_PSD, 0.0))
    at_floor = draw(st.integers(1, 3))
    rest = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4 - at_floor,
                                  max_size=4 - at_floor)))
    assume(rest.sum() > 0.0)
    eigenvalues = np.concatenate([np.full(at_floor, least),
                                  rest / rest.sum() * (1.0 - at_floor * least)])
    kind = draw(st.sampled_from(["random", *ALIGNED_BASES]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        vectors = np.linalg.qr(rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4)))[0]
    else:
        vectors = ALIGNED_BASES[kind][:, draw(st.permutations(range(4)))]
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    g -= g.conj().T  # anti-Hermitian; the sum below differs from its adjoint by 2 skew
    skew = draw(st.sampled_from([0.0, 0.49 * ATOL_CONSTRUCT])) * g / np.abs(g).max()
    try:
        state = TwoQubitState((vectors * eigenvalues) @ vectors.conj().T + skew)
    except ValueError:  # rounding took the least eigenvalue past the floor
        assume(False)
    return state


def cli_exit_code(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


@settings(max_examples=150, deadline=None)
@given(state=floor_states())
def test_every_state_at_or_above_the_floor_runs_end_to_end(state):
    run_chain(state)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "state.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump([[[z.real, z.imag] for z in row] for row in state.matrix.tolist()], f)
        assert cli_exit_code("witness", "--state", path) == 0
        for flavour in Protocol:
            assert cli_exit_code("qkd", "--protocol", flavour.value, "--source", path,
                                 "--rounds", "2000") == 0


@st.composite
def product_ensembles(draw):
    """One to three product terms, each Bloch vector a unit vector or shortened in the ball."""
    def bloch():
        v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        assume(np.linalg.norm(v) > 1e-3)
        return v / np.linalg.norm(v) * draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))

    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)))
    return ProductEnsemble([(w, bloch(), bloch()) for w in weights / weights.sum()])


def product_state(functional: SeparableFunctional) -> ProductEnsemble:
    """The pure product state at which a functional reaches its separable bound."""
    report = separable_bound(functional)
    return ProductEnsemble([(1.0, report.argmax_bloch_a, report.argmax_bloch_b)])


E_MAX = 0.999 * ATOL_PSD


@settings(max_examples=200, deadline=None)
@given(sigma=product_ensembles(), e=st.floats(0.0, E_MAX))
@example(sigma=ProductEnsemble([(1.0, Z_AXIS, -Z_AXIS)]), e=E_MAX)  # U1 = U2 = 2 + 4e, T = -1 - 4e
@example(sigma=ProductEnsemble([(1.0, Z_AXIS, Z_AXIS)]), e=E_MAX)  # T = U3 = 2 + 4e
@example(sigma=product_state(SeparableFunctional.EKERT_S), e=E_MAX)  # S = sqrt(2) (1 + 4e)
def test_no_state_at_the_floor_of_a_separable_one_certifies(sigma, e):
    """rho = (1 + 4e) sigma - e I, with sigma separable, has least eigenvalue at least -e, and
    each offset + <W, T> reads at most 4e (bound - offset) <= 8 ATOL_PSD above sigma's bound:
    VERDICT_SLACK, so no witness, KS functional or Bell fidelity certifies it."""
    state = TwoQubitState((1.0 + 4.0 * e) * product_mixture(sigma).matrix - e * np.eye(4))
    assert not ekert_verdict(state).violated
    assert not bbm_verdict(state).violated
    assert not any(ks_verdict(state, case).violated for case in KSCase)
    assert not distillable_witness(state).distillable


def assert_built_as_given(state: TwoQubitState, given, least: float = -ATOL_PSD) -> None:
    """The checks _state_from_bloch drops, on a state it built from given = (r_A, r_B, T):
    the least eigenvalue is at least least, the trace is 1, Pauli expectations read off the
    matrix by traces match the held numbers, and those are the given ones bit for bit."""
    m = state.matrix
    assert least_eigenvalue(state) >= least
    assert abs(m.trace() - 1.0) <= ATOL_CONSTRUCT
    read = np.array([[np.trace(np.kron(a, b) @ m).real for b in (EYE, *SIGMA)]
                     for a in (EYE, *SIGMA)])
    held = np.block([[np.ones((1, 1)), state.bloch_b[None, :]],
                     [state.bloch_a[:, None], state.correlations]])
    assert np.abs(read - held).max() <= ATOL_DERIVED
    for kept, number in zip((state.bloch_a, state.bloch_b, state.correlations), given):
        assert kept.tobytes() == np.broadcast_to(np.asarray(number, dtype=float),
                                                 kept.shape).tobytes()


@pytest.mark.parametrize("w", [0.0, 5e-324, 0.4, float(np.nextafter(1.0, 0.0)), 1.0])
def test_werner_states_are_built_as_given(w):
    assert_built_as_given(werner_state(w), (0.0, 0.0, -w * np.eye(3)))


@pytest.mark.parametrize("label", list(BellLabel), ids=lambda b: b.value)
def test_bell_states_are_built_as_given(label):
    """The CLI's named Bell states, and the protocol's default source, the singlet."""
    given = (0.0, 0.0, np.diag(BELL_CORRELATORS[label]))
    assert_built_as_given(cli.resolve_state(label.value)[0], given)
    if label is BellLabel.PSI_MINUS:
        assert_built_as_given(ProtocolConfig(Protocol.E91, 1_000).source_state, given)


@settings(max_examples=100, deadline=None)
@given(sigma=product_ensembles())
def test_product_mixtures_are_built_as_given(sigma):
    given = ordered_mixture(sigma.weights, sigma.blochs_a, sigma.blochs_b)
    assert_built_as_given(product_mixture(sigma), given)


@settings(max_examples=200, deadline=None)
@given(source=st.one_of(oracle_states, floor_states()), basis=intercept_bases)
def test_intercept_images_are_built_as_given(source, basis):
    """Eve's image of a random source, or one at the floor, on a named or random axis.  An
    image of a state at the floor may read past it by the rounding of its 15 numbers (the
    diagonal one in the test above reads -1.0000000827e-10), so it is held to the source's
    least eigenvalue less that rounding, as run_chain holds it."""
    eve = InterceptResend(basis if isinstance(basis, str) else tuple(basis))
    keep = protocol._INTERCEPT_KEEP.get(eve.basis)
    if keep is None:
        keep = np.outer(eve.basis, eve.basis)
    given = (source.bloch_a, [ordered_dot(row, source.bloch_b) for row in keep],
             [[ordered_dot(t_i, keep[:, j]) for j in range(3)] for t_i in source.correlations])
    least = min(-ATOL_PSD, least_eigenvalue(source) - 1e-14)
    assert_built_as_given(effective_state(source, eve), given, least)
