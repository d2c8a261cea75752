"""Every state TwoQubitState accepts runs end to end, down to its eigenvalue floor.

The floor admits a least eigenvalue of -ATOL_PSD.  A projector's mean is at
least the least eigenvalue, so every probability and Bell fidelity reads at
least PROJECTOR_FLOOR (-ATOL_PSD less a rounding allowance), and each alarm
derives its threshold from that: _physical at probability scale, ks_verdict
at 4 f, BellFidelities at f, and the Tsirelson guard at rho's trace norm.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eprlab import cli, witnesses
from eprlab.hidden_variables import chsh_panel, fine_local_model, quad_from_state
from eprlab.protocol import Protocol, ProtocolConfig, run_protocol
from eprlab.qstate import (
    _BELL_AMPLITUDES,
    ATOL_CONSTRUCT,
    ATOL_PSD,
    PROJECTOR_FLOOR,
    SpinSetting,
    TwoQubitState,
    X_AXIS,
    Z_AXIS,
    outcome_distribution,
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

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# Columns are eigenvectors: the z-z and x-x product bases and the Bell basis.
ALIGNED_BASES = {"zz": np.eye(4), "xx": np.kron(_HADAMARD, _HADAMARD), "bell": _BELL_AMPLITUDES.T}


def state_with_spectrum(eigenvalues, eigenvectors) -> TwoQubitState:
    return TwoQubitState((eigenvectors * eigenvalues) @ eigenvectors.conj().T)


def run_chain(state: TwoQubitState) -> None:
    """Every verdict, the Fine chain and both protocol flavours; none may raise."""
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
    for flavour in Protocol:
        run_protocol(ProtocolConfig(protocol=flavour, rounds=2_000, seed=3, source_state=state))


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
