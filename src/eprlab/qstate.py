"""Exact two-qubit states, spin settings, and outcome statistics.

Conventions
-----------
- Alice owns the first tensor factor, Bob the second.
- Product basis order is |++>, |+->, |-+>, |-->, where sigma_z|+> = +|+>
  and sigma_z|-> = -|->.
- Spin measurements along a unit vector n yield outcomes +1 or -1 with
  observable n . sigma.
- Bloch vectors are real 3-vectors (x, y, z); norm 1 is pure, norm < 1
  is mixed, norm > 1 is rejected.
- Every statistic is read from the 15 real numbers of
  rho = (I + r_A.sigma (x) I + I (x) r_B.sigma + sum_ij T_ij sigma_i (x) sigma_j)/4:
  Alice's Bloch vector r_A, Bob's r_B, and the correlation matrix
  T_ij = tr(rho sigma_i (x) sigma_j).  A correlator is n_a.T.n_b and a
  joint outcome probability is (1 + a r_A.n_a + b r_B.n_b + ab n_a.T.n_b)/4,
  written once, in joint_probabilities, in OUTCOMES order; one rule,
  _physical, reads it as 0.0 within ATOL_PSD of zero and raises below PROJECTOR_FLOOR.
- Every state the package builds itself (product mixtures, Werner states,
  channel images) is assembled once, from (r_A, r_B, T), in
  state_from_bloch, and then passes every TwoQubitState check.
- BELL_CORRELATORS, the Bell states' same-axis correlators (c_x, c_y, c_z),
  is the one table of Bell-state data; the amplitudes are read off it:
  (|++> + c_x |-->)/sqrt 2 if c_z = +1, else (|+-> + c_x |-+>)/sqrt 2.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray

# Tolerance policy, shared across the package.
ATOL_CONSTRUCT = 1e-12  # construction-time equality checks (norms, trace, weights)
ATOL_PSD = 1e-10        # eigenvalue floor for positive semidefiniteness
# Least value a projector's mean can read on a state the floor accepts: it is at least the
# least eigenvalue, less the rounding of the few terms of order 1 it is read from.
PROJECTOR_FLOOR = -ATOL_PSD - 1e-14
ATOL_DERIVED = 1e-10    # derived algebraic identities
ATOL_ALARM = 1e-8       # corruption alarms (imaginary parts, cross-checks)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_VECTOR = (PAULI_X, PAULI_Y, PAULI_Z)
# Row 4i + j is (sigma_i (x) sigma_j)^T flattened, with sigma_0 = I, so this
# table times a flattened density matrix gives every tr(rho sigma_i (x) sigma_j).
_PAULI_BASIS = (IDENTITY_2, *PAULI_VECTOR)
_PAULI_PRODUCTS = np.array([np.kron(a, b).T.ravel() for a in _PAULI_BASIS for b in _PAULI_BASIS])

X_AXIS, Y_AXIS, Z_AXIS = np.eye(3)


class Party(Enum):
    """Which side of the bipartite system a setting acts on."""

    ALICE = "alice"
    BOB = "bob"


class BellLabel(Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "phi-plus"
    PHI_MINUS = "phi-minus"
    PSI_PLUS = "psi-plus"
    PSI_MINUS = "psi-minus"


# Same-axis correlators (E(xx), E(yy), E(zz)) of each Bell state; see the module docstring.
BELL_CORRELATORS = {
    BellLabel.PHI_PLUS: (1.0, -1.0, 1.0),
    BellLabel.PHI_MINUS: (-1.0, 1.0, 1.0),
    BellLabel.PSI_PLUS: (1.0, 1.0, -1.0),
    BellLabel.PSI_MINUS: (-1.0, -1.0, -1.0),
}


def _read_only(a: Array) -> Array:
    a.flags.writeable = False
    return a


# Row k holds the amplitudes of the k-th BellLabel, read off its correlators.
_BELL_AMPLITUDES = _read_only(np.array(
    [[1.0, 0.0, 0.0, c_x] if c_z > 0 else [0.0, 1.0, c_x, 0.0]
     for c_x, _, c_z in map(BELL_CORRELATORS.get, BellLabel)], dtype=complex) / np.sqrt(2.0))


class PureState:
    """Normalized two-qubit state vector in the product basis."""

    def __init__(self, amplitudes: Sequence[complex]) -> None:
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.shape != (4,):
            raise ValueError(f"pure state needs 4 amplitudes, got shape {amp.shape}")
        norm = math.hypot(*np.abs(amp))  # hypot neither overflows nor warns
        if not abs(norm - 1.0) <= ATOL_CONSTRUCT:
            raise ValueError(f"pure state norm {norm!r} deviates from 1 beyond {ATOL_CONSTRUCT}")
        self.amplitudes = _read_only(amp.copy())

    def __repr__(self) -> str:
        return f"PureState({self.amplitudes.tolist()})"


class TwoQubitState:
    """Density matrix on two qubits: Hermitian, unit trace, positive semidefinite.

    The read-only arrays bloch_a, bloch_b and correlations hold r_A, r_B and
    T, computed once from the validated matrix.
    """

    def __init__(self, matrix: Sequence[Sequence[complex]]) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        dev = np.abs(m - m.conj().T).max()
        if dev > ATOL_CONSTRUCT:
            raise ValueError(f"density matrix not Hermitian (max deviation {dev:.3e})")
        tr = complex(m.trace())
        if abs(tr - 1.0) > ATOL_CONSTRUCT:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {ATOL_CONSTRUCT}")
        # The Hermitian part, which every expectation reads; eigvalsh alone reads one triangle.
        eigmin = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if eigmin < -ATOL_PSD:
            raise ValueError(f"density matrix has negative eigenvalue {eigmin:.3e}")
        self.matrix = _read_only(m.copy())
        pauli = (_PAULI_PRODUCTS @ m.ravel()).reshape(4, 4)
        imaginary = np.abs(pauli.imag).max()
        if imaginary > ATOL_ALARM:
            raise RuntimeError(
                f"Pauli expectations have imaginary part {imaginary:.3e}; state corrupted"
            )
        expectations = _read_only(pauli.real.copy())  # slices of it are read-only too
        self.bloch_a = expectations[1:, 0]
        self.bloch_b = expectations[0, 1:]
        self.correlations = expectations[1:, 1:]

    def __repr__(self) -> str:
        return f"TwoQubitState(trace={self.matrix.trace().real:.6f})"


class SpinSetting:
    """A measurement direction on one party's qubit."""

    def __init__(self, direction: Sequence[float], party: Party) -> None:
        d = np.asarray(direction, dtype=float)
        if d.shape != (3,):
            raise ValueError(f"spin direction must be a 3-vector, got shape {d.shape}")
        norm = math.hypot(*d)  # hypot neither overflows nor warns
        if not abs(norm - 1.0) <= ATOL_CONSTRUCT:
            raise ValueError(f"spin direction norm {norm!r} deviates from 1 beyond {ATOL_CONSTRUCT}")
        if not isinstance(party, Party):
            raise ValueError(f"party must be a Party enum member, got {party!r}")
        self.direction = _read_only(d.copy())
        self.party = party

    @classmethod
    def alice(cls, direction: Sequence[float]) -> "SpinSetting":
        return cls(direction, Party.ALICE)

    @classmethod
    def bob(cls, direction: Sequence[float]) -> "SpinSetting":
        return cls(direction, Party.BOB)

    def __repr__(self) -> str:
        return f"SpinSetting({self.direction.tolist()}, {self.party})"


def _require(passed: Array, message: Callable[[int], str]) -> None:
    """Raise ValueError(message(i)) for the first entry i of passed that is False."""
    flags = passed.tolist()
    if not all(flags):
        raise ValueError(message(flags.index(False)))


def _bloch_rows(vectors: Sequence[Sequence[float]]) -> Array:
    """Alice's n Bloch vectors, then Bob's, as one read-only (2, n, 3) array; a bad one is named."""
    n = len(vectors) // 2

    def term(i: int) -> str:
        return f"{('blochA', 'blochB')[i // n]} at index {i % n}"

    try:
        rows = np.array(vectors, dtype=float)
    except ValueError:  # ragged: some vector is not a 3-vector
        rows = None
    if rows is None or rows.shape != (2 * n, 3):
        shapes = [np.asarray(v, dtype=float).shape for v in vectors]
        i = next(i for i, shape in enumerate(shapes) if shape != (3,))
        raise ValueError(f"{term(i)} must be a 3-vector, got shape {shapes[i]}")
    _require(np.isfinite(rows).all(axis=1),
             lambda i: f"{term(i)} is not finite, got {rows[i].tolist()}")
    norms = np.sqrt(np.einsum("ki,ki->k", rows, rows))  # inf, not an overflow warning, if huge
    _require(norms <= 1.0 + ATOL_CONSTRUCT,
             lambda i: f"{term(i)} has norm {float(norms[i])!r} above 1")
    return _read_only(rows).reshape(2, n, 3)


class ProductEnsemble:
    """Product-state mixture, one term per row of weights (k,), blochs_a and blochs_b (k, 3)."""

    def __init__(self, terms: Iterable[tuple[float, Sequence[float], Sequence[float]]]) -> None:
        columns = tuple(zip(*((float(w), a, b) for w, a, b in terms)))
        if not columns:
            raise ValueError("ensemble must contain at least one term")
        weights = np.array(columns[0])
        _require(np.isfinite(weights),
                 lambda k: f"ensemble weight at index {k} is not finite, got {columns[0][k]!r}")
        _require(weights >= -ATOL_CONSTRUCT,
                 lambda k: f"ensemble weight {columns[0][k]!r} at index {k} is negative")
        self.blochs_a, self.blochs_b = _bloch_rows(columns[1] + columns[2])
        self.weights = _read_only(np.maximum(weights, 0.0))
        total = sum(self.weights.tolist())
        if not abs(total - 1.0) <= ATOL_CONSTRUCT:
            raise ValueError(f"ensemble weights sum to {total!r}, not 1")


# Joint outcomes (Alice's, Bob's) in the order of every outcome axis.
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# Rows a, b and ab: Alice's outcome, Bob's and their product, in OUTCOMES order.
_OUTCOME_SIGNS = _read_only(np.array([(a, b, a * b) for a, b in OUTCOMES], dtype=float).T)


def bell_state(label: BellLabel) -> PureState:
    """Return the requested maximally entangled state."""
    if not isinstance(label, BellLabel):
        raise ValueError(f"label must be a BellLabel, got {label!r}")
    return PureState(_BELL_AMPLITUDES[list(BellLabel).index(label)])


def phase_epr_state(phase: float) -> PureState:
    """EPR pair with a relative phase: (|+-> + exp(-i phase)|-+>)/sqrt(2)."""
    phase = float(phase)
    if not np.isfinite(phase):
        raise ValueError(f"phase must be a finite number, got {phase!r}")
    return PureState(np.array([0.0, 1.0, np.exp(-1.0j * phase), 0.0]) / np.sqrt(2.0))


def density_from_pure(state: PureState) -> TwoQubitState:
    """Rank-one density matrix |psi><psi|."""
    amp = state.amplitudes
    return TwoQubitState(np.outer(amp, amp.conj()))


def state_from_bloch(bloch_a: Sequence[float], bloch_b: Sequence[float],
                     correlations: Sequence[Sequence[float]]) -> TwoQubitState:
    """State (I + r_A.sigma (x) I + I (x) r_B.sigma + sum_ij T_ij sigma_i (x) sigma_j)/4."""
    table = np.ones((4, 4))  # Pauli coefficients [[1, r_B], [r_A, T]]
    table[0, 1:], table[1:, 0], table[1:, 1:] = bloch_b, bloch_a, correlations
    return TwoQubitState((table.ravel() @ _PAULI_PRODUCTS).reshape(4, 4).T / 4.0)


def product_mixture(ensemble: ProductEnsemble) -> TwoQubitState:
    """Mixture of product states: r_A = sum_k w_k r_A,k, r_B likewise, T = sum_k w_k r_A,k r_B,k^T."""
    weights, blochs_a, blochs_b = ensemble.weights, ensemble.blochs_a, ensemble.blochs_b
    return state_from_bloch(weights @ blochs_a, weights @ blochs_b,
                            np.einsum("k,ki,kj->ij", weights, blochs_a, blochs_b))


def werner_state(w: float) -> TwoQubitState:
    """Mixture w |Psi-><Psi-| + (1 - w) I/4 for 0 <= w <= 1: r_A = r_B = 0, T = -w I."""
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {w!r}")
    return state_from_bloch(0.0, 0.0, -w * np.eye(3))


def _require_pair(setting_a: SpinSetting, setting_b: SpinSetting) -> None:
    if setting_a.party is not Party.ALICE or setting_b.party is not Party.BOB:
        raise ValueError(
            "need one Alice setting and one Bob setting, got "
            f"({setting_a.party}, {setting_b.party})"
        )


def correlator(state: TwoQubitState, setting_a: SpinSetting, setting_b: SpinSetting) -> float:
    """Expectation of the product of outcomes for a joint spin measurement: n_a.T.n_b."""
    _require_pair(setting_a, setting_b)
    return float(setting_a.direction @ state.correlations @ setting_b.direction)


def joint_probabilities(mean_a, mean_b, mean_ab) -> Array:
    """Joint outcome probabilities (1 + a <A> + b <B> + ab <AB>)/4 of two spin measurements.

    The means broadcast against each other; the result gains a last axis
    of length 4 in OUTCOMES order.  Nothing is validated: a negative entry
    means the means are not physical (see _physical).
    """
    a, b, ab = _OUTCOME_SIGNS
    mean_a, mean_b, mean_ab = np.asarray(mean_a), np.asarray(mean_b), np.asarray(mean_ab)
    return (1.0 + a * mean_a[..., None] + b * mean_b[..., None]
            + ab * mean_ab[..., None]) / 4.0


def _physical(probs: Array) -> Array:
    """probs, each entry within ATOL_PSD of zero read as 0.0; one below PROJECTOR_FLOOR raises.

    The flush keeps rounding from weighing an impossible outcome: the singlet's
    T_ii = -0.9999999999999998 would leave 5.6e-17 on each agreeing outcome.
    """
    if probs.min() < PROJECTOR_FLOOR:
        raise ValueError(f"negative probability {probs.min():.3e}; state not physical")
    return np.where(probs <= ATOL_PSD, 0.0, probs)


def outcome_distribution(state: TwoQubitState, setting_a: SpinSetting,
                         setting_b: SpinSetting) -> Array:
    """Read-only (4,) joint probabilities in OUTCOMES order, read through _physical."""
    _require_pair(setting_a, setting_b)
    return _read_only(_physical(joint_probabilities(state.bloch_a @ setting_a.direction,
                                                    state.bloch_b @ setting_b.direction,
                                                    correlator(state, setting_a, setting_b))))
