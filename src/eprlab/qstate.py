"""Exact two-qubit states, spin observables, and outcome statistics.

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
  written once, in joint_probabilities.
- Every state the package builds itself (product mixtures, Werner states,
  channel images) is assembled once, from (r_A, r_B, T), in
  state_from_bloch, and then passes every TwoQubitState check.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

Array = np.ndarray

# Tolerance policy, shared across the package.
ATOL_CONSTRUCT = 1e-12  # construction-time equality checks (norms, trace, weights)
ATOL_PSD = 1e-10        # eigenvalue floor for positive semidefiniteness
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

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


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


_BELL_AMPLITUDES = {
    BellLabel.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0),
    BellLabel.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0),
    BellLabel.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0),
    BellLabel.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0),
}


def _read_only(a: Array) -> Array:
    a.flags.writeable = False
    return a


class PureState:
    """Normalized two-qubit state vector in the product basis."""

    def __init__(self, amplitudes: Sequence[complex]) -> None:
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.shape != (4,):
            raise ValueError(f"pure state needs 4 amplitudes, got shape {amp.shape}")
        norm = float(np.linalg.norm(amp))
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
        eigmin = float(np.linalg.eigvalsh(m).min())
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
        norm = float(np.linalg.norm(d))
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


class ProductEnsemble:
    """Convex mixture of product states, one (weight, Bloch A, Bloch B) per term."""

    def __init__(self, terms: Iterable[tuple[float, Sequence[float], Sequence[float]]]) -> None:
        parsed = []
        for k, (weight, bloch_a, bloch_b) in enumerate(terms):
            w = float(weight)
            if not np.isfinite(w):
                raise ValueError(f"ensemble weight at index {k} is not finite, got {w!r}")
            if not w >= -ATOL_CONSTRUCT:
                raise ValueError(f"ensemble weight {w!r} at index {k} is negative")
            na = np.asarray(bloch_a, dtype=float)
            nb = np.asarray(bloch_b, dtype=float)
            for name, n in (("blochA", na), ("blochB", nb)):
                if n.shape != (3,):
                    raise ValueError(f"{name} at index {k} must be a 3-vector, got shape {n.shape}")
                if not np.isfinite(n).all():
                    raise ValueError(f"{name} at index {k} is not finite, got {n.tolist()}")
                if not np.linalg.norm(n) <= 1.0 + ATOL_CONSTRUCT:
                    raise ValueError(
                        f"{name} at index {k} has norm {float(np.linalg.norm(n))!r} above 1"
                    )
            parsed.append((max(w, 0.0), _read_only(na.copy()), _read_only(nb.copy())))
        if not parsed:
            raise ValueError("ensemble must contain at least one term")
        total = sum(w for w, _, _ in parsed)
        if not abs(total - 1.0) <= ATOL_CONSTRUCT:
            raise ValueError(f"ensemble weights sum to {total!r}, not 1")
        self.terms = tuple(parsed)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


class OutcomeDistribution:
    """Joint probabilities for a pair of spin measurements.

    Outcome order is fixed: (+1,+1), (+1,-1), (-1,+1), (-1,-1).
    """

    OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def __init__(self, probabilities: Sequence[float]) -> None:
        p = np.asarray(probabilities, dtype=float)
        if p.shape != (4,):
            raise ValueError(f"need 4 joint probabilities, got shape {p.shape}")
        total = float(p.sum())
        if not math.isfinite(total):  # a NaN or infinite entry, or a sum that overflows
            raise ValueError(f"probabilities must be finite and sum to 1, got {p.tolist()}")
        if p.min() < -ATOL_CONSTRUCT:
            raise ValueError(f"negative probability {p.min():.3e}")
        if abs(total - 1.0) > ATOL_DERIVED:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.probabilities = _read_only(np.clip(p, 0.0, None))

    def probability(self, outcome_a: int, outcome_b: int) -> float:
        """Probability of the joint outcome (outcome_a, outcome_b)."""
        try:
            idx = self.OUTCOMES.index((outcome_a, outcome_b))
        except ValueError:
            raise ValueError(f"outcomes must be +1 or -1, got {(outcome_a, outcome_b)}") from None
        return float(self.probabilities[idx])

    @property
    def correlator(self) -> float:
        """Expectation of the outcome product implied by this distribution."""
        p = self.probabilities
        return float(p[0] - p[1] - p[2] + p[3])

    @property
    def marginal_a(self) -> float:
        """Expectation of Alice's outcome."""
        p = self.probabilities
        return float(p[0] + p[1] - p[2] - p[3])

    @property
    def marginal_b(self) -> float:
        """Expectation of Bob's outcome."""
        p = self.probabilities
        return float(p[0] - p[1] + p[2] - p[3])


def bell_state(label: BellLabel) -> PureState:
    """Return the requested maximally entangled state."""
    if not isinstance(label, BellLabel):
        raise ValueError(f"label must be a BellLabel, got {label!r}")
    return PureState(_BELL_AMPLITUDES[label])


def phase_epr_state(phase: float) -> PureState:
    """EPR pair with a relative phase: (|+-> + exp(-i phase)|-+>)/sqrt(2)."""
    phase = float(phase)
    if not np.isfinite(phase):
        raise ValueError(f"phase must be a finite number, got {phase!r}")
    amp = np.zeros(4, dtype=complex)
    amp[1] = 1.0 / np.sqrt(2.0)
    amp[2] = np.exp(-1.0j * phase) / np.sqrt(2.0)
    return PureState(amp)


def density_from_pure(state: PureState) -> TwoQubitState:
    """Rank-one density matrix |psi><psi|."""
    amp = state.amplitudes
    return TwoQubitState(np.outer(amp, amp.conj()))


def bloch_qubit(bloch: Sequence[float]) -> Array:
    """Single-qubit density matrix (I + n . sigma)/2 for |n| <= 1."""
    n = np.asarray(bloch, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"Bloch vector must be a 3-vector, got shape {n.shape}")
    if not np.linalg.norm(n) <= 1.0 + ATOL_CONSTRUCT:
        raise ValueError(f"Bloch vector norm {float(np.linalg.norm(n))!r} above 1")
    rho = 0.5 * (IDENTITY_2 + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)
    return rho


def state_from_bloch(bloch_a: Sequence[float], bloch_b: Sequence[float],
                     correlations: Sequence[Sequence[float]]) -> TwoQubitState:
    """State (I + r_A.sigma (x) I + I (x) r_B.sigma + sum_ij T_ij sigma_i (x) sigma_j)/4."""
    table = np.ones((4, 4))  # Pauli coefficients [[1, r_B], [r_A, T]]
    table[0, 1:], table[1:, 0], table[1:, 1:] = bloch_b, bloch_a, correlations
    return TwoQubitState((table.ravel() @ _PAULI_PRODUCTS).reshape(4, 4).T / 4.0)


def product_mixture(ensemble: ProductEnsemble) -> TwoQubitState:
    """Mixture of product states: r_A = sum_k w_k r_A,k, r_B likewise, T = sum_k w_k r_A,k r_B,k^T."""
    if not isinstance(ensemble, ProductEnsemble):
        ensemble = ProductEnsemble(ensemble)
    weights, blochs_a, blochs_b = (np.array(column) for column in zip(*ensemble))
    return state_from_bloch(weights @ blochs_a, weights @ blochs_b,
                            np.einsum("k,ki,kj->ij", weights, blochs_a, blochs_b))


def werner_state(w: float) -> TwoQubitState:
    """Mixture w |Psi-><Psi-| + (1 - w) I/4 for 0 <= w <= 1: r_A = r_B = 0, T = -w I."""
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {w!r}")
    return state_from_bloch(0.0, 0.0, -w * np.eye(3))


def spin_observable(setting: SpinSetting) -> Array:
    """Two-qubit observable measuring n . sigma on the setting's party."""
    n = setting.direction
    local = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    if setting.party is Party.ALICE:
        return np.kron(local, IDENTITY_2)
    return np.kron(IDENTITY_2, local)


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


_OUTCOME_SIGNS = np.array(OutcomeDistribution.OUTCOMES, dtype=float).T  # rows a and b


def joint_probabilities(mean_a, mean_b, mean_ab) -> Array:
    """Joint outcome probabilities (1 + a <A> + b <B> + ab <AB>)/4 of two spin measurements.

    The means broadcast against each other; the result gains a last axis
    of length 4 in OutcomeDistribution.OUTCOMES order.  Nothing is
    validated: a negative entry means the means are not physical.
    """
    a, b = _OUTCOME_SIGNS
    mean_a, mean_b, mean_ab = np.asarray(mean_a), np.asarray(mean_b), np.asarray(mean_ab)
    return (1.0 + a * mean_a[..., None] + b * mean_b[..., None]
            + a * b * mean_ab[..., None]) / 4.0


def outcome_distribution(
    state: TwoQubitState, setting_a: SpinSetting, setting_b: SpinSetting
) -> OutcomeDistribution:
    """Joint outcome probabilities (1 + a r_A.n_a + b r_B.n_b + ab n_a.T.n_b)/4."""
    _require_pair(setting_a, setting_b)
    probs = joint_probabilities(state.bloch_a @ setting_a.direction,
                                state.bloch_b @ setting_b.direction,
                                correlator(state, setting_a, setting_b))
    if probs.min() < -ATOL_PSD:
        raise ValueError(f"negative probability {probs.min():.3e}; state not physical")
    return OutcomeDistribution(np.clip(probs, 0.0, None))
