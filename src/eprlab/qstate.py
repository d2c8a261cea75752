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
  written once, in _joint, in OUTCOMES order; one rule,
  _physical, reads it as 0.0 within ATOL_PSD of zero and raises below PROJECTOR_FLOOR.
- Two routes make a TwoQubitState: a matrix from outside is checked and
  (r_A, r_B, T) read off it; a state the package builds from its own 15
  numbers holds them as given and, a state by construction, goes unchecked
  (_state_from_bloch).  Every mean adds its terms one after another in index order,
  so no BLAS kernel or SIMD split decides a digit: one state's r.n and correlator,
  sum_ij (a_i b_j) T_ij row-major, as Python floats (_add_in_order), and arrays of
  means, both Pauli maps and a product mixture's sums, along their last axis (_sum_in_order).
- Every threshold the package compares against is in the tolerance block below,
  derived from ATOL_CONSTRUCT, ATOL_PSD or simplex.FEAS_TOL, or given its reason.
  VERDICT_SLACK covers what the eigenvalue floor, -ATOL_PSD, adds to a statistic,
  so a state at the floor of a separable one certifies nothing.
- BELL_CORRELATORS, the Bell states' same-axis correlators (c_x, c_y, c_z),
  is the one table of Bell-state data; the amplitudes are read off it:
  (|++> + c_x |-->)/sqrt 2 if c_z = +1, else (|+-> + c_x |-+>)/sqrt 2.
"""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .simplex import FEAS_TOL

Array = np.ndarray

# Tolerance policy (see the module docstring); simplex keeps its own pivot thresholds.
ATOL_CONSTRUCT = 1e-12  # construction-time equality checks (norms, trace, weights)
ATOL_PSD = 1e-10        # eigenvalue floor for positive semidefiniteness
# A projector's mean is at least the least eigenvalue, less the rounding of its few terms.
PROJECTOR_FLOOR = -ATOL_PSD - 1e-14
ATOL_DERIVED = ATOL_PSD  # two routes to one identity differ by (tr rho - 1)/4 plus rounding
ATOL_ALARM = 1e-8  # corruption alarms: far above rounding, and no verdict reads it
# With least eigenvalue -e, rho = (1 + 4e) sigma - e I for a state sigma, so offset + <W, T>
# reads at most 4e (b - offset) above a bound b on sigma's, and b - offset <= 2 for S, T, U.
VERDICT_SLACK = 8.0 * ATOL_PSD
LP_FEAS_TOL = FEAS_TOL  # local-model weights and the CHSH and Fine bands: the LP's own slack
BOUND_SLACK = ATOL_CONSTRUCT  # a product-state supremum is an SVD's top value, exact to rounding

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_VECTOR = (PAULI_X, PAULI_Y, PAULI_Z)
# Entry 4i + j is sigma_i (x) sigma_j, with sigma_0 = I: the (16, 4, 4) stack both Pauli maps read.
_PAULI_BASIS = (IDENTITY_2, *PAULI_VECTOR)
_PAULI_PRODUCTS = np.array([np.kron(a, b) for a in _PAULI_BASIS for b in _PAULI_BASIS])

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


def _sum_in_order(terms: Array) -> Array:
    """The terms along the last axis added one after another in index order, as _add_in_order
    adds them: no BLAS kernel or pairwise split picks the rounding."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _add_in_order(terms: Iterable[float]) -> float:
    """Python floats added one after another from the first term, _sum_in_order's bits.  Not
    sum(), which starts from 0 (so -0.0 reads 0.0) and on Python 3.12 compensates floats."""
    return functools.reduce(operator.add, terms)


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
        # Squared as TwoQubitState reads |psi><psi|'s trace, NumPy's rounding (FMA) included.
        square = complex(np.outer(amp, amp.conj()).trace()) if norm < 2.0 else math.inf
        if not abs(square - 1.0) <= ATOL_CONSTRUCT:
            raise ValueError(f"pure state norm {norm!r} deviates from 1 beyond {ATOL_CONSTRUCT} "
                             "when squared")
        self.amplitudes = _read_only(amp.copy())

    def __repr__(self) -> str:
        return f"PureState({self.amplitudes.tolist()})"


class TwoQubitState:
    """Density matrix on two qubits: Hermitian, unit trace, positive semidefinite.

    The read-only arrays bloch_a, bloch_b and correlations hold r_A, r_B and
    T, read once off the matrix after it is validated (see _state_from_bloch).
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
        # So |Im tr(rho P)| <= 4 ATOL_CONSTRUCT / 2 = 2e-12 for each Pauli product P; dropped below.
        tr = complex(m.trace())
        if abs(tr - 1.0) > ATOL_CONSTRUCT:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {ATOL_CONSTRUCT}")
        # The Hermitian part, which every expectation reads; eigvalsh alone reads one triangle.
        eigmin = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if eigmin < -ATOL_PSD:
            raise ValueError(f"density matrix has negative eigenvalue {eigmin:.3e}")
        pauli = _sum_in_order((_PAULI_PRODUCTS * m.T).reshape(16, 16))  # sum_kl P_kl rho_lk
        self.matrix = _read_only(m.copy())
        table = _read_only(pauli.real.reshape(4, 4).copy())  # [[1, r_B], [r_A, T]]
        self.bloch_a, self.bloch_b, self.correlations = table[1:, 0], table[0, 1:], table[1:, 1:]

    def __repr__(self) -> str:
        return f"TwoQubitState(trace={self.matrix.trace().real:.6f})"


class _state_from_bloch(TwoQubitState):
    """The state (I + r_A.sigma (x) I + I (x) r_B.sigma + sum_ij T_ij sigma_i (x) sigma_j)/4,
    holding the given r_A, r_B and T bit for bit; a subclass only to skip TwoQubitState's
    checks, which would read only the assembly's rounding (at the eigenvalue floor they
    refused Eve's image of an accepted state).  Only for numbers that are a state by
    construction: the named Bell states, Werner states, a ProductEnsemble's mixture, and
    Eve's intercept-resend image of a TwoQubitState, a mixture of unitary conjugations."""

    def __init__(self, bloch_a, bloch_b, correlations) -> None:
        table = np.ones((4, 4))  # Pauli coefficients [[1, r_B], [r_A, T]]
        table[0, 1:], table[1:, 0], table[1:, 1:] = bloch_b, bloch_a, correlations
        terms = table.ravel() * _PAULI_PRODUCTS.transpose(1, 2, 0)  # (k, l, n): c_n P_n[k, l]
        self.matrix = _read_only(_sum_in_order(terms) / 4.0)
        _read_only(table)
        self.bloch_a, self.bloch_b, self.correlations = table[1:, 0], table[0, 1:], table[1:, 1:]


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


def product_mixture(ensemble: ProductEnsemble) -> TwoQubitState:
    """Mixture of product states: r_A = sum_k w_k r_A,k, r_B likewise, T = sum_k w_k r_A,k r_B,k^T."""
    weighted_a = ensemble.blochs_a.T * ensemble.weights  # (i, k): w_k r_A,k,i
    weighted_b = ensemble.blochs_b.T * ensemble.weights
    terms_t = weighted_a[:, None, :] * ensemble.blochs_b.T  # (i, j, k): (w_k r_A,k,i) r_B,k,j
    return _state_from_bloch(*map(_sum_in_order, (weighted_a, weighted_b, terms_t)))


def werner_state(w: float) -> TwoQubitState:
    """Mixture w |Psi-><Psi-| + (1 - w) I/4 for 0 <= w <= 1: r_A = r_B = 0, T = -w I."""
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {w!r}")
    return _state_from_bloch(0.0, 0.0, -w * np.eye(3))


def correlator(state: TwoQubitState, setting_a: SpinSetting, setting_b: SpinSetting) -> float:
    """Expectation of the product of outcomes for a joint spin measurement: n_a.T.n_b."""
    if setting_a.party is not Party.ALICE or setting_b.party is not Party.BOB:
        raise ValueError("need one Alice setting and one Bob setting, got "
                         f"({setting_a.party}, {setting_b.party})")
    b = setting_b.direction.tolist()  # (a_i b_j) T_ij, row-major, as a witness's W = a b^T
    return _add_in_order([a_i * b_j * t_ij for a_i, row in zip(setting_a.direction.tolist(),
                                                                state.correlations.tolist())
                          for b_j, t_ij in zip(b, row)])


def _joint(mean_a, mean_b, mean_ab, signs=OUTCOMES) -> list:
    """(1 + a <A> + b <B> + ab <AB>)/4 for each (a, b) in signs: four floats in OUTCOMES
    order, or one array when signs holds the sign rows and the means a trailing axis."""
    return [(1.0 + a * mean_a + b * mean_b + a * b * mean_ab) / 4.0 for a, b in signs]


def joint_probabilities(mean_a, mean_b, mean_ab) -> Array:
    """Joint outcome probabilities (1 + a <A> + b <B> + ab <AB>)/4 of two spin measurements.

    The means broadcast against each other; the result gains a last axis
    of length 4 in OUTCOMES order.  Nothing is validated: a negative entry
    means the means are not physical (see _physical).
    """
    a, b, _ = _OUTCOME_SIGNS
    return _joint(*(np.asarray(m)[..., None] for m in (mean_a, mean_b, mean_ab)), [(a, b)])[0]


def _physical(probs: Sequence[float]) -> Array:
    """Flat probs (a list or 1-d array) as an array, each within ATOL_PSD of zero as 0.0; one
    below PROJECTOR_FLOOR raises.

    The flush keeps rounding from weighing an impossible outcome: the singlet's
    T_ii = -0.9999999999999998 would leave 5.6e-17 on each agreeing outcome.
    """
    least = min(probs)
    if least < PROJECTOR_FLOOR:
        raise ValueError(f"negative probability {least:.3e}; state not physical")
    return np.array([0.0 if p <= ATOL_PSD else p for p in probs])


def outcome_distribution(state: TwoQubitState, setting_a: SpinSetting,
                         setting_b: SpinSetting) -> Array:
    """Read-only (4,) joint probabilities in OUTCOMES order, read through _physical;
    correlator checks the parties."""
    mean_a, mean_b = (_add_in_order(map(operator.mul, r.tolist(), setting.direction.tolist()))
                      for r, setting in ((state.bloch_a, setting_a), (state.bloch_b, setting_b)))
    return _read_only(_physical(_joint(mean_a, mean_b, correlator(state, setting_a, setting_b))))
