"""Monte Carlo simulation of entanglement-based key distribution.

Two protocol flavors share one engine:

- The four-correlator flavor: Alice measures along x, y, or a key
  direction; Bob along the two diagonal directions in the xy plane or
  the key direction.  The four test pairs estimate the statistic S
  (separable bound sqrt(2)); rounds where both parties chose the key
  direction feed the sifted key.
- The two-basis flavor: both parties measure x or z.  Matched rounds
  are split into a publicly compared test sample, which estimates
  T = E(xx) + E(zz) (separable bound 1) and the error rates, and the
  remaining key rounds.

The eavesdropper acts on Bob's wing of each pair before it reaches him.
An intercept-resend attack with a fresh basis coin per round produces
rounds that are independent draws from the coin-averaged channel output,
so the simulation applies the averaged channel once.

Randomness comes from a counter-based generator keyed by the config
seed, with a fixed draw schedule per flavor, so every report is
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .qstate import (
    IDENTITY_2,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    ATOL_CONSTRUCT,
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    TwoQubitState,
    bell_state,
    bloch_qubit,
    correlator,
    density_from_pure,
    outcome_distribution,
    product_mixture,
)
from .witnesses import BBM_BOUND, EKERT_BOUND

MIN_SAMPLES_PER_PAIR = 30  # below this a correlator estimate is too noisy to trust
MIN_ROUNDS = 100


class Protocol(Enum):
    """Which measurement schedule and test statistic the simulation uses."""

    E91 = "e91"
    BBM92 = "bbm92"


@dataclass(frozen=True)
class NoEve:
    """Pairs reach Bob untouched."""


@dataclass(frozen=True)
class InterceptResend:
    """Eve measures Bob's qubit and forwards the matching eigenstate.

    basis is 'x', 'z', 'xz' (a fresh fair coin between x and z each
    round), or a unit 3-vector for an intermediate direction.
    """

    basis: Union[str, tuple[float, float, float]]

    def __post_init__(self) -> None:
        if isinstance(self.basis, str):
            if self.basis not in ("x", "z", "xz"):
                raise ValueError(f"basis must be 'x', 'z', 'xz', or a 3-vector, got {self.basis!r}")
            return
        direction = tuple(float(x) for x in self.basis)
        if len(direction) != 3:
            raise ValueError(f"basis vector must have 3 components, got {len(direction)}")
        norm = float(np.linalg.norm(direction))
        if not abs(norm - 1.0) <= ATOL_CONSTRUCT:
            raise ValueError(f"basis vector {list(direction)} has norm {norm!r}, not 1")
        object.__setattr__(self, "basis", direction)


@dataclass(frozen=True)
class SeparableSubstitution:
    """Eve discards the pairs and distributes a product-state mixture."""

    ensemble: ProductEnsemble


EveStrategy = Union[NoEve, InterceptResend, SeparableSubstitution]


def _default_source() -> TwoQubitState:
    return density_from_pure(bell_state(BellLabel.PSI_MINUS))


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one simulation run."""

    protocol: Protocol
    rounds: int
    source_state: TwoQubitState = field(default_factory=_default_source)
    eve: EveStrategy = field(default_factory=NoEve)
    test_fraction: float = 0.25
    seed: int = 0
    abort_sigma: float = 3.0

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, Protocol):
            raise ValueError(f"protocol must be a Protocol member, got {self.protocol!r}")
        if self.rounds < MIN_ROUNDS:
            raise ValueError(f"need at least {MIN_ROUNDS} rounds, got {self.rounds}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed!r}")
        if not 0.0 < self.abort_sigma < np.inf:
            raise ValueError(f"abort_sigma must be positive and finite, got {self.abort_sigma!r}")


@dataclass(frozen=True)
class ProtocolReport:
    """Everything a run produces: keys, error rates, statistic, verdict."""

    protocol: Protocol
    statistic: float
    stderr: float
    bound: float
    abort_sigma: float
    aborted: bool
    qber: float
    qber_by_basis: Optional[Mapping[str, float]]
    sifted_key_a: str
    sifted_key_b: str
    rounds_used: Mapping[str, int]

    def __post_init__(self) -> None:
        if len(self.sifted_key_a) != len(self.sifted_key_b):
            raise ValueError("sifted keys must have equal length")
        if not 0.0 <= self.qber <= 1.0:
            raise ValueError(f"qber {self.qber!r} outside [0, 1]")
        expected = (abs(self.statistic) - self.abort_sigma * self.stderr) <= self.bound
        if self.aborted != expected:
            raise ValueError("aborted flag inconsistent with the abort rule")


def _measure_bob_wing(state: TwoQubitState, direction: np.ndarray) -> np.ndarray:
    """Projective measurement of Bob's qubit along direction, outcome forgotten."""
    rho = state.matrix
    out = np.zeros_like(rho)
    for projector in (bloch_qubit(direction), bloch_qubit(-direction)):
        kron = np.kron(IDENTITY_2, projector)
        out += kron @ rho @ kron
    return out


def effective_state(source: TwoQubitState, eve: EveStrategy) -> TwoQubitState:
    """State of a pair as seen by Alice and Bob after Eve's interference."""
    if isinstance(eve, NoEve):
        return source
    if isinstance(eve, InterceptResend):
        if eve.basis == "xz":
            matrix = 0.5 * (_measure_bob_wing(source, X_AXIS) + _measure_bob_wing(source, Z_AXIS))
        elif eve.basis == "x":
            matrix = _measure_bob_wing(source, X_AXIS)
        elif eve.basis == "z":
            matrix = _measure_bob_wing(source, Z_AXIS)
        else:
            matrix = _measure_bob_wing(source, np.asarray(eve.basis))
        return TwoQubitState(matrix)
    if isinstance(eve, SeparableSubstitution):
        return product_mixture(eve.ensemble)
    raise ValueError(f"unknown eavesdropper strategy {eve!r}")


def qber(key_a: str, key_b: str) -> float:
    """Fraction of positions where two equal-length bit strings differ."""
    if len(key_a) != len(key_b):
        raise ValueError(f"key lengths differ: {len(key_a)} vs {len(key_b)}")
    if not key_a:
        raise ValueError("cannot compute an error rate on empty keys")
    for key in (key_a, key_b):
        if set(key) - {"0", "1"}:
            raise ValueError("keys must contain only '0' and '1'")
    return sum(a != b for a, b in zip(key_a, key_b)) / len(key_a)


# Test pairs and the sign each contributes to the protocol statistic.
E91_TEST_PAIRS = (("a1:b1", 1.0), ("a1:b3", -1.0), ("a3:b1", 1.0), ("a3:b3", 1.0))
BBM_TEST_PAIRS = (("x:x", 1.0), ("z:z", 1.0))


def estimate_statistic(
    tallies: Mapping[str, Sequence[int]], protocol: Protocol
) -> tuple[float, float]:
    """Statistic estimate and standard error from joint-outcome tallies.

    Each tally is (n++, n+-, n-+, n--) for one setting pair.  Correlators
    are estimated as mean outcome products; variances (1 - E^2)/n add
    across pairs since the samples are disjoint.
    """
    pairs = E91_TEST_PAIRS if protocol is Protocol.E91 else BBM_TEST_PAIRS
    estimate = 0.0
    variance = 0.0
    for label, sign in pairs:
        if label not in tallies:
            raise ValueError(f"missing tally for setting pair {label}")
        counts = np.asarray(tallies[label], dtype=float)
        if counts.shape != (4,):
            raise ValueError(f"tally for {label} must have 4 entries")
        total = counts.sum()
        if total < MIN_SAMPLES_PER_PAIR:
            raise ValueError(
                f"setting pair {label} has {int(total)} samples, "
                f"need {MIN_SAMPLES_PER_PAIR}; increase rounds"
            )
        e_hat = (counts[0] - counts[1] - counts[2] + counts[3]) / total
        estimate += sign * e_hat
        variance += (1.0 - e_hat**2) / total
    return float(estimate), float(np.sqrt(variance))


def _sign_convention(source: TwoQubitState, direction: np.ndarray) -> int:
    """Agreed key-correlation sign for a measurement axis, from the source state."""
    value = correlator(source, SpinSetting.alice(direction), SpinSetting.bob(direction))
    return -1 if value < 0.0 else 1


def _sample_outcomes(
    state: TwoQubitState,
    alice_dirs: Sequence[np.ndarray],
    bob_dirs: Sequence[np.ndarray],
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    u: np.ndarray,
    used_pairs: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Draw +-1 outcome pairs for every round whose setting pair is used."""
    oa = np.zeros(a_idx.shape[0], dtype=np.int64)
    ob = np.zeros(a_idx.shape[0], dtype=np.int64)
    for i, j in used_pairs:
        mask = (a_idx == i) & (b_idx == j)
        if not mask.any():
            continue
        dist = outcome_distribution(
            state, SpinSetting.alice(alice_dirs[i]), SpinSetting.bob(bob_dirs[j])
        )
        cdf = np.cumsum(dist.probabilities)
        outcome_index = np.minimum(np.searchsorted(cdf, u[mask], side="right"), 3)
        oa[mask] = np.where(outcome_index < 2, 1, -1)
        ob[mask] = np.where(outcome_index % 2 == 0, 1, -1)
    return oa, ob


def _joint_counts(oa: np.ndarray, ob: np.ndarray, mask: np.ndarray) -> tuple[int, ...]:
    return (
        int(np.count_nonzero(mask & (oa == 1) & (ob == 1))),
        int(np.count_nonzero(mask & (oa == 1) & (ob == -1))),
        int(np.count_nonzero(mask & (oa == -1) & (ob == 1))),
        int(np.count_nonzero(mask & (oa == -1) & (ob == -1))),
    )


def _bits(outcomes: np.ndarray) -> str:
    """Map outcomes +1 -> '0' and -1 -> '1', preserving order."""
    return "".join("0" if o == 1 else "1" for o in outcomes)


def _run_e91(cfg: ProtocolConfig, rng: np.random.Generator) -> ProtocolReport:
    state = effective_state(cfg.source_state, cfg.eve)
    inv = 1.0 / np.sqrt(2.0)
    alice_dirs = (X_AXIS, Y_AXIS, Y_AXIS)           # a1, a3, key
    bob_dirs = (inv * (X_AXIS + Y_AXIS), inv * (Y_AXIS - X_AXIS), Y_AXIS)  # b1, b3, key

    a_idx = rng.integers(0, 3, size=cfg.rounds)
    b_idx = rng.integers(0, 3, size=cfg.rounds)
    u = rng.random(cfg.rounds)

    test_pairs = {(0, 0): "a1:b1", (0, 1): "a1:b3", (1, 0): "a3:b1", (1, 1): "a3:b3"}
    used = list(test_pairs) + [(2, 2)]
    oa, ob = _sample_outcomes(state, alice_dirs, bob_dirs, a_idx, b_idx, u, used)

    tallies = {}
    rounds_used = {}
    for (i, j), label in test_pairs.items():
        mask = (a_idx == i) & (b_idx == j)
        tallies[label] = _joint_counts(oa, ob, mask)
        rounds_used[label] = int(np.count_nonzero(mask))

    key_mask = (a_idx == 2) & (b_idx == 2)
    n_key = int(np.count_nonzero(key_mask))
    rounds_used["key"] = n_key
    rounds_used["discarded"] = cfg.rounds - n_key - sum(
        rounds_used[label] for label in tallies
    )
    if n_key == 0:
        raise ValueError("no rounds landed on the key settings; increase rounds")

    statistic, stderr = estimate_statistic(tallies, Protocol.E91)
    # Parties fix the key sign from the advertised source, not from what
    # Eve actually delivers.
    sign = _sign_convention(cfg.source_state, Y_AXIS)
    key_a = _bits(oa[key_mask])
    key_b = _bits(sign * ob[key_mask])
    error_rate = qber(key_a, key_b)

    aborted = bool((abs(statistic) - cfg.abort_sigma * stderr) <= EKERT_BOUND)
    return ProtocolReport(
        protocol=Protocol.E91,
        statistic=statistic,
        stderr=stderr,
        bound=EKERT_BOUND,
        abort_sigma=cfg.abort_sigma,
        aborted=aborted,
        qber=error_rate,
        qber_by_basis=None,
        sifted_key_a=key_a,
        sifted_key_b=key_b,
        rounds_used=rounds_used,
    )


def _run_bbm92(cfg: ProtocolConfig, rng: np.random.Generator) -> ProtocolReport:
    state = effective_state(cfg.source_state, cfg.eve)
    directions = (X_AXIS, Z_AXIS)
    labels = ("x", "z")

    a_idx = rng.integers(0, 2, size=cfg.rounds)
    b_idx = rng.integers(0, 2, size=cfg.rounds)
    u = rng.random(cfg.rounds)
    test_tag = rng.random(cfg.rounds) < cfg.test_fraction

    used = [(0, 0), (1, 1)]
    oa, ob = _sample_outcomes(state, directions, directions, a_idx, b_idx, u, used)

    signs = {label: _sign_convention(cfg.source_state, d) for label, d in zip(labels, directions)}
    tallies = {}
    qber_by_basis = {}
    errors_total = 0
    tests_total = 0
    rounds_used = {}
    key_mask = np.zeros(cfg.rounds, dtype=bool)
    for index, label in enumerate(labels):
        matched = (a_idx == index) & (b_idx == index)
        rounds_used[f"{label}:{label}"] = int(np.count_nonzero(matched))
        test_mask = matched & test_tag
        key_mask |= matched & ~test_tag
        tallies[f"{label}:{label}"] = _joint_counts(oa, ob, test_mask)
        n_test = int(np.count_nonzero(test_mask))
        n_err = int(np.count_nonzero(test_mask & (oa * ob == -signs[label])))
        qber_by_basis[label] = n_err / n_test if n_test else 0.0
        errors_total += n_err
        tests_total += n_test

    rounds_used["test"] = tests_total
    rounds_used["key"] = int(np.count_nonzero(key_mask))
    rounds_used["discarded"] = cfg.rounds - rounds_used["x:x"] - rounds_used["z:z"]
    if rounds_used["key"] == 0:
        raise ValueError("no matched rounds left for the key; increase rounds")

    statistic, stderr = estimate_statistic(tallies, Protocol.BBM92)
    round_sign = np.where(a_idx == 0, signs["x"], signs["z"])
    key_a = _bits(oa[key_mask])
    key_b = _bits((round_sign * ob)[key_mask])

    aborted = bool((abs(statistic) - cfg.abort_sigma * stderr) <= BBM_BOUND)
    return ProtocolReport(
        protocol=Protocol.BBM92,
        statistic=statistic,
        stderr=stderr,
        bound=BBM_BOUND,
        abort_sigma=cfg.abort_sigma,
        aborted=aborted,
        qber=errors_total / tests_total if tests_total else 0.0,
        qber_by_basis=qber_by_basis,
        sifted_key_a=key_a,
        sifted_key_b=key_b,
        rounds_used=rounds_used,
    )


def run_protocol(cfg: ProtocolConfig) -> ProtocolReport:
    """Simulate one full run and return its report.

    The same config always yields the same report: the generator is
    counter-based and keyed only by the seed, and each flavor draws its
    arrays in a fixed order.
    """
    rng = np.random.Generator(np.random.Philox(key=int(cfg.seed)))
    if cfg.protocol is Protocol.E91:
        return _run_e91(cfg, rng)
    return _run_bbm92(cfg, rng)
