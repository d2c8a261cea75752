"""Monte Carlo simulation of entanglement-based key distribution.

One engine runs both protocol flavors from a constant schedule table:

- The four-correlator flavor: Alice measures along x, y, or a key
  direction; Bob along the two diagonal directions in the xy plane or
  the key direction.  The four test pairs estimate the statistic S
  (separable bound sqrt(2)); rounds where both parties chose the key
  direction feed the sifted key.
- The two-basis flavor: both parties measure x or z.  A test_fraction
  coin splits matched rounds into a publicly compared test sample, which
  estimates T = E(xx) + E(zz) (separable bound 1) and the error rates,
  and the remaining key rounds.

Rounds are independent and identically distributed, so a run samples
the law of a round, not its rounds.  Each round packs into one small
integer, 4 * (n_pairs * coin + setting pair) + outcome (outcomes in
OutcomeDistribution order), whose law is the test/key coin times the
uniform setting-pair weight times the joint outcome table read from
(r_A, r_B, T).  One multinomial draw gives every tally.  The key codes
are the key-setting codes, each repeated by its count and shuffled:
given the counts, the order of the key rounds is uniform, so the result
has exactly the law of drawing the rounds one by one.  Key bits and
error counts are table lookups on the packed code, and memory scales
with the key, not with the round count.

The eavesdropper acts on Bob's wing of each pair before it reaches him.
Intercept-resend along d, outcome forgotten, keeps Bob's spin component
along d: r_B -> (r_B.d) d and T -> T d d^T.  A fresh basis coin per
round makes rounds independent draws from the coin-averaged channel, so
the simulation applies the averaged map once.

Randomness comes from a counter-based generator keyed by the config
seed, so every report is reproducible bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .qstate import (
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    ATOL_CONSTRUCT,
    ATOL_PSD,
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    TwoQubitState,
    bell_state,
    correlator,
    density_from_pure,
    joint_probabilities,
    product_mixture,
    state_from_bloch,
)
from .witnesses import BBM_BOUND, EKERT_BOUND, default_ekert_settings

MIN_SAMPLES_PER_PAIR = 30  # below this a correlator estimate is too noisy to trust
MIN_ROUNDS = 100


class Protocol(Enum):
    """Which measurement schedule and test statistic the simulation uses."""

    E91 = "e91"
    BBM92 = "bbm92"


@dataclass(frozen=True)
class NoEve:
    """Pairs reach Bob untouched."""


# The axes Eve measures along for each named basis; "xz" tosses a fair coin between them.
_INTERCEPT_AXES = {"x": (X_AXIS,), "z": (Z_AXIS,), "xz": (X_AXIS, Z_AXIS)}


@dataclass(frozen=True)
class InterceptResend:
    """Eve measures Bob's qubit and forwards the matching eigenstate.

    basis is 'x', 'z', 'xz' (a fresh fair coin between x and z each
    round), or a unit 3-vector for an intermediate direction.
    """

    basis: Union[str, tuple[float, float, float]]

    def __post_init__(self) -> None:
        if isinstance(self.basis, str):
            if self.basis not in _INTERCEPT_AXES:
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
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
        if self.rounds < MIN_ROUNDS:
            raise ValueError(f"need at least {MIN_ROUNDS} rounds, got {self.rounds}")
        if self.rounds >= 2**63:  # the multinomial draw counts in signed 64-bit integers
            raise ValueError(f"rounds must be below 2**63, got {self.rounds}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction!r}")
        if not 0 <= self.seed < 2**64:
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


def effective_state(source: TwoQubitState, eve: EveStrategy) -> TwoQubitState:
    """State of a pair as seen by Alice and Bob after Eve's interference."""
    if isinstance(eve, NoEve):
        return source
    if isinstance(eve, InterceptResend):
        axes = _INTERCEPT_AXES.get(eve.basis) or (np.asarray(eve.basis),)
        # Coin-averaged projector onto the measured axis: r_B -> P r_B, T -> T P.
        keep = sum(np.outer(d, d) for d in axes) / len(axes)
        return state_from_bloch(source.bloch_a, keep @ source.bloch_b, source.correlations @ keep)
    if isinstance(eve, SeparableSubstitution):
        return product_mixture(eve.ensemble)
    raise ValueError(f"unknown eavesdropper strategy {eve!r}")


def qber(key_a: str, key_b: str) -> float:
    """Fraction of positions where two equal-length bit strings differ."""
    if len(key_a) != len(key_b):
        raise ValueError(f"key lengths differ: {len(key_a)} vs {len(key_b)}")
    if not key_a:
        raise ValueError("cannot compute an error rate on empty keys")
    # One byte per character; anything but '0' or '1' lands above 1 after the unsigned shift.
    bits_a, bits_b = (np.frombuffer(key.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
                      for key in (key_a, key_b))
    for bits in (bits_a, bits_b):
        if (bits > 1).any():
            raise ValueError("keys must contain only '0' and '1'")
    return int(np.count_nonzero(bits_a != bits_b)) / len(key_a)


@dataclass(frozen=True)
class _Schedule:
    """One flavor's measurement plan; setting indices address alice and bob."""

    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]
    tests: tuple[tuple[str, int, int, float], ...]  # (label, i, j, sign in the statistic)
    keys: tuple[tuple[str, int, int], ...]          # (basis label, i, j) of key rounds
    split: bool  # matched rounds go to test or key by the test_fraction coin
    bound: float


_EKERT = default_ekert_settings()
_SCHEDULES = {
    Protocol.E91: _Schedule(
        alice=(_EKERT.a1.direction, _EKERT.a3.direction, Y_AXIS),  # a1, a3, key
        bob=(_EKERT.b1.direction, _EKERT.b3.direction, Y_AXIS),  # b1, b3, key
        tests=(("a1:b1", 0, 0, 1.0), ("a1:b3", 0, 1, -1.0), ("a3:b1", 1, 0, 1.0),
               ("a3:b3", 1, 1, 1.0)),
        keys=(("y", 2, 2),),
        split=False,
        bound=EKERT_BOUND,
    ),
    Protocol.BBM92: _Schedule(
        alice=(X_AXIS, Z_AXIS),
        bob=(X_AXIS, Z_AXIS),
        tests=(("x:x", 0, 0, 1.0), ("z:z", 1, 1, 1.0)),
        keys=(("x", 0, 0), ("z", 1, 1)),
        split=True,
        bound=BBM_BOUND,
    ),
}


def estimate_statistic(
    tallies: Mapping[str, Sequence[int]], protocol: Protocol
) -> tuple[float, float]:
    """Statistic estimate and standard error from joint-outcome tallies.

    Each tally is (n++, n+-, n-+, n--) for one setting pair, in whole
    non-negative counts.  Correlators are estimated as mean outcome
    products; variances (1 - E^2)/n add across pairs (disjoint samples).
    """
    plan = _SCHEDULES[protocol]
    estimate = 0.0
    variance = 0.0
    for label, _, _, sign in plan.tests:
        if label not in tallies:
            raise ValueError(f"missing tally for setting pair {label}")
        counts = np.asarray(tallies[label], dtype=float)
        if counts.shape != (4,):
            raise ValueError(f"tally for {label} must have 4 entries")
        if not (np.isfinite(counts).all() and counts.min() >= 0 and (counts % 1 == 0).all()):
            raise ValueError(f"tally for {label} must hold counts, got {counts.tolist()}")
        total = counts.sum()
        if total < MIN_SAMPLES_PER_PAIR:
            raise ValueError(
                f"setting pair {label} has {int(total)} samples, "
                f"need {MIN_SAMPLES_PER_PAIR}; increase rounds"
                + (" or raise the test fraction" if plan.split else "")
            )
        e_hat = (counts[0] - counts[1] - counts[2] + counts[3]) / total
        estimate += sign * e_hat
        variance += (1.0 - e_hat**2) / total
    return float(estimate), float(np.sqrt(variance))


def run_protocol(cfg: ProtocolConfig) -> ProtocolReport:
    """Simulate one full run and return its report.

    One multinomial draw over the packed round codes gives every tally;
    the key codes, repeated by their counts and shuffled, give the key
    rounds in order.  Time and memory scale with the key length, not the
    round count.  The same config always yields the same report, bit for
    bit: the generator is counter-based and keyed only by the seed.
    """
    plan = _SCHEDULES[cfg.protocol]
    state = effective_state(cfg.source_state, cfg.eve)
    n_b = len(plan.bob)
    n_pairs = len(plan.alice) * n_b
    tested = [i * n_b + j for _, i, j, _ in plan.tests]
    keyed = [i * n_b + j for _, i, j in plan.keys]
    used = sorted(set(tested + keyed))

    # The joint outcome table of every setting pair, read straight from
    # (r_A, r_B, T).  Each mean is the vector product outcome_distribution
    # takes: a matrix product can round it differently in the last bit.
    r_a, r_b, t = state.bloch_a, state.bloch_b, state.correlations
    probs = joint_probabilities([[r_a @ a] for a in plan.alice], [r_b @ b for b in plan.bob],
                                [[a @ t @ b for b in plan.bob] for a in plan.alice])
    if probs.min() < -ATOL_PSD:
        raise ValueError(f"negative probability {probs.min():.3e}; state not physical")
    coin = [1.0 - cfg.test_fraction, cfg.test_fraction] if plan.split else [1.0]
    law = np.multiply.outer(coin, np.clip(probs, 0.0, None)).ravel()
    codes = np.arange(law.size, dtype=np.uint8)
    in_key = np.isin(codes // 4, keyed)

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts = rng.multinomial(cfg.rounds, law / law.sum())
    key_codes = np.repeat(codes[in_key], counts[in_key])
    rng.shuffle(key_codes)
    counts = counts.reshape(-1, n_pairs, 4)
    tests, key_rounds = counts[-1], counts[0]

    rounds_used = {label: int(counts[:, i * n_b + j].sum()) for label, i, j, _ in plan.tests}
    if plan.split:
        rounds_used["test"] = int(tests[tested].sum())
    rounds_used["key"] = int(key_rounds[keyed].sum())
    rounds_used["discarded"] = cfg.rounds - int(counts[:, used].sum())
    if rounds_used["key"] == 0:
        raise ValueError("no rounds landed on the key settings; increase rounds"
                         + (" or lower the test fraction" if plan.split else ""))
    statistic, stderr = estimate_statistic(
        {label: tests[i * n_b + j] for label, i, j, _ in plan.tests}, cfg.protocol
    )

    # Parties fix each key basis's sign from the advertised source, not
    # from what Eve actually delivers.  Alice's bit is 1 for outcome -1,
    # Bob's for his sign-corrected outcome -1.
    flip = np.zeros(n_pairs, dtype=bool)
    for _, i, j in plan.keys:
        setting_a, setting_b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        flip[i * n_b + j] = correlator(cfg.source_state, setting_a, setting_b) < 0.0
    bits = np.array([codes % 4 >= 2, (codes % 2 == 1) ^ flip[codes // 4 % n_pairs]])
    key_a, key_b = ((row.astype(np.uint8) + ord("0"))[key_codes].tobytes().decode() for row in bits)

    if plan.split:
        wrong = (bits[0] != bits[1]).reshape(counts.shape)[-1]
        n_test = {basis: int(tests[i * n_b + j].sum()) for basis, i, j in plan.keys}
        n_err = {basis: int(tests[i * n_b + j] @ wrong[i * n_b + j]) for basis, i, j in plan.keys}
        qber_by_basis = {basis: n_err[basis] / n_test[basis] for basis in n_test}
        error_rate = sum(n_err.values()) / sum(n_test.values())
    else:
        qber_by_basis = None
        error_rate = qber(key_a, key_b)

    aborted = bool((abs(statistic) - cfg.abort_sigma * stderr) <= plan.bound)
    return ProtocolReport(
        protocol=cfg.protocol,
        statistic=statistic,
        stderr=stderr,
        bound=plan.bound,
        abort_sigma=cfg.abort_sigma,
        aborted=aborted,
        qber=error_rate,
        qber_by_basis=qber_by_basis,
        sifted_key_a=key_a,
        sifted_key_b=key_b,
        rounds_used=rounds_used,
    )
