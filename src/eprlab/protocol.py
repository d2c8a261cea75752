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
qstate.OUTCOMES order), whose law is the test/key coin times the
uniform setting-pair weight times the joint outcome table read from
(r_A, r_B, T), a probability within ATOL_PSD of zero read as 0.0.  One
multinomial draw gives every tally and the key length K.  Given K and
the other tallies, the key rounds are K independent draws from the key
codes' conditional law, so the key is drawn that way: a report shows
only each position's bit pair, so each draws its class 2a + b of Alice's
bit a and Bob's bit b, 8 bits per key bit plus 32 for each tie, and one
multinomial draw per class splits its tally among its key codes (BBM92's
x and z).  The result has the law of drawing the rounds one by one, with
each class's probability read at a resolution of 2**-32.  Error counts
are table lookups on the packed code, and memory scales with the key,
not with the round count.

The eavesdropper acts on Bob's wing of each pair before it reaches him.
Intercept-resend along d, outcome forgotten, keeps Bob's spin component
along d: r_B -> (r_B.d) d and T -> T d d^T.  A fresh basis coin per
round makes rounds independent draws from the coin-averaged channel, so
the simulation applies the averaged map once.

Randomness comes from a counter-based generator keyed by the config
seed, so every report is reproducible bit for bit.
"""

from __future__ import annotations

import math
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
    _OUTCOME_SIGNS,
    _physical,
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
                named = ", ".join(repr(basis) for basis in _INTERCEPT_AXES)
                raise ValueError(f"basis must be {named}, or a 3-vector, got {self.basis!r}")
            return
        direction = tuple(float(x) for x in self.basis)
        if len(direction) != 3:
            raise ValueError(f"basis vector must have 3 components, got {len(direction)}")
        norm = math.hypot(*direction)  # hypot neither overflows nor warns
        if not abs(norm - 1.0) <= ATOL_CONSTRUCT:
            raise ValueError(f"basis vector {list(direction)} has norm {norm!r}, not 1")
        object.__setattr__(self, "basis", direction)


@dataclass(frozen=True)
class SeparableSubstitution:
    """Eve discards the pairs and distributes a product-state mixture."""

    ensemble: ProductEnsemble

    def __post_init__(self) -> None:
        if not isinstance(self.ensemble, ProductEnsemble):
            raise TypeError(f"ensemble must be a ProductEnsemble, got {self.ensemble!r}")


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
    """Everything a run produces; bound is the protocol's and aborted follows the abort rule."""

    protocol: Protocol
    statistic: float
    stderr: float
    bound: float = field(init=False)
    abort_sigma: float
    aborted: bool = field(init=False)
    qber: float
    qber_by_basis: Optional[Mapping[str, float]]
    sifted_key_a: str
    sifted_key_b: str
    rounds_used: Mapping[str, int]

    def __post_init__(self) -> None:
        for name in ("statistic", "stderr", "abort_sigma"):  # NaN would never abort
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"report {name} must be finite, got {getattr(self, name)!r}")
        if len(self.sifted_key_a) != len(self.sifted_key_b):
            raise ValueError("sifted keys must have equal length")
        if not 0.0 <= self.qber <= 1.0:
            raise ValueError(f"qber {self.qber!r} outside [0, 1]")
        object.__setattr__(self, "bound", _SCHEDULES[Protocol(self.protocol)].bound)
        aborted = bool((abs(self.statistic) - self.abort_sigma * self.stderr) <= self.bound)
        object.__setattr__(self, "aborted", aborted)


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
        e_hat = (_OUTCOME_SIGNS[2] * counts).sum() / total
        estimate += sign * e_hat
        variance += (1.0 - e_hat**2) / total
    return float(estimate), float(np.sqrt(variance))


# The lead bytes of a key come in at most this many slices of at least
# _MIN_SLICE each, so their stream buffer stays near an eighth of a byte per key bit.
_MAX_SLICES = 8
_MIN_SLICE = 4096


def _draw_indices(rng: np.random.Generator, weights: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. classes c, each drawn with probability weights[c].sum() / weights.sum() to
    within 2**-32, and their tallies by cell (c, j), shaped like weights.

    A class counts the thresholds T_k = ceil(t_k * 2**32) of the cumulative weights t_k that
    a 32-bit uniform u reaches; none of 2**32 is kept, so no class past the last positive
    weight comes up.  It reads 8 bits per draw plus 32 per tie: draw i's lead byte, byte i
    of the stream (Philox words read little-endian), is u's top byte and passes
    T_k = h_k * 2**24 + l_k above h_k, or at h_k if l_k = 0; at h_k with l_k > 0 it ties.
    After all lead bytes, each tie in order takes the stream's next 32-bit value e and
    counts the T_k <= (byte << 24) | (e >> 8).  One multinomial per class with two or more
    positive cells then splits its tally in proportion to weights[c].
    """
    cumulative = weights.sum(axis=1).cumsum()
    scaled = np.ceil(cumulative[:-1] / cumulative[-1] * 2.0**32)
    thresholds = scaled[scaled < 2.0**32].astype(np.uint32)
    lead = [divmod(t, 2**24) for t in thresholds.tolist()]  # (h_k, l_k)
    tie_bytes = sorted({h for h, low in lead if low})
    drawn = np.zeros(n, dtype=np.uint8)
    exceed = [0] * scaled.size  # exceed[k]: draws whose class exceeds k
    ties = []  # (positions, lead bytes) of the ties of each slice that has any
    step = max(_MIN_SLICE, -(-n // _MAX_SLICES))
    step += -step % 8  # whole words per slice, so the slices read the stream's bytes in order
    for start in range(0, n, step):
        size = min(step, n - start)
        words = rng.bit_generator.random_raw(-(-size // 8))
        byte = words.astype("<u8", copy=False).view(np.uint8)[:size]
        index = drawn[start:start + size]
        for k, (h, low) in enumerate(lead):
            if not k or lead[k - 1] != (h, low):  # a zero-weight class repeats its threshold
                past = byte > h if low else byte >= h
                passed = np.count_nonzero(past)
            index += past.view(np.uint8)
            exceed[k] += passed
        if tie_bytes:
            tied = byte == tie_bytes[0]
            for h in tie_bytes[1:]:
                tied |= byte == h
            where = np.flatnonzero(tied)
            if where.size:
                ties.append((where + start, byte[where]))
    bounds = [n, *exceed, 0]
    tallies = np.subtract(bounds[:-1], bounds[1:])
    if ties:
        where, tie_lead = (np.concatenate(part) for part in zip(*ties))
        extension = rng.bit_generator.random_raw(-(-where.size // 2))
        e = extension.astype("<u8", copy=False).view("<u4")[:where.size]
        resolved = np.searchsorted(thresholds, tie_lead.astype(np.uint32) << 24 | e >> 8, "right")
        tallies += (np.bincount(resolved, minlength=tallies.size)
                    - np.bincount(drawn[where], minlength=tallies.size))
        drawn[where] = resolved
    positive = weights > 0.0
    split = tallies[:, None] * positive  # right for a class with at most one positive cell
    several = positive.sum(axis=1) > 1
    if several.any():  # one multinomial per such class, in class order
        rows = weights[several]
        split[several] = rng.multinomial(tallies[several], rows / rows.sum(axis=1, keepdims=True))
    return drawn, split


def run_protocol(cfg: ProtocolConfig) -> ProtocolReport:
    """Simulate one full run and return its report.

    One multinomial draw over the packed round codes gives every tally
    and the key length; the key rounds' bit pairs are then drawn in
    order, i.i.d. from their conditional law, and their split among the
    key codes replaces the multinomial's.  Time and memory scale with the key
    length, not the round count.  The same config always yields the same
    report, bit for bit: the generator is counter-based and keyed only by
    the seed.
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
    probs = _physical(joint_probabilities(
        [[r_a @ a] for a in plan.alice], [r_b @ b for b in plan.bob],
        [[a @ t @ b for b in plan.bob] for a in plan.alice]))
    coin = [1.0 - cfg.test_fraction, cfg.test_fraction] if plan.split else [1.0]
    law = np.multiply.outer(coin, probs).ravel()
    # Parties fix each key basis's sign from the advertised source, not
    # from what Eve actually delivers.  Alice's bit is 1 for outcome -1,
    # Bob's for his sign-corrected outcome -1; outcome o (OUTCOMES order) of
    # pair p has bit pair class 2a + b = o ^ flip[p].
    flip = np.zeros(n_pairs, dtype=bool)
    for _, i, j in plan.keys:
        setting_a, setting_b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        flip[i * n_b + j] = correlator(cfg.source_state, setting_a, setting_b) < 0.0
    # Key rounds: the key side (0) of the test coin, by (class, key setting pair).
    key_cells = 4 * np.array(keyed) + (np.arange(4)[:, None] ^ flip[keyed])

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts = rng.multinomial(cfg.rounds, law / law.sum())
    drawn, counts[key_cells] = _draw_indices(rng, law[key_cells], int(counts[key_cells].sum()))
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

    # Alice's bit is the class's high bit and Bob's its low bit; at most three
    # key-sized buffers are alive at once.
    key_a = str(np.bitwise_or(drawn >> 1, ord("0")), "ascii")
    key_b = str(np.bitwise_or(drawn & 1, ord("0"), out=drawn), "ascii")
    del drawn

    if plan.split:
        # The bits differ on outcomes of product -1, unless the pair's sign is flipped.
        wrong = (_OUTCOME_SIGNS[2] < 0.0) != flip[:, None]
        n_test = {basis: int(tests[i * n_b + j].sum()) for basis, i, j in plan.keys}
        n_err = {basis: int(tests[i * n_b + j] @ wrong[i * n_b + j]) for basis, i, j in plan.keys}
        qber_by_basis = {basis: n_err[basis] / n_test[basis] for basis in n_test}
        error_rate = sum(n_err.values()) / sum(n_test.values())
    else:
        qber_by_basis = None
        error_rate = qber(key_a, key_b)

    return ProtocolReport(
        protocol=cfg.protocol,
        statistic=statistic,
        stderr=stderr,
        abort_sigma=cfg.abort_sigma,
        qber=error_rate,
        qber_by_basis=qber_by_basis,
        sifted_key_a=key_a,
        sifted_key_b=key_b,
        rounds_used=rounds_used,
    )
