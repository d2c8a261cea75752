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
binomial draw per class splits its tally between its key codes (BBM92's
x and z).  The result has the law of drawing the rounds one by one, with
each class's probability read at a resolution of 2**-32.  Two-basis runs
count errors by table lookups on the packed code, four-correlator runs by
qber on the keys' ASCII codes before the strings are made (qber takes a
uint8 buffer of codes or a str of '0' and '1').  Memory scales with the
key, about 3 bytes per key bit, not with the round count.

The eavesdropper acts on Bob's wing of each pair before it reaches him.
Intercept-resend along d, outcome forgotten, keeps Bob's spin component
along d: r_B -> (r_B.d) d and T -> T d d^T.  A fresh basis coin per
round makes rounds independent draws from the coin-averaged channel, so
the simulation applies the averaged map once.  That map is a mixture of
unitary conjugations, so its image keeps every check the source passed
and is not validated again.

Randomness comes from a counter-based generator keyed by the config
seed, so every report is reproducible bit for bit.

What a run reads off its schedule alone is built once, at import: each
party's settings as rows and each setting pair's products a_k b_l, so that
every mean is an ordered sum that equals outcome_distribution's; the key
settings; and, for each pattern of key-basis sign flips, the key cells and
the books that read rounds and bit errors off the tallies.  A run does
only what depends on its source, eavesdropper, seed and rounds.
"""

from __future__ import annotations

import itertools
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
    _read_only,
    _state_from_bloch,
    _sum_in_order,
    BELL_CORRELATORS,
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    TwoQubitState,
    correlator,
    joint_probabilities,
    product_mixture,
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
# Each named basis's coin-averaged projector onto the measured axis.
_INTERCEPT_KEEP = {basis: _read_only(sum(np.outer(d, d) for d in axes) / len(axes))
                   for basis, axes in _INTERCEPT_AXES.items()}


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
    return _state_from_bloch(0.0, 0.0, np.diag(BELL_CORRELATORS[BellLabel.PSI_MINUS]))


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
        if not isinstance(self.source_state, TwoQubitState):
            raise TypeError(f"source_state must be a TwoQubitState, got {self.source_state!r}")
        if not isinstance(self.eve, (NoEve, InterceptResend, SeparableSubstitution)):
            raise TypeError("eve must be NoEve, InterceptResend or SeparableSubstitution, "
                            f"got {self.eve!r}")


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
        # Coin-averaged projector onto the measured axis: r_B -> P r_B, T -> T P.
        keep = _INTERCEPT_KEEP.get(eve.basis)
        if keep is None:
            keep = np.outer(eve.basis, eve.basis)
        return _state_from_bloch(source.bloch_a, _sum_in_order(keep * source.bloch_b),
                                 _sum_in_order(source.correlations[:, None, :] * keep.T))
    if isinstance(eve, SeparableSubstitution):
        return product_mixture(eve.ensemble)
    raise ValueError(f"unknown eavesdropper strategy {eve!r}")


def qber(key_a: Union[str, bytes, np.ndarray], key_b: Union[str, bytes, np.ndarray]) -> float:
    """Fraction of positions where two equal-length keys differ: each a str of '0' and '1' or
    a C-contiguous uint8 buffer (bytes, array) of those ASCII codes; only a str is encoded."""
    codes_a, codes_b = (np.frombuffer(key.encode("ascii", "replace") if isinstance(key, str)
                                      else key, dtype=np.uint8) for key in (key_a, key_b))
    if codes_a.size != codes_b.size:  # a buffer's length is its byte count, whatever its shape
        raise ValueError(f"key lengths differ: {codes_a.size} vs {codes_b.size}")
    if not codes_a.size:
        raise ValueError("cannot compute an error rate on empty keys")
    for codes in (codes_a, codes_b):
        if codes.min() < ord("0") or codes.max() > ord("1"):
            raise ValueError("keys must contain only '0' and '1'")
    return int(np.count_nonzero(codes_a != codes_b)) / codes_a.size


class _Schedule:
    """One flavor's measurement plan, and what a run reads off it alone, made once at import.

    Setting indices address alice and bob; setting pair (i, j) is pair i * len(bob) + j.
    """

    def __init__(self, alice: tuple[np.ndarray, ...], bob: tuple[np.ndarray, ...],
                 tests: tuple[tuple[str, int, int, float], ...],
                 keys: tuple[tuple[str, int, int], ...], split: bool, bound: float) -> None:
        self.alice, self.bob = alice, bob
        self.tests = tests  # (label, i, j, sign in the statistic)
        self.keys = keys  # (basis label, i, j) of key rounds
        self.split = split  # matched rounds go to test or key by the test_fraction coin
        self.bound = bound
        self.rows_a, self.rows_b = _read_only(np.array(alice)), _read_only(np.array(bob))
        # Pair (i, j)'s products a_k b_l, row-major, the ones correlator weighs T with.
        self.pair_products = _read_only((self.rows_a[:, None, :, None] * self.rows_b[:, None])
                                        .reshape(len(alice), len(bob), 9))
        n_b = len(bob)
        self.tested = tuple(i * n_b + j for _, i, j, _ in tests)  # the pair of each test
        self.keyed = tuple(i * n_b + j for _, i, j in keys)  # the pair of each key basis
        self.used = tuple(sorted(set(self.tested + self.keyed)))  # pairs whose rounds are kept
        self.key_settings = tuple((SpinSetting.alice(alice[i]), SpinSetting.bob(bob[j]))
                                  for _, i, j in keys)
        # Per pattern of key-basis sign flips, (key_cells, books); see run_protocol.
        self.signing = {}
        keyed = list(self.keyed)
        for flips in itertools.product((False, True), repeat=len(keyed)):
            flip = np.zeros(len(alice) * n_b, dtype=bool)
            flip[keyed] = flips
            # Key rounds: the key side (0) of the test coin, by (class, key setting pair).
            key_cells = 4 * np.array(keyed) + (np.arange(4)[:, None] ^ flip[keyed])
            # The bits differ on outcomes of product -1, unless the pair's sign is flipped.
            wrong = (_OUTCOME_SIGNS[2] < 0.0) != flip[:, None]
            books = np.stack([np.ones_like(wrong), wrong], axis=-1).astype(np.int64)
            self.signing[flips] = _read_only(key_cells), _read_only(books)


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
    It walks the pairs once in schedule order, so a bad tally raises
    ValueError naming the first bad pair.
    """
    plan = _SCHEDULES[protocol]
    estimate = variance = 0.0
    for label, _, _, sign in plan.tests:
        if label not in tallies:
            raise ValueError(f"missing tally for setting pair {label}")
        counts = np.asarray(tallies[label], dtype=float)
        if counts.shape != (4,):
            raise ValueError(f"tally for {label} must have 4 entries")
        pp, pm, mp, mm = values = counts.tolist()
        # is_integer() is False for NaN and inf
        if not all(value >= 0.0 and value.is_integer() for value in values):
            raise ValueError(f"tally for {label} must hold counts, got {values}")
        total = pp + pm + mp + mm
        if total < MIN_SAMPLES_PER_PAIR:
            raise ValueError(
                f"setting pair {label} has {int(total)} samples, "
                f"need {MIN_SAMPLES_PER_PAIR}; increase rounds"
                + (" or raise the test fraction" if plan.split else "")
            )
        e_hat = (pp - pm - mp + mm) / total
        estimate += sign * e_hat
        variance += (1.0 - e_hat**2) / total
    return estimate, math.sqrt(variance)


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
    A zero-weight class repeats the threshold before it, so each distinct threshold is
    compared once and counts as often as it repeats.  After all lead bytes, each tie in
    order takes the stream's next 32-bit value e and counts the T_k <= (byte << 24) | (e >> 8).
    A class with two positive cells (weights has at most two columns) then splits its
    tally by one binomial draw, in class order: the stream of a two-category multinomial.
    """
    *cumulative, total = weights.sum(axis=1).cumsum().tolist()
    scaled = [math.ceil(t / total * 2.0**32) for t in cumulative]
    thresholds = [t for t in scaled if t < 2**32]
    # (h_k, l_k, how many k share it), in threshold order
    lead = [(*top, len(list(same)))
            for top, same in itertools.groupby(divmod(t, 2**24) for t in thresholds)]
    tie_bytes = sorted({h for h, low, _ in lead if low})
    drawn = np.zeros(n, dtype=np.uint8)
    exceed = [0] * len(lead)  # exceed[g]: draws whose class passes distinct threshold g
    ties = []  # (positions, lead bytes) of the ties of each slice that has any
    step = max(_MIN_SLICE, -(-n // _MAX_SLICES))
    step += -step % 8  # whole words per slice, so the slices read the stream's bytes in order
    for start in range(0, n, step):
        size = min(step, n - start)
        words = rng.bit_generator.random_raw(-(-size // 8))
        byte = words.astype("<u8", copy=False).view(np.uint8)[:size]
        index = drawn[start:start + size]
        for g, (h, low, repeats) in enumerate(lead):
            past = byte > h if low else byte >= h
            exceed[g] += np.count_nonzero(past)
            past = past.view(np.uint8)
            if repeats > 1:
                past *= repeats
            index += past
        if tie_bytes:
            tied = byte == tie_bytes[0]
            for h in tie_bytes[1:]:
                tied |= byte == h
            where = np.flatnonzero(tied)
            if where.size:
                ties.append((where + start, byte[where]))
    passed = [count for count, (*_, repeats) in zip(exceed, lead) for _ in range(repeats)]
    bounds = [n, *passed] + [0] * (len(weights) - len(passed))  # draws of class >= c, by c
    tallies = np.subtract(bounds[:-1], bounds[1:])
    if ties:
        where, tie_lead = (np.concatenate(part) for part in zip(*ties))
        extension = rng.bit_generator.random_raw(-(-where.size // 2))
        e = extension.astype("<u8", copy=False).view("<u4")[:where.size]
        resolved = np.searchsorted(np.array(thresholds, dtype=np.uint32),
                                   tie_lead.astype(np.uint32) << 24 | e >> 8, "right")
        tallies += (np.bincount(resolved, minlength=tallies.size)
                    - np.bincount(drawn[where], minlength=tallies.size))
        drawn[where] = resolved
    split = []
    for tally, row in zip(tallies.tolist(), weights.tolist()):
        if len(row) == 2 and row[0] > 0.0 and row[1] > 0.0:
            first = int(rng.binomial(tally, row[0] / (row[0] + row[1])))
            split.append([first, tally - first])
        else:  # at most one positive cell takes the whole tally
            split.append([tally if w > 0.0 else 0 for w in row])
    return drawn, np.array(split)


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

    # The joint outcome table of every setting pair, each mean summed as outcome_distribution's.
    probs = _physical(joint_probabilities(_sum_in_order(plan.rows_a * state.bloch_a)[:, None],
                                          _sum_in_order(plan.rows_b * state.bloch_b),
                                          _sum_in_order(plan.pair_products
                                                        * state.correlations.ravel()))
                      .ravel())
    coin = [1.0 - cfg.test_fraction, cfg.test_fraction] if plan.split else [1.0]
    law = np.multiply.outer(coin, probs).ravel()
    # Parties fix each key basis's sign from the advertised source, not
    # from what Eve actually delivers.  Alice's bit is 1 for outcome -1,
    # Bob's for his sign-corrected outcome -1; outcome o (OUTCOMES order) of
    # pair p has bit pair class 2a + b = o ^ flip[p].  key_cells are the key
    # codes by (class, key basis); books[p] reads a pair's rounds and wrong bits.
    flips = tuple(correlator(cfg.source_state, *pair) < 0.0 for pair in plan.key_settings)
    key_cells, books = plan.signing[flips]

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts = rng.multinomial(cfg.rounds, law / law.sum())
    drawn, counts[key_cells] = _draw_indices(rng, law[key_cells], int(counts[key_cells].sum()))
    counts = counts.reshape(-1, len(books), 4)
    tests = counts[-1]

    # (rounds, rounds whose bits differ) by (test coin side, setting pair), exact in ints
    read = np.matmul(counts[:, :, None], books)[:, :, 0].tolist()
    rounds_used = {label: sum(side[p][0] for side in read)
                   for (label, *_), p in zip(plan.tests, plan.tested)}
    if plan.split:
        rounds_used["test"] = sum(read[-1][p][0] for p in plan.tested)
    rounds_used["key"] = sum(read[0][p][0] for p in plan.keyed)
    rounds_used["discarded"] = cfg.rounds - sum(side[p][0] for side in read for p in plan.used)
    if rounds_used["key"] == 0:
        raise ValueError("no rounds landed on the key settings; increase rounds"
                         + (" or lower the test fraction" if plan.split else ""))
    statistic, stderr = estimate_statistic(
        {label: tests[p] for (label, *_), p in zip(plan.tests, plan.tested)}, cfg.protocol
    )

    # Alice's bit is the class's high bit, Bob's its low bit; the error count reads their ASCII
    # codes and each string comes after it, so at most three key-sized buffers live at once.
    codes_a = drawn >> 1
    codes_a |= ord("0")
    codes_b = np.bitwise_and(drawn, 1, out=drawn)
    codes_b |= ord("0")

    if plan.split:
        n_test, n_err = ({basis: read[-1][p][column]
                          for (basis, *_), p in zip(plan.keys, plan.keyed)} for column in (0, 1))
        qber_by_basis = {basis: n_err[basis] / n_test[basis] for basis in n_test}
        error_rate = sum(n_err.values()) / sum(n_test.values())
    else:
        qber_by_basis = None
        error_rate = qber(codes_a, codes_b)
    key_a = str(codes_a, "ascii")
    del codes_a
    key_b = str(codes_b, "ascii")

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
