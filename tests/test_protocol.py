"""Tests for the key-distribution simulation and eavesdropper channels."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from eprlab import protocol
from eprlab.protocol import (
    InterceptResend,
    MIN_SAMPLES_PER_PAIR,
    NoEve,
    Protocol,
    ProtocolConfig,
    ProtocolReport,
    SeparableSubstitution,
    effective_state,
    estimate_statistic,
    qber,
    run_protocol,
)
from eprlab.qstate import (
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    bell_state,
    correlator,
    density_from_pure,
    outcome_distribution,
    phase_epr_state,
)
from eprlab.witnesses import BBM_BOUND, BBM_FUNCTIONAL, EKERT_BOUND, EKERT_FUNCTIONAL


def singlet():
    return density_from_pure(bell_state(BellLabel.PSI_MINUS))


def xx_zz(state):
    ex = correlator(state, SpinSetting.alice(X_AXIS), SpinSetting.bob(X_AXIS))
    ez = correlator(state, SpinSetting.alice(Z_AXIS), SpinSetting.bob(Z_AXIS))
    return ex, ez


class TestConfigValidation:
    def test_rounds_floor(self):
        with pytest.raises(ValueError, match="rounds"):
            ProtocolConfig(protocol=Protocol.E91, rounds=50)

    def test_test_fraction_range(self):
        with pytest.raises(ValueError, match="test_fraction"):
            ProtocolConfig(protocol=Protocol.BBM92, rounds=1000, test_fraction=0.0)
        with pytest.raises(ValueError, match="test_fraction"):
            ProtocolConfig(protocol=Protocol.BBM92, rounds=1000, test_fraction=1.0)

    def test_rounds_ceiling(self):
        ProtocolConfig(protocol=Protocol.E91, rounds=2**63 - 1)
        with pytest.raises(ValueError, match=f"rounds must be below 2\\*\\*63, got {10**20}"):
            ProtocolConfig(protocol=Protocol.E91, rounds=10**20)

    def test_rounds_and_seed_are_integers(self):
        for name, value in (("rounds", 2000.5), ("seed", 1.5), ("rounds", "2000")):
            with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
                ProtocolConfig(**{"protocol": Protocol.E91, "rounds": 1000, name: value})
        cfg = ProtocolConfig(protocol=Protocol.E91, rounds=np.int64(1000), seed=np.uint64(2**63))
        assert (type(cfg.rounds), type(cfg.seed)) == (int, int)
        assert (cfg.rounds, cfg.seed) == (1000, 2**63)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="seed"):
            ProtocolConfig(protocol=Protocol.E91, rounds=1000, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            ProtocolConfig(protocol=Protocol.E91, rounds=1000, seed=2**64)

    def test_abort_sigma_positive(self):
        with pytest.raises(ValueError, match="abort_sigma"):
            ProtocolConfig(protocol=Protocol.E91, rounds=1000, abort_sigma=0.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="abort_sigma must be positive and finite"):
                ProtocolConfig(protocol=Protocol.E91, rounds=1000, abort_sigma=value)

    def test_protocol_enum_required(self):
        with pytest.raises(ValueError, match="Protocol"):
            ProtocolConfig(protocol="e91", rounds=1000)


class TestEveStrategies:
    def test_intercept_basis_validation(self):
        with pytest.raises(ValueError, match="basis"):
            InterceptResend(basis="y-z")
        with pytest.raises(ValueError, match="norm"):
            InterceptResend(basis=(1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match=r"basis vector \[nan, 0.0, 0.0\] has norm nan"):
            InterceptResend(basis=(float("nan"), 0.0, 0.0))
        with pytest.raises(ValueError, match="basis vector must have 3 components, got 2"):
            InterceptResend(basis=(1.0, 0.0))
        custom = InterceptResend(basis=(0.6, 0.0, 0.8))
        assert custom.basis == pytest.approx((0.6, 0.0, 0.8))

    def test_no_eve_passthrough(self):
        rho = singlet()
        assert effective_state(rho, NoEve()) is rho

    def test_intercept_z_kills_x_correlations(self):
        rho = effective_state(singlet(), InterceptResend(basis="z"))
        ex, ez = xx_zz(rho)
        assert ex == pytest.approx(0.0, abs=1e-12)
        assert ez == pytest.approx(-1.0, abs=1e-12)

    def test_intercept_x_kills_z_correlations(self):
        rho = effective_state(singlet(), InterceptResend(basis="x"))
        ex, ez = xx_zz(rho)
        assert ex == pytest.approx(-1.0, abs=1e-12)
        assert ez == pytest.approx(0.0, abs=1e-12)

    def test_intercept_xz_halves_both(self):
        """Coin-averaging the two bases leaves each correlator at half strength."""
        rho = effective_state(singlet(), InterceptResend(basis="xz"))
        ex, ez = xx_zz(rho)
        assert ex == pytest.approx(-0.5, abs=1e-12)
        assert ez == pytest.approx(-0.5, abs=1e-12)

    def test_intercept_diagonal_direction(self):
        """Measuring along (x+z)/sqrt(2) also leaves both correlators at -1/2."""
        d = tuple(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
        rho = effective_state(singlet(), InterceptResend(basis=d))
        ex, ez = xx_zz(rho)
        assert ex == pytest.approx(-0.5, abs=1e-12)
        assert ez == pytest.approx(-0.5, abs=1e-12)

    def test_substitution_gives_product_mixture(self):
        ens = ProductEnsemble([(1.0, Z_AXIS, tuple(-Z_AXIS))])
        rho = effective_state(singlet(), SeparableSubstitution(ensemble=ens))
        ex, ez = xx_zz(rho)
        assert ez == pytest.approx(-1.0, abs=1e-12)
        assert ex == pytest.approx(0.0, abs=1e-12)


class TestEstimator:
    def test_perfect_tallies(self):
        tallies = {"x:x": (0, 50, 50, 0), "z:z": (0, 60, 60, 0)}
        estimate, stderr = estimate_statistic(tallies, Protocol.BBM92)
        assert estimate == pytest.approx(-2.0)
        assert stderr == pytest.approx(0.0)

    def test_mixed_tallies(self):
        tallies = {"x:x": (30, 10, 10, 30), "z:z": (20, 20, 20, 20)}
        estimate, stderr = estimate_statistic(tallies, Protocol.BBM92)
        assert estimate == pytest.approx(0.5)
        expected_var = (1.0 - 0.25) / 80.0 + 1.0 / 80.0
        assert stderr == pytest.approx(np.sqrt(expected_var))

    def test_e91_signs(self):
        """The a1:b3 correlator enters the statistic with a minus sign."""
        perfect = (40, 0, 0, 0)
        tallies = {"a1:b1": perfect, "a1:b3": perfect, "a3:b1": perfect, "a3:b3": perfect}
        estimate, _ = estimate_statistic(tallies, Protocol.E91)
        assert estimate == pytest.approx(2.0)

    def test_starved_pair_named(self):
        tallies = {"x:x": (10, 0, 0, 10), "z:z": (0, 60, 60, 0)}
        with pytest.raises(ValueError, match="x:x"):
            estimate_statistic(tallies, Protocol.BBM92)

    def test_missing_pair_named(self):
        with pytest.raises(ValueError, match="a3:b3"):
            estimate_statistic(
                {"a1:b1": (40, 0, 0, 0), "a1:b3": (40, 0, 0, 0), "a3:b1": (40, 0, 0, 0)},
                Protocol.E91,
            )

    @pytest.mark.parametrize("tally", [(100, -50, 0, 0), (np.nan, 40, 0, 0), (np.inf, 40, 0, 0),
                                       (30.5, 0.25, 0, 0)],
                             ids=["negative", "nan", "inf", "fractional"])
    def test_non_count_tally_rejected(self, tally):
        tallies = {"x:x": (30, 10, 10, 30), "z:z": tally}
        with pytest.raises(ValueError, match=r"^tally for z:z must hold counts, got \["):
            estimate_statistic(tallies, Protocol.BBM92)

    @pytest.mark.parametrize("flavour, functional", [(Protocol.E91, EKERT_FUNCTIONAL),
                                                     (Protocol.BBM92, BBM_FUNCTIONAL)])
    def test_test_pairs_spell_the_witness(self, flavour, functional):
        """The signed test pairs of each schedule sum to the weights of its statistic."""
        plan = protocol._SCHEDULES[flavour]
        weights = sum(sign * np.outer(plan.alice[i], plan.bob[j]) for _, i, j, sign in plan.tests)
        assert np.array_equal(weights, functional.weights)

    def test_minimum_is_thirty(self):
        assert MIN_SAMPLES_PER_PAIR == 30


class TestQber:
    def test_basic(self):
        assert qber("0011", "0010") == pytest.approx(0.25)
        assert qber("0000", "0000") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            qber("00", "000")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            qber("", "")

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError, match="'0' and '1'"):
            qber("01a", "010")


class TestE91Runs:
    def test_clean_singlet_run(self):
        cfg = ProtocolConfig(protocol=Protocol.E91, rounds=30_000, seed=3)
        report = run_protocol(cfg)
        assert report.protocol is Protocol.E91
        assert report.bound == pytest.approx(EKERT_BOUND)
        assert not report.aborted
        assert report.qber == 0.0
        assert report.sifted_key_a == report.sifted_key_b
        assert len(report.sifted_key_a) == report.rounds_used["key"]
        assert abs(report.statistic + 2.0 * np.sqrt(2.0)) <= 5.0 * report.stderr
        assert report.qber_by_basis is None

    def test_rounds_bookkeeping(self):
        cfg = ProtocolConfig(protocol=Protocol.E91, rounds=10_000, seed=5)
        report = run_protocol(cfg)
        assert sum(report.rounds_used.values()) == cfg.rounds

    def test_key_sign_handles_correlated_source(self):
        """A source with positive key-axis correlation needs no bit flip."""
        source = density_from_pure(bell_state(BellLabel.PSI_PLUS))  # E(yy) = +1
        cfg = ProtocolConfig(protocol=Protocol.E91, rounds=20_000, source_state=source, seed=9)
        report = run_protocol(cfg)
        assert report.qber == 0.0

    def test_separable_substitution_aborts(self):
        ens = ProductEnsemble(
            [(0.5, (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)), (0.5, (0.0, -1.0, 0.0), (0.0, 1.0, 0.0))]
        )
        cfg = ProtocolConfig(
            protocol=Protocol.E91, rounds=50_000, eve=SeparableSubstitution(ens), seed=11
        )
        report = run_protocol(cfg)
        assert report.aborted
        # The y-anticorrelated substitution even keeps the key clean.
        assert report.qber == 0.0

    def test_too_few_rounds_raises(self):
        cfg = ProtocolConfig(protocol=Protocol.E91, rounds=150, seed=1)
        with pytest.raises(ValueError, match="samples|rounds"):
            run_protocol(cfg)


class TestBBM92Runs:
    def test_clean_singlet_run(self):
        cfg = ProtocolConfig(protocol=Protocol.BBM92, rounds=20_000, seed=3)
        report = run_protocol(cfg)
        assert report.statistic == pytest.approx(-2.0)
        assert report.stderr == pytest.approx(0.0)
        assert not report.aborted
        assert report.qber == 0.0
        assert report.qber_by_basis == {"x": 0.0, "z": 0.0}
        assert report.sifted_key_a == report.sifted_key_b
        assert report.bound == pytest.approx(BBM_BOUND)

    def test_rounds_bookkeeping(self):
        cfg = ProtocolConfig(protocol=Protocol.BBM92, rounds=10_000, seed=5)
        report = run_protocol(cfg)
        used = report.rounds_used
        assert used["x:x"] + used["z:z"] + used["discarded"] == cfg.rounds
        assert used["test"] + used["key"] == used["x:x"] + used["z:z"]
        assert len(report.sifted_key_a) == used["key"]

    def test_intercept_xz_aborts_with_quarter_qber(self):
        cfg = ProtocolConfig(
            protocol=Protocol.BBM92, rounds=100_000, eve=InterceptResend(basis="xz"), seed=3
        )
        report = run_protocol(cfg)
        assert report.aborted
        assert report.qber == pytest.approx(0.25, abs=0.02)
        assert report.qber_by_basis["x"] == pytest.approx(0.25, abs=0.03)
        assert report.qber_by_basis["z"] == pytest.approx(0.25, abs=0.03)
        assert report.statistic == pytest.approx(-1.0, abs=0.05)

    def test_intercept_z_keeps_z_basis_clean(self):
        cfg = ProtocolConfig(
            protocol=Protocol.BBM92, rounds=100_000, eve=InterceptResend(basis="z"), seed=7
        )
        report = run_protocol(cfg)
        assert report.aborted
        assert report.qber_by_basis["z"] == pytest.approx(0.0, abs=1e-12)
        assert report.qber_by_basis["x"] == pytest.approx(0.5, abs=0.03)

    def test_phase_source_keys_match_partially(self):
        """A partially correlated source shows up as key errors, not a crash."""
        source = density_from_pure(phase_epr_state(np.pi / 4.0))
        cfg = ProtocolConfig(protocol=Protocol.BBM92, rounds=50_000, source_state=source, seed=13)
        report = run_protocol(cfg)
        ex, ez = xx_zz(source)
        expected = 0.5 * (1.0 - abs(ex)) / 2.0 + 0.5 * (1.0 - abs(ez)) / 2.0
        assert report.qber == pytest.approx(expected, abs=0.02)


class TestDeterminism:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_same_seed_same_report(self, protocol):
        cfg = ProtocolConfig(protocol=protocol, rounds=5_000, seed=42)
        assert run_protocol(cfg) == run_protocol(cfg)

    def test_different_seeds_differ(self):
        a = run_protocol(ProtocolConfig(protocol=Protocol.E91, rounds=5_000, seed=1))
        b = run_protocol(ProtocolConfig(protocol=Protocol.E91, rounds=5_000, seed=2))
        assert a.sifted_key_a != b.sifted_key_a


def report_digest(report: ProtocolReport) -> str:
    """SHA-256 over every report field: floats as hex, dicts in their key order."""
    def text(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, Protocol):
            return value.value
        if isinstance(value, (type(None), bool, int, str)):
            return repr(value)
        return repr([(k, text(v)) for k, v in value.items()])

    fields = (f"{f.name}={text(getattr(report, f.name))}" for f in dataclasses.fields(report))
    return hashlib.sha256("\n".join(fields).encode()).hexdigest()


GOLDEN_EVES = {
    "none": NoEve(),
    "x": InterceptResend(basis="x"),
    "xz": InterceptResend(basis="xz"),
    "tilted": InterceptResend(basis=(0.6, 0.0, 0.8)),
    "substitution": SeparableSubstitution(
        ProductEnsemble([(0.6, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
                         (0.4, (0.6, 0.0, 0.8), (-1.0, 0.0, 0.0))])
    ),
}
# Recorded when the law sampler replaced the round-by-round draws: a seed
# must keep mapping to the same report, bit for bit.
GOLDEN_DIGESTS = {
    ("e91", "none"): "60b23e3f8579a7a44dd61a33d22c45695ea707860a0bcc68f7bde2bf1ac6f823",
    ("e91", "x"): "5d2a38ca55885c36e12ab0971c76f1d073e8a59a862fabe32002c890f8dba081",
    ("e91", "xz"): "c306de8b0f3bf56fb427735ca8b7bf4337f966eeba2f6b6ddc009d2fab2bb5c8",
    ("e91", "tilted"): "e306b5369715a4bc56334ab7effa2eec92b1709a65325fdf6ba3893dffde93e3",
    ("e91", "substitution"): "078ddc1a4d5f82a02e1a4f051e7569d97362ec3f470e718ff8e8ac6729afb5fa",
    ("bbm92", "none"): "f3949bff291cd2e82327da7402de8340eca533c2870e94e17bb609b7fc776577",
    ("bbm92", "x"): "7b95db5e89a430a74da340863c2fed9355f54435b607daea20ec61b4695404c1",
    ("bbm92", "xz"): "2dc87215a5f1419e8a3c9fc33f0b248a236677bbf4f6a1e2a5bf7eb5f9911219",
    ("bbm92", "tilted"): "75ba5b6fa3a63b797af4529532a8f12a0fa1d154a33da931c856a2b81cecda9f",
    ("bbm92", "substitution"): "18c4372f91aba9590f50f0b0b533fe948d1a0cd7cf133d6bdfa7ff5e46b024ce",
}


@pytest.mark.parametrize("protocol, eve", sorted(GOLDEN_DIGESTS))
def test_seeded_report_digest_is_pinned(protocol, eve):
    cfg = ProtocolConfig(protocol=Protocol(protocol), rounds=3_000, eve=GOLDEN_EVES[eve], seed=7)
    assert report_digest(run_protocol(cfg)) == GOLDEN_DIGESTS[protocol, eve]


def whole_array_reference(cfg: ProtocolConfig):
    """Round-by-round draws as whole arrays: (test tallies, keys, rounds_used)."""
    plan = protocol._SCHEDULES[cfg.protocol]
    state = effective_state(cfg.source_state, cfg.eve)
    n_b = len(plan.bob)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    pair = rng.integers(0, len(plan.alice), size=cfg.rounds) * n_b
    pair += rng.integers(0, n_b, size=cfg.rounds)
    u = rng.random(cfg.rounds)
    test = rng.random(cfg.rounds) < cfg.test_fraction if plan.split else np.ones(cfg.rounds, bool)
    outcome = np.zeros(cfg.rounds, dtype=int)
    for p in np.unique(pair):
        a, b = SpinSetting.alice(plan.alice[p // n_b]), SpinSetting.bob(plan.bob[p % n_b])
        cdf = np.cumsum(outcome_distribution(state, a, b).probabilities)[:3]
        outcome[pair == p] = (cdf[:, None] <= u[pair == p]).sum(axis=0)
    tallies = {label: np.bincount(outcome[(pair == i * n_b + j) & test], minlength=4)
               for label, i, j, _ in plan.tests}
    rounds_used = {label: int(np.sum(pair == i * n_b + j)) for label, i, j, _ in plan.tests}
    key, flip = np.zeros(cfg.rounds, bool), np.zeros(cfg.rounds, bool)
    for _, i, j in plan.keys:
        a, b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        key |= (pair == i * n_b + j) & ~(test & plan.split)
        flip |= (pair == i * n_b + j) & (correlator(cfg.source_state, a, b) < 0.0)
    if plan.split:
        rounds_used["test"] = int(sum(t.sum() for t in tallies.values()))
    rounds_used["key"] = int(key.sum())
    tested = np.isin(pair, [i * n_b + j for _, i, j, _ in plan.tests])
    rounds_used["discarded"] = cfg.rounds - int(np.sum(tested | key))
    bits = (outcome >= 2, (outcome % 2 == 1) ^ flip)
    return tallies, ["".join(str(int(bit)) for bit in row[key]) for row in bits], rounds_used


def recording_tallies(seen):
    """estimate_statistic that first appends the tallies it is given to seen."""
    def recording(tallies, flavour):
        seen.append({label: np.asarray(counts) for label, counts in tallies.items()})
        return estimate_statistic(tallies, flavour)
    return recording


def category_law(cfg: ProtocolConfig) -> np.ndarray:
    """Exact probability of each category: test tallies, key bit pairs (ab), discarded."""
    plan = protocol._SCHEDULES[cfg.protocol]
    state = effective_state(cfg.source_state, cfg.eve)
    weight = 1.0 / (len(plan.alice) * len(plan.bob))
    test_share, key_share = (cfg.test_fraction, 1.0 - cfg.test_fraction) if plan.split else (1, 1)
    law = []
    for _, i, j, _ in plan.tests:
        a, b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        law += list(weight * test_share * outcome_distribution(state, a, b).probabilities)
    key = np.zeros(4)
    for _, i, j in plan.keys:
        a, b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        flip = correlator(cfg.source_state, a, b) < 0.0
        for outcome, p in enumerate(outcome_distribution(state, a, b).probabilities):
            key[2 * (outcome >= 2) + ((outcome % 2 == 1) ^ flip)] += weight * key_share * p
    law += list(key)
    return np.array(law + [1.0 - sum(law)])


def key_bit_pairs(keys) -> np.ndarray:
    """Each key position as 2a + b for Alice's bit a and Bob's bit b."""
    bits_a, bits_b = (np.frombuffer(key.encode(), dtype=np.uint8) - ord("0") for key in keys)
    return 2 * bits_a + bits_b


DISTRIBUTION_SEEDS = range(20)
DISTRIBUTION_ROUNDS = 5_000
SIGNIFICANCE = 1e-6  # fixed before the first run; the panel is seeded, so each verdict is fixed


@pytest.mark.parametrize("eve", ["none", "xz", "substitution"])
@pytest.mark.parametrize("protocol_name", [p.value for p in Protocol])
def test_law_sampler_and_round_reference_draw_the_exact_law(protocol_name, eve):
    """Pooled over a seed panel, both engines' categories fit their exact expected counts.

    The categories partition the rounds: test tallies, key bit pairs and
    the discarded count.  A second test per engine checks the key's order:
    the bit pairs of each key's first and second halves must be alike.
    """
    cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=DISTRIBUTION_ROUNDS,
                         eve=GOLDEN_EVES[eve])
    law = category_law(cfg)
    pooled = {"sampler": np.zeros(law.size), "reference": np.zeros(law.size)}
    halves = {"sampler": np.zeros((2, 4)), "reference": np.zeros((2, 4))}
    for seed in DISTRIBUTION_SEEDS:
        run = dataclasses.replace(cfg, seed=seed)
        seen = []
        with mock.patch.object(protocol, "estimate_statistic", recording_tallies(seen)):
            report = run_protocol(run)
        tallies, keys, rounds_used = whole_array_reference(run)
        for engine, tally, key, used in (
            ("sampler", seen[0], (report.sifted_key_a, report.sifted_key_b), report.rounds_used),
            ("reference", tallies, keys, rounds_used),
        ):
            pairs = key_bit_pairs(key)
            pooled[engine] += np.concatenate(
                [*tally.values(), np.bincount(pairs, minlength=4), [used["discarded"]]])
            for half, part in enumerate(np.array_split(pairs, 2)):
                halves[engine][half] += np.bincount(part, minlength=4)
    expected = law * DISTRIBUTION_ROUNDS * len(DISTRIBUTION_SEEDS)
    possible = law > 1e-12
    for engine, observed in pooled.items():
        assert observed.sum() == DISTRIBUTION_ROUNDS * len(DISTRIBUTION_SEEDS)
        assert not observed[~possible].any(), engine
        fit = stats.chisquare(observed[possible], expected[possible])
        assert fit.pvalue >= SIGNIFICANCE, (engine, fit)
        table = halves[engine][:, halves[engine].sum(axis=0) > 0]
        order = stats.chi2_contingency(table, correction=False)
        assert order.pvalue >= SIGNIFICANCE, (engine, order)


@settings(max_examples=120, deadline=None)
@given(
    protocol_name=st.sampled_from([p.value for p in Protocol]),
    rounds=st.integers(100, 5000),
    seed=st.integers(0, 2**64 - 1),
    eve=st.sampled_from(["none", "xz"]),
    test_fraction=st.floats(0.05, 0.95),
)
def test_run_raises_exactly_when_starved_and_keeps_its_books(protocol_name, rounds, seed, eve,
                                                              test_fraction):
    """A run names the starvation it hit, or returns a report whose counts add up."""
    cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=rounds, eve=GOLDEN_EVES[eve],
                         test_fraction=test_fraction, seed=seed)
    split = protocol._SCHEDULES[cfg.protocol].split
    seen = []
    with mock.patch.object(protocol, "estimate_statistic", recording_tallies(seen)):
        try:
            report = run_protocol(cfg)
        except ValueError as exc:
            if not seen:  # the key count is checked before any tally is read
                assert str(exc) == ("no rounds landed on the key settings; increase rounds"
                                    + (" or lower the test fraction" if split else ""))
                return
            label, total = next((label, int(counts.sum())) for label, counts in seen[0].items()
                                if counts.sum() < MIN_SAMPLES_PER_PAIR)
            assert str(exc) == (f"setting pair {label} has {total} samples, "
                                f"need {MIN_SAMPLES_PER_PAIR}; increase rounds"
                                + (" or raise the test fraction" if split else ""))
            return
    totals = {label: int(counts.sum()) for label, counts in seen[0].items()}
    used = report.rounds_used
    assert min(totals.values()) >= MIN_SAMPLES_PER_PAIR
    assert used["key"] > 0
    assert len(report.sifted_key_a) == used["key"]
    if split:
        assert used["x:x"] + used["z:z"] + used["discarded"] == cfg.rounds
        assert used["test"] + used["key"] == used["x:x"] + used["z:z"]
        assert used["test"] == sum(totals.values())
    else:
        assert sum(used.values()) == cfg.rounds
        assert all(used[label] == total for label, total in totals.items())
        mismatches = sum(a != b for a, b in zip(report.sifted_key_a, report.sifted_key_b))
        assert report.qber == mismatches / used["key"]


class TestReportInvariants:
    def test_key_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ProtocolReport(
                protocol=Protocol.BBM92,
                statistic=-2.0,
                stderr=0.0,
                bound=1.0,
                abort_sigma=3.0,
                aborted=False,
                qber=0.0,
                qber_by_basis=None,
                sifted_key_a="010",
                sifted_key_b="01",
                rounds_used={},
            )

    def test_abort_flag_consistency_enforced(self):
        with pytest.raises(ValueError, match="abort"):
            ProtocolReport(
                protocol=Protocol.BBM92,
                statistic=-2.0,
                stderr=0.0,
                bound=1.0,
                abort_sigma=3.0,
                aborted=True,
                qber=0.0,
                qber_by_basis=None,
                sifted_key_a="01",
                sifted_key_b="01",
                rounds_used={},
            )
