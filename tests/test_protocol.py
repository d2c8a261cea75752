"""Tests for the key-distribution simulation and eavesdropper channels."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from eprlab.witnesses import BBM_BOUND, EKERT_BOUND


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
# Recorded before E91 and BBM92 shared one engine: a seed must keep mapping
# to the same report, bit for bit.
GOLDEN_DIGESTS = {
    ("e91", "none"): "78ea625924f9f3555be3122fa8e27b3862a4172210813635b1922695be57cd64",
    ("e91", "x"): "9324dadaff2c0132407648ec3a888386fd79b5560d4686bbbfb404330290d1c0",
    ("e91", "xz"): "beb4bab067974b12f0c35a87f556946ac863f727dce6a73b5801b3924ff446ab",
    ("e91", "tilted"): "fdc2a49cb68ff145101b1bd2b7c537c02f9520457ffef73b95a9b826dc00645a",
    ("e91", "substitution"): "7a092269b803c73a51a488a797f7ca6160da98b566cd993d9fcee6ce62c74642",
    ("bbm92", "none"): "87f4237667c90001bf297a01fd38c9fa597e0e1775b1ef9bf2c71ba0ba48ca5d",
    ("bbm92", "x"): "8ddedd82cfe22da08d123e9a5dfa2f1d315b7d57a2e787ca13e218e150f0d249",
    ("bbm92", "xz"): "226726b3836db399cc81e48a3d487f46d24e4c46d78f6bbb5b290b8fae0b24d2",
    ("bbm92", "tilted"): "ecaeb651ff511727b460aac179863268a5d0538b8bbdc9dc528180bc7a7eabf1",
    ("bbm92", "substitution"): "d45a76f7fffee8354967dc98b4f5dc5dc1363fcab0d315687813508d09d7a6f3",
}


@pytest.mark.parametrize("protocol, eve", sorted(GOLDEN_DIGESTS))
def test_seeded_report_digest_is_pinned(protocol, eve):
    cfg = ProtocolConfig(protocol=Protocol(protocol), rounds=3_000, eve=GOLDEN_EVES[eve], seed=7)
    assert report_digest(run_protocol(cfg)) == GOLDEN_DIGESTS[protocol, eve]


def whole_array_reference(cfg: ProtocolConfig):
    """The draw schedule drawn as whole arrays: (test tallies, keys, rounds_used)."""
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


@settings(max_examples=120, deadline=None)
@given(
    protocol_name=st.sampled_from([p.value for p in Protocol]),
    rounds=st.integers(100, 5000),
    seed=st.integers(0, 2**64 - 1),
    eve=st.sampled_from(["none", "xz"]),
    test_fraction=st.floats(0.05, 0.95),
    data=st.data(),
)
def test_streamed_run_matches_whole_array_reference(protocol_name, rounds, seed, eve, test_fraction,
                                                    data):
    """Any chunk size gives the tallies, keys, rounds_used and statistic of whole-array draws."""
    chunk = data.draw(st.one_of(st.integers(5, 64), st.integers(5, rounds + 1)), label="chunk")
    cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=rounds, eve=GOLDEN_EVES[eve],
                         test_fraction=test_fraction, seed=seed)
    tallies, keys, rounds_used = whole_array_reference(cfg)
    seen = []

    def recording(tallies, flavour):
        seen.append({label: list(counts) for label, counts in tallies.items()})
        return estimate_statistic(tallies, flavour)

    with mock.patch.object(protocol, "_CHUNK_ROUNDS", chunk), \
            mock.patch.object(protocol, "estimate_statistic", recording):
        try:
            report = run_protocol(cfg)
        except ValueError:
            report = None
    fewest = min(t.sum() for t in tallies.values())
    starved = rounds_used["key"] == 0 or fewest < MIN_SAMPLES_PER_PAIR
    assert (report is None) == starved
    if rounds_used["key"]:
        assert seen == [{label: list(counts) for label, counts in tallies.items()}]
    if report is not None:
        assert [report.sifted_key_a, report.sifted_key_b] == keys
        assert list(report.rounds_used.items()) == list(rounds_used.items())
        assert (report.statistic, report.stderr) == estimate_statistic(tallies, cfg.protocol)


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
