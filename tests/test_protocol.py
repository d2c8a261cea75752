"""Tests for the key-distribution simulation and eavesdropper channels."""

import dataclasses
import gc
import hashlib
import math
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import reference_sampler
from eprlab import protocol
from eprlab.protocol import (
    InterceptResend,
    MIN_ROUNDS,
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
    ATOL_PSD,
    PROJECTOR_FLOOR,
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    bell_state,
    correlator,
    density_from_pure,
    joint_probabilities,
    outcome_distribution,
    phase_epr_state,
    werner_state,
)
from eprlab.hidden_variables import SEPARABLE_WITNESSES, SeparableFunctional
from eprlab.witnesses import BBM_BOUND, EKERT_BOUND, ekert_functional


def singlet():
    return density_from_pure(bell_state(BellLabel.PSI_MINUS))


def xx_zz(state):
    ex = correlator(state, SpinSetting.alice(X_AXIS), SpinSetting.bob(X_AXIS))
    ez = correlator(state, SpinSetting.alice(Z_AXIS), SpinSetting.bob(Z_AXIS))
    return ex, ez


class TestConfigValidation:
    def test_rounds_floor(self):
        """100 rounds are enough to configure; 99 and 50 are not."""
        ProtocolConfig(protocol=Protocol.E91, rounds=100)
        for rounds in (99, 50):
            with pytest.raises(ValueError, match=f"need at least 100 rounds, got {rounds}"):
                ProtocolConfig(protocol=Protocol.E91, rounds=rounds)

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

    def test_source_state_must_be_a_state(self):
        with pytest.raises(TypeError, match=r"^source_state must be a TwoQubitState, got 'x'$"):
            ProtocolConfig(protocol=Protocol.E91, rounds=1000, source_state="x")
        with pytest.raises(TypeError, match="^source_state must be a TwoQubitState"):
            ProtocolConfig(protocol=Protocol.E91, rounds=1000, source_state=np.eye(4) / 4)


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
        with pytest.raises(ValueError, match=r"\[0.0, 1e\+200, 0.0\] has norm 1e\+200, not 1"):
            InterceptResend(basis=(0.0, 1e200, 0.0))
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

    def test_unknown_strategy_rejected(self):
        message = "^eve must be NoEve, InterceptResend or SeparableSubstitution, got 'x'$"
        with pytest.raises(TypeError, match=message):
            ProtocolConfig(protocol=Protocol.E91, rounds=1000, eve="x")
        with pytest.raises(ValueError, match="^unknown eavesdropper strategy 'x'$"):
            effective_state(singlet(), "x")

    def test_substitution_needs_an_ensemble(self):
        with pytest.raises(TypeError, match="must be a ProductEnsemble"):
            SeparableSubstitution(ensemble=[(1.0, Z_AXIS, tuple(-Z_AXIS))])


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

    def test_tally_of_three_entries_rejected(self):
        tallies = {"x:x": (30, 10, 10, 30), "z:z": (30, 10, 40)}
        with pytest.raises(ValueError, match=r"^tally for z:z must have 4 entries$"):
            estimate_statistic(tallies, Protocol.BBM92)

    @pytest.mark.parametrize("flavour, functional", [
        (Protocol.E91, ekert_functional()),
        (Protocol.BBM92, SEPARABLE_WITNESSES[SeparableFunctional.BBM_T][0][1:].reshape(3, 3)),
    ])
    def test_test_pairs_spell_the_witness(self, flavour, functional):
        """The signed test pairs of each schedule sum to the weights W of its statistic."""
        plan = protocol._SCHEDULES[flavour]
        weights = sum(sign * np.outer(plan.alice[i], plan.bob[j]) for _, i, j, sign in plan.tests)
        assert np.array_equal(weights, functional)

    def test_minimum_is_thirty(self):
        assert MIN_SAMPLES_PER_PAIR == 30

    @pytest.mark.parametrize("flavour, message", [
        (Protocol.E91, "setting pair a1:b1 has 29 samples, need 30; increase rounds"),
        (Protocol.BBM92, "setting pair x:x has 29 samples, need 30; increase rounds or raise "
                         "the test fraction"),
    ])
    def test_thirty_samples_pass_and_twenty_nine_raise(self, flavour, message):
        """The sample floor is inclusive: 30 per pair is enough, 29 in one pair is not."""
        tests = protocol._SCHEDULES[flavour].tests
        tallies = {label: (15, 0, 0, 15) for label, *_ in tests}
        assert estimate_statistic(tallies, flavour) == (sum(sign for *_, sign in tests), 0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_statistic({**tallies, tests[0][0]: (15, 0, 0, 14)}, flavour)


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

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from("01"), st.sampled_from("01")),
                          min_size=1, max_size=300))
    def test_strings_codes_and_bytes_agree(self, pairs):
        key_a, key_b = ("".join(bits) for bits in zip(*pairs))
        fraction = sum(a != b for a, b in pairs) / len(pairs)
        as_bytes = [key.encode("ascii") for key in (key_a, key_b)]
        as_codes = [np.frombuffer(key, dtype=np.uint8).copy() for key in as_bytes]
        rates = [qber(key_a, key_b), qber(*as_codes), qber(*as_bytes)]
        assert [rate.hex() for rate in rates] == [fraction.hex()] * 3

    @pytest.mark.parametrize("key_a, key_b, message", [
        (np.array([48, 47], dtype=np.uint8), "00", "keys must contain only '0' and '1'"),
        ("00", np.array([49, 50], dtype=np.uint8), "keys must contain only '0' and '1'"),
        ("01é", "010", "keys must contain only '0' and '1'"),
        (np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8),
         "cannot compute an error rate on empty keys"),
        (np.array([48, 49], dtype=np.uint8), "010", "key lengths differ: 2 vs 3"),
    ], ids=["code-47", "code-50", "non-ascii", "empty-array", "array-vs-longer-str"])
    def test_each_form_is_rejected_with_the_same_messages(self, key_a, key_b, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qber(key_a, key_b)

    def test_a_buffer_is_read_as_all_its_bytes(self):
        """A 2-D code array is one key of all its codes, so the rate never passes 1."""
        codes = np.frombuffer(b"0110", dtype=np.uint8).reshape(2, 2)
        assert qber(codes, "0111") == 0.25
        assert qber(codes, np.frombuffer(b"1001", dtype=np.uint8).reshape(2, 2)) == 1.0
        with pytest.raises(ValueError, match=r"^key lengths differ: 4 vs 2$"):
            qber(codes, "01")


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
# Recorded when the key came to be drawn as (Alice bit, Bob bit) classes, one
# lead byte per key bit and 32 bits per tie: a seed must keep mapping to the
# same report, bit for bit.  Recorded on CPython 3.11.7 with NumPy 2.4.6 on
# scipy-openblas 0.3.31.188.0 (DYNAMIC_ARCH), whose run-time kernel was
# SkylakeX; the pytest header names the build and the kernel a run uses.
# bbm92-none, bbm92-x and e91-none were re-recorded when probabilities within
# ATOL_PSD of zero came to be read as 0.0: the singlet's impossible outcomes
# lost their 5.6e-17, and the multinomial draws no uniform for a zero weight.
GOLDEN_DIGESTS = {
    ("e91", "none"): "2a2df32700b96c88c3d2a61af2c2953179be84af031726ccd41453f4f0b26bec",
    ("e91", "x"): "527a229addc2b73eb3a121e702f5103de1ada3a62446e240fa9716dfd4756a18",
    ("e91", "xz"): "69b7781c948ffa0e828bd950c0d39240d7d052c0e26372c32523db23b077388a",
    ("e91", "tilted"): "8020dc42a725e1aa6c7d98b86355a0ab5e09a6de9d8f72fcea17e66eca608099",
    ("e91", "substitution"): "131ccad35f18875bff80181314a8fb363bfc8095f79cb28dbdde6c0ff2ecf4f2",
    ("bbm92", "none"): "a6eec487ff87ef14626a7927bfdbbf82df111e14c9f5427e8c11ce501693d352",
    ("bbm92", "x"): "61a8128049fda600fd66bbdb7b987e344bbbbe2322f39e815371f019875d2c81",
    ("bbm92", "xz"): "db359b15374b140ca9439c2ba8a6ebc5c29f69da28fc77a1f0059fcc7d997145",
    ("bbm92", "tilted"): "8d843dc71cfeba3b905100d58c2948f4a01945707c9f4a86e46990b351a1aff1",
    ("bbm92", "substitution"): "2034372f8eb6737f562b06b08fab3868c6a7c60a1e35163ee1c2e2dcd84edf4f",
}
# The same runs' digests when the key codes were repeated by their counts and
# shuffled; the reference sampler must still give them.  Recorded on CPython
# 3.11.7 with NumPy 2.4.6 on the same scipy-openblas build, before the header
# named the run-time kernel; the same three were re-recorded, for the same law.
SHUFFLE_DIGESTS = {
    ("e91", "none"): "4c19126d6a66d699c031f5fb1ce7aeef486f35e6715acf75f2e3b747903e029e",
    ("e91", "x"): "5d2a38ca55885c36e12ab0971c76f1d073e8a59a862fabe32002c890f8dba081",
    ("e91", "xz"): "c306de8b0f3bf56fb427735ca8b7bf4337f966eeba2f6b6ddc009d2fab2bb5c8",
    ("e91", "tilted"): "e306b5369715a4bc56334ab7effa2eec92b1709a65325fdf6ba3893dffde93e3",
    ("e91", "substitution"): "078ddc1a4d5f82a02e1a4f051e7569d97362ec3f470e718ff8e8ac6729afb5fa",
    ("bbm92", "none"): "025a24386496223391f28331059f05d6f64d9266fe7fb2ef25d78096aa75d76b",
    ("bbm92", "x"): "227ffdcb9b1bd86555285d85be09793a9b7b6e55bff89e2aa85c8f2dc18a667a",
    ("bbm92", "xz"): "2dc87215a5f1419e8a3c9fc33f0b248a236677bbf4f6a1e2a5bf7eb5f9911219",
    ("bbm92", "tilted"): "75ba5b6fa3a63b797af4529532a8f12a0fa1d154a33da931c856a2b81cecda9f",
    ("bbm92", "substitution"): "18c4372f91aba9590f50f0b0b533fe948d1a0cd7cf133d6bdfa7ff5e46b024ce",
}


@pytest.mark.parametrize("protocol, eve", sorted(GOLDEN_DIGESTS))
def test_seeded_report_digest_is_pinned(protocol, eve):
    cfg = ProtocolConfig(protocol=Protocol(protocol), rounds=3_000, eve=GOLDEN_EVES[eve], seed=7)
    assert report_digest(run_protocol(cfg)) == GOLDEN_DIGESTS[protocol, eve]


@pytest.mark.parametrize("protocol, eve", sorted(SHUFFLE_DIGESTS))
def test_reference_sampler_is_the_shuffle_sampler(protocol, eve):
    cfg = ProtocolConfig(protocol=Protocol(protocol), rounds=3_000, eve=GOLDEN_EVES[eve], seed=7)
    assert report_digest(reference_sampler.run_protocol(cfg)) == SHUFFLE_DIGESTS[protocol, eve]


# Seeded runs on the maximally mixed source, whose key-basis correlators are
# exactly 0.0: the parties' sign flip (correlator < 0.0) sits on its boundary,
# and read as <= 0.0 it would invert Bob's key.  Recorded on the same build and
# kernel (SkylakeX) as GOLDEN_DIGESTS.
MIXED_DIGESTS = {
    "e91": "8e070166840ec7901715d4b4466409d96bd12cd0b7508de251f578e3456909e5",
    "bbm92": "c3d5e9da3d06082377808f6027b274411f2a144dd1319211e7933e38322cc6a2",
}


@pytest.mark.parametrize("flavour", sorted(MIXED_DIGESTS))
def test_mixed_source_report_digest_is_pinned(flavour):
    source = werner_state(0.0)
    plan = protocol._SCHEDULES[Protocol(flavour)]
    for _, i, j in plan.keys:
        pair = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        assert correlator(source, *pair) == 0.0
    cfg = ProtocolConfig(protocol=Protocol(flavour), rounds=3_000, source_state=source, seed=7)
    assert report_digest(run_protocol(cfg)) == MIXED_DIGESTS[flavour]



def threshold_oracle(weights: np.ndarray, u32: np.ndarray) -> np.ndarray:
    """Each value's class: how many float thresholds of the class weights u32 * 2**-32 reaches.

    weights holds one row of cell weights per class.
    """
    cumulative = np.cumsum(weights.sum(axis=1))
    return (u32[:, None] * 2.0**-32 >= cumulative[:-1] / cumulative[-1]).sum(axis=1)


def stream_parts(words: np.ndarray, bits: int) -> np.ndarray:
    """64-bit stream words cut into parts of the given width, least significant first."""
    shifts = np.arange(0, 64, bits, dtype=np.uint64)
    return (words[:, None] >> shifts & np.uint64(2**bits - 1)).ravel()


def lead_byte_oracle(weights: np.ndarray, bit_generator, n: int) -> np.ndarray:
    """n classes read off a bit generator: one lead byte each, then 32 bits per tie.

    Draw i's lead byte is byte i of the stream and the top byte of its
    32-bit value.  It ties when the least and the greatest value with that
    top byte fall in different classes; the ties, in order, then take the
    stream's next 32-bit values, whose top 24 bits become their low bits.
    """
    value = stream_parts(bit_generator.random_raw(-(-n // 8)), 8)[:n] << np.uint64(24)
    tied = threshold_oracle(weights, value) != threshold_oracle(weights, value | 0xFFFFFF)
    extension = stream_parts(bit_generator.random_raw(-(-tied.sum() // 2)), 32)[:tied.sum()]
    value[tied] |= extension >> np.uint64(8)
    return threshold_oracle(weights, value)


# One cell per class: up to 16 classes with zeros and tiny weights among them, then
# trailing zero weights; or dyadic weights, whose thresholds are whole multiples of
# 2**-7, so that no lead byte ties and some lead bytes equal a threshold's top byte.
DRAW_WEIGHTS = st.one_of(
    st.builds(lambda head, zeros: head + [0.0] * zeros,
              st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=16)
              .filter(lambda head: sum(head) > 0.0),
              st.integers(0, 3)),
    st.lists(st.integers(0, 16), min_size=1, max_size=8).filter(lambda head: sum(head) > 0)
    .map(lambda head: head + [2 ** (sum(head) - 1).bit_length() - sum(head)]),
).map(lambda weights: np.array(weights, dtype=float)[:, None])
# Key lengths below, at and above one slice, and with a slice size above _MIN_SLICE
# that must be rounded up to whole words (8 * 4097 = 32776, 32773 = 8 * 4096 + 5).
SLICE = protocol._MIN_SLICE
DRAW_LENGTHS = st.one_of(
    st.sampled_from([1, 2, 7, 8, 9, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1, 32_773, 32_776]),
    st.integers(1, 3 * SLICE),
)
HALVES = np.array([[1.0], [1.0]])  # its threshold 1/2 has top byte 128 and low bits 0
THIRDS = np.array([[1.0], [2.0]])  # its threshold 1/3 has top byte 85 and low bits 0x555556


@settings(max_examples=100, deadline=None)
@given(weights=DRAW_WEIGHTS, n=DRAW_LENGTHS, key=st.integers(0, 2**64 - 1),
       cells=st.integers(1, 2))
@example(weights=HALVES, n=3 * SLICE, key=0, cells=1)
@example(weights=THIRDS, n=3 * SLICE, key=0, cells=1)
def test_draw_indices_read_a_lead_byte_each_and_32_bits_per_tie(weights, n, key, cells):
    """Draw i's class is the lead-byte oracle's, and the tallies count the classes,
    each split over its positive cells; no class past the last positive weight comes up."""
    weights = np.repeat(weights / cells, cells, axis=1)
    drawn, tallies = protocol._draw_indices(np.random.Generator(np.random.Philox(key=key)),
                                            weights, n)
    assert drawn.dtype == np.uint8 and drawn.shape == (n,)
    np.testing.assert_array_equal(drawn, lead_byte_oracle(weights, np.random.Philox(key=key), n))
    assert tallies.shape == weights.shape
    np.testing.assert_array_equal(tallies.sum(axis=1), np.bincount(drawn, minlength=len(weights)))
    assert not tallies[weights == 0].any()


@pytest.mark.parametrize("max_slices, min_slice", [(1, 8), (64, 4096), (5, 8)])
@pytest.mark.parametrize("flavour", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("eve", ["none", "xz"])
def test_slicing_cannot_change_a_report(monkeypatch, max_slices, min_slice, flavour, eve):
    """The slices read the stream's bytes in order, so their count and size leave every
    report bit-identical: _MAX_SLICES and _MIN_SLICE are equivalent under mutation.  The
    keys (over 40,000 bits) take more than 8 default slices' worth of _MIN_SLICE, so one
    slice, 4096-bit slices and five slices each cut them differently."""
    cfg = ProtocolConfig(protocol=flavour, rounds=400_000, eve=GOLDEN_EVES[eve], seed=11)
    report = run_protocol(cfg)
    assert len(report.sifted_key_a) > 8 * protocol._MIN_SLICE
    monkeypatch.setattr(protocol, "_MAX_SLICES", max_slices)
    monkeypatch.setattr(protocol, "_MIN_SLICE", min_slice)
    assert report_digest(run_protocol(cfg)) == report_digest(report)


def stand_in_generator(lead: list[int], extensions: list[int]) -> SimpleNamespace:
    """A generator whose stream is the lead bytes, then the 32-bit extensions, each packed
    least significant first into 64-bit words; reading past them fails."""
    words = np.concatenate([np.array(lead + [0] * (-len(lead) % 8), dtype=np.uint8).view("<u8"),
                            np.array(extensions + [0] * (len(extensions) % 2), "<u4").view("<u8")])
    read = 0

    def random_raw(size):
        nonlocal read
        read += size
        assert read <= words.size, "read past the stream"
        return words[read - size:read]
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))


@settings(max_examples=200, deadline=None)
@given(weights=DRAW_WEIGHTS)
@example(weights=HALVES)
@example(weights=THIRDS)
def test_each_class_holds_its_rounded_up_threshold_spacing(weights):
    """Class c is the 32-bit values in [B_(c-1), B_c), B_k = ceil(t_k * 2**32) clipped to 2**32.

    The stream feeds all 256 lead bytes; a byte that ties comes once for
    each extension either side of every threshold's low 24 bits l_k (l_k = 0
    too) and at both ends.  Each draw lands in the class its value names,
    so counting each class's 32-bit values from the draws gives B_c - B_(c-1):
    its probability is the thresholds' spacing to within 2**-32, exactly,
    and weights[c] / sum(weights) to within 2**-32 plus the float rounding.
    """
    cumulative = np.cumsum(weights.sum(axis=1))
    edges = [Fraction(0), *map(Fraction, (cumulative[:-1] / cumulative[-1]).tolist()), Fraction(1)]
    bounds = [min(math.ceil(edge * 2**32), 2**32) for edge in edges]
    inner = [bound for bound in bounds[1:-1] if bound < 2**32]
    tops = sorted({0, 2**24 - 1} | {x for b in inner for x in (b % 2**24 - 1, b % 2**24) if x >= 0})
    tied = {b >> 24 for b in inner if b % 2**24}
    draws = [(byte, top) for byte in range(256) for top in (tops if byte in tied else [None])]
    extensions = [top << 8 | 0xFF for _, top in draws if top is not None]  # 0xFF must be dropped
    drawn, _ = protocol._draw_indices(stand_in_generator([byte for byte, _ in draws], extensions),
                                      weights, len(draws))
    values = [byte << 24 | (top or 0) for byte, top in draws]
    np.testing.assert_array_equal(drawn, np.searchsorted(bounds[1:-1], values, side="right"))
    widths = dict(zip(tops, np.diff([*tops, 2**24]).tolist()))
    measure = [0] * len(weights)
    for (_, top), c in zip(draws, drawn.tolist()):
        measure[c] += 2**24 if top is None else widths[top]
    for c in range(len(weights)):
        implied = Fraction(measure[c], 2**32)
        assert implied == Fraction(bounds[c + 1] - bounds[c], 2**32), c
        assert abs(implied - (edges[c + 1] - edges[c])) < Fraction(1, 2**32), c
        assert abs(float(implied) - weights[c, 0] / weights.sum()) <= 2.0**-32 + 1e-13, c


def recording_draws(seen):
    """_draw_indices that first appends (the generator state it starts from, weights, n,
    classes, tallies) to seen; the classes are copied, as run_protocol spells them in place."""
    draw = protocol._draw_indices

    def recording(rng, weights, n):
        state = rng.bit_generator.state
        drawn, tallies = draw(rng, weights, n)
        seen.append((state, weights, n, drawn.copy(), tallies))
        return drawn, tallies
    return recording


@pytest.mark.parametrize("protocol_name, rounds", [("e91", 100_000), ("bbm92", 30_000)])
@pytest.mark.parametrize("source", ["singlet", "werner"])
def test_run_draws_the_key_classes_from_the_stream_after_the_multinomial(protocol_name,
                                                                         rounds, source):
    """run_protocol's key classes are the lead-byte oracle's, and they spell both keys.

    The replay starts from the bit generator's state as the draw is entered.
    E91's classes on the singlet have weights 1/2, 0, 0, 1/2 to the last
    bit, so lead byte 128 decides every draw; on a Werner source lead bytes
    tie.
    """
    calls = []
    cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=rounds, seed=11,
                         source_state=singlet() if source == "singlet" else werner_state(0.9))
    with mock.patch.object(protocol, "_draw_indices", recording_draws(calls)):
        report = run_protocol(cfg)
    [(state, weights, n, drawn, _)] = calls
    assert n == report.rounds_used["key"] > SLICE
    replay = np.random.Philox()
    replay.state = state
    np.testing.assert_array_equal(drawn, lead_byte_oracle(weights, replay, n))
    np.testing.assert_array_equal(key_bit_pairs((report.sifted_key_a, report.sifted_key_b)), drawn)


@pytest.mark.parametrize("protocol_name", [p.value for p in Protocol])
def test_singlet_key_gives_no_weight_to_bits_that_differ(protocol_name):
    """The singlet's built correlators are -0.9999999999999998, which leaves 5.6e-17 on
    each outcome where its key bits would differ.  Read as 0.0, key classes 1 and 2 weigh
    exactly nothing, and classes 0 and 3 weigh the same, so the one class threshold is
    2**31, lead byte 128 with no tie, and no draw lands on an impossible class."""
    assert (np.diag(singlet().correlations) > -1.0).all()
    calls = []
    cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=1_000, seed=3)
    with mock.patch.object(protocol, "_draw_indices", recording_draws(calls)):
        run_protocol(cfg)
    [(_, weights, *_)] = calls
    assert not weights[1:3].any()
    assert weights[0].sum() == weights[3].sum() > 0.0


def skewed_source(t: float) -> SimpleNamespace:
    """A stand-in state whose x-x outcome (-1, +1) has probability exactly -t/4.

    r_A.x = 1/2, r_B.x = -1/2 and T_xx = t; BBM92's other x/z outcomes all
    have probability at least 1/8.
    """
    assert joint_probabilities(0.5, -0.5, t)[2] == -t / 4
    return SimpleNamespace(bloch_a=np.array([0.5, 0.0, 0.0]), bloch_b=np.array([-0.5, 0.0, 0.0]),
                           correlations=np.diag([t, 0.0, 0.0]))


def xx_weight_read_by_outcome_distribution(state) -> float:
    return outcome_distribution(state, SpinSetting.alice(X_AXIS), SpinSetting.bob(X_AXIS))[2]


def xx_weight_read_by_run_protocol(state) -> float:
    """The key weight BBM92 gives the x-x outcome (-1, +1), key basis x being column 0.

    The config refuses a source that is not a TwoQubitState, so the stand-in
    replaces the default source after construction.
    """
    calls = []
    cfg = ProtocolConfig(protocol=Protocol.BBM92, rounds=2_000)
    object.__setattr__(cfg, "source_state", state)
    with mock.patch.object(protocol, "_draw_indices", recording_draws(calls)):
        run_protocol(cfg)
    [(_, weights, *_)] = calls
    return weights[2 ^ int(state.correlations[0, 0] < 0.0), 0]


XX_WEIGHT_READERS = [xx_weight_read_by_outcome_distribution, xx_weight_read_by_run_protocol]


@pytest.mark.parametrize("read", XX_WEIGHT_READERS, ids=lambda read: read.__name__[15:])
def test_probability_at_the_projector_floor_reads_as_zero_and_one_step_lower_raises(read):
    """-ATOL_PSD, the least eigenvalue a state may have, reads as zero, and so does the
    rounding allowance below it down to PROJECTOR_FLOOR; one ulp lower raises."""
    assert PROJECTOR_FLOOR == -1.0001e-10
    for t in (4 * ATOL_PSD, np.nextafter(-4 * PROJECTOR_FLOOR, 0.0), -4 * PROJECTOR_FLOOR):
        assert read(skewed_source(t)) == 0.0
    with pytest.raises(ValueError, match="negative probability -1.000e-10; state not physical"):
        read(skewed_source(np.nextafter(-4 * PROJECTOR_FLOOR, 1.0)))


@pytest.mark.parametrize("read", XX_WEIGHT_READERS, ids=lambda read: read.__name__[15:])
def test_probability_of_atol_psd_reads_as_zero_and_one_step_higher_is_kept(read):
    assert read(skewed_source(-4 * ATOL_PSD)) == 0.0
    assert read(skewed_source(np.nextafter(-4 * ATOL_PSD, -1.0))) > 0.0


def whole_array_reference(cfg: ProtocolConfig):
    """Round-by-round draws as whole arrays: (test tallies, keys, key bases, rounds_used).

    The key bases index plan.keys, one per key position.
    """
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
        cdf = np.cumsum(outcome_distribution(state, a, b))[:3]
        outcome[pair == p] = (cdf[:, None] <= u[pair == p]).sum(axis=0)
    tallies = {label: np.bincount(outcome[(pair == i * n_b + j) & test], minlength=4)
               for label, i, j, _ in plan.tests}
    rounds_used = {label: int(np.sum(pair == i * n_b + j)) for label, i, j, _ in plan.tests}
    key, flip = np.zeros(cfg.rounds, bool), np.zeros(cfg.rounds, bool)
    basis = np.zeros(cfg.rounds, int)
    for k, (_, i, j) in enumerate(plan.keys):
        a, b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        key |= (pair == i * n_b + j) & ~(test & plan.split)
        flip |= (pair == i * n_b + j) & (correlator(cfg.source_state, a, b) < 0.0)
        basis[pair == i * n_b + j] = k
    if plan.split:
        rounds_used["test"] = int(sum(t.sum() for t in tallies.values()))
    rounds_used["key"] = int(key.sum())
    tested = np.isin(pair, [i * n_b + j for _, i, j, _ in plan.tests])
    rounds_used["discarded"] = cfg.rounds - int(np.sum(tested | key))
    bits = (outcome >= 2, (outcome % 2 == 1) ^ flip)
    keys = ["".join(str(int(bit)) for bit in row[key]) for row in bits]
    return tallies, keys, basis[key], rounds_used


def recording_tallies(seen):
    """estimate_statistic that first appends the tallies it is given to seen."""
    def recording(tallies, flavour):
        seen.append({label: np.asarray(counts) for label, counts in tallies.items()})
        return estimate_statistic(tallies, flavour)
    return recording


def category_law(cfg: ProtocolConfig) -> np.ndarray:
    """Exact probability of each category: test tallies, key rounds by bit pair (ab) and
    then key basis, discarded."""
    plan = protocol._SCHEDULES[cfg.protocol]
    state = effective_state(cfg.source_state, cfg.eve)
    weight = 1.0 / (len(plan.alice) * len(plan.bob))
    test_share, key_share = (cfg.test_fraction, 1.0 - cfg.test_fraction) if plan.split else (1, 1)
    law = []
    for _, i, j, _ in plan.tests:
        a, b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        law += list(weight * test_share * outcome_distribution(state, a, b))
    key = np.zeros((4, len(plan.keys)))
    for basis, (_, i, j) in enumerate(plan.keys):
        a, b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        flip = correlator(cfg.source_state, a, b) < 0.0
        for outcome, p in enumerate(outcome_distribution(state, a, b)):
            key[2 * (outcome >= 2) + ((outcome % 2 == 1) ^ flip), basis] += weight * key_share * p
    law += list(key.ravel())
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

    The categories partition the rounds: test tallies, key rounds by bit
    pair and key basis (BBM92 splits each bit pair's tally between x and z
    after drawing the key), and the discarded count.  A second test per
    engine checks the key's order: the bit pairs of each key's first and
    second halves must be alike.
    """
    cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=DISTRIBUTION_ROUNDS,
                         eve=GOLDEN_EVES[eve])
    law = category_law(cfg)
    n_bases = len(protocol._SCHEDULES[cfg.protocol].keys)
    pooled = {"sampler": np.zeros(law.size), "reference": np.zeros(law.size)}
    halves = {"sampler": np.zeros((2, 4)), "reference": np.zeros((2, 4))}
    for seed in DISTRIBUTION_SEEDS:
        run = dataclasses.replace(cfg, seed=seed)
        seen, draws = [], []
        with mock.patch.object(protocol, "estimate_statistic", recording_tallies(seen)), \
                mock.patch.object(protocol, "_draw_indices", recording_draws(draws)):
            report = run_protocol(run)
        [(*_, cells)] = draws  # key rounds by (bit pair, key basis)
        sampled = key_bit_pairs((report.sifted_key_a, report.sifted_key_b))
        np.testing.assert_array_equal(cells.sum(axis=1), np.bincount(sampled, minlength=4))
        tallies, keys, bases, rounds_used = whole_array_reference(run)
        reference = key_bit_pairs(keys)
        for engine, tally, pairs, key_cells, used in (
            ("sampler", seen[0], sampled, cells.ravel(), report.rounds_used),
            ("reference", tallies, reference,
             np.bincount(reference * n_bases + bases, minlength=4 * n_bases), rounds_used),
        ):
            pooled[engine] += np.concatenate([*tally.values(), key_cells, [used["discarded"]]])
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


@pytest.mark.parametrize("eve", ["none", "xz", "substitution"])
@pytest.mark.parametrize("protocol_name", [p.value for p in Protocol])
def test_adjacent_key_bit_pairs_are_independent(protocol_name, eve):
    """Given its length the key is i.i.d., so its adjacent positions are independent draws.

    Pooled over the seed panel, the bit pairs (2a + b) at positions 2i and
    2i + 1 form a 4x4 table that must fit the product of its margins.
    """
    table = np.zeros((4, 4))
    for seed in DISTRIBUTION_SEEDS:
        cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=20 * DISTRIBUTION_ROUNDS,
                             eve=GOLDEN_EVES[eve], seed=seed)
        report = run_protocol(cfg)
        pairs = key_bit_pairs((report.sifted_key_a, report.sifted_key_b))
        first, second = pairs[:pairs.size // 2 * 2].reshape(-1, 2).T
        np.add.at(table, (first, second), 1)
    seen = table.sum(axis=1) > 0
    table = table[seen][:, seen]
    assert table.shape[0] >= 2
    order = stats.chi2_contingency(table, correction=False)
    assert order.pvalue >= SIGNIFICANCE, (table, order)


@settings(max_examples=150, deadline=None)
@given(
    protocol_name=st.sampled_from([p.value for p in Protocol]),
    eve=st.sampled_from(sorted(GOLDEN_EVES)),
    rounds=st.integers(MIN_ROUNDS, 20_000),
    seed=st.integers(0, 2**64 - 1),
    test_fraction=st.floats(0.05, 0.95),
)
def test_key_draw_keeps_every_tally_of_the_shuffle_sampler(protocol_name, eve, rounds, seed,
                                                           test_fraction):
    """Only the keys, E91's qber and how BBM92's key splits into x and z may move.

    Both samplers share the multinomial draw, so the test tallies, the
    statistic, the test sample's error rates, the key length and any
    starvation error are the same, bit for bit.
    """
    cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=rounds, eve=GOLDEN_EVES[eve],
                         test_fraction=test_fraction, seed=seed)
    runs = []
    for sampler in (run_protocol, reference_sampler.run_protocol):
        seen = []
        with mock.patch.object(protocol, "estimate_statistic", recording_tallies(seen)):
            try:
                outcome = sampler(cfg)
            except ValueError as exc:
                outcome = str(exc)
        runs.append(([{k: v.tolist() for k, v in tally.items()} for tally in seen], outcome))
    (tallies, ours), (reference_tallies, reference) = runs
    assert tallies == reference_tallies
    if isinstance(reference, str):
        assert ours == reference
        return
    for name in ("statistic", "stderr", "bound", "aborted", "qber_by_basis"):
        assert getattr(ours, name) == getattr(reference, name), name
    used, reference_used = dict(ours.rounds_used), dict(reference.rounds_used)
    if cfg.protocol is Protocol.BBM92:
        assert ours.qber == reference.qber
        key_pairs = [f"{basis}:{basis}" for basis in ours.qber_by_basis]
        assert (sum(used.pop(label) for label in key_pairs)
                == sum(reference_used.pop(label) for label in key_pairs))
    assert used == reference_used
    assert len(ours.sifted_key_a) == len(reference.sifted_key_a) == used["key"]


PEAK_BYTES_PER_KEY_BIT = 3.5
PEAK_BYTES_FIXED = 128 * 1024


@pytest.mark.parametrize("protocol_name, rounds, test_fraction", [
    ("bbm92", 4_000_000, 0.99), ("bbm92", 2_000_000, 0.25), ("e91", 2_000_000, 0.25)])
def test_peak_memory_scales_with_the_key_not_the_rounds(protocol_name, rounds, test_fraction):
    """A run's traced peak stays within a few bytes per key bit plus a constant.

    The key classes, the two keys and the random bytes of one slice of the
    draw are the only buffers that grow with the run; at 4e6 rounds and a 99%
    test fraction the BBM92 key holds only about 2e4 bits.  E91 counts its
    errors on the keys' ASCII codes before the strings are made, so the
    count fits in the same three key-sized buffers as the strings.
    """
    cfg = ProtocolConfig(protocol=Protocol(protocol_name), rounds=rounds,
                         test_fraction=test_fraction, eve=InterceptResend(basis="xz"), seed=5)
    run_protocol(dataclasses.replace(cfg, rounds=MIN_ROUNDS * 100))  # first-call set-up
    gc.collect()
    tracemalloc.start()
    try:
        report = run_protocol(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    key_bits = report.rounds_used["key"]
    assert peak <= PEAK_BYTES_PER_KEY_BIT * key_bits + PEAK_BYTES_FIXED, (peak, key_bits)


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
                abort_sigma=3.0,
                qber=0.0,
                qber_by_basis=None,
                sifted_key_a="010",
                sifted_key_b="01",
                rounds_used={},
            )

    def test_abort_flag_consistency_enforced(self):
        """The abort flag follows the abort rule against the protocol's bound; none can be
        passed in to contradict it."""
        fields = dict(protocol=Protocol.BBM92, statistic=-2.0, stderr=0.0,
                      abort_sigma=3.0, qber=0.0, qber_by_basis=None, sifted_key_a="01",
                      sifted_key_b="01", rounds_used={})
        with pytest.raises(TypeError):
            ProtocolReport(**fields, aborted=True)
        assert not ProtocolReport(**fields).aborted  # |-2| - 3 * 0 > 1
        assert ProtocolReport(**dict(fields, stderr=0.5)).aborted  # |-2| - 3 * 0.5 <= 1
        assert not ProtocolReport(**dict(fields, stderr=0.25)).aborted  # 2 - 0.75 > 1
        e91 = ProtocolReport(**dict(fields, protocol=Protocol.E91, stderr=0.25))
        assert e91.aborted  # 2 - 0.75 <= sqrt(2)

    @pytest.mark.parametrize("flavor, bound", [(Protocol.E91, EKERT_BOUND),
                                               (Protocol.BBM92, BBM_BOUND)])
    def test_bound_is_the_protocols(self, flavor, bound):
        fields = dict(protocol=flavor, statistic=0.0, stderr=0.0, abort_sigma=3.0, qber=0.0,
                      qber_by_basis=None, sifted_key_a="", sifted_key_b="", rounds_used={})
        assert ProtocolReport(**fields).bound == bound
        with pytest.raises(TypeError):
            ProtocolReport(**fields, bound=bound)
        with pytest.raises(ValueError, match="'bb84' is not a valid Protocol"):
            ProtocolReport(**dict(fields, protocol="bb84"))
