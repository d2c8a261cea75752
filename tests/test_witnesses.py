"""Tests for the witness statistics, fidelities, and verdicts."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eprlab import witnesses
from eprlab.hidden_variables import (
    SEPARABLE_WITNESSES,
    BoundReport,
    LocalModel,
    SeparableFunctional,
)
from eprlab.protocol import Protocol, ProtocolReport
from eprlab.qstate import (
    ATOL_DERIVED,
    ATOL_PSD,
    PROJECTOR_FLOOR,
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    TwoQubitState,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    bell_state,
    correlator,
    density_from_pure,
    phase_epr_state,
    product_mixture,
    werner_state,
)
from eprlab.witnesses import (
    BBM_BOUND,
    EKERT_BOUND,
    KS_BOUND,
    TSIRELSON_BOUND,
    VERDICT_SLACK,
    BellFidelities,
    CorrelatorAxes,
    DistillabilityVerdict,
    EkertSettings,
    KSCase,
    WitnessVerdict,
    bbm_statistic,
    bbm_verdict,
    bell_fidelities,
    default_ekert_settings,
    distillable_witness,
    ekert_functional,
    ekert_statistic,
    ekert_verdict,
    fidelity_identities_check,
    ks_functional,
    ks_verdict,
    pair_correlator_sum,
)

from test_qstate import random_density
from test_tensor_oracle import states as oracle_states


# Each functional as (offset, W), written out apart from the package's table; W is the
# default-settings S form a1 (b1 - b3)^T + a3 (b1 + b3)^T with b1 - b3 = (2r, 0, 0).
R = 1.0 / np.sqrt(2.0)
ORACLE_FUNCTIONALS = {
    "S": (0.0, np.diag([R + R, R + R, 0.0])),
    "T": (0.0, np.diag([1.0, 0.0, 1.0])),
    BellLabel.PHI_PLUS: (1.0, np.diag([1.0, -1.0, 1.0])),
    BellLabel.PHI_MINUS: (1.0, np.diag([-1.0, 1.0, 1.0])),
    BellLabel.PSI_PLUS: (1.0, np.diag([1.0, 1.0, -1.0])),
    BellLabel.PSI_MINUS: (1.0, np.diag([-1.0, -1.0, -1.0])),
}


def oracle_value(state: TwoQubitState, key) -> float:
    """One functional on its own, offset + sum_ij W_ij T_ij in Python floats: the nine products
    added one after another in row-major order, the order eprlab adds them in."""
    offset, weights = ORACLE_FUNCTIONALS[key]
    products = (w * t for w, t in zip(weights.ravel().tolist(),
                                      state.correlations.ravel().tolist()))
    return offset + sum(products)


@settings(max_examples=300, deadline=None)
@given(state=st.one_of(oracle_states, st.floats(0.0, 1.0).map(werner_state)))
def test_table_rows_match_per_functional_oracle_bit_for_bit(state):
    """Every statistic and fidelity read off the one table product equals its functional
    evaluated alone, to the last bit, on pure, mixed and Bloch-built states."""
    got = {"S": ekert_statistic(state), "T": bbm_statistic(state),
           **{case.bell_label: ks_functional(state, case) for case in KSCase}}
    for key, value in got.items():
        assert value.hex() == oracle_value(state, key).hex()
    for label, fidelity in bell_fidelities(state).by_label().items():
        assert fidelity.hex() == (oracle_value(state, label) / 4.0).hex()
    assert ekert_statistic(state, default_ekert_settings()).hex() == got["S"].hex()


def test_functionals_match_oracle_bit_for_bit_and_rows_are_read_only():
    """ekert_functional() is S's W, and each separable bound reads its functional's table
    row, (offset, W flattened), bit for bit the oracle's and not writable."""
    assert ekert_functional().tobytes() == ORACLE_FUNCTIONALS["S"][1].tobytes()
    oracle_key = {SeparableFunctional.EKERT_S: "S", SeparableFunctional.BBM_T: "T",
                  SeparableFunctional.KS_I: BellLabel.PSI_PLUS,
                  SeparableFunctional.KS_II: BellLabel.PSI_MINUS,
                  SeparableFunctional.KS_III: BellLabel.PHI_PLUS}
    assert set(SEPARABLE_WITNESSES) == set(oracle_key)
    for functional, (row, _) in SEPARABLE_WITNESSES.items():
        offset, weights = ORACLE_FUNCTIONALS[oracle_key[functional]]
        assert row.tobytes() == np.array([offset, *weights.flat]).tobytes()
        assert not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0


class TestEkertStatistic:
    def test_singlet_reaches_quantum_maximum(self):
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        assert ekert_statistic(rho) == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-10)

    def test_phase_state_value(self):
        rho = density_from_pure(phase_epr_state(np.pi / 4.0))
        assert ekert_statistic(rho) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_tsirelson_guard_boundary(self, sign):
        """The guard is TSIRELSON_BOUND times the largest trace norm a state at the eigenvalue
        floor can have, 1 - 6 PROJECTOR_FLOOR: |S| exactly at it is returned, one ulp above
        raises."""
        guard = TSIRELSON_BOUND * (1.0 - 6.0 * PROJECTOR_FLOOR)
        assert guard == 2.828427126443416
        ekert_settings = default_ekert_settings()
        weights = ekert_functional(ekert_settings)
        at_guard = SimpleNamespace(
            correlations=sign * np.diag([2.00000000120012, 3.1401849173675503e-16, 0.0]))
        assert ekert_statistic(at_guard, ekert_settings) == sign * guard
        beyond = SimpleNamespace(
            correlations=sign * np.diag([2.00000000120012, 6.280369834735101e-16, 0.0]))
        assert float(np.vdot(weights, beyond.correlations)) == sign * np.nextafter(guard, 3.0)
        with pytest.raises(RuntimeError, match="exceeds the quantum maximum"):
            ekert_statistic(beyond, ekert_settings)

    def test_werner_scales_linearly(self):
        for w in (0.2, 0.5, 0.9):
            rho = werner_state(w)
            assert ekert_statistic(rho) == pytest.approx(-2.0 * np.sqrt(2.0) * w, abs=1e-10)

    def test_rewrites_as_two_correlators(self):
        """At the default settings, S = sqrt(2) (E(xx) + E(yy))."""
        rng = np.random.default_rng(17)
        for _ in range(300):
            rho = random_density(rng)
            lhs = ekert_statistic(rho)
            rhs = np.sqrt(2.0) * pair_correlator_sum(rho, CorrelatorAxes.XX_YY)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_custom_settings(self):
        """Swapping Bob's two settings flips the sign structure of S."""
        default = default_ekert_settings()
        swapped = EkertSettings(a1=default.a1, a3=default.a3, b1=default.b3, b3=default.b1)
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        value = ekert_statistic(rho, swapped)
        # E11' = E13, E13' = E11, E31' = E33, E33' = E31 for the singlet quad.
        assert abs(value) <= 2.0 * np.sqrt(2.0) + 1e-12
        assert value != pytest.approx(ekert_statistic(rho), abs=1e-3)

    def test_settings_party_validation(self):
        d = default_ekert_settings()
        with pytest.raises(ValueError, match="Alice"):
            EkertSettings(a1=d.b1, a3=d.a3, b1=d.b1, b3=d.b3)
        with pytest.raises(ValueError, match="Bob"):
            EkertSettings(a1=d.a1, a3=d.a3, b1=d.a1, b3=d.b3)


class TestEkertVerdict:
    def test_singlet_violates(self):
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        verdict = ekert_verdict(rho)
        assert verdict.violated
        assert verdict.bound == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert verdict.margin == pytest.approx(2.0 * np.sqrt(2.0) - np.sqrt(2.0), abs=1e-10)

    def test_weak_werner_does_not_violate(self):
        assert not ekert_verdict(werner_state(0.4)).violated

    def test_verdict_takes_no_settings(self):
        """With a3 = a1 a product state reaches S = 2 > sqrt(2), so the bound needs the defaults."""
        d = default_ekert_settings()
        collinear = EkertSettings(a1=d.a1, a3=d.a1, b1=d.b1, b3=d.b3)
        product = product_mixture(ProductEnsemble([(1.0, X_AXIS, d.b1.direction)]))
        assert ekert_statistic(product, collinear) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(TypeError):
            ekert_verdict(product, collinear)

    def test_boundary_is_not_a_violation(self):
        verdict = WitnessVerdict(statistic=EKERT_BOUND, bound=EKERT_BOUND)
        assert not verdict.violated
        assert verdict.margin == 0.0

    @pytest.mark.parametrize("bound", [EKERT_BOUND, BBM_BOUND, KS_BOUND], ids=["S", "T", "U"])
    def test_slack_is_eight_eigenvalue_floors(self, bound):
        """|statistic| = bound + VERDICT_SLACK is not a violation, one ulp more is, either sign;
        the slack 8 ATOL_PSD covers the 4 ATOL_PSD (bound - offset) a floor state adds."""
        assert VERDICT_SLACK == 8 * ATOL_PSD == 8e-10
        edge = bound + VERDICT_SLACK
        for sign in (1.0, -1.0):
            assert not WitnessVerdict(sign * edge, bound).violated
            assert WitnessVerdict(sign * math.nextafter(edge, 9.0), bound).violated

    def test_inconsistent_flag_rejected(self):
        """The flag and margin are derived, so none can be passed in to contradict them."""
        with pytest.raises(TypeError):
            WitnessVerdict(statistic=2.0, bound=1.0, violated=False)
        with pytest.raises(TypeError):
            WitnessVerdict(statistic=2.0, bound=1.0, margin=0.5)
        verdict = WitnessVerdict(statistic=-2.0, bound=1.0)
        assert (verdict.violated, verdict.margin) == (True, 1.0)


class TestBbmStatistic:
    def test_singlet(self):
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        assert bbm_statistic(rho) == pytest.approx(-2.0, abs=1e-10)
        assert bbm_verdict(rho).violated

    def test_phi_plus(self):
        rho = density_from_pure(bell_state(BellLabel.PHI_PLUS))
        assert bbm_statistic(rho) == pytest.approx(2.0, abs=1e-10)
        assert bbm_verdict(rho).violated

    def test_balanced_bell_mixture_cancels(self):
        """Half-and-half mixing of opposite-T Bell states gives T = 0."""
        phi = density_from_pure(bell_state(BellLabel.PHI_PLUS)).matrix
        psi = density_from_pure(bell_state(BellLabel.PSI_MINUS)).matrix
        rho = TwoQubitState(0.5 * phi + 0.5 * psi)
        assert bbm_statistic(rho) == pytest.approx(0.0, abs=1e-10)
        assert not bbm_verdict(rho).violated

    def test_product_state_at_bound(self):
        """A z-anticorrelated product state sits exactly at the bound."""
        rho = product_mixture(ProductEnsemble([(1.0, Z_AXIS, -Z_AXIS)]))
        assert bbm_statistic(rho) == pytest.approx(-1.0, abs=1e-10)
        assert not bbm_verdict(rho).violated


class TestKSFunctionals:
    @pytest.mark.parametrize(
        "case,label",
        [
            (KSCase.CASE_I, BellLabel.PSI_PLUS),
            (KSCase.CASE_II, BellLabel.PSI_MINUS),
            (KSCase.CASE_III, BellLabel.PHI_PLUS),
        ],
    )
    def test_witnessed_state_reaches_four(self, case, label):
        rho = density_from_pure(bell_state(label))
        assert ks_functional(rho, case) == pytest.approx(4.0, abs=1e-10)
        assert ks_verdict(rho, case).violated
        assert case.bell_label is label

    def test_maximally_mixed_is_one(self):
        rho = TwoQubitState(np.eye(4, dtype=complex) / 4.0)
        for case in KSCase:
            assert ks_functional(rho, case) == pytest.approx(1.0, abs=1e-12)
            assert not ks_verdict(rho, case).violated

    def test_equals_four_times_fidelity(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            rho = random_density(rng)
            fid = bell_fidelities(rho).by_label()
            for case in KSCase:
                assert ks_functional(rho, case) == pytest.approx(
                    4.0 * fid[case.bell_label], abs=1e-10
                )

    def test_nonnegative(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            rho = random_density(rng)
            for case in KSCase:
                assert ks_functional(rho, case) >= -1e-10


class TestBellFidelities:
    def test_sum_may_miss_one_by_atol_derived(self):
        """1.0000000000999998 misses 1 by 9.99998e-11 <= ATOL_DERIVED = 1e-10; the next float
        up misses it by 1.0000000827e-10 and is refused."""
        BellFidelities(0.0, 0.0, 0.0, 1.0000000000999998)
        with pytest.raises(ValueError, match="fidelities sum to 1.0000000001, not 1"):
            BellFidelities(0.0, 0.0, 0.0, float(np.nextafter(1.0000000000999998, 2.0)))

    def test_sum_to_one_random(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            fid = bell_fidelities(random_density(rng))
            assert sum(fid.as_tuple()) == pytest.approx(1.0, abs=1e-10)

    def test_phase_state_split(self):
        """The phase state splits its weight between the two triplet-sector states."""
        rho = density_from_pure(phase_epr_state(np.pi / 4.0))
        fid = bell_fidelities(rho)
        assert fid.psi_plus == pytest.approx(np.cos(np.pi / 8.0) ** 2, abs=1e-10)
        assert fid.psi_minus == pytest.approx(np.sin(np.pi / 8.0) ** 2, abs=1e-10)
        assert fid.phi_plus == pytest.approx(0.0, abs=1e-10)
        assert fid.phi_minus == pytest.approx(0.0, abs=1e-10)

    def test_route_residual_may_reach_atol_derived(self, monkeypatch):
        """On |++><++| the psi overlaps are exactly 0; table fidelities -x and x for them leave
        a residual of x, which passes at x = ATOL_DERIVED and raises one ulp above it."""
        state = TwoQubitState(np.diag([1.0, 0.0, 0.0, 0.0]))
        for x, passes in ((ATOL_DERIVED, True), (math.nextafter(ATOL_DERIVED, 1.0), False)):
            monkeypatch.setattr(witnesses, "bell_fidelities",
                                lambda _, x=x: BellFidelities(0.5, 0.5, -x, x))
            if passes:
                assert fidelity_identities_check(state) == (ATOL_DERIVED, 0.0)
            else:
                with pytest.raises(RuntimeError, match="fidelity routes disagree"):
                    fidelity_identities_check(state)

    def test_overlap_route_agrees(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            residual, sum_dev = fidelity_identities_check(random_density(rng))
            assert residual <= 1e-10
            assert sum_dev <= 1e-10

    def test_overlap_route_matches_per_state_overlaps(self):
        """One einsum over the Bell amplitude rows gives each <bell|rho|bell>."""
        def overlap(rho, label):
            amp = bell_state(label).amplitudes
            return float(np.vdot(amp, rho.matrix @ amp).real)

        rng = np.random.default_rng(47)
        for _ in range(100):
            rho = random_density(rng)
            fid = bell_fidelities(rho).by_label()
            expected = max(abs(overlap(rho, label) - fid[label]) for label in BellLabel)
            residual, _ = fidelity_identities_check(rho)
            assert residual == pytest.approx(expected, abs=1e-15)

    def test_disagreeing_routes_raise(self, monkeypatch):
        rho = werner_state(0.3)
        f = bell_fidelities(rho)
        shifted = BellFidelities(f.phi_plus + 0.01, f.phi_minus - 0.01, f.psi_plus, f.psi_minus)
        monkeypatch.setattr(witnesses, "bell_fidelities", lambda state: shifted)
        with pytest.raises(RuntimeError, match="fidelity routes disagree"):
            fidelity_identities_check(rho)

    def test_invalid_fidelities_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            BellFidelities(phi_plus=0.5, phi_minus=0.5, psi_plus=0.5, psi_minus=0.5)
        with pytest.raises(ValueError, match="outside"):
            BellFidelities(phi_plus=1.5, phi_minus=-0.5, psi_plus=0.0, psi_minus=0.0)

    def test_fields_follow_bell_label_order(self):
        """by_label pairs the fields with BellLabel in declaration order."""
        assert [f.name for f in dataclasses.fields(BellFidelities)] == [
            label.name.lower() for label in BellLabel
        ]
        fidelities = BellFidelities(0.1, 0.2, 0.3, 0.4)
        assert fidelities.by_label() == {
            BellLabel.PHI_PLUS: 0.1, BellLabel.PHI_MINUS: 0.2,
            BellLabel.PSI_PLUS: 0.3, BellLabel.PSI_MINUS: 0.4,
        }


class TestDistillability:
    def test_werner_above_threshold(self):
        verdict = distillable_witness(werner_state(0.4))
        assert verdict.distillable
        assert verdict.bell_label is BellLabel.PSI_MINUS
        assert verdict.fidelity == pytest.approx(0.55, abs=1e-10)

    def test_werner_at_threshold_inconclusive(self):
        """w = 1/3 puts the singlet fidelity exactly at 1/2."""
        verdict = distillable_witness(werner_state(1.0 / 3.0))
        assert not verdict.distillable
        assert verdict.bell_label is None
        assert verdict.fidelity == pytest.approx(0.5, abs=1e-10)

    def test_product_state_inconclusive(self):
        rho = product_mixture(ProductEnsemble([(1.0, Z_AXIS, Z_AXIS)]))
        verdict = distillable_witness(rho)
        assert not verdict.distillable
        assert verdict.fidelity <= 0.5 + 1e-10

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_bell_states_distillable(self, label):
        verdict = distillable_witness(density_from_pure(bell_state(label)))
        assert verdict.distillable
        assert verdict.bell_label is label
        assert verdict.fidelity == pytest.approx(1.0, abs=1e-10)


class TestPairCorrelatorSum:
    def test_bell_state_axis_sums(self):
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        assert pair_correlator_sum(rho, CorrelatorAxes.XX_YY) == pytest.approx(-2.0, abs=1e-10)
        assert pair_correlator_sum(rho, CorrelatorAxes.XX_ZZ) == pytest.approx(-2.0, abs=1e-10)

    def test_matches_direct_correlators(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            rho = random_density(rng)
            direct = correlator(
                rho, SpinSetting.alice(X_AXIS), SpinSetting.bob(X_AXIS)
            ) + correlator(rho, SpinSetting.alice(Y_AXIS), SpinSetting.bob(Y_AXIS))
            assert pair_correlator_sum(rho, CorrelatorAxes.XX_YY) == pytest.approx(
                direct, abs=1e-12
            )


class TestBoundsExposed:
    def test_module_constants(self):
        assert EKERT_BOUND == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert BBM_BOUND == 1.0
        assert KS_BOUND == 2.0


NAN = float("nan")
INF = float("inf")


def report(**changes) -> ProtocolReport:
    """A protocol report of an empty run, with the given fields changed."""
    fields = dict(protocol=Protocol.E91, statistic=0.0, stderr=0.0, abort_sigma=3.0, qber=0.0,
                  qber_by_basis=None, sifted_key_a="", sifted_key_b="", rounds_used={})
    return ProtocolReport(**{**fields, **changes})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LocalModel((NAN,) * 16), "weights must be finite"),
        (lambda: WitnessVerdict(NAN, 1.0), "verdict statistic must be finite, got nan"),
        (lambda: WitnessVerdict(INF, 1.0), "verdict statistic must be finite, got inf"),
        (lambda: WitnessVerdict(1e308, -1e308), "verdict margin must be finite, got inf"),
        (lambda: BoundReport(SeparableFunctional.BBM_T, NAN, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
         "supremum must be finite, got nan"),
        (lambda: report(statistic=NAN), "report statistic must be finite, got nan"),
        (lambda: report(stderr=NAN), "report stderr must be finite, got nan"),
        (lambda: report(abort_sigma=NAN), "report abort_sigma must be finite, got nan"),
    ],
    ids=["local-model", "verdict-nan", "verdict-inf", "verdict-margin",
         "bound-report", "report-statistic", "report-stderr", "report-abort-sigma"],
)
def test_non_finite_or_misshapen_values_rejected(build, message):
    """Each comparison a NaN would make False is preceded by a check that names the field."""
    with pytest.raises(ValueError) as error:
        build()
    assert message in str(error.value)


def test_report_rejects_a_qber_outside_the_unit_interval():
    assert report(qber=1.0).qber == 1.0
    with pytest.raises(ValueError, match=r"^qber 1\.5 outside \[0, 1\]$"):
        report(qber=1.5)


def test_abort_rule_boundary_is_an_abort():
    """|T| - k sigma exactly at the bound aborts; one ulp more of |T| does not."""
    at_bound = report(protocol=Protocol.BBM92, statistic=1.75, stderr=0.25, abort_sigma=3.0)
    assert abs(at_bound.statistic) - at_bound.abort_sigma * at_bound.stderr == BBM_BOUND
    assert at_bound.aborted
    for statistic in (np.nextafter(1.75, 2.0), -np.nextafter(1.75, 2.0)):
        assert not dataclasses.replace(at_bound, statistic=float(statistic)).aborted
    assert dataclasses.replace(at_bound, statistic=-1.75).aborted


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(statistic=finite, moved=finite, bound=finite,
       stderr=st.floats(min_value=0.0, allow_infinity=False),
       abort_sigma=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       flavor=st.sampled_from(Protocol))
def test_derived_verdicts_follow_their_rules(statistic, moved, bound, stderr, abort_sigma,
                                             flavor):
    """violated, margin and aborted follow their rules, and dataclasses.replace recomputes them."""
    assume(math.isfinite(abs(statistic) - bound) and math.isfinite(abs(moved) - bound))
    verdict = WitnessVerdict(statistic, bound)
    for v, s in ((verdict, statistic), (dataclasses.replace(verdict, statistic=moved), moved)):
        assert v.violated == (abs(s) > bound + VERDICT_SLACK)
        assert v.margin == abs(s) - bound
    run = report(protocol=flavor, statistic=statistic, stderr=stderr, abort_sigma=abort_sigma)
    flavor_bound = {Protocol.E91: EKERT_BOUND, Protocol.BBM92: BBM_BOUND}[flavor]
    for r, s in ((run, statistic), (dataclasses.replace(run, statistic=moved), moved)):
        assert r.aborted == (abs(s) - abort_sigma * stderr <= flavor_bound)
    for record, name in ((verdict, "violated"), (verdict, "margin"), (run, "aborted"),
                         (run, "bound")):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(record, **{name: getattr(record, name)})


@pytest.mark.parametrize("name", ["distillable", "bell_label", "fidelity"])
def test_distillability_fields_cannot_be_passed(name):
    fidelities = BellFidelities(0.1, 0.1, 0.1, 0.7)
    verdict = DistillabilityVerdict(fidelities)
    with pytest.raises(TypeError):
        DistillabilityVerdict(fidelities, **{name: getattr(verdict, name)})


# The one rule: 4 f > KS_BOUND + VERDICT_SLACK, so f = (KS_BOUND + VERDICT_SLACK) / 4 is the
# last fidelity that is not distillable (4 f is exact), and 1/2 + VERDICT_SLACK / 2 is.
LAST_UNDISTILLABLE = (KS_BOUND + VERDICT_SLACK) / 4.0


@pytest.mark.parametrize("top, distillable", [
    (0.5, False), (LAST_UNDISTILLABLE, False), (np.nextafter(LAST_UNDISTILLABLE, 1.0), True),
    (0.5 + VERDICT_SLACK / 2, True), (0.5 + 2 * VERDICT_SLACK, True)])
def test_distillability_threshold_has_slack(top, distillable):
    """The rule is the KS verdict's on the same Bell row, 4 f against KS_BOUND with its slack:
    anything within VERDICT_SLACK / 4 above f = 1/2 is not distillable."""
    top = float(top)
    assert LAST_UNDISTILLABLE == 0.5000000002
    verdict = DistillabilityVerdict(BellFidelities(0.0, 1.0 - top, top, 0.0))
    assert (verdict.distillable, verdict.fidelity) == (distillable, top)
    assert verdict.distillable == WitnessVerdict(4.0 * top, KS_BOUND).violated
    assert verdict.bell_label is (BellLabel.PSI_PLUS if distillable else None)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), label=st.sampled_from(BellLabel),
       weight=st.floats(0.0, 1.0))
def test_distillability_follows_the_fidelities(seed, label, weight):
    """The largest fidelity f decides, by the KS rule 4 f > KS_BOUND + VERDICT_SLACK; only
    then, when it is the only one above 1/2, is its label kept, and the KS verdict of its
    Bell row agrees."""
    bell = density_from_pure(bell_state(label)).matrix
    noise = random_density(np.random.default_rng(seed)).matrix
    state = TwoQubitState(weight * bell + (1.0 - weight) * noise)
    fidelities = bell_fidelities(state)
    verdict = DistillabilityVerdict(fidelities)
    by_label = fidelities.by_label()
    best = max(by_label.values())
    top = max(by_label, key=by_label.get)
    assert verdict.fidelities is fidelities
    assert verdict.fidelity == best
    assert verdict.distillable == (4.0 * best > KS_BOUND + VERDICT_SLACK)
    assert verdict.bell_label is (top if verdict.distillable else None)
    assert distillable_witness(state) == DistillabilityVerdict(bell_fidelities(state))
    for case in KSCase:
        assert ks_verdict(state, case).statistic == 4.0 * by_label[case.bell_label]
        if case.bell_label is top:
            assert ks_verdict(state, case).violated == verdict.distillable
