"""Tests for the witness statistics, fidelities, and verdicts."""

import dataclasses

import numpy as np
import pytest

from eprlab.hidden_variables import BoundReport, LocalModel, SeparableFunctional
from eprlab.qstate import (
    BellLabel,
    OutcomeDistribution,
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
    BellFidelities,
    CorrelatorAxes,
    EkertSettings,
    KSCase,
    LinearFunctional,
    WitnessVerdict,
    bbm_statistic,
    bbm_verdict,
    bell_fidelities,
    default_ekert_settings,
    distillable_witness,
    ekert_statistic,
    ekert_verdict,
    fidelity_identities_check,
    ks_functional,
    ks_verdict,
    pair_correlator_sum,
)

from test_qstate import random_density


class TestEkertStatistic:
    def test_singlet_reaches_quantum_maximum(self):
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        assert ekert_statistic(rho) == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-10)

    def test_phase_state_value(self):
        rho = density_from_pure(phase_epr_state(np.pi / 4.0))
        assert ekert_statistic(rho) == pytest.approx(2.0, abs=1e-10)

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
        product = product_mixture([(1.0, X_AXIS, d.b1.direction)])
        assert ekert_statistic(product, collinear) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(TypeError):
            ekert_verdict(product, collinear)

    def test_boundary_is_not_a_violation(self):
        verdict = WitnessVerdict(
            statistic=EKERT_BOUND, bound=EKERT_BOUND, violated=False, margin=0.0
        )
        assert not verdict.violated

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            WitnessVerdict(statistic=2.0, bound=1.0, violated=False, margin=1.0)
        with pytest.raises(ValueError, match="margin"):
            WitnessVerdict(statistic=2.0, bound=1.0, violated=True, margin=0.5)


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
        rho = product_mixture([(1.0, Z_AXIS, -Z_AXIS)])
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

    def test_overlap_route_agrees(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            residual, sum_dev = fidelity_identities_check(random_density(rng))
            assert residual <= 1e-10
            assert sum_dev <= 1e-10

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
        rho = product_mixture([(1.0, Z_AXIS, Z_AXIS)])
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OutcomeDistribution([NAN, 0.0, 0.0, 1.0]), "probabilities must be finite"),
        (lambda: LocalModel((NAN,) * 16), "weights must be finite"),
        (lambda: WitnessVerdict(NAN, 1.0, False, NAN), "verdict statistic must be finite, got nan"),
        (lambda: WitnessVerdict(INF, 1.0, True, INF), "verdict statistic must be finite, got inf"),
        (lambda: WitnessVerdict(0.5, 1.0, False, NAN), "verdict margin must be finite, got nan"),
        (lambda: BoundReport(SeparableFunctional.BBM_T, NAN, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                             1, 1.0), "supremum must be finite, got nan"),
        (lambda: LinearFunctional(NAN, np.eye(3)), "offset and weights must be finite, got nan"),
        (lambda: LinearFunctional(0.0, np.diag([1.0, INF, 1.0])), "offset and weights must be finite"),
        (lambda: LinearFunctional(0.0, np.eye(2)), "weights must be 3x3, got shape (2, 2)"),
    ],
    ids=["distribution", "local-model", "verdict-nan", "verdict-inf", "verdict-margin",
         "bound-report", "functional-offset", "functional-weights", "functional-shape"],
)
def test_non_finite_or_misshapen_values_rejected(build, message):
    """Each comparison a NaN would make False is preceded by a check that names the field."""
    with pytest.raises(ValueError) as error:
        build()
    assert message in str(error.value)
