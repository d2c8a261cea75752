"""Tests for state construction, observables, and outcome statistics."""

import numpy as np
import pytest

from eprlab.qstate import (
    BellLabel,
    OutcomeDistribution,
    Party,
    ProductEnsemble,
    PureState,
    SpinSetting,
    TwoQubitState,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    bell_state,
    bloch_qubit,
    correlator,
    density_from_pure,
    outcome_distribution,
    phase_epr_state,
    product_mixture,
    spin_observable,
    werner_state,
)


def random_density(rng: np.random.Generator) -> TwoQubitState:
    """Random full-rank density matrix from a Ginibre draw."""
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return TwoQubitState(m / m.trace())


class TestPureState:
    def test_norm_enforced(self):
        """Amplitudes off the unit sphere are rejected."""
        with pytest.raises(ValueError, match="norm"):
            PureState([1.0, 1.0, 0.0, 0.0])

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="4 amplitudes"):
            PureState([1.0, 0.0])

    def test_amplitudes_read_only(self):
        psi = bell_state(BellLabel.PHI_PLUS)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_bell_states_normalized(self, label):
        psi = bell_state(label)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_bell_states_orthogonal(self):
        """The four maximally entangled states form an orthonormal set."""
        vectors = [bell_state(label).amplitudes for label in BellLabel]
        gram = np.array([[abs(np.vdot(u, v)) for v in vectors] for u in vectors])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_phase_state_amplitudes(self):
        psi = phase_epr_state(np.pi / 3)
        amp = psi.amplitudes
        assert amp[0] == 0.0 and amp[3] == 0.0
        assert amp[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert amp[2] == pytest.approx(np.exp(-1.0j * np.pi / 3) / np.sqrt(2.0), abs=1e-12)

    def test_phase_must_be_finite(self):
        for phase in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="phase must be a finite number"):
                phase_epr_state(phase)

    def test_phase_zero_matches_triplet(self):
        """Zero relative phase reduces to the symmetric Bell state."""
        psi = phase_epr_state(0.0)
        assert np.allclose(psi.amplitudes, bell_state(BellLabel.PSI_PLUS).amplitudes)


class TestTwoQubitState:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            TwoQubitState(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TwoQubitState(np.eye(4, dtype=complex) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            TwoQubitState(m)

    def test_rejects_non_finite_entries(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TwoQubitState(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            TwoQubitState(np.eye(2, dtype=complex) / 2.0)

    def test_matrix_read_only(self):
        rho = werner_state(0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_random_states_accepted(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_density(rng)
            assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)


class TestSpinSetting:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            SpinSetting.alice([1.0, 1.0, 0.0])

    def test_party_required(self):
        with pytest.raises(ValueError, match="Party"):
            SpinSetting([1.0, 0.0, 0.0], "alice")

    def test_constructors_set_party(self):
        assert SpinSetting.alice(X_AXIS).party is Party.ALICE
        assert SpinSetting.bob(Z_AXIS).party is Party.BOB


class TestProductEnsemble:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ProductEnsemble([(0.5, X_AXIS, X_AXIS), (0.4, Z_AXIS, Z_AXIS)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ProductEnsemble([(1.2, X_AXIS, X_AXIS), (-0.2, Z_AXIS, Z_AXIS)])

    def test_long_bloch_vector_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            ProductEnsemble([(1.0, (1.0, 1.0, 0.0), Z_AXIS)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ProductEnsemble([])

    def test_mixed_interior_vectors_allowed(self):
        ens = ProductEnsemble([(1.0, (0.2, 0.1, -0.3), (0.0, 0.0, 0.0))])
        rho = product_mixture(ens)
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)


class TestObservables:
    def test_spin_observable_squares_to_identity(self):
        obs = spin_observable(SpinSetting.alice([0.6, 0.0, 0.8]))
        assert np.allclose(obs @ obs, np.eye(4), atol=1e-12)

    def test_bloch_qubit_pure_is_projector(self):
        rho = bloch_qubit([0.0, 1.0, 0.0])
        assert np.allclose(rho @ rho, rho, atol=1e-12)

    def test_bloch_qubit_rejects_long_vector(self):
        with pytest.raises(ValueError, match="norm"):
            bloch_qubit([1.0, 0.0, 0.5])


# Same-axis correlator triple (E(xx), E(yy), E(zz)) for each Bell state.
BELL_CORRELATOR_TRIPLES = {
    BellLabel.PHI_PLUS: (1.0, -1.0, 1.0),
    BellLabel.PHI_MINUS: (-1.0, 1.0, 1.0),
    BellLabel.PSI_PLUS: (1.0, 1.0, -1.0),
    BellLabel.PSI_MINUS: (-1.0, -1.0, -1.0),
}


class TestCorrelator:
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_bell_state_correlator_triples(self, label):
        rho = density_from_pure(bell_state(label))
        triple = tuple(
            correlator(rho, SpinSetting.alice(axis), SpinSetting.bob(axis))
            for axis in (X_AXIS, Y_AXIS, Z_AXIS)
        )
        assert triple == pytest.approx(BELL_CORRELATOR_TRIPLES[label], abs=1e-12)

    def test_party_mismatch_rejected(self):
        rho = werner_state(0.5)
        a = SpinSetting.alice(X_AXIS)
        b = SpinSetting.bob(X_AXIS)
        with pytest.raises(ValueError, match="Alice"):
            correlator(rho, b, a)
        with pytest.raises(ValueError, match="Alice"):
            correlator(rho, a, a)

    def test_werner_scales_singlet(self):
        """Correlators of the noise family are linear in the mixing weight."""
        for w in (0.0, 0.3, 0.7, 1.0):
            rho = werner_state(w)
            value = correlator(rho, SpinSetting.alice(Z_AXIS), SpinSetting.bob(Z_AXIS))
            assert value == pytest.approx(-w, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = random_density(rng)
            v = rng.normal(size=3)
            u = rng.normal(size=3)
            a = SpinSetting.alice(u / np.linalg.norm(u))
            b = SpinSetting.bob(v / np.linalg.norm(v))
            assert abs(correlator(rho, a, b)) <= 1.0 + 1e-12


class TestOutcomeDistribution:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            OutcomeDistribution([0.5, 0.6, -0.1, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution([0.5, 0.3, 0.1, 0.0])

    def test_probability_lookup(self):
        dist = OutcomeDistribution([0.4, 0.3, 0.2, 0.1])
        assert dist.probability(1, 1) == pytest.approx(0.4)
        assert dist.probability(-1, 1) == pytest.approx(0.2)
        with pytest.raises(ValueError, match="outcomes"):
            dist.probability(0, 1)

    def test_singlet_z_outcomes_anticorrelate(self):
        """Matching z measurements on the singlet never agree."""
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        dist = outcome_distribution(rho, SpinSetting.alice(Z_AXIS), SpinSetting.bob(Z_AXIS))
        assert dist.probability(1, -1) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(-1, 1) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(1, 1) == pytest.approx(0.0, abs=1e-12)
        assert dist.probability(-1, -1) == pytest.approx(0.0, abs=1e-12)

    def test_phi_plus_x_outcomes_correlate(self):
        rho = density_from_pure(bell_state(BellLabel.PHI_PLUS))
        dist = outcome_distribution(rho, SpinSetting.alice(X_AXIS), SpinSetting.bob(X_AXIS))
        assert dist.probability(1, 1) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(-1, -1) == pytest.approx(0.5, abs=1e-12)

    def test_distribution_matches_correlator(self):
        """Implied and analytic correlators agree on random states and axes."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            rho = random_density(rng)
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            a = SpinSetting.alice(u / np.linalg.norm(u))
            b = SpinSetting.bob(v / np.linalg.norm(v))
            dist = outcome_distribution(rho, a, b)
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
            assert dist.correlator == pytest.approx(correlator(rho, a, b), abs=1e-10)

    def test_marginals_consistent_across_partner_settings(self):
        """Alice's marginal cannot depend on Bob's choice of axis."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            rho = random_density(rng)
            u = rng.normal(size=3)
            a = SpinSetting.alice(u / np.linalg.norm(u))
            d1 = outcome_distribution(rho, a, SpinSetting.bob(X_AXIS))
            d2 = outcome_distribution(rho, a, SpinSetting.bob(Z_AXIS))
            assert d1.marginal_a == pytest.approx(d2.marginal_a, abs=1e-10)


class TestWernerState:
    def test_parameter_range(self):
        with pytest.raises(ValueError, match="0, 1"):
            werner_state(1.2)
        with pytest.raises(ValueError, match="0, 1"):
            werner_state(-0.1)

    def test_limits(self):
        assert np.allclose(werner_state(0.0).matrix, np.eye(4) / 4.0, atol=1e-12)
        singlet = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        assert np.allclose(werner_state(1.0).matrix, singlet.matrix, atol=1e-12)

    def test_singlet_overlap(self):
        """Overlap with the singlet is (1 + 3w)/4."""
        singlet = density_from_pure(bell_state(BellLabel.PSI_MINUS)).matrix
        for w in (0.0, 1.0 / 3.0, 0.4, 0.9):
            overlap = np.trace(werner_state(w).matrix @ singlet).real
            assert overlap == pytest.approx((1.0 + 3.0 * w) / 4.0, abs=1e-12)


class TestProductMixture:
    def test_separable_matches_kron(self):
        ens = ProductEnsemble([(1.0, X_AXIS, -Z_AXIS)])
        rho = product_mixture(ens)
        expected = np.kron(bloch_qubit(X_AXIS), bloch_qubit(-Z_AXIS))
        assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_mixture_correlators_average(self):
        """Mixture correlators are the weighted average of the components'."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            blochs = [rng.normal(size=3) for _ in range(4)]
            blochs = [b / np.linalg.norm(b) for b in blochs]
            weights = rng.dirichlet(np.ones(2))
            ens = ProductEnsemble(
                [
                    (weights[0], blochs[0], blochs[1]),
                    (weights[1], blochs[2], blochs[3]),
                ]
            )
            rho = product_mixture(ens)
            a = SpinSetting.alice(X_AXIS)
            b = SpinSetting.bob(Z_AXIS)
            expected = weights[0] * blochs[0][0] * blochs[1][2] + weights[1] * blochs[2][0] * blochs[3][2]
            assert correlator(rho, a, b) == pytest.approx(expected, abs=1e-10)
