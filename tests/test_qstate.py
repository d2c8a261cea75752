"""Tests for state construction, observables, and outcome statistics."""

import numpy as np
import pytest

from eprlab.qstate import (
    ATOL_CONSTRUCT,
    BELL_CORRELATORS,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    OUTCOMES,
    BellLabel,
    Party,
    ProductEnsemble,
    PureState,
    SpinSetting,
    TwoQubitState,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    bell_state,
    correlator,
    density_from_pure,
    outcome_distribution,
    phase_epr_state,
    product_mixture,
    state_from_bloch,
    werner_state,
)

# The Bell amplitudes as a literal table, the oracle for the ones eprlab reads
# off BELL_CORRELATORS.
BELL_AMPLITUDES = {
    BellLabel.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0),
    BellLabel.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0),
    BellLabel.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0),
    BellLabel.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0),
}


def bloch_qubit(bloch) -> np.ndarray:
    """Oracle: the single-qubit density matrix (I + n . sigma)/2 for |n| <= 1."""
    n = np.asarray(bloch, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"Bloch vector must be a 3-vector, got shape {n.shape}")
    if not np.linalg.norm(n) <= 1.0 + ATOL_CONSTRUCT:
        raise ValueError(f"Bloch vector norm {float(np.linalg.norm(n))!r} above 1")
    return 0.5 * (IDENTITY_2 + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)


def spin_observable(setting: SpinSetting) -> np.ndarray:
    """Oracle: the two-qubit observable measuring n . sigma on the setting's party."""
    n = setting.direction
    local = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    if setting.party is Party.ALICE:
        return np.kron(local, IDENTITY_2)
    return np.kron(IDENTITY_2, local)


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

    @pytest.mark.parametrize("huge", [1e200, 1e200j, 1e308 + 1e308j])
    def test_huge_amplitude_rejected_by_its_norm(self, huge):
        """The norm neither overflows nor warns (the suite turns warnings into errors)."""
        with pytest.raises(ValueError, match="pure state norm .*e\\+(200|308) deviates"):
            PureState([0.0, huge, 0.0, 0.0])

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

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_amplitudes_read_off_the_correlators_match_the_literal_table(self, label):
        assert bell_state(label).amplitudes.tobytes() == BELL_AMPLITUDES[label].tobytes()

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_correlation_matrix_is_the_correlator_table(self, label):
        """Up to the rounding of (1/sqrt 2)^2, one ulp of 1."""
        correlations = density_from_pure(bell_state(label)).correlations
        np.testing.assert_allclose(correlations, np.diag(BELL_CORRELATORS[label]),
                                   rtol=0.0, atol=2.3e-16)

    def test_phase_zero_matches_triplet(self):
        """Zero relative phase reduces to the symmetric Bell state."""
        psi = phase_epr_state(0.0)
        assert np.allclose(psi.amplitudes, bell_state(BellLabel.PSI_PLUS).amplitudes)


class TestTwoQubitState:
    def test_hermiticity_and_trace_may_miss_by_exactly_atol_construct(self):
        """A 1e-12 gap between m and its adjoint, or between the trace and 1, is accepted;
        one ulp more is refused."""
        for gap, accepted in ((5e-13, True), (float(np.nextafter(5e-13, 1.0)), False)):
            m = np.eye(4, dtype=complex) / 4.0
            m[0, 1], m[1, 0] = gap, -gap
            diagonal = np.diag([0.25 + 0.5j * gap] * 4)
            for matrix, message in ((m, "not Hermitian"), (diagonal, "trace")):
                if accepted:
                    TwoQubitState(matrix)
                else:
                    with pytest.raises(ValueError, match=message):
                        TwoQubitState(matrix)

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

    def test_huge_component_rejected_by_its_norm(self):
        with pytest.raises(ValueError, match=r"spin direction norm 1e\+200 deviates from 1"):
            SpinSetting.bob([0.0, 0.0, 1e200])

    def test_party_required(self):
        with pytest.raises(ValueError, match="Party"):
            SpinSetting([1.0, 0.0, 0.0], "alice")

    def test_constructors_set_party(self):
        assert SpinSetting.alice(X_AXIS).party is Party.ALICE
        assert SpinSetting.bob(Z_AXIS).party is Party.BOB


class TestProductEnsemble:
    def test_bloch_norm_may_exceed_one_by_exactly_atol_construct(self):
        edge = 1.0 + ATOL_CONSTRUCT
        ProductEnsemble([(1.0, (edge, 0.0, 0.0), (0.0, 0.0, 1.0))])
        with pytest.raises(ValueError, match="blochA at index 0 has norm"):
            ProductEnsemble([(1.0, (float(np.nextafter(edge, 2.0)), 0.0, 0.0), (0.0, 0.0, 1.0))])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ProductEnsemble([(0.5, X_AXIS, X_AXIS), (0.4, Z_AXIS, Z_AXIS)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ProductEnsemble([(1.2, X_AXIS, X_AXIS), (-0.2, Z_AXIS, Z_AXIS)])

    def test_negative_weight_slack_is_atol_construct(self):
        """A weight of -ATOL_CONSTRUCT or one step above it is read as 0; one step below
        is rejected."""
        for weight in (np.nextafter(-ATOL_CONSTRUCT, 0.0), -ATOL_CONSTRUCT):
            ensemble = ProductEnsemble([(1.0, X_AXIS, X_AXIS), (weight, Z_AXIS, Z_AXIS)])
            assert ensemble.weights.tolist() == [1.0, 0.0]
        outside = np.nextafter(-ATOL_CONSTRUCT, -1.0)
        with pytest.raises(ValueError, match="negative"):
            ProductEnsemble([(1.0, X_AXIS, X_AXIS), (outside, Z_AXIS, Z_AXIS)])

    def test_long_bloch_vector_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            ProductEnsemble([(1.0, (1.0, 1.0, 0.0), Z_AXIS)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ProductEnsemble([])

    def test_terms_and_arrays_agree(self):
        terms = [(0.25, X_AXIS, (0.0, 0.6, 0.8)), (0.75, (0.1, 0.2, 0.3), -Z_AXIS)]
        ensemble = ProductEnsemble(terms)
        arrays = (ensemble.weights, ensemble.blochs_a, ensemble.blochs_b)
        for array, column, shape in zip(arrays, zip(*terms), ((2,), (2, 3), (2, 3))):
            assert array.dtype == float and array.shape == shape
            np.testing.assert_array_equal(array, column)
            assert not array.flags.writeable

    def test_ensemble_is_its_arrays(self):
        """No per-term view: the three arrays are the whole ensemble."""
        ensemble = ProductEnsemble([(1.0, X_AXIS, Z_AXIS)])
        assert not hasattr(ensemble, "terms")
        with pytest.raises(TypeError):
            len(ensemble)
        with pytest.raises(TypeError):
            iter(ensemble)

    def test_mixed_interior_vectors_allowed(self):
        ens = ProductEnsemble([(1.0, (0.2, 0.1, -0.3), (0.0, 0.0, 0.0))])
        rho = product_mixture(ens)
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)


class TestErrorMessages:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PureState([1.0, 1.0, 0.0, 0.0]),
             "pure state norm 1.4142135623730951 deviates from 1"),
            (lambda: SpinSetting.alice([1.0, 1.0, 0.0]),
             "spin direction norm 1.4142135623730951 deviates from 1"),
            (lambda: bloch_qubit([1.0, 0.0, 0.5]), "Bloch vector norm 1.118033988749895 above 1"),
            (lambda: ProductEnsemble([(1.0, (1.0, 0.0, 0.5), Z_AXIS)]),
             "blochA at index 0 has norm 1.118033988749895 above 1"),
            (lambda: ProductEnsemble([(1.0, X_AXIS, Z_AXIS), (np.nan, X_AXIS, Z_AXIS)]),
             "ensemble weight at index 1 is not finite, got nan"),
            (lambda: ProductEnsemble([(1.0, X_AXIS, (np.nan, 0.0, 1.0))]),
             "blochB at index 0 is not finite, got [nan, 0.0, 1.0]"),
            (lambda: TwoQubitState(np.eye(4) / 2.0), "density matrix trace (2+0j) deviates from 1"),
            (lambda: SpinSetting.alice([1.0, 0.0]),
             "spin direction must be a 3-vector, got shape (2,)"),
            (lambda: ProductEnsemble([(1.0, (1.0, 0.0), Z_AXIS)]),
             "blochA at index 0 must be a 3-vector, got shape (2,)"),
            (lambda: bell_state("psi-minus"), "label must be a BellLabel, got 'psi-minus'"),
            (lambda: bloch_qubit([1.0, 0.0]), "Bloch vector must be a 3-vector, got shape (2,)"),
            (lambda: ProductEnsemble([(0.5, X_AXIS, Z_AXIS), (0.5, X_AXIS, (0.0, 0.6, 0.9))]),
             "blochB at index 1 has norm 1.0816653826391966 above 1"),
            (lambda: ProductEnsemble([(0.5, X_AXIS, Z_AXIS), (0.5, (1.0, 0.0), Z_AXIS)]),
             "blochA at index 1 must be a 3-vector, got shape (2,)"),
            (lambda: ProductEnsemble([(0.5, X_AXIS, Z_AXIS), (0.5, X_AXIS, [[1.0], [0.0], [0.0]])]),
             "blochB at index 1 must be a 3-vector, got shape (3, 1)"),
            (lambda: ProductEnsemble([(0.5, X_AXIS, Z_AXIS), (0.7, X_AXIS, Z_AXIS),
                                      (-0.2, X_AXIS, Z_AXIS)]),
             "ensemble weight -0.2 at index 2 is negative"),
            (lambda: ProductEnsemble([(0.5, X_AXIS, Z_AXIS), (0.5, (0.0, np.inf, 0.0), Z_AXIS)]),
             "blochA at index 1 is not finite, got [0.0, inf, 0.0]"),
            (lambda: ProductEnsemble([(1.0, (1e200, 0.0, 0.0), Z_AXIS)]),
             "blochA at index 0 has norm inf above 1"),
        ],
        ids=["pure-norm", "spin-norm", "bloch-qubit-norm", "ensemble-norm", "ensemble-nan-weight",
             "ensemble-nan-bloch", "trace", "spin-shape", "ensemble-shape", "bell-label",
             "bloch-qubit-shape", "ensemble-norm-later-term", "ensemble-ragged", "ensemble-column",
             "ensemble-negative-later-term", "ensemble-inf-bloch", "ensemble-norm-overflow"],
    )
    def test_messages_name_the_fault_in_plain_numbers(self, build, message):
        """Non-finite input is named as such, and no NumPy repr leaks into a message."""
        with pytest.raises(ValueError) as error:
            build()
        assert message in str(error.value)
        assert "np." not in str(error.value)


class TestObservables:
    def test_correlator_matches_the_observable_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            rho = random_density(rng)
            u, v = rng.normal(size=3), rng.normal(size=3)
            a = SpinSetting.alice(u / np.linalg.norm(u))
            b = SpinSetting.bob(v / np.linalg.norm(v))
            expected = np.trace(rho.matrix @ spin_observable(a) @ spin_observable(b)).real
            assert correlator(rho, a, b) == pytest.approx(expected, abs=1e-12)

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


def probability(dist: np.ndarray, outcome_a: int, outcome_b: int) -> float:
    return float(dist[OUTCOMES.index((outcome_a, outcome_b))])


class TestOutcomeDistribution:
    def test_is_a_read_only_array_of_four(self):
        rho = density_from_pure(bell_state(BellLabel.PHI_PLUS))
        dist = outcome_distribution(rho, SpinSetting.alice(X_AXIS), SpinSetting.bob(Z_AXIS))
        assert dist.shape == (4,) and dist.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            dist[0] = 1.0

    def test_singlet_z_outcomes_anticorrelate(self):
        """Matching z measurements on the singlet never agree."""
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        dist = outcome_distribution(rho, SpinSetting.alice(Z_AXIS), SpinSetting.bob(Z_AXIS))
        assert probability(dist, 1, -1) == pytest.approx(0.5, abs=1e-12)
        assert probability(dist, -1, 1) == pytest.approx(0.5, abs=1e-12)
        assert probability(dist, 1, 1) == pytest.approx(0.0, abs=1e-12)
        assert probability(dist, -1, -1) == pytest.approx(0.0, abs=1e-12)

    def test_phi_plus_x_outcomes_correlate(self):
        rho = density_from_pure(bell_state(BellLabel.PHI_PLUS))
        dist = outcome_distribution(rho, SpinSetting.alice(X_AXIS), SpinSetting.bob(X_AXIS))
        assert probability(dist, 1, 1) == pytest.approx(0.5, abs=1e-12)
        assert probability(dist, -1, -1) == pytest.approx(0.5, abs=1e-12)

    def test_distribution_matches_correlator(self):
        """Implied and analytic correlators agree on random states and axes."""
        rng = np.random.default_rng(23)
        products = [a * b for a, b in OUTCOMES]
        for _ in range(200):
            rho = random_density(rng)
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            a = SpinSetting.alice(u / np.linalg.norm(u))
            b = SpinSetting.bob(v / np.linalg.norm(v))
            dist = outcome_distribution(rho, a, b)
            assert dist.sum() == pytest.approx(1.0, abs=1e-10)
            assert dist @ products == pytest.approx(correlator(rho, a, b), abs=1e-10)

    def test_marginals_consistent_across_partner_settings(self):
        """Alice's marginal cannot depend on Bob's choice of axis."""
        rng = np.random.default_rng(31)
        alice_signs = [a for a, _ in OUTCOMES]
        for _ in range(50):
            rho = random_density(rng)
            u = rng.normal(size=3)
            a = SpinSetting.alice(u / np.linalg.norm(u))
            d1 = outcome_distribution(rho, a, SpinSetting.bob(X_AXIS))
            d2 = outcome_distribution(rho, a, SpinSetting.bob(Z_AXIS))
            assert d1 @ alice_signs == pytest.approx(d2 @ alice_signs, abs=1e-10)

    def test_state_at_the_eigenvalue_floor_has_a_distribution(self):
        """A state TwoQubitState accepts, eigenvalues -0.9e-10 included, is measured: its
        z-z probabilities sum to 1 + 1.8e-10, and the two at -0.9e-10 read as 0.0."""
        e = 0.9e-10
        rho = TwoQubitState(np.diag([0.5 + e, 0.5 + e, -e, -e]))
        dist = outcome_distribution(rho, SpinSetting.alice(Z_AXIS), SpinSetting.bob(Z_AXIS))
        assert dist.tolist() == pytest.approx([0.5 + e, 0.5 + e, 0.0, 0.0], abs=1e-15)
        assert dist[2:].tolist() == [0.0, 0.0]


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

    def test_matrix_matches_the_per_term_route_bit_for_bit(self):
        """Reading the ensemble's arrays gives the matrix that stacking its terms gave."""
        rng = np.random.default_rng(17)
        for k in (1, 2, 3, 5, 9):
            for _ in range(20):
                blochs = rng.normal(size=(2 * k, 3))
                blochs *= rng.uniform(0.0, 1.0, size=(2 * k, 1)) / np.linalg.norm(
                    blochs, axis=1, keepdims=True)
                weights = rng.dirichlet(np.ones(k))
                ensemble = ProductEnsemble(zip(weights, blochs[:k], blochs[k:]))
                w, r_a, r_b = weights, blochs[:k], blochs[k:]
                expected = state_from_bloch(w @ r_a, w @ r_b,
                                            np.einsum("k,ki,kj->ij", w, r_a, r_b))
                assert product_mixture(ensemble).matrix.tobytes() == expected.matrix.tobytes()

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
