"""Tests for assignments, local models, and product-state suprema."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eprlab import hidden_variables
from eprlab.hidden_variables import (
    CHSH_SIGN_PATTERNS,
    STRATEGIES,
    BoundReport,
    ChshPanel,
    SEPARABLE_WITNESSES,
    CorrelatorQuad,
    KSAssignment,
    LocalModel,
    SeparableFunctional,
    chsh_panel,
    enumerate_ks_assignments,
    fine_local_model,
    ks_classical_bound,
    ks_functional_value,
    quad_from_state,
    separable_bound,
    separable_expansion_check,
)
from eprlab.qstate import (
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    X_AXIS,
    Z_AXIS,
    bell_state,
    density_from_pure,
    phase_epr_state,
)
from eprlab.witnesses import EkertSettings, KSCase, default_ekert_settings


def random_bloch(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform draw from the closed unit ball."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return tuple(v * rng.random() ** (1.0 / 3.0))


def random_ensemble(rng: np.random.Generator) -> ProductEnsemble:
    n_terms = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(n_terms))
    return ProductEnsemble(
        [(float(w), random_bloch(rng), random_bloch(rng)) for w in weights]
    )


class TestAssignments:
    def test_exactly_sixty_four(self):
        assignments = enumerate_ks_assignments()
        assert len(assignments) == 64
        keys = {tuple(sorted(a.singles.items())) for a in assignments}
        assert len(keys) == 64

    def test_product_rule_enforced(self):
        """The products are derived from the singles, so none can be passed in to break the rule."""
        singles = {"ax": 1, "ay": -1, "az": 1, "bx": -1, "by": -1, "bz": 1}
        with pytest.raises(TypeError):
            KSAssignment(singles=singles, products={"xx": 1, "yy": 1, "xy": 1, "yx": 1, "zz": 1})
        assignment = KSAssignment(singles=singles)
        assert dict(assignment.products) == {"xx": -1, "yy": 1, "xy": -1, "yx": 1, "zz": -1}
        flipped = dataclasses.replace(assignment, singles=dict(singles, ax=-1))
        assert dict(flipped.products) == {"xx": 1, "yy": 1, "xy": 1, "yx": 1, "zz": 1}

    @pytest.mark.parametrize(
        "singles, message",
        [
            ({"ax": 1, "ay": 1, "az": 1, "bx": 1, "by": 1}, "singles must have keys"),
            ({"ax": 0, "ay": 1, "az": 1, "bx": 1, "by": 1, "bz": 1},
             r"assignment value ax=0 must be \+1 or -1"),
        ],
        ids=["missing-key", "zero-value"],
    )
    def test_malformed_assignment_rejected(self, singles, message):
        with pytest.raises(ValueError, match=message):
            KSAssignment(singles=singles)

    def test_zz_follows_xy_products_not_z_singles(self):
        """The zz value is pinned by the x/y products; z singles are free."""
        for a in enumerate_ks_assignments():
            assert a.products["zz"] == a.products["xx"] * a.products["yy"]
            assert a.products["zz"] == a.products["xy"] * a.products["yx"]
        values = {
            (a.products["zz"], a.singles["az"] * a.singles["bz"])
            for a in enumerate_ks_assignments()
        }
        # Both agreeing and disagreeing combinations occur across the set.
        assert (1, -1) in values or (-1, 1) in values

    def test_values_are_plus_minus_two(self):
        assignments = enumerate_ks_assignments()
        for case in KSCase:
            values = {ks_functional_value(a, case) for a in assignments}
            assert values == {-2.0, 2.0}

    def test_classical_bound_is_two(self):
        for case in KSCase:
            assert ks_classical_bound(case) == pytest.approx(2.0, abs=1e-15)

    def test_assignment_table_is_one_plus_signs_dot_products(self):
        """The (64, 3) table of the KS rows on the assignments is 1 + s . (xx, yy, zz), with s
        written out here, to the last bit, sign bits included; one call reads the same cell."""
        signs = {KSCase.CASE_I: (1.0, 1.0, -1.0), KSCase.CASE_II: (-1.0, -1.0, -1.0),
                 KSCase.CASE_III: (1.0, -1.0, 1.0)}
        table = hidden_variables._assignment_values()
        for k, a in enumerate(enumerate_ks_assignments()):
            p = a.products
            for case, (sxx, syy, szz) in signs.items():
                expected = 1.0 + sxx * p["xx"] + syy * p["yy"] + szz * p["zz"]
                assert table[case][k].hex() == expected.hex()
                assert ks_functional_value(KSAssignment(dict(a.singles)), case).hex() == \
                    expected.hex()
        assert {case: len(column) for case, column in table.items()} == dict.fromkeys(KSCase, 64)

    def test_immutable(self):
        a = enumerate_ks_assignments()[0]
        with pytest.raises(TypeError):
            a.singles["ax"] = -1

    def test_enumeration_is_shared_and_stays_immutable(self):
        """Repeated calls return the one cached tuple, and no caller can alter it."""
        first = enumerate_ks_assignments()
        assert enumerate_ks_assignments() is first
        for a in first:
            with pytest.raises(TypeError):
                a.products["zz"] = -a.products["zz"]
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.singles = {}
        assert enumerate_ks_assignments() is first
        assert len({tuple(sorted(a.singles.items())) for a in first}) == 64


class TestCorrelatorQuad:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="outside"):
            CorrelatorQuad(c11=1.2, c13=0.0, c31=0.0, c33=0.0)
        with pytest.raises(ValueError, match="outside"):
            CorrelatorQuad(c11=0.0, c13=0.0, c31=0.0, c33=0.0, m_a1=-1.5)
        with pytest.raises(ValueError, match="c13=nan outside"):
            CorrelatorQuad(c11=0.0, c13=float("nan"), c31=0.0, c33=0.0)
        with pytest.raises(ValueError, match="m_b3=nan outside"):
            CorrelatorQuad(c11=0.0, c13=0.0, c31=0.0, c33=0.0, m_b3=float("nan"))

    def test_from_singlet_default_settings(self):
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        quad = quad_from_state(rho, default_ekert_settings())
        inv = 1.0 / np.sqrt(2.0)
        assert quad.correlators() == pytest.approx((-inv, inv, -inv, -inv), abs=1e-10)
        assert quad.marginals() == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-10)

    def test_from_singlet_xz_settings(self):
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        settings = EkertSettings(
            a1=SpinSetting.alice(X_AXIS),
            a3=SpinSetting.alice(Z_AXIS),
            b1=SpinSetting.bob(X_AXIS),
            b3=SpinSetting.bob(Z_AXIS),
        )
        quad = quad_from_state(rho, settings)
        assert quad.correlators() == pytest.approx((-1.0, 0.0, 0.0, -1.0), abs=1e-10)


class TestChshPanel:
    def test_eight_patterns_with_odd_minus_count(self):
        assert len(CHSH_SIGN_PATTERNS) == 8
        assert all(p.count(-1) % 2 == 1 for p in CHSH_SIGN_PATTERNS)

    def test_zero_quad_all_zero(self):
        panel = chsh_panel(CorrelatorQuad(0.0, 0.0, 0.0, 0.0))
        assert panel.values == pytest.approx(tuple([0.0] * 8))
        assert panel.passes

    def test_anticorrelated_quad_touches_bound(self):
        panel = chsh_panel(CorrelatorQuad(-1.0, 0.0, 0.0, -1.0))
        assert panel.max_value == pytest.approx(2.0, abs=1e-12)
        assert panel.passes

    def test_box_quad_fails(self):
        """The nonlocal-box correlators reach 4 and fail the panel."""
        panel = chsh_panel(CorrelatorQuad(1.0, 1.0, 1.0, -1.0))
        assert panel.max_value == pytest.approx(4.0, abs=1e-12)
        assert not panel.passes

    def test_quantum_maximum_quad_fails(self):
        inv = 1.0 / np.sqrt(2.0)
        panel = chsh_panel(CorrelatorQuad(inv, -inv, inv, inv))
        assert panel.max_value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
        assert not panel.passes

    def test_fine_pass_slack_is_lp_feas_tol(self):
        """A least joint probability of -LP_FEAS_TOL or one step above it passes; one
        step below fails."""
        slack = -hidden_variables.LP_FEAS_TOL
        for p, passes in ((np.nextafter(slack, 0.0), True), (slack, True),
                          (np.nextafter(slack, -1.0), False)):
            panel = ChshPanel(values=(0.0,) * 8, min_joint_probability=float(p))
            assert panel.fine_passes is passes, p

    def test_numpy_floats_give_python_floats_and_bools(self):
        """NumPy inputs are stored as Python floats, so the verdicts are bools and every
        field serializes as JSON."""
        panel = ChshPanel(values=tuple(np.linspace(-2.0, 2.0, 8)),
                          min_joint_probability=np.float64(0.25))
        assert panel.passes is True and panel.fine_passes is True
        assert all(type(value) is float for value in (*panel.values, panel.max_value,
                                                        panel.min_joint_probability))
        fields = dataclasses.asdict(panel) | {"fine_passes": panel.fine_passes}
        assert json.loads(json.dumps(fields))["fine_passes"] is True

    def test_needs_eight_values(self):
        with pytest.raises(ValueError, match="8"):
            ChshPanel(values=(0.0,), min_joint_probability=0.0)
        with pytest.raises(TypeError):
            ChshPanel(values=(0.0,) * 8, max_value=0.0, passes=True, min_joint_probability=0.0)
        panel = ChshPanel(values=(0.0,) * 7 + (2.0 + 2e-8,), min_joint_probability=0.0)
        assert (panel.max_value, panel.passes) == (2.0 + 2e-8, False)


class TestLocalModel:
    def test_weight_validation(self):
        with pytest.raises(ValueError, match="16"):
            LocalModel(weights=(1.0,))
        with pytest.raises(ValueError, match="sum"):
            LocalModel(weights=tuple([0.1] * 16))
        bad = [1.0 / 16.0] * 16
        bad[0] = -0.01
        bad[1] = 2.0 / 16.0 + 0.01
        with pytest.raises(ValueError, match="negative"):
            LocalModel(weights=tuple(bad))

    def test_single_strategy_quad(self):
        """A point mass reproduces that strategy's deterministic quad."""
        weights = [0.0] * 16
        weights[0] = 1.0  # strategy (+1, +1, +1, +1)
        model = LocalModel(weights=tuple(weights))
        quad = model.predicted_quad()
        assert quad.correlators() == pytest.approx((1.0, 1.0, 1.0, 1.0))
        assert quad.marginals() == pytest.approx((1.0, 1.0, 1.0, 1.0))
        assert STRATEGIES[0] == (1, 1, 1, 1)


    def test_reproduction_tolerance_is_1e_8(self):
        """The uniform mixture predicts the zero quad exactly; a correlator or marginal off
        by exactly 1e-8, or one step less, is reproduced, and one step more is not."""
        model = LocalModel(weights=(1.0 / 16.0,) * 16)
        zero = CorrelatorQuad(0.0, 0.0, 0.0, 0.0)
        assert model.predicted_quad() == zero
        for name in ("c11", "m_b3"):
            for offset, reproduced in ((np.nextafter(1e-8, 0.0), True), (1e-8, True),
                                       (np.nextafter(1e-8, 1.0), False)):
                for sign in (1.0, -1.0):
                    quad = dataclasses.replace(zero, **{name: sign * float(offset)})
                    assert model.reproduces(quad) is reproduced, (name, offset, sign)


class TestFineLocalModel:
    def test_zero_quad_gives_uniform_weights(self):
        model = fine_local_model(CorrelatorQuad(0.0, 0.0, 0.0, 0.0))
        assert model is not None
        assert model.weights == pytest.approx(tuple([1.0 / 16.0] * 16), abs=1e-9)

    def test_singlet_xz_quad_feasible(self):
        model = fine_local_model(CorrelatorQuad(-1.0, 0.0, 0.0, -1.0))
        assert model is not None
        assert model.reproduces(CorrelatorQuad(-1.0, 0.0, 0.0, -1.0))

    def test_correlated_quad_feasible(self):
        model = fine_local_model(CorrelatorQuad(1.0, 0.0, 0.0, 1.0))
        assert model is not None
        assert model.reproduces(CorrelatorQuad(1.0, 0.0, 0.0, 1.0))

    def test_singlet_default_quad_infeasible(self):
        rho = density_from_pure(bell_state(BellLabel.PSI_MINUS))
        quad = quad_from_state(rho, default_ekert_settings())
        assert chsh_panel(quad).max_value > 2.0
        assert fine_local_model(quad) is None

    def test_box_quad_infeasible(self):
        assert fine_local_model(CorrelatorQuad(1.0, 1.0, 1.0, -1.0)) is None

    def test_marginals_respected(self):
        """A deterministic quad with unit marginals forces a point mass."""
        quad = CorrelatorQuad(1.0, 1.0, 1.0, 1.0, m_a1=1.0, m_a3=1.0, m_b1=1.0, m_b3=1.0)
        model = fine_local_model(quad)
        assert model is not None
        assert model.weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_strategy_mixtures_recovered(self):
        """Quads generated by a mixture are always feasible and reproduced."""
        rng = np.random.default_rng(71)
        for _ in range(50):
            weights = rng.dirichlet(np.ones(16))
            target = LocalModel(weights=tuple(weights)).predicted_quad()
            model = fine_local_model(target)
            assert model is not None
            assert model.reproduces(target)

    def test_feasibility_matches_panel_on_random_quads(self):
        """With zero marginals, the LP agrees with the eight-inequality panel."""
        rng = np.random.default_rng(73)
        for _ in range(200):
            quad = CorrelatorQuad(*(rng.uniform(-1.0, 1.0, size=4)))
            feasible = fine_local_model(quad) is not None
            assert feasible == chsh_panel(quad).passes


# Multiples of 1/16 in [-1, 1]: every CHSH value and joint probability is exact.
sixteenths = st.integers(min_value=-16, max_value=16).map(lambda k: k / 16.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(sixteenths, min_size=8, max_size=8))
def test_fine_panel_decides_local_model_existence(values):
    """Fine's theorem: CHSH plus positivity holds exactly when the LP finds a model."""
    quad = CorrelatorQuad(*values)
    assert chsh_panel(quad).fine_passes == (fine_local_model(quad) is not None)


quads = st.one_of(st.lists(sixteenths, min_size=8, max_size=8),
                  st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))


@settings(max_examples=300, deadline=None)
@given(values=quads)
def test_fine_optimum_is_the_gauge(values):
    """Fine's LP maximizes the least strategy weight t*; with the local polytope's gauge
    g = max(max CHSH / 2, 1 - 4 p_min), a model exists exactly when g <= 1, and then
    t* = (1 - g) / 16.  Off the grid, gauges within the LP's feasibility slack of 1 are
    left out."""
    quad = CorrelatorQuad(*values)
    panel = chsh_panel(quad)
    gauge = max(panel.max_value / 2.0, 1.0 - 4.0 * panel.min_joint_probability)
    model = fine_local_model(quad)
    if any(v * 16 != round(v * 16) for v in values):
        assume(abs(gauge - 1.0) > 1e-6)
    assert (model is None) == (gauge > 1.0)
    if model is not None:
        assert abs(min(model.weights) - (1.0 - gauge) / 16.0) <= 1e-12


# The analytic product-state bounds, written out apart from the package's table.
EXPECTED_BOUNDS = {
    SeparableFunctional.EKERT_S: np.sqrt(2.0),
    SeparableFunctional.BBM_T: 1.0,
    SeparableFunctional.KS_I: 2.0,
    SeparableFunctional.KS_II: 2.0,
    SeparableFunctional.KS_III: 2.0,
}


class TestSeparableBound:
    @pytest.mark.parametrize("functional", list(SeparableFunctional))
    def test_supremum_matches_analytic_bound(self, functional):
        report = separable_bound(functional)
        assert report.supremum == pytest.approx(EXPECTED_BOUNDS[functional], abs=1e-4)
        assert report.analytic_bound == EXPECTED_BOUNDS[functional]
        assert np.linalg.norm(report.argmax_bloch_a) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(report.argmax_bloch_b) == pytest.approx(1.0, abs=1e-9)

    def test_report_rejects_bound_overshoot(self):
        with pytest.raises(RuntimeError, match="above the analytic bound"):
            BoundReport(
                functional=SeparableFunctional.BBM_T,
                supremum=1.1,
                argmax_bloch_a=(1.0, 0.0, 0.0),
                argmax_bloch_b=(1.0, 0.0, 0.0),
            )

    @pytest.mark.parametrize("functional", list(SeparableFunctional))
    def test_bound_and_evaluations_are_derived(self, functional):
        """The analytic bound is the table's and the one SVD is one evaluation."""
        report = BoundReport(functional, 0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert report.analytic_bound == SEPARABLE_WITNESSES[functional][1]
        assert report.evaluations == 1
        assert separable_bound(functional).evaluations == 1
        for name, value in (("analytic_bound", 1.0), ("evaluations", 10)):
            with pytest.raises(TypeError):
                BoundReport(functional, 0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), **{name: value})
        with pytest.raises(ValueError, match="is not a valid SeparableFunctional"):
            BoundReport("chsh", 0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))


class TestExpansionCheck:
    def test_residuals_small_on_random_ensembles(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            residuals = separable_expansion_check(random_ensemble(rng))
            assert residuals.ekert <= 1e-8
            assert residuals.bbm <= 1e-8

    def test_default_settings_match_no_settings_bit_for_bit(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            ensemble = random_ensemble(rng)
            assert separable_expansion_check(ensemble) == separable_expansion_check(
                ensemble, default_ekert_settings()
            )

    def test_pure_product_case(self):
        ens = ProductEnsemble([(1.0, X_AXIS, X_AXIS)])
        residuals = separable_expansion_check(ens)
        assert residuals.ekert <= 1e-12
        assert residuals.bbm <= 1e-12
