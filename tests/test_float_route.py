"""A state's means on Python floats against the NumPy array expressions they replaced, bit
for bit (float.hex).

correlator, outcome_distribution, quad_from_state and chsh_panel's least joint probability
add their terms one after another as Python floats (qstate._add_in_order).  The array_*
functions below are the expressions they replaced, each mean an np.add.accumulate over the
same terms (qstate._sum_in_order).  Signed zeros are drawn on purpose: axis settings on
werner_state(0.0), on Bell states and on product states with axis Bloch vectors make -0.0
terms, which a sum started from 0 would turn into 0.0.
"""

import sys

import numpy as np
from hypothesis import example, given, settings, strategies as st

from eprlab.hidden_variables import CorrelatorQuad, chsh_panel, quad_from_state
from eprlab.qstate import (
    _OUTCOME_SIGNS,
    ATOL_PSD,
    PROJECTOR_FLOOR,
    BellLabel,
    ProductEnsemble,
    SpinSetting,
    _add_in_order,
    _sum_in_order,
    bell_state,
    correlator,
    density_from_pure,
    outcome_distribution,
    product_mixture,
    werner_state,
)
from eprlab.witnesses import EkertSettings


def array_correlator(state, setting_a, setting_b) -> float:
    pair = setting_a.direction[:, None] * setting_b.direction
    return float(_sum_in_order((pair * state.correlations).ravel()))


def array_joint(mean_a, mean_b, mean_ab) -> np.ndarray:
    a, b, ab = _OUTCOME_SIGNS
    mean_a, mean_b, mean_ab = np.asarray(mean_a), np.asarray(mean_b), np.asarray(mean_ab)
    return (1.0 + a * mean_a[..., None] + b * mean_b[..., None] + ab * mean_ab[..., None]) / 4.0


def array_distribution(state, setting_a, setting_b) -> np.ndarray:
    probs = array_joint(_sum_in_order(state.bloch_a * setting_a.direction),
                        _sum_in_order(state.bloch_b * setting_b.direction),
                        array_correlator(state, setting_a, setting_b))
    assert probs.min() >= PROJECTOR_FLOOR
    return np.where(probs <= ATOL_PSD, 0.0, probs)


def array_quad(state, settings) -> list[float]:
    """(c11, c13, c31, c33, m_a1, m_a3, m_b1, m_b3), CorrelatorQuad's field order."""
    (m_a1, m_b1, c11), (_, _, c13), (_, _, c31), (m_a3, m_b3, c33) = (
        np.clip(_sum_in_order(_OUTCOME_SIGNS * array_distribution(state, a, b)), -1.0, 1.0)
        .tolist() for a in (settings.a1, settings.a3) for b in (settings.b1, settings.b3))
    return [c11, c13, c31, c33, m_a1, m_a3, m_b1, m_b3]


def array_least_joint(quad: CorrelatorQuad) -> float:
    return float(array_joint([quad.m_a1, quad.m_a1, quad.m_a3, quad.m_a3],
                             [quad.m_b1, quad.m_b3, quad.m_b1, quad.m_b3],
                             quad.correlators()).min())


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


# +-x, +-y, +-z: -1.0 * (1, 0, 0) is (-1.0, -0.0, -0.0), so products and sums of zeros
# carry signs.
AXES = [sign * axis for axis in np.eye(3) for sign in (1.0, -1.0)]
unit_floats = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def directions(draw) -> np.ndarray:
    if draw(st.booleans()):
        return draw(st.sampled_from(AXES))
    v = np.array(draw(st.tuples(unit_floats, unit_floats, unit_floats)))
    norm = float(np.sqrt(v @ v))
    return v / norm if norm > 1e-3 else AXES[4]


@st.composite
def product_terms(draw) -> list:
    """1-3 terms whose Bloch vectors are axes scaled into the ball, zeros signed, or drawn."""
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    bloch = st.one_of(st.builds(lambda axis, length: axis * length, st.sampled_from(AXES),
                                st.sampled_from([0.0, 0.5, 1.0])),
                      directions().map(lambda v: 0.75 * v))
    return [(w / sum(raw), draw(bloch), draw(bloch)) for w in raw]


states = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]).map(werner_state),
    st.floats(0.0, 1.0).map(werner_state),
    st.sampled_from(list(BellLabel)).map(lambda label: density_from_pure(bell_state(label))),
    product_terms().map(lambda terms: product_mixture(ProductEnsemble(terms))),
)


@settings(max_examples=300, deadline=None)
@given(state=states, alice=st.lists(directions(), min_size=2, max_size=2),
       bob=st.lists(directions(), min_size=2, max_size=2))
@example(state=werner_state(0.0), alice=[AXES[1], AXES[3]], bob=[AXES[5], AXES[0]])
def test_float_route_matches_the_array_expressions_bit_for_bit(state, alice, bob):
    settings = EkertSettings(*map(SpinSetting.alice, alice), *map(SpinSetting.bob, bob))
    for a in (settings.a1, settings.a3):
        for b in (settings.b1, settings.b3):
            assert correlator(state, a, b).hex() == array_correlator(state, a, b).hex()
            assert (hexes(outcome_distribution(state, a, b))
                    == hexes(array_distribution(state, a, b)))
    quad = quad_from_state(state, settings)
    assert hexes(quad.correlators() + quad.marginals()) == hexes(array_quad(state, settings))
    assert chsh_panel(quad).min_joint_probability.hex() == array_least_joint(quad).hex()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(unit_floats, min_size=8, max_size=8))
@example(values=[-0.0] * 8)
@example(values=[1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
def test_least_joint_probability_matches_the_array_expression(values):
    quad = CorrelatorQuad(*values)
    assert chsh_panel(quad).min_joint_probability.hex() == array_least_joint(quad).hex()


def test_terms_are_added_in_order_from_the_first():
    """Not sum(): on Python 3.12 it compensates floats and reads 1.0 here, and it starts
    from 0, so a sum of -0.0 terms reads 0.0."""
    cancelling = [1e16, 1.0, -1e16]
    assert _add_in_order(cancelling) == 0.0 == float(_sum_in_order(np.array(cancelling)))
    if sys.version_info >= (3, 12):
        assert sum(cancelling) == 1.0
    assert _add_in_order([-0.0, -0.0]).hex() == float(_sum_in_order(np.array([-0.0, -0.0]))).hex()
    assert _add_in_order([-0.0, -0.0]).hex() == "-0x0.0p+0" != sum([-0.0, -0.0]).hex()
