"""Classical models for two-qubit correlations, and where they break.

Three classical constructions live here:

- Noncontextual sign assignments to the six single-spin observables
  sx, sy, sz per party, with product observables valued multiplicatively
  on commuting factors.  All 64 assignments keep each assignment
  functional at or below 2, while entangled states reach up to 4.
- Local deterministic strategies for a two-setting, two-outcome experiment.  A
  convex mixture of the 16 strategies reproducing a given correlator quad and
  marginals exists exactly when the eight CHSH combinations stay at or below 2
  and all 16 joint probabilities (1 + a m_x + b m_y + ab c_xy)/4 are nonnegative
  (Fine's theorem).  A quad computes that closed-form panel once, as its panel;
  chsh_panel and fine_local_model both read it, it decides existence, and a
  linear program only builds the mixture for a quad the panel passes.
- Product (separable) states.  A product mixture has correlation matrix
  T = sum_k w_k r_A,k r_B,k^T, so a witness offset + <W, T> is at most
  offset + sigma_max(W) on it, attained at the top singular vectors of W
  (the Horodecki correlation-matrix formalism); the suprema are checked
  against the analytic bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .qstate import (
    _joint,
    _read_only,
    _sum_in_order,
    ATOL_ALARM,
    ATOL_CONSTRUCT,
    BOUND_SLACK,
    LP_FEAS_TOL,
    ProductEnsemble,
    TwoQubitState,
    outcome_distribution,
    product_mixture,
)
from .witnesses import (
    _ROWS,
    _TABLE,
    _values,
    BBM_BOUND,
    EKERT_BOUND,
    KS_BOUND,
    EkertSettings,
    KSCase,
    bbm_statistic,
    ekert_functional,
    ekert_statistic,
)
from .simplex import OPTIMAL, solve_lp

SINGLE_KEYS = ("ax", "ay", "az", "bx", "by", "bz")
PRODUCT_KEYS = ("xx", "yy", "xy", "yx", "zz")

CHSH_BOUND = 2.0

# All sign patterns (s1, s2, s3, s4) with an odd number of minus signs,
# in lexicographic order with +1 first.
CHSH_SIGN_PATTERNS = tuple(
    p for p in itertools.product((1, -1), repeat=4) if p.count(-1) % 2 == 1
)

# Deterministic strategies (alpha_a1, alpha_a3, alpha_b1, alpha_b3),
# lexicographic with +1 first; LocalModel weights follow this order.
STRATEGIES = tuple(itertools.product((1, -1), repeat=4))
# Row s is what strategy s predicts, in CorrelatorQuad field order.
_FEATURES = np.array([(a1 * b1, a1 * b3, a3 * b1, a3 * b3, a1, a3, b1, b3)
                      for a1, a3, b1, b3 in STRATEGIES], dtype=float)
_FEATURES.flags.writeable = False
# Fine's LP in w_s = v_s + t: rows are normalization then the eight features;
# the last column is t's coefficient, each row's sum.
_FINE_A_EQ = np.vstack([np.ones(16), _FEATURES.T])
_FINE_A_EQ = np.column_stack([_FINE_A_EQ, _FINE_A_EQ.sum(axis=1)])
_FINE_A_EQ.flags.writeable = False


# The assignment table's columns by name.  Row k takes the k-th sign choice on SINGLE_KEYS
# (lexicographic, +1 first).  A product factors over commuting single-party pieces, so the
# singles fix "pq" = a_p * b_q for the x and y axes, and the commuting decompositions
# zz = xx * yy = xy * yx (which agree identically) fix zz, not az * bz.
_COLUMN = dict(zip(SINGLE_KEYS, np.array(list(itertools.product((1, -1), repeat=6))).T))
_COLUMN.update({k: _COLUMN["a" + k[0]] * _COLUMN["b" + k[1]] for k in PRODUCT_KEYS if k != "zz"})
_COLUMN["zz"] = _COLUMN["xx"] * _COLUMN["yy"]
_ASSIGNMENTS = _read_only(np.column_stack([_COLUMN[k] for k in SINGLE_KEYS + PRODUCT_KEYS]))
# The KSCase rows on each assignment, read as T = diag(xx, yy, zz): (64, 3), KSCase order.
_ASSIGNMENT_VALUES = _read_only(_values(
    np.stack([_COLUMN[k] for k in ("xx", "yy", "zz")], axis=-1)[..., None] * np.eye(3),
    [_ROWS.index(c.value) for c in KSCase]))


def enumerate_ks_assignments() -> np.ndarray:
    """The read-only (64, 11) assignment table: SINGLE_KEYS, then PRODUCT_KEYS, per row."""
    return _ASSIGNMENTS


def ks_functional_value(row, case: KSCase) -> float:
    """Value of 1 + s_xx f(xx) + s_yy f(yy) + s_zz f(zz) on one row of the assignment table."""
    row = np.asarray(row)
    match = np.flatnonzero((_ASSIGNMENTS == row).all(axis=1)) if row.shape == (11,) else []
    if not len(match):
        raise ValueError(f"not a row of the assignment table: {row.tolist()}")
    return float(_ASSIGNMENT_VALUES[match.item(), tuple(KSCase).index(case)])


def ks_classical_bound(case: KSCase) -> float:
    """Largest functional value over all assignments (equals 2 for each case)."""
    return float(_ASSIGNMENT_VALUES[:, tuple(KSCase).index(case)].max())


@dataclass(frozen=True)
class CorrelatorQuad:
    """Joint correlators for two Alice and two Bob settings, plus marginals."""

    c11: float
    c13: float
    c31: float
    c33: float
    m_a1: float = 0.0
    m_a3: float = 0.0
    m_b1: float = 0.0
    m_b3: float = 0.0

    def __post_init__(self) -> None:
        for name in ("c11", "c13", "c31", "c33", "m_a1", "m_a3", "m_b1", "m_b3"):
            value = getattr(self, name)
            if not abs(value) <= 1.0 + ATOL_CONSTRUCT:
                raise ValueError(f"{name}={value!r} outside [-1, 1]")

    def correlators(self) -> tuple[float, float, float, float]:
        return (self.c11, self.c13, self.c31, self.c33)

    def marginals(self) -> tuple[float, float, float, float]:
        return (self.m_a1, self.m_a3, self.m_b1, self.m_b3)

    @functools.cached_property  # computed once per quad; not a field, so eq, hash and repr skip it
    def panel(self) -> ChshPanel:
        """s1 c11 + s2 c13 + s3 c31 + s4 c33 over the odd sign patterns, and the least
        joint probability (1 + a m_x + b m_y + ab c_xy)/4 of the four pairs."""
        c = self.correlators()
        values = tuple(s1 * c[0] + s2 * c[1] + s3 * c[2] + s4 * c[3]
                       for s1, s2, s3, s4 in CHSH_SIGN_PATTERNS)
        min_joint = min(map(min, map(_joint, (self.m_a1, self.m_a1, self.m_a3, self.m_a3),
                                     (self.m_b1, self.m_b3, self.m_b1, self.m_b3), c)))
        return ChshPanel(values=values, min_joint_probability=min_joint)


def quad_from_state(state: TwoQubitState, settings: EkertSettings) -> CorrelatorQuad:
    """Measure all four correlators and the four marginals of a state, each clipped to
    [-1, 1]: a mean of +-1 outcomes reaches rho's trace norm, 1 + 6 ATOL_PSD at the floor."""
    # Each pair's (<A>, <B>, <AB>) off its four probabilities in OUTCOMES order, the signed
    # terms added in that order; min and max clip as np.clip does, -0.0 too.
    (m_a1, m_b1, c11), (_, _, c13), (_, _, c31), (m_a3, m_b3, c33) = (
        [min(max(mean, -1.0), 1.0) for mean in (pp + pm - mp - mm, pp - pm + mp - mm,
                                                 pp - pm - mp + mm)]
        for pp, pm, mp, mm in (outcome_distribution(state, a, b).tolist()
                               for a in (settings.a1, settings.a3)
                               for b in (settings.b1, settings.b3)))
    return CorrelatorQuad(c11, c13, c31, c33, m_a1, m_a3, m_b1, m_b3)


@dataclass(frozen=True)
class ChshPanel:
    """The eight CHSH combinations of a correlator quad, and its least joint probability.

    max_value, passes (the CHSH test alone) and gauge = max(max_value / 2, 1 - 4
    min_joint_probability), the quad's gauge in the local polytope, are derived.  A local
    model exists exactly when the gauge is at most 1 (Fine's theorem); fine_passes reads
    it within LP_FEAS_TOL / 2, and its CHSH half is passes.
    """

    values: tuple[float, ...]
    max_value: float = field(init=False)
    passes: bool = field(init=False)
    min_joint_probability: float
    gauge: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.values) != 8:
            raise ValueError(f"panel needs 8 values, got {len(self.values)}")
        # Python floats, so that the verdicts are bools whatever float type came in.
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        object.__setattr__(self, "min_joint_probability", float(self.min_joint_probability))
        object.__setattr__(self, "max_value", max(self.values))
        object.__setattr__(self, "passes", self.max_value <= CHSH_BOUND + LP_FEAS_TOL)
        object.__setattr__(self, "gauge", max(self.max_value / CHSH_BOUND,
                                              1.0 - 4.0 * self.min_joint_probability))

    @property
    def fine_passes(self) -> bool:
        return self.gauge <= 1.0 + LP_FEAS_TOL / 2.0


def chsh_panel(quad: CorrelatorQuad) -> ChshPanel:
    """quad.panel: computed on the quad's first read, then read back (fine_local_model too)."""
    return quad.panel


@dataclass(frozen=True)
class LocalModel:
    """Convex weights over the 16 deterministic strategies in STRATEGIES order."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != 16:
            raise ValueError(f"need 16 weights, got {len(self.weights)}")
        w = np.asarray(self.weights, dtype=float)
        if not np.isfinite(w).all():
            raise ValueError(f"weights must be finite, got {w.tolist()}")
        if w.min() < -LP_FEAS_TOL:
            raise ValueError(f"negative weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > LP_FEAS_TOL:
            raise ValueError(f"weights sum to {float(w.sum())!r}, not 1")

    def predicted_quad(self) -> CorrelatorQuad:
        """Correlators and marginals generated by the strategy mixture.  The weights sum to 1
        only within LP_FEAS_TOL, so each value is clipped to [-1, 1]."""
        means = _sum_in_order(_FEATURES.T * self.weights)  # sum_s w_s F_s, in strategy order
        return CorrelatorQuad(*np.clip(means, -1.0, 1.0).tolist())

    def reproduces(self, quad: CorrelatorQuad) -> bool:
        ours, theirs = (q.correlators() + q.marginals() for q in (self.predicted_quad(), quad))
        return all(abs(p - q) <= LP_FEAS_TOL for p, q in zip(ours, theirs))


def fine_local_model(quad: CorrelatorQuad) -> Optional[LocalModel]:
    """Find a strategy mixture reproducing the quad, or None if none exists.

    quad.panel, computed once per quad and also what chsh_panel returns, decides with no LP
    solved: None exactly when its fine_passes is false.  Otherwise a two-phase simplex finds
    weights w_s >= 0 matching the normalization, correlators and marginals of quad /
    max(gauge, 1), in the local polytope (quad itself at gauge <= 1).  The one maximizing the
    minimum weight is returned (w_s = v_s + t makes that linear), a canonical, deterministic
    representative; the all-zero quad yields exactly the uniform mixture.
    """
    if not quad.panel.fine_passes:
        return None
    rhs = np.array([1.0, *quad.correlators(), *quad.marginals()])
    rhs[1:] /= max(quad.panel.gauge, 1.0)
    cost = np.zeros(17)
    cost[16] = -1.0  # maximize the minimum weight t
    result = solve_lp(cost, _FINE_A_EQ, rhs)
    if result.status != OPTIMAL:
        raise RuntimeError(f"unexpected solver status {result.status!r}")
    v, t = result.x[:16], result.x[16]  # solve_lp's point is nonnegative, so v + t is too
    model = LocalModel(weights=tuple((v + t).tolist()))
    if not model.reproduces(quad):
        raise RuntimeError("local model fails to reproduce its target quad")
    return model


class SeparableFunctional(Enum):
    """Witness statistics whose product-state suprema are computed exactly."""

    EKERT_S = "ekert-s"
    BBM_T = "bbm-t"
    KS_I = "ks-i"
    KS_II = "ks-ii"
    KS_III = "ks-iii"


# Each functional's table row, offset then W flattened, with its analytic bound on product states.
SEPARABLE_WITNESSES = {
    SeparableFunctional.EKERT_S: (_TABLE[_ROWS.index("ekert-s")], EKERT_BOUND),
    SeparableFunctional.BBM_T: (_TABLE[_ROWS.index("bbm-t")], BBM_BOUND),
    **{SeparableFunctional["KS_" + case.name.partition("_")[2]]:
       (_TABLE[_ROWS.index(case.value)], KS_BOUND) for case in KSCase},
}


@dataclass(frozen=True)
class BoundReport:
    """Product-state supremum of one functional and the product state attaining it.

    analytic_bound comes from SEPARABLE_WITNESSES; evaluations is 1, the one SVD."""

    functional: SeparableFunctional
    supremum: float
    argmax_bloch_a: tuple[float, float, float]
    argmax_bloch_b: tuple[float, float, float]
    evaluations: int = field(init=False, default=1)
    analytic_bound: float = field(init=False)

    def __post_init__(self) -> None:
        functional = SeparableFunctional(self.functional)
        object.__setattr__(self, "functional", functional)
        object.__setattr__(self, "analytic_bound", SEPARABLE_WITNESSES[functional][1])
        for name in ("argmax_bloch_a", "argmax_bloch_b"):
            vector = tuple(map(float, getattr(self, name)))
            if len(vector) != 3 or not all(map(math.isfinite, vector)):
                raise ValueError(f"{name} must be 3 finite numbers, got {getattr(self, name)!r}")
            object.__setattr__(self, name, vector)
        if not math.isfinite(self.supremum):
            raise ValueError(f"supremum must be finite, got {self.supremum!r}")
        if self.supremum > self.analytic_bound + BOUND_SLACK:
            raise RuntimeError(f"supremum {self.supremum!r} lies above the analytic bound "
                               f"{self.analytic_bound!r}; functional or bound is wrong")


def separable_bound(functional: SeparableFunctional) -> BoundReport:
    """Supremum of a witness statistic over product states, in closed form.

    On the pure product state with Bloch vectors u and v the statistic is
    offset + u.W.v, and |u.W.v| <= sigma_max(W) with equality at the top
    singular vectors; mixing product states cannot exceed that.  Each
    functional is computed once per process, and later calls return the
    same frozen report; a call that raises is not cached.  A member's value
    ("ekert-s") gets the member's report; anything else raises ValueError.
    """
    if not isinstance(functional, SeparableFunctional):  # a member skips Enum's 0.3 us call
        functional = SeparableFunctional(functional)
    return _bound_report(functional)


@functools.cache  # the reports are constants: one SVD per member and process
def _bound_report(functional: SeparableFunctional) -> BoundReport:
    row, _ = SEPARABLE_WITNESSES[functional]
    left, singular_values, right = np.linalg.svd(row[1:].reshape(3, 3))
    return BoundReport(
        functional=functional,
        supremum=float(row[0] + singular_values[0]),
        argmax_bloch_a=left[:, 0],
        argmax_bloch_b=right[0],
    )


@dataclass(frozen=True)
class ExpansionResiduals:
    """Disagreement between trace and Bloch-expansion routes to S and T."""

    ekert: float
    bbm: float


def separable_expansion_check(
    ensemble: ProductEnsemble, settings: Optional[EkertSettings] = None
) -> ExpansionResiduals:
    """Compare two routes to S and T on a product mixture.

    Route one reads S and T back off the mixture's assembled matrix, as
    TwoQubitState reads an outside one, checks included; route two expands
    each statistic as a weighted sum of nA.W.nB terms over the ensemble.
    Raises if the routes disagree beyond ATOL_ALARM.
    """
    weights = _TABLE[[_ROWS.index("ekert-s"), _ROWS.index("bbm-t")], 1:].reshape(2, 3, 3)
    if settings is not None:
        weights = np.array([ekert_functional(settings), weights[1]])
    state = TwoQubitState(product_mixture(ensemble).matrix)
    expanded_s, expanded_t = np.einsum("k,ki,fij,kj->f", ensemble.weights, ensemble.blochs_a,
                                       weights, ensemble.blochs_b)
    residuals = ExpansionResiduals(ekert=abs(ekert_statistic(state, settings) - expanded_s),
                                   bbm=abs(bbm_statistic(state) - expanded_t))
    if residuals.ekert > ATOL_ALARM or residuals.bbm > ATOL_ALARM:
        raise RuntimeError(f"expansion routes disagree (S residual {residuals.ekert:.3e}, "
                           f"T residual {residuals.bbm:.3e})")
    return residuals
