"""Classical models for two-qubit correlations, and where they break.

Three classical constructions live here:

- Noncontextual sign assignments to the six single-spin observables
  sx, sy, sz per party, with product observables valued multiplicatively
  on commuting factors.  All 64 assignments keep each assignment
  functional at or below 2, while entangled states reach up to 4.
- Local deterministic strategies for a two-setting, two-outcome
  experiment.  A convex mixture of the 16 strategies reproducing a given
  correlator quad and marginals exists exactly when the eight CHSH
  combinations stay at or below 2 and all 16 joint probabilities
  (1 + a m_x + b m_y + ab c_xy)/4 are nonnegative (Fine's theorem);
  existence is decided by a linear-programming feasibility check.
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
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .qstate import (
    ATOL_ALARM,
    ProductEnsemble,
    TwoQubitState,
    joint_probabilities,
    outcome_distribution,
    product_mixture,
)
from .witnesses import (
    BBM_BOUND,
    BBM_FUNCTIONAL,
    EKERT_BOUND,
    EKERT_FUNCTIONAL,
    KS_BOUND,
    EkertSettings,
    KSCase,
    LinearFunctional,
    bbm_statistic,
    ekert_functional,
    ekert_statistic,
)
from .simplex import INFEASIBLE, OPTIMAL, solve_lp

SINGLE_KEYS = ("ax", "ay", "az", "bx", "by", "bz")
PRODUCT_KEYS = ("xx", "yy", "xy", "yx", "zz")

CHSH_BOUND = 2.0
LP_FEAS_TOL = 1e-8   # weight nonnegativity and normalization slack
MODEL_ATOL = 1e-8    # reproduction tolerance for local models
BOUND_SLACK = 1e-6   # allowed numerical overshoot of an analytic bound

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


def _products(singles: Mapping[str, int]) -> dict[str, int]:
    """Product values the singles fix: x and y products factor, and zz = xx * yy."""
    s = singles
    xx, yy = s["ax"] * s["bx"], s["ay"] * s["by"]
    return {"xx": xx, "yy": yy, "xy": s["ax"] * s["by"], "yx": s["ay"] * s["bx"], "zz": xx * yy}


@dataclass(frozen=True)
class KSAssignment:
    """One noncontextual valuation of the single and product spin observables.

    Product observables factor over commuting single-party pieces, so the
    x and y products are fixed by the singles; the zz product is fixed by
    the commuting decompositions zz = xx * yy = xy * yx rather than by the
    z singles (the two decompositions agree identically once xx, yy, xy
    and yx follow the singles).
    """

    singles: Mapping[str, int]
    products: Mapping[str, int]

    def __post_init__(self) -> None:
        if set(self.singles) != set(SINGLE_KEYS):
            raise ValueError(f"singles must have keys {SINGLE_KEYS}")
        if set(self.products) != set(PRODUCT_KEYS):
            raise ValueError(f"products must have keys {PRODUCT_KEYS}")
        for mapping in (self.singles, self.products):
            for key, value in mapping.items():
                if value not in (1, -1):
                    raise ValueError(f"assignment value {key}={value!r} must be +1 or -1")
        for key, expected in _products(self.singles).items():
            if self.products[key] != expected:
                raise ValueError(f"product {key}={self.products[key]} breaks the product rule")
        object.__setattr__(self, "singles", MappingProxyType(dict(self.singles)))
        object.__setattr__(self, "products", MappingProxyType(dict(self.products)))


@functools.cache
def enumerate_ks_assignments() -> tuple[KSAssignment, ...]:
    """All 64 assignments, one per sign choice on the six singles.

    Built once per process; the assignments are frozen, so callers share them.
    """
    singles = (dict(zip(SINGLE_KEYS, values)) for values in itertools.product((1, -1), repeat=6))
    return tuple(KSAssignment(singles=s, products=_products(s)) for s in singles)


def ks_functional_value(assignment: KSAssignment, case: KSCase) -> float:
    """Value of 1 + s_xx f(xx) + s_yy f(yy) + s_zz f(zz) under the assignment."""
    sxx, syy, szz = case.signs
    p = assignment.products
    return 1.0 + sxx * p["xx"] + syy * p["yy"] + szz * p["zz"]


def ks_classical_bound(case: KSCase) -> float:
    """Largest functional value over all assignments (equals 2 for each case)."""
    return max(ks_functional_value(a, case) for a in enumerate_ks_assignments())


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
            if not abs(value) <= 1.0 + 1e-12:
                raise ValueError(f"{name}={value!r} outside [-1, 1]")

    def correlators(self) -> tuple[float, float, float, float]:
        return (self.c11, self.c13, self.c31, self.c33)

    def marginals(self) -> tuple[float, float, float, float]:
        return (self.m_a1, self.m_a3, self.m_b1, self.m_b3)


def quad_from_state(state: TwoQubitState, settings: EkertSettings) -> CorrelatorQuad:
    """Measure all four correlators and the four marginals of a state."""
    d11, d13, d31, d33 = (outcome_distribution(state, a, b)
                          for a in (settings.a1, settings.a3) for b in (settings.b1, settings.b3))
    return CorrelatorQuad(d11.correlator, d13.correlator, d31.correlator, d33.correlator,
                          d11.marginal_a, d33.marginal_a, d11.marginal_b, d33.marginal_b)


@dataclass(frozen=True)
class ChshPanel:
    """The eight CHSH combinations of a correlator quad, and its least joint probability.

    passes is the CHSH test alone; fine_passes adds positivity of the 16
    joint probabilities, which with it decides whether a local model exists.
    """

    values: tuple[float, ...]
    max_value: float
    passes: bool
    min_joint_probability: float

    def __post_init__(self) -> None:
        if len(self.values) != 8:
            raise ValueError(f"panel needs 8 values, got {len(self.values)}")

    @property
    def fine_passes(self) -> bool:
        return self.passes and self.min_joint_probability >= -LP_FEAS_TOL


def chsh_panel(quad: CorrelatorQuad) -> ChshPanel:
    """Evaluate s1 c11 + s2 c13 + s3 c31 + s4 c33 over the odd sign patterns, and
    the least joint probability (1 + a m_x + b m_y + ab c_xy)/4 of the four pairs."""
    c = quad.correlators()
    values = tuple(
        float(s1 * c[0] + s2 * c[1] + s3 * c[2] + s4 * c[3])
        for s1, s2, s3, s4 in CHSH_SIGN_PATTERNS
    )
    max_value = max(values)
    min_joint = float(joint_probabilities([quad.m_a1, quad.m_a1, quad.m_a3, quad.m_a3],
                                          [quad.m_b1, quad.m_b3, quad.m_b1, quad.m_b3],
                                          c).min())
    return ChshPanel(values=values, max_value=max_value,
                     passes=max_value <= CHSH_BOUND + LP_FEAS_TOL, min_joint_probability=min_joint)


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
        """Correlators and marginals generated by the strategy mixture."""
        return CorrelatorQuad(*(np.asarray(self.weights) @ _FEATURES).tolist())

    def reproduces(self, quad: CorrelatorQuad) -> bool:
        predicted = self.predicted_quad()
        pairs = zip(
            predicted.correlators() + predicted.marginals(),
            quad.correlators() + quad.marginals(),
        )
        return all(abs(p - q) <= MODEL_ATOL for p, q in pairs)


def fine_local_model(quad: CorrelatorQuad) -> Optional[LocalModel]:
    """Find a strategy mixture reproducing the quad, or None if none exists.

    Feasibility is decided by a two-phase simplex over weights w_s >= 0
    matching the normalization, the four correlators, and the four
    marginals.  Among feasible mixtures the one maximizing the minimum
    weight is returned (substituting w_s = v_s + t makes that a linear
    objective), which pins a canonical, deterministic representative;
    the all-zero quad yields exactly the uniform mixture.
    """
    rhs = np.array([1.0, *quad.correlators(), *quad.marginals()])
    cost = np.zeros(17)
    cost[16] = -1.0  # maximize the minimum weight t
    result = solve_lp(cost, _FINE_A_EQ, rhs)
    if result.status == INFEASIBLE:
        return None
    if result.status != OPTIMAL:
        raise RuntimeError(f"unexpected solver status {result.status!r}")
    v, t = result.x[:16], result.x[16]
    model = LocalModel(weights=tuple(float(x) for x in np.clip(v + t, 0.0, None)))
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


# Each functional, offset + <W, T>, with its analytic bound on product states.
SEPARABLE_WITNESSES = {
    SeparableFunctional.EKERT_S: (EKERT_FUNCTIONAL, EKERT_BOUND),
    SeparableFunctional.BBM_T: (BBM_FUNCTIONAL, BBM_BOUND),
    SeparableFunctional.KS_I: (KSCase.CASE_I.functional, KS_BOUND),
    SeparableFunctional.KS_II: (KSCase.CASE_II.functional, KS_BOUND),
    SeparableFunctional.KS_III: (KSCase.CASE_III.functional, KS_BOUND),
}


@dataclass(frozen=True)
class BoundReport:
    """Product-state supremum of one functional and the product state attaining it."""

    functional: SeparableFunctional
    supremum: float
    argmax_bloch_a: tuple[float, float, float]
    argmax_bloch_b: tuple[float, float, float]
    evaluations: int
    analytic_bound: float

    def __post_init__(self) -> None:
        for name in ("supremum", "analytic_bound"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.supremum > self.analytic_bound + BOUND_SLACK:
            raise RuntimeError(
                f"supremum {self.supremum!r} lies above the analytic bound "
                f"{self.analytic_bound!r}; functional or bound is wrong"
            )
        if self.evaluations < 1:
            raise ValueError("a bound report needs at least one evaluation")


def separable_bound(functional: SeparableFunctional) -> BoundReport:
    """Supremum of a witness statistic over product states, in closed form.

    On the pure product state with Bloch vectors u and v the statistic is
    offset + u.W.v, and |u.W.v| <= sigma_max(W) with equality at the top
    singular vectors; mixing product states cannot exceed that.  The
    report counts the one singular value decomposition as one evaluation.
    """
    linear, analytic_bound = SEPARABLE_WITNESSES[functional]
    left, singular_values, right = np.linalg.svd(linear.weights)
    return BoundReport(
        functional=functional,
        supremum=linear.offset + float(singular_values[0]),
        argmax_bloch_a=tuple(float(x) for x in left[:, 0]),
        argmax_bloch_b=tuple(float(x) for x in right[0]),
        evaluations=1,
        analytic_bound=analytic_bound,
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

    Route one forms the density matrix and reads S and T off its
    correlation matrix; route two expands each statistic as a weighted sum
    of nA.W.nB terms over the ensemble.  Raises if the routes disagree
    beyond ATOL_ALARM.
    """
    ekert_linear = EKERT_FUNCTIONAL if settings is None else ekert_functional(settings)
    state = product_mixture(ensemble)

    def expansion(linear: LinearFunctional) -> float:
        return sum(w * (bloch_a @ linear.weights @ bloch_b) for w, bloch_a, bloch_b in ensemble)

    residuals = ExpansionResiduals(
        ekert=abs(ekert_statistic(state, settings) - expansion(ekert_linear)),
        bbm=abs(bbm_statistic(state) - expansion(BBM_FUNCTIONAL)),
    )
    if residuals.ekert > ATOL_ALARM or residuals.bbm > ATOL_ALARM:
        raise RuntimeError(
            f"expansion routes disagree (S residual {residuals.ekert:.3e}, "
            f"T residual {residuals.bbm:.3e})"
        )
    return residuals
