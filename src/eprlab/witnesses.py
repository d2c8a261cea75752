"""Entanglement witness statistics for two-qubit states.

Every statistic here is an offset plus a linear functional of the
state's correlation matrix T, offset + sum_ij W_ij T_ij, and each is
defined once, as a LinearFunctional (offset, W):

- The four-setting statistic S with W = a1 (b1 - b3)^T + a3 (b1 + b3)^T,
  separable bound sqrt(2) at the anticommuting default settings and
  quantum maximum 2 sqrt(2).
- The two-axis statistic T = E(xx) + E(zz) with W = diag(1, 0, 1) and
  separable bound 1.
- One functional 1 + s_xx E(xx) + s_yy E(yy) + s_zz E(zz) per Bell state,
  W = diag(s) with s that state's same-axis correlators, equal to four
  times the fidelity with it.  Three of them are the value-assignment
  functionals U1, U2, U3, each bounded by 2 under noncontextual sign
  assignments and reaching 4 on its Bell state, so their violations
  certify distillability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .qstate import (
    ATOL_DERIVED,
    X_AXIS,
    Y_AXIS,
    BellLabel,
    Party,
    SpinSetting,
    TwoQubitState,
    bell_state,
    correlator,  # re-exported: the single-correlator building block n_a.T.n_b
)

EKERT_BOUND = float(np.sqrt(2.0))  # separable bound for S at the default settings
TSIRELSON_BOUND = 2.0 * float(np.sqrt(2.0))
BBM_BOUND = 1.0  # separable bound for T
KS_BOUND = 2.0  # noncontextual value-assignment bound for U1, U2, U3
VERDICT_SLACK = 1e-10  # non-strict comparison: the boundary is not a violation
DISTILL_THRESHOLD = 0.5  # a Bell fidelity above 1/2 certifies distillability


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """The statistic offset + sum_ij W_ij T_ij of a state's correlation matrix T."""

    offset: float
    weights: np.ndarray  # W, 3x3, read-only

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (3, 3):
            raise ValueError(f"weights must be 3x3, got shape {weights.shape}")
        if not (math.isfinite(self.offset) and np.isfinite(weights).all()):
            raise ValueError(f"offset and weights must be finite, got {self.offset!r} and "
                             f"{weights.tolist()}")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    def __call__(self, state: TwoQubitState) -> float:
        return self.offset + float(np.vdot(self.weights, state.correlations))


# Same-axis correlators (E(xx), E(yy), E(zz)) of each Bell state.
BELL_CORRELATORS = {
    BellLabel.PHI_PLUS: (1.0, -1.0, 1.0),
    BellLabel.PHI_MINUS: (-1.0, 1.0, 1.0),
    BellLabel.PSI_PLUS: (1.0, 1.0, -1.0),
    BellLabel.PSI_MINUS: (-1.0, -1.0, -1.0),
}

# tr(rho |bell><bell|) = (1 + s . diag(T))/4, so each functional is 4 f(bell).
BELL_FUNCTIONALS = {
    label: LinearFunctional(1.0, np.diag(signs)) for label, signs in BELL_CORRELATORS.items()
}

BBM_FUNCTIONAL = LinearFunctional(0.0, np.diag([1.0, 0.0, 1.0]))


class KSCase(Enum):
    """The three value-assignment functionals, each keyed by the Bell state it witnesses.

    Each functional is 1 + s_xx E(xx) + s_yy E(yy) + s_zz E(zz), where the
    signs are that Bell state's same-axis correlators, so it reaches 4 on it.
    """

    CASE_I = BellLabel.PSI_PLUS
    CASE_II = BellLabel.PSI_MINUS
    CASE_III = BellLabel.PHI_PLUS

    @property
    def signs(self) -> tuple[float, float, float]:
        return BELL_CORRELATORS[self.value]

    @property
    def bell_label(self) -> BellLabel:
        return self.value

    @property
    def functional(self) -> LinearFunctional:
        return BELL_FUNCTIONALS[self.value]


@dataclass(frozen=True)
class EkertSettings:
    """The two Alice and two Bob directions entering the statistic S."""

    a1: SpinSetting
    a3: SpinSetting
    b1: SpinSetting
    b3: SpinSetting

    def __post_init__(self) -> None:
        for name in ("a1", "a3"):
            if getattr(self, name).party is not Party.ALICE:
                raise ValueError(f"setting {name} must belong to Alice")
        for name in ("b1", "b3"):
            if getattr(self, name).party is not Party.BOB:
                raise ValueError(f"setting {name} must belong to Bob")


def ekert_functional(settings: Optional[EkertSettings] = None) -> LinearFunctional:
    """S = E(a1,b1) - E(a1,b3) + E(a3,b1) + E(a3,b3) = a1.T.(b1 - b3) + a3.T.(b1 + b3)."""
    s = settings if settings is not None else default_ekert_settings()
    a1, a3, b1, b3 = (x.direction for x in (s.a1, s.a3, s.b1, s.b3))
    return LinearFunctional(0.0, np.outer(a1, b1 - b3) + np.outer(a3, b1 + b3))


def default_ekert_settings() -> EkertSettings:
    """Alice along x and y; Bob along (x+y)/sqrt(2) and (y-x)/sqrt(2)."""
    inv = 1.0 / np.sqrt(2.0)
    return EkertSettings(
        a1=SpinSetting.alice(X_AXIS),
        a3=SpinSetting.alice(Y_AXIS),
        b1=SpinSetting.bob(inv * (X_AXIS + Y_AXIS)),
        b3=SpinSetting.bob(inv * (Y_AXIS - X_AXIS)),
    )


EKERT_FUNCTIONAL = ekert_functional()


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of comparing |statistic| against a separability bound."""

    statistic: float
    bound: float
    violated: bool
    margin: float

    def __post_init__(self) -> None:
        for name in ("statistic", "bound", "margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"verdict {name} must be finite, got {getattr(self, name)!r}")
        expected = abs(self.statistic) > self.bound + VERDICT_SLACK
        if self.violated != expected:
            raise ValueError("verdict flag inconsistent with statistic and bound")
        if abs(self.margin - (abs(self.statistic) - self.bound)) > ATOL_DERIVED:
            raise ValueError("verdict margin inconsistent with statistic and bound")


def _verdict(statistic: float, bound: float) -> WitnessVerdict:
    return WitnessVerdict(
        statistic=statistic,
        bound=bound,
        violated=abs(statistic) > bound + VERDICT_SLACK,
        margin=abs(statistic) - bound,
    )


@dataclass(frozen=True)
class BellFidelities:
    """Overlaps of a state with the four Bell states, in BellLabel order; they sum to 1."""

    phi_plus: float
    phi_minus: float
    psi_plus: float
    psi_minus: float

    def __post_init__(self) -> None:
        values = self.as_tuple()
        for v in values:
            if not -ATOL_DERIVED <= v <= 1.0 + ATOL_DERIVED:
                raise ValueError(f"fidelity {v!r} outside [0, 1]")
        if abs(sum(values) - 1.0) > ATOL_DERIVED:
            raise ValueError(f"fidelities sum to {sum(values)!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi_plus, self.phi_minus, self.psi_plus, self.psi_minus)

    def by_label(self) -> dict[BellLabel, float]:
        return dict(zip(BellLabel, self.as_tuple()))


@dataclass(frozen=True)
class DistillabilityVerdict:
    """Whether some Bell fidelity exceeds 1/2, and which one."""

    distillable: bool
    bell_label: Optional[BellLabel]
    fidelity: float  # the largest Bell fidelity


class CorrelatorAxes(Enum):
    """Axis pairs for two-term correlator sums."""

    XX_YY = "xx+yy"
    XX_ZZ = "xx+zz"


_AXIS_INDICES = {CorrelatorAxes.XX_YY: (0, 1), CorrelatorAxes.XX_ZZ: (0, 2)}


def pair_correlator_sum(state: TwoQubitState, axes: CorrelatorAxes) -> float:
    """Sum of two same-axis correlators, e.g. E(xx) + E(zz)."""
    i, j = _AXIS_INDICES[axes]
    return float(state.correlations[i, i] + state.correlations[j, j])


def ekert_statistic(state: TwoQubitState, settings: Optional[EkertSettings] = None) -> float:
    """S = E(a1,b1) - E(a1,b3) + E(a3,b1) + E(a3,b3)."""
    functional = EKERT_FUNCTIONAL if settings is None else ekert_functional(settings)
    value = functional(state)
    if abs(value) > TSIRELSON_BOUND + 1e-9:
        raise RuntimeError(f"statistic {value!r} exceeds the quantum maximum; state corrupted")
    return value


def ekert_verdict(state: TwoQubitState) -> WitnessVerdict:
    """Compare |S| against sqrt(2), the separable bound at the default settings only."""
    return _verdict(ekert_statistic(state), EKERT_BOUND)


def bbm_statistic(state: TwoQubitState) -> float:
    """T = E(xx) + E(zz)."""
    return BBM_FUNCTIONAL(state)


def bbm_verdict(state: TwoQubitState) -> WitnessVerdict:
    """Compare |T| against the separable bound 1."""
    return _verdict(bbm_statistic(state), BBM_BOUND)


def ks_functional(state: TwoQubitState, case: KSCase) -> float:
    """Value of 1 + s_xx E(xx) + s_yy E(yy) + s_zz E(zz) for the case's signs."""
    return case.functional(state)


def ks_verdict(state: TwoQubitState, case: KSCase) -> WitnessVerdict:
    """One-sided comparison of the functional against the assignment bound 2.

    The functional is nonnegative by construction, so the absolute-value
    verdict coincides with the one-sided one.
    """
    value = ks_functional(state, case)
    if value < -ATOL_DERIVED:
        raise RuntimeError(f"assignment functional {value!r} negative; state corrupted")
    return _verdict(value, KS_BOUND)


def bell_fidelities(state: TwoQubitState) -> BellFidelities:
    """All four Bell fidelities, f(bell) = (1 + s . diag(T))/4 with s its correlators."""
    return BellFidelities(*(BELL_FUNCTIONALS[label](state) / 4.0 for label in BellLabel))


def fidelity_identities_check(state: TwoQubitState) -> tuple[float, float]:
    """Residuals of two routes to the Bell fidelities.

    Route one takes overlaps <bell|rho|bell> of the density matrix; route
    two reads them off the correlation matrix as above.  Returns (max
    residual, fidelity sum deviation from 1) and raises if either exceeds
    ATOL_DERIVED.
    """
    from_correlators = bell_fidelities(state)
    max_residual = 0.0
    for label, value in from_correlators.by_label().items():
        amplitudes = bell_state(label).amplitudes
        overlap = float(np.vdot(amplitudes, state.matrix @ amplitudes).real)
        max_residual = max(max_residual, abs(overlap - value))
    sum_deviation = abs(sum(from_correlators.as_tuple()) - 1.0)
    if max_residual > ATOL_DERIVED or sum_deviation > ATOL_DERIVED:
        raise RuntimeError(
            f"fidelity routes disagree (residual {max_residual:.3e}, "
            f"sum deviation {sum_deviation:.3e})"
        )
    return max_residual, sum_deviation


def distillable_witness(state: TwoQubitState) -> DistillabilityVerdict:
    """Check whether some Bell fidelity exceeds 1/2.

    A fidelity above 1/2 certifies distillable entanglement; at most one
    fidelity can exceed 1/2 since all four sum to 1.
    """
    fidelities = bell_fidelities(state)
    best_label, best_value = max(
        fidelities.by_label().items(), key=lambda item: (item[1], item[0].value)
    )
    distillable = best_value > DISTILL_THRESHOLD + VERDICT_SLACK
    return DistillabilityVerdict(
        distillable=distillable,
        bell_label=best_label if distillable else None,
        fidelity=best_value,
    )
