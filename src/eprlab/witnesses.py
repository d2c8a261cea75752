"""Entanglement witness statistics for two-qubit states.

Every statistic here is an offset plus a linear functional of the
state's correlation matrix T, offset + sum_ij W_ij T_ij, and each is one
row (offset, W) of one table, which one product evaluates on a state and
from which hidden_variables reads the separable bounds:

- The four-setting statistic S with W = a1 (b1 - b3)^T + a3 (b1 + b3)^T,
  separable bound sqrt(2) at the anticommuting default settings and
  quantum maximum 2 sqrt(2).
- The two-axis statistic T = E(xx) + E(zz) with W = diag(1, 0, 1) and
  separable bound 1.
- One functional 1 + s_xx E(xx) + s_yy E(yy) + s_zz E(zz) per Bell state,
  W = diag(s) with s that state's same-axis correlators from
  BELL_CORRELATORS (qstate's one table of Bell-state data, re-exported
  here), equal to four times the fidelity with it.  Three of them are the
  value-assignment functionals U1, U2, U3, each bounded by 2 under
  noncontextual sign assignments and reaching 4 on its Bell state, so
  their violations certify distillability.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .qstate import (
    _BELL_AMPLITUDES,
    _read_only,
    _sum_in_order,
    ATOL_DERIVED,
    BELL_CORRELATORS,
    PROJECTOR_FLOOR,
    VERDICT_SLACK,
    X_AXIS,
    Y_AXIS,
    BellLabel,
    Party,
    SpinSetting,
    TwoQubitState,
    correlator,  # re-exported: the single-correlator building block n_a.T.n_b
)

EKERT_BOUND = float(np.sqrt(2.0))  # separable bound for S at the default settings
TSIRELSON_BOUND = 2.0 * float(np.sqrt(2.0))
BBM_BOUND = 1.0  # separable bound for T
KS_BOUND = 2.0  # noncontextual value-assignment bound for U1, U2, U3


class KSCase(Enum):
    """The three value-assignment functionals, each keyed by the Bell state it witnesses.

    Each functional is 1 + s_xx E(xx) + s_yy E(yy) + s_zz E(zz), where the
    signs are that Bell state's same-axis correlators, so it reaches 4 on it.
    """

    CASE_I = BellLabel.PSI_PLUS
    CASE_II = BellLabel.PSI_MINUS
    CASE_III = BellLabel.PHI_PLUS

    @property
    def bell_label(self) -> BellLabel:
        return self.value


@dataclass(frozen=True)
class EkertSettings:
    """The two Alice and two Bob directions entering the statistic S."""

    a1: SpinSetting
    a3: SpinSetting
    b1: SpinSetting
    b3: SpinSetting

    def __post_init__(self) -> None:
        for name in ("a1", "a3", "b1", "b3"):
            party = Party.ALICE if name.startswith("a") else Party.BOB
            if getattr(self, name).party is not party:
                raise ValueError(f"setting {name} must belong to {party.value.title()}")


def ekert_functional(settings: Optional[EkertSettings] = None) -> np.ndarray:
    """W of S = E(a1,b1) - E(a1,b3) + E(a3,b1) + E(a3,b3) = a1.T.(b1 - b3) + a3.T.(b1 + b3)."""
    s = settings if settings is not None else default_ekert_settings()
    a1, a3, b1, b3 = (x.direction for x in (s.a1, s.a3, s.b1, s.b3))
    return np.outer(a1, b1 - b3) + np.outer(a3, b1 + b3)


def default_ekert_settings() -> EkertSettings:
    """Alice along x and y; Bob along (x+y)/sqrt(2) and (y-x)/sqrt(2)."""
    inv = 1.0 / np.sqrt(2.0)
    return EkertSettings(
        a1=SpinSetting.alice(X_AXIS),
        a3=SpinSetting.alice(Y_AXIS),
        b1=SpinSetting.bob(inv * (X_AXIS + Y_AXIS)),
        b3=SpinSetting.bob(inv * (Y_AXIS - X_AXIS)),
    )


# One row (offset, W flattened) per functional in the docstring's order, Bell rows by BellLabel.
_ROWS = ("ekert-s", "bbm-t", *BellLabel)
_TABLE = _read_only(np.array([[0.0, *ekert_functional().flat],
                              [0.0, *np.diag([1.0, 0.0, 1.0]).flat],
                              *([1.0, *np.diag(BELL_CORRELATORS[b]).flat] for b in BellLabel)]))


def _values(correlations: np.ndarray, rows=slice(None)) -> np.ndarray:
    """offset + sum_ij W_ij T_ij of the table's rows (last axis), on one T or a stack of them,
    the nine products added in row-major order."""
    terms = correlations.reshape(*correlations.shape[:-2], 1, 9) * _TABLE[rows, 1:]
    return _TABLE[rows, 0] + _sum_in_order(terms)


@functools.lru_cache(maxsize=1)  # a verdict chain reads the rows of one state many times
def _statistics(state: TwoQubitState) -> tuple[float, ...]:
    """Every row's value on the state, in _ROWS order: S, T, then the Bell rows."""
    return tuple(_values(state.correlations).tolist())


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of |statistic| against a separability bound; violated and margin are derived."""

    statistic: float
    bound: float
    violated: bool = field(init=False)
    margin: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "violated", abs(self.statistic) > self.bound + VERDICT_SLACK)
        object.__setattr__(self, "margin", abs(self.statistic) - self.bound)
        for name in ("statistic", "bound", "margin"):  # the margin can overflow to inf
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"verdict {name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class BellFidelities:
    """Overlaps of a state with the four Bell states, in BellLabel order; they sum to 1."""

    phi_plus: float
    phi_minus: float
    psi_plus: float
    psi_minus: float

    def __post_init__(self) -> None:
        values = self.as_tuple()
        for v in values:  # a projector's mean: the largest is 1 less the other three eigenvalues
            if not PROJECTOR_FLOOR <= v <= 1.0 - 3.0 * PROJECTOR_FLOOR:
                raise ValueError(f"fidelity {v!r} outside [0, 1]")
        if abs(sum(values) - 1.0) > ATOL_DERIVED:
            raise ValueError(f"fidelities sum to {sum(values)!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi_plus, self.phi_minus, self.psi_plus, self.psi_minus)

    def by_label(self) -> dict[BellLabel, float]:
        return dict(zip(BellLabel, self.as_tuple()))


@dataclass(frozen=True)
class DistillabilityVerdict:
    """Whether the largest Bell fidelity f exceeds 1/2, and whose it is; all three are derived.
    The rule is ks_verdict's on the same Bell row, 4 f against KS_BOUND, so U > 2 and f > 1/2
    agree.  The label is kept only then; no other f exceeds 1/2 beyond the eigenvalue floor."""

    fidelities: BellFidelities
    distillable: bool = field(init=False)
    bell_label: Optional[BellLabel] = field(init=False)
    fidelity: float = field(init=False)

    def __post_init__(self) -> None:
        label, value = max(self.fidelities.by_label().items(), key=lambda kv: kv[1])
        distillable = WitnessVerdict(4.0 * value, KS_BOUND).violated
        object.__setattr__(self, "distillable", distillable)
        object.__setattr__(self, "bell_label", label if distillable else None)
        object.__setattr__(self, "fidelity", value)


class CorrelatorAxes(Enum):
    """Axis pairs for two-term correlator sums."""

    XX_YY = "xx+yy"
    XX_ZZ = "xx+zz"


def pair_correlator_sum(state: TwoQubitState, axes: CorrelatorAxes) -> float:
    """Sum of two same-axis correlators, e.g. E(xx) + E(zz)."""
    i, j = ("xyz".index(pair[0]) for pair in axes.value.split("+"))
    return float(state.correlations[i, i] + state.correlations[j, j])


def ekert_statistic(state: TwoQubitState, settings: Optional[EkertSettings] = None) -> float:
    """S = E(a1,b1) - E(a1,b3) + E(a3,b1) + E(a3,b3)."""
    # Other settings add S's zero offset as the table does, so -0.0 reads 0.0 on both routes.
    value = (_statistics(state)[0] if settings is None else
             0.0 + float(_sum_in_order((ekert_functional(settings) * state.correlations).ravel())))
    # |S| is at most TSIRELSON_BOUND times rho's trace norm, 1 + 6 ATOL_PSD at the floor.
    if abs(value) > TSIRELSON_BOUND * (1.0 - 6.0 * PROJECTOR_FLOOR):
        raise RuntimeError(f"statistic {value!r} exceeds the quantum maximum; state corrupted")
    return value


def ekert_verdict(state: TwoQubitState) -> WitnessVerdict:
    """Compare |S| against sqrt(2), the separable bound at the default settings only."""
    return WitnessVerdict(ekert_statistic(state), EKERT_BOUND)


def bbm_statistic(state: TwoQubitState) -> float:
    """T = E(xx) + E(zz)."""
    return _statistics(state)[1]


def bbm_verdict(state: TwoQubitState) -> WitnessVerdict:
    """Compare |T| against the separable bound 1."""
    return WitnessVerdict(bbm_statistic(state), BBM_BOUND)


def ks_functional(state: TwoQubitState, case: KSCase) -> float:
    """Value of 1 + s_xx E(xx) + s_yy E(yy) + s_zz E(zz) for the case's signs."""
    return _statistics(state)[_ROWS.index(case.value)]


def ks_verdict(state: TwoQubitState, case: KSCase) -> WitnessVerdict:
    """One-sided comparison of the functional against the assignment bound 2; the functional
    is 4 f(bell) >= 4 PROJECTOR_FLOOR, so |U| > 2 exactly when U > 2."""
    value = ks_functional(state, case)
    if value < 4.0 * PROJECTOR_FLOOR:
        raise RuntimeError(f"assignment functional {value!r} negative; state corrupted")
    return WitnessVerdict(value, KS_BOUND)


def bell_fidelities(state: TwoQubitState) -> BellFidelities:
    """All four Bell fidelities, f(bell) = (1 + s . diag(T))/4 with s its correlators."""
    return BellFidelities(*(value / 4.0 for value in _statistics(state)[2:]))


def fidelity_identities_check(state: TwoQubitState) -> tuple[float, float]:
    """(Max residual, fidelity sum deviation from 1) of two routes to the Bell fidelities,
    overlaps <bell|rho|bell> of the density matrix and bell_fidelities' table rows on T;
    raises if the residual exceeds ATOL_DERIVED, which BellFidelities holds the sum to."""
    from_correlators = bell_fidelities(state)
    overlaps = np.einsum("ki,ij,kj->k", _BELL_AMPLITUDES.conj(), state.matrix, _BELL_AMPLITUDES)
    max_residual = float(np.abs(overlaps.real - from_correlators.as_tuple()).max())
    sum_deviation = abs(sum(from_correlators.as_tuple()) - 1.0)
    if max_residual > ATOL_DERIVED:
        raise RuntimeError(f"fidelity routes disagree (residual {max_residual:.3e}, "
                           f"sum deviation {sum_deviation:.3e})")
    return max_residual, sum_deviation


def distillable_witness(state: TwoQubitState) -> DistillabilityVerdict:
    """Check whether some Bell fidelity of the state exceeds 1/2."""
    return DistillabilityVerdict(bell_fidelities(state))
