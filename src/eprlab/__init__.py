"""Two-qubit entanglement witnesses, classical models, and QKD simulation."""

import types

from .qstate import (
    BellLabel,
    Party,
    ProductEnsemble,
    PureState,
    SpinSetting,
    TwoQubitState,
    bell_state,
    correlator,
    density_from_pure,
    joint_probabilities,
    outcome_distribution,
    phase_epr_state,
    product_mixture,
    werner_state,
)
from .witnesses import (
    BBM_BOUND,
    EKERT_BOUND,
    KS_BOUND,
    BellFidelities,
    DistillabilityVerdict,
    EkertSettings,
    KSCase,
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
from .hidden_variables import (
    BoundReport,
    ChshPanel,
    CorrelatorQuad,
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
from .protocol import (
    EveStrategy,
    InterceptResend,
    NoEve,
    Protocol,
    ProtocolConfig,
    ProtocolReport,
    SeparableSubstitution,
    effective_state,
    estimate_statistic,
    qber,
    run_protocol,
)
from .simplex import LPResult, solve_lp

__version__ = "0.1.0"

# The public names are exactly those imported above.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
