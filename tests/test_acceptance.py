"""Acceptance suite: one test and one printed verdict line per criterion.

Each test records `[criterion NN] PASS|FAIL  <detail>` before asserting;
the conftest terminal-summary hook prints all ten lines after the run,
outside pytest's capture, so a plain `pytest -v` shows them.
"""

import os
import subprocess
import sys

import numpy as np

from conftest import record_verdict

import eprlab

from eprlab.hidden_variables import (
    CorrelatorQuad,
    SeparableFunctional,
    chsh_panel,
    enumerate_ks_assignments,
    fine_local_model,
    ks_functional_value,
    quad_from_state,
    separable_bound,
)
from eprlab.protocol import (
    InterceptResend,
    Protocol,
    ProtocolConfig,
    SeparableSubstitution,
    run_protocol,
)
from eprlab.qstate import (
    BellLabel,
    ProductEnsemble,
    PureState,
    SpinSetting,
    TwoQubitState,
    X_AXIS,
    Z_AXIS,
    bell_state,
    density_from_pure,
    phase_epr_state,
    product_mixture,
)
from eprlab.witnesses import (
    CorrelatorAxes,
    EkertSettings,
    KSCase,
    bbm_statistic,
    bbm_verdict,
    bell_fidelities,
    default_ekert_settings,
    ekert_statistic,
    ekert_verdict,
    ks_functional,
    ks_verdict,
    pair_correlator_sum,
)

SEED_PANEL = range(100)
ROUNDS = 100_000


def announce(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    record_verdict(line)


def random_bloch(rng: np.random.Generator) -> tuple[float, float, float]:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return tuple(v * rng.random() ** (1.0 / 3.0))


def random_ensemble(rng: np.random.Generator) -> ProductEnsemble:
    n_terms = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(n_terms))
    return ProductEnsemble(
        [(float(w), random_bloch(rng), random_bloch(rng)) for w in weights]
    )


def random_mixed(rng: np.random.Generator) -> TwoQubitState:
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return TwoQubitState(m / m.trace())


def random_pure(rng: np.random.Generator) -> TwoQubitState:
    amp = rng.normal(size=4) + 1.0j * rng.normal(size=4)
    return density_from_pure(PureState(amp / np.linalg.norm(amp)))


def test_criterion_01_separable_bound_of_s():
    """Numerical supremum of |S| over product states is sqrt(2), never exceeded."""
    report = separable_bound(SeparableFunctional.EKERT_S)
    gap = abs(report.supremum - np.sqrt(2.0))
    rng = np.random.default_rng(101)
    violations = 0
    worst = 0.0
    for _ in range(10_000):
        value = abs(ekert_statistic(product_mixture(random_ensemble(rng))))
        worst = max(worst, value)
        if value > np.sqrt(2.0) + 1e-9:
            violations += 1
    ok = gap <= 1e-4 and violations == 0
    announce(
        1, ok,
        f"separable bound of S: supremum {report.supremum:.10f} (gap {gap:.2e} <= 1e-4); "
        f"{violations}/10000 ensemble violations, max |S| {worst:.6f}",
    )
    assert gap <= 1e-4
    assert violations == 0


def test_criterion_02_separable_bound_of_t():
    """Numerical supremum of |T| over product states is 1, never exceeded."""
    report = separable_bound(SeparableFunctional.BBM_T)
    gap = abs(report.supremum - 1.0)
    rng = np.random.default_rng(102)
    violations = 0
    worst = 0.0
    for _ in range(10_000):
        value = abs(bbm_statistic(product_mixture(random_ensemble(rng))))
        worst = max(worst, value)
        if value > 1.0 + 1e-9:
            violations += 1
    ok = gap <= 1e-4 and violations == 0
    announce(
        2, ok,
        f"separable bound of T: supremum {report.supremum:.10f} (gap {gap:.2e} <= 1e-4); "
        f"{violations}/10000 ensemble violations, max |T| {worst:.6f}",
    )
    assert gap <= 1e-4
    assert violations == 0


def test_criterion_03_ks_classical_bound():
    """All 64 sign assignments give functional values exactly in {-2, +2}."""
    assignments = enumerate_ks_assignments()
    count_ok = len(assignments) == 64
    sets_ok = True
    maxima = {}
    for case in KSCase:
        values = {ks_functional_value(a, case) for a in assignments}
        maxima[case.name] = max(values)
        sets_ok = sets_ok and values == {-2.0, 2.0}
    max_ok = all(m == 2.0 for m in maxima.values())
    ok = count_ok and sets_ok and max_ok
    announce(
        3, ok,
        f"assignment enumeration: {len(assignments)} assignments, value sets "
        f"{{-2, +2}} in all three cases: {sets_ok}, maxima {sorted(maxima.values())}",
    )
    assert count_ok and sets_ok and max_ok


def test_criterion_04_fidelity_identities():
    """Correlator sums match fidelity differences on 1000 random states."""
    rng = np.random.default_rng(104)
    worst_xy = 0.0
    worst_xz = 0.0
    worst_ks = 0.0
    for k in range(1000):
        rho = random_mixed(rng) if k % 2 == 0 else random_pure(rng)
        fid = bell_fidelities(rho)
        xx_yy = pair_correlator_sum(rho, CorrelatorAxes.XX_YY)
        xx_zz = pair_correlator_sum(rho, CorrelatorAxes.XX_ZZ)
        worst_xy = max(worst_xy, abs(xx_yy - 2.0 * (fid.psi_plus - fid.psi_minus)))
        worst_xz = max(worst_xz, abs(xx_zz - 2.0 * (fid.phi_plus - fid.psi_minus)))
        by_label = fid.by_label()
        for case in KSCase:
            worst_ks = max(
                worst_ks, abs(ks_functional(rho, case) - 4.0 * by_label[case.bell_label])
            )
    ok = worst_xy <= 1e-10 and worst_xz <= 1e-10 and worst_ks <= 1e-10
    announce(
        4, ok,
        f"fidelity identities on 1000 states: max residuals xx+yy {worst_xy:.2e}, "
        f"xx+zz {worst_xz:.2e}, functional-vs-4f {worst_ks:.2e} (all <= 1e-10)",
    )
    assert worst_xy <= 1e-10
    assert worst_xz <= 1e-10
    assert worst_ks <= 1e-10


def test_criterion_05_exemplar_states():
    """Both exemplar violations coexist with locally modelable correlator quads."""
    singlet = density_from_pure(bell_state(BellLabel.PSI_MINUS))
    t_value = bbm_statistic(singlet)
    t_ok = abs(t_value + 2.0) <= 1e-10 and bbm_verdict(singlet).violated
    xz_settings = EkertSettings(
        a1=SpinSetting.alice(X_AXIS),
        a3=SpinSetting.alice(Z_AXIS),
        b1=SpinSetting.bob(X_AXIS),
        b3=SpinSetting.bob(Z_AXIS),
    )
    singlet_quad = quad_from_state(singlet, xz_settings)
    quad_ok = np.allclose(singlet_quad.correlators(), (-1.0, 0.0, 0.0, -1.0), atol=1e-10)
    singlet_panel = chsh_panel(singlet_quad)
    singlet_model = fine_local_model(singlet_quad)
    singlet_ok = t_ok and quad_ok and singlet_panel.passes and singlet_model is not None

    phase = density_from_pure(phase_epr_state(np.pi / 4.0))
    s_value = ekert_statistic(phase)
    s_ok = abs(s_value - 2.0) <= 1e-10 and ekert_verdict(phase).violated
    phase_quad = quad_from_state(phase, default_ekert_settings())
    phase_quad_ok = np.allclose(phase_quad.correlators(), (1.0, 0.0, 0.0, 1.0), atol=1e-10)
    phase_panel = chsh_panel(phase_quad)
    phase_model = fine_local_model(phase_quad)
    phase_ok = s_ok and phase_quad_ok and phase_panel.passes and phase_model is not None

    ok = singlet_ok and phase_ok
    announce(
        5, ok,
        f"exemplars: singlet T {t_value:+.10f} violated with feasible x/z quad model "
        f"({singlet_model is not None}); phase state S {s_value:+.10f} violated with "
        f"feasible quad model ({phase_model is not None})",
    )
    assert singlet_ok
    assert phase_ok


def test_criterion_06_fine_chsh_equivalence():
    """LP feasibility and the eight-inequality panel agree on 1000 random quads."""
    rng = np.random.default_rng(106)
    disagreements = 0
    feasible_count = 0
    for _ in range(1000):
        quad = CorrelatorQuad(*(rng.uniform(-1.0, 1.0, size=4)))
        feasible = fine_local_model(quad) is not None
        feasible_count += feasible
        if feasible != chsh_panel(quad).passes:
            disagreements += 1
    ok = disagreements == 0
    announce(
        6, ok,
        f"local-model existence vs CHSH panel: {disagreements}/1000 disagreements "
        f"({feasible_count} feasible quads)",
    )
    assert disagreements == 0


def test_criterion_07_logical_implications():
    """Unviolated assignment pairs bound the correlator sums; violations propagate."""
    rng = np.random.default_rng(107)
    broken = []
    ekert_violations = 0
    bbm_violations = 0
    for k in range(1000):
        rho = random_mixed(rng) if k % 2 == 0 else random_pure(rng)
        v1 = ks_verdict(rho, KSCase.CASE_I).violated
        v2 = ks_verdict(rho, KSCase.CASE_II).violated
        v3 = ks_verdict(rho, KSCase.CASE_III).violated
        xx_yy = pair_correlator_sum(rho, CorrelatorAxes.XX_YY)
        xx_zz = pair_correlator_sum(rho, CorrelatorAxes.XX_ZZ)
        if not v1 and not v2 and abs(xx_yy) > 1.0 + 1e-10:
            broken.append(("xy-sum", k))
        if not v2 and not v3 and abs(xx_zz) > 1.0 + 1e-10:
            broken.append(("xz-sum", k))
        if ekert_verdict(rho).violated:
            ekert_violations += 1
            if not (v1 or v2):
                broken.append(("ekert", k))
        if bbm_verdict(rho).violated:
            bbm_violations += 1
            if not (v2 or v3):
                broken.append(("bbm", k))
    ok = not broken
    announce(
        7, ok,
        f"implications on 1000 states: 0 breaks expected, found {len(broken)}; "
        f"witnessed {ekert_violations} Ekert and {bbm_violations} BBM violations",
    )
    assert broken == []


def test_criterion_08_protocol_without_eve():
    """Clean singlet runs: the estimate covers the true statistic, nothing aborts."""
    target = -2.0 * np.sqrt(2.0)
    covered = 0
    for seed in SEED_PANEL:
        report = run_protocol(
            ProtocolConfig(protocol=Protocol.E91, rounds=ROUNDS, seed=seed)
        )
        if abs(report.statistic - target) <= 3.0 * report.stderr:
            covered += 1
    bbm_clean = 0
    for seed in SEED_PANEL:
        report = run_protocol(
            ProtocolConfig(protocol=Protocol.BBM92, rounds=ROUNDS, seed=seed)
        )
        if report.qber <= 0.01 and not report.aborted:
            bbm_clean += 1
    ok = covered >= 95 and bbm_clean == 100
    announce(
        8, ok,
        f"no eavesdropper: E91 3-sigma coverage {covered}/100 (need >= 95); "
        f"BBM92 clean runs {bbm_clean}/100 (QBER <= 1%, no aborts)",
    )
    assert covered >= 95
    assert bbm_clean == 100


def test_criterion_09_protocol_with_eve():
    """Intercept-resend always aborts at 25% QBER; substitutions almost always abort."""
    aborts = 0
    qber_in_band = 0
    for seed in SEED_PANEL:
        report = run_protocol(
            ProtocolConfig(
                protocol=Protocol.BBM92,
                rounds=ROUNDS,
                eve=InterceptResend(basis="xz"),
                seed=seed,
            )
        )
        aborts += report.aborted
        qber_in_band += abs(report.qber - 0.25) <= 0.02
    rng = np.random.default_rng(2026)
    substitution_aborts = 0
    for seed in SEED_PANEL:
        ensemble = random_ensemble(rng)
        report = run_protocol(
            ProtocolConfig(
                protocol=Protocol.E91,
                rounds=ROUNDS,
                eve=SeparableSubstitution(ensemble),
                seed=seed,
            )
        )
        substitution_aborts += report.aborted
    ok = aborts == 100 and qber_in_band == 100 and substitution_aborts >= 99
    announce(
        9, ok,
        f"with eavesdropper: intercept-resend aborts {aborts}/100, QBER in 0.25 +- 0.02 "
        f"{qber_in_band}/100; separable substitutions abort {substitution_aborts}/100 "
        f"(need >= 99)",
    )
    assert aborts == 100
    assert qber_in_band == 100
    assert substitution_aborts >= 99


def test_criterion_10_cli_determinism():
    """Repeating any seeded invocation reproduces its output byte for byte."""
    invocations = [
        ["witness", "--state", "psi-minus"],
        ["witness", "--state", "phase:0.7853981633974483", "--format", "csv"],
        ["fine", "0.5", "-0.5", "0.5", "0.5"],
        ["qkd", "--protocol", "e91", "--rounds", "2000", "--seed", "77"],
        ["qkd", "--protocol", "bbm92", "--rounds", "2000", "--seed", "77",
         "--eve", "intercept-xz"],
    ]
    # The child runs the eprlab package this suite imported, installed or not.
    package_root = os.path.dirname(os.path.dirname(eprlab.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    mismatches = []
    for argv in invocations:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "eprlab", *argv],
                capture_output=True,
                check=True,
                env=dict(os.environ, PYTHONPATH=path),
            )
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            mismatches.append(argv[0])
    ok = not mismatches
    announce(
        10, ok,
        f"cli determinism: {len(invocations)} invocations repeated, "
        f"{len(mismatches)} byte mismatches",
    )
    assert mismatches == []
