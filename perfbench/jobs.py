"""The three jobs every workload runs, and their seeded inputs.

A workload is one choice of inputs for three jobs: protocol runs, state
certification and CLI calls. Its own job gets the large inputs; the other
two get a small companion set, so that every workload reports every
end-to-end metric. Each round runs each job once over the same inputs, so
the share of failed operations is the same in every run.

Only `run_round` bodies call into eprlab inside timed regions. Inputs are
drawn from the benchmark's own generator before timing starts; checks run
after each round against references from `refcheck`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import eprlab.cli
import eprlab.hidden_variables as hv
import eprlab.protocol as pr
import eprlab.qstate as qs
import eprlab.witnesses as wt

import refcheck as ref

perf_counter = time.perf_counter
FUNCTIONALS = ("ekert-s", "bbm-t", "ks-i", "ks-ii", "ks-iii")
TEST_FRACTION = 0.25
ABORT_SIGMA = 3.0
# Werner bands on both sides of w = 1/3 (entanglement) and 1/2 (distillability),
# and of 1/sqrt2 (CHSH); they keep clear of each threshold.
WERNER_BANDS = ((0.02, 0.31), (0.35, 0.48), (0.52, 0.69), (0.73, 0.98))


def _span(recorder, name: str, **attrs):
    return recorder.span(name, **attrs) if recorder is not None else contextlib.nullcontext()


class OpTimes:
    """Each operation's median time over the rounds of a run.

    The host switches between two speeds about 1.5x apart, in stretches of
    seconds; an operation's median over rounds spread across the whole run
    moves less with that than its minimum does (see README.md).
    """

    def __init__(self, n: int):
        self.samples: list[list[float]] = [[] for _ in range(n)]

    def record(self, k: int, seconds: float) -> None:
        self.samples[k].append(seconds)

    def total(self, weights=None) -> tuple[float, float]:
        """(sum of weights, sum of median times) over operations that ever succeeded."""
        done = [k for k, times in enumerate(self.samples) if times]
        w = weights if weights is not None else [1] * len(self.samples)
        return sum(w[k] for k in done), sum(statistics.median(self.samples[k]) for k in done)


@dataclass
class JobStats:
    """What one job did over the whole run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- inputs


def random_pure(rng) -> np.ndarray:
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    return amp / np.linalg.norm(amp)


def random_mixed(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


def random_bloch(rng) -> list[float]:
    """Uniform in the unit ball."""
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v) * rng.random() ** (1.0 / 3.0)).tolist()


def random_ensemble(rng) -> list:
    """One to four product terms with Dirichlet weights."""
    k = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(k))
    return [(float(w), random_bloch(rng), random_bloch(rng)) for w in weights]


def weak_ensemble(rng) -> list:
    """A product ensemble whose S and T sit well inside the separable bounds,
    so that a protocol run against it must abort."""
    while True:
        terms = random_ensemble(rng)
        t = ref.eve_t(None, ("substitute", terms))
        if abs(ref.ekert_s(t)) < 1.0 and abs(ref.bbm_t(t)) < 0.7:
            return terms


@dataclass(frozen=True)
class StateInput:
    kind: str  # pure, mixed, werner, phase, bell, product
    value: object

    def rho(self) -> np.ndarray:
        """The benchmark's own density matrix for this input."""
        return {
            "pure": ref.pure_rho,
            "mixed": np.asarray,
            "werner": ref.werner_rho,
            "phase": ref.phase_rho,
            "bell": lambda name: ref.pure_rho(ref.BELL_VECTORS[name]),
            "product": ref.ensemble_rho,
        }[self.kind](self.value)

    def build(self):
        """The program's state (and ensemble, for product mixtures)."""
        kind, v = self.kind, self.value
        if kind == "pure":
            return qs.density_from_pure(qs.PureState(v)), None
        if kind == "mixed":
            return qs.TwoQubitState(v), None
        if kind == "werner":
            return qs.werner_state(v), None
        if kind == "phase":
            return qs.density_from_pure(qs.phase_epr_state(v)), None
        if kind == "bell":
            return qs.density_from_pure(qs.bell_state(qs.BellLabel(v))), None
        ensemble = qs.ProductEnsemble(v)
        return qs.product_mixture(ensemble), ensemble


def make_population(rng, big: bool) -> list[StateInput]:
    """42 states for the certify workload, 12 for the companion set."""
    n = 8 if big else 2
    states = [StateInput("pure", random_pure(rng)) for _ in range(n)]
    states += [StateInput("mixed", random_mixed(rng)) for _ in range(n)]
    states += [StateInput("werner", float(rng.uniform(*band)))
               for band in WERNER_BANDS * (2 if big else 1)]
    states += [StateInput("phase", float(rng.uniform(0.0, 2 * math.pi)))
               for _ in range(6 if big else 1)]
    states += [StateInput("bell", name) for name in (ref.BELL_NAMES if big else ("psi-minus",))]
    states += [StateInput("product", random_ensemble(rng)) for _ in range(n)]
    return states


# ---------------------------------------------------------------- protocol runs


@dataclass(frozen=True)
class QkdInput:
    protocol: str
    rounds: int
    source: tuple  # ("singlet",) or ("werner", w)
    eve: tuple     # ("none",), ("intercept-xz",) or ("substitute", terms)
    seed: int

    def source_rho(self) -> np.ndarray:
        if self.source[0] == "singlet":
            return ref.pure_rho(ref.BELL_VECTORS["psi-minus"])
        return ref.werner_rho(self.source[1])

    def config(self) -> pr.ProtocolConfig:
        if self.source[0] == "singlet":
            source = qs.density_from_pure(qs.bell_state(qs.BellLabel.PSI_MINUS))
        else:
            source = qs.werner_state(self.source[1])
        eve = {
            "none": lambda: pr.NoEve(),
            "intercept-xz": lambda: pr.InterceptResend("xz"),
            "substitute": lambda: pr.SeparableSubstitution(qs.ProductEnsemble(self.eve[1])),
        }[self.eve[0]]()
        return pr.ProtocolConfig(
            protocol=pr.Protocol(self.protocol), rounds=self.rounds, source_state=source,
            eve=eve, test_fraction=TEST_FRACTION, seed=self.seed, abort_sigma=ABORT_SIGMA,
        )

    def reference(self) -> tuple[np.ndarray, np.ndarray]:
        source_t = ref.StateRef.of(self.source_rho()).t
        eve = self.eve
        if eve[0] == "intercept-xz":
            eve = ("intercept", (ref.EX, ref.EZ))
        return source_t, ref.eve_t(source_t, eve)


def make_runs(rng, bulk: bool) -> list[QkdInput]:
    """Both flavours against no Eve and intercept-resend xz on the singlet, E91
    on one noisy Werner source, and BBM92 against a separable substitute."""
    w = float(rng.uniform(0.85, 0.95))
    singlet, none, intercept = ("singlet",), ("none",), ("intercept-xz",)
    cases = [
        ("e91", singlet, none, 1_000_000, 100_000),
        ("e91", ("werner", w), none, 1_000_000, 25_000),
        ("e91", singlet, intercept, 1_000_000, 25_000),
        ("bbm92", singlet, none, 2_000_000, 100_000),
        ("bbm92", singlet, intercept, 1_000_000, 25_000),
        ("bbm92", singlet, ("substitute", weak_ensemble(rng)), 1_000_000, 25_000),
    ]
    return [QkdInput(protocol, bulk_rounds if bulk else rounds, source, eve,
                     int(rng.integers(0, 2**32)))
            for protocol, source, eve, bulk_rounds, rounds in cases]


def as_result(report) -> ref.QkdResult:
    return ref.QkdResult(
        statistic=report.statistic, stderr=report.stderr, aborted=report.aborted,
        qber=report.qber,
        qber_by_basis=dict(report.qber_by_basis) if report.qber_by_basis is not None else None,
        key_a=report.sifted_key_a, key_b=report.sifted_key_b,
        rounds_used=dict(report.rounds_used),
    )


class QkdJob:
    """Seeded run_protocol runs; one operation per run."""

    def __init__(self, runs: list[QkdInput]):
        self.runs = runs
        self.configs = [run.config() for run in runs]
        self.references = [run.reference() for run in runs]
        self.stats = JobStats()
        self.times = OpTimes(len(runs))
        self.key_bytes = 0
        self.key_bits = 0

    @property
    def rounds_per_s(self) -> float:
        rounds, seconds = self.times.total([run.rounds for run in self.runs])
        return rounds / seconds

    def run_round(self, recorder) -> None:
        for k, (run, cfg) in enumerate(zip(self.runs, self.configs)):
            self.stats.attempted += 1
            try:
                with _span(recorder, "op.qkd", protocol=run.protocol, rounds=run.rounds):
                    start = perf_counter()
                    report = pr.run_protocol(cfg)
                    self.times.record(k, perf_counter() - start)
            except Exception as exc:  # a program fault: count it and keep running
                self.stats.fail(f"run_protocol {run.protocol} {run.eve[0]}", exc)
                continue
            source_t, t_eff = self.references[k]
            self.key_bytes += sum(map(sys.getsizeof, (report.sifted_key_a, report.sifted_key_b)))
            self.key_bits += len(report.sifted_key_a)
            problems = ref.check_qkd(run.protocol, run.rounds, source_t, t_eff, as_result(report),
                                     ABORT_SIGMA, TEST_FRACTION)
            self.stats.problems += [f"{run.protocol} {run.source[0]} {run.eve[0]}: {p}"
                                    for p in problems]

    def peak_bytes_per_round(self, protocol: Optional[str] = None) -> float:
        """tracemalloc peak of the largest run (of one flavour) over its rounds, untimed."""
        candidates = [k for k, run in enumerate(self.runs)
                      if protocol is None or run.protocol == protocol]
        k = max(candidates, key=lambda k: self.runs[k].rounds)
        gc.collect()
        tracemalloc.start()
        try:
            pr.run_protocol(self.configs[k])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / self.runs[k].rounds


# ---------------------------------------------------------------- certification


def certify(state, ensemble, settings) -> dict:
    """The certification chain of one state, calling only public eprlab functions."""
    ekert = wt.ekert_verdict(state)
    bbm = wt.bbm_verdict(state)
    ks = [wt.ks_verdict(state, case) for case in wt.KSCase]
    fidelities = wt.bell_fidelities(state)
    distill = wt.distillable_witness(state)
    wt.fidelity_identities_check(state)
    quad = hv.quad_from_state(state, settings)
    panel = hv.chsh_panel(quad)
    model = hv.fine_local_model(quad)
    residuals = hv.separable_expansion_check(ensemble, settings) if ensemble is not None else None
    return {
        "S": ekert.statistic, "S_violated": ekert.violated,
        "T": bbm.statistic, "T_violated": bbm.violated,
        "U": [v.statistic for v in ks], "U_violated": [v.violated for v in ks],
        "fidelities": {
            "phi-plus": fidelities.phi_plus, "phi-minus": fidelities.phi_minus,
            "psi-plus": fidelities.psi_plus, "psi-minus": fidelities.psi_minus,
        },
        "distillable": distill.distillable,
        "distillable_state": distill.bell_label.value if distill.bell_label else None,
        "quad": list(quad.correlators() + quad.marginals()),
        "chsh": list(panel.values), "passes": panel.passes,
        "weights": list(model.weights) if model is not None else None,
        "residuals": (residuals.ekert, residuals.bbm) if residuals is not None else None,
        "matrix": state.matrix,
    }


class CertifyJob:
    """The certification chain over a population, plus all five separable bounds.

    One operation per state and one per functional.
    """

    def __init__(self, population: list[StateInput]):
        self.population = population
        self.settings = wt.default_ekert_settings()
        self.references = [ref.StateRef.of(s.rho()) for s in population]
        self.feasible = [ref.lp_feasible(r.quad) for r in self.references]
        self.stats = JobStats()
        self.state_times = OpTimes(len(population))
        self.bound_times = OpTimes(len(FUNCTIONALS))

    @property
    def states_per_s(self) -> float:
        states, seconds = self.state_times.total()
        return states / seconds

    @property
    def bound_s(self) -> float:
        return self.bound_times.total()[1]

    def run_round(self, recorder) -> None:
        for k, (item, reference) in enumerate(zip(self.population, self.references)):
            self.stats.attempted += 1
            try:
                with _span(recorder, "op.state", kind=item.kind):
                    start = perf_counter()
                    with _span(recorder, "qstate.state_build"):
                        state, ensemble = item.build()
                    got = certify(state, ensemble, self.settings)
                    self.state_times.record(k, perf_counter() - start)
            except Exception as exc:  # a program fault: count it and keep running
                self.stats.fail(f"certify {item.kind} state {k}", exc)
                continue
            problems = self.check_state(reference, self.feasible[k], got)
            self.stats.problems += [f"{item.kind} state {k}: {p}" for p in problems]

        for k, name in enumerate(FUNCTIONALS):
            self.stats.attempted += 1
            try:
                with _span(recorder, "op.bound", functional=name):
                    start = perf_counter()
                    report = hv.separable_bound(hv.SeparableFunctional(name))
                    self.bound_times.record(k, perf_counter() - start)
            except Exception as exc:  # a program fault: count it and keep running
                self.stats.fail(f"separable_bound {name}", exc)
                continue
            self.stats.problems += ref.check_bound(
                name, report.supremum, report.argmax_bloch_a, report.argmax_bloch_b,
                report.evaluations)
            if abs(report.analytic_bound - ref.bound_reference(name)) > 1e-12:
                self.stats.problems.append(f"{name}: analytic bound {report.analytic_bound!r}")

    @staticmethod
    def check_state(reference: ref.StateRef, feasible: bool, got: dict) -> list[str]:
        problems = []
        deviation = float(np.abs(got["matrix"] - reference.rho).max())
        if deviation > 1e-12:
            problems.append(f"density matrix deviates by {deviation:.3e}")
        problems += ref.check_witnesses(reference, got)
        problems += ref.check_local_model(reference.quad, feasible, got)
        if got["residuals"] is not None and max(got["residuals"]) > 1e-10:
            problems.append(f"expansion residuals {got['residuals']}")
        return problems


# ---------------------------------------------------------------- CLI calls


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    check: Optional[Callable[[int, dict, str], list]]  # None: any non-failing outcome is fine

    @property
    def fmt(self) -> str:
        argv = list(self.argv)
        return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def invoke(main, argv) -> tuple[Optional[BaseException], object, str, str]:
    """Call main(argv) in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    raised, code = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a program fault: the caller counts it as failed
        raised = exc
    return raised, code, out.getvalue(), err.getvalue()


def _expect_ok(check):
    def wrapped(code, flat, stderr):
        if code != 0:
            return [f"exit code {code}, stderr {stderr.strip()[:200]!r}"]
        try:
            return check(flat)
        except (KeyError, ValueError, TypeError) as exc:
            return [f"report misses or mangles a field: {type(exc).__name__}: {exc}"]
    return wrapped


def expect_rejected(code, flat, stderr) -> list:
    if code != 2 or not stderr.startswith("error:"):
        return [f"expected exit 2 with an error message, got {code} and {stderr[:120]!r}"]
    return []


_BELL_KEYS = {"phiPlus": "phi-plus", "phiMinus": "phi-minus",
              "psiPlus": "psi-plus", "psiMinus": "psi-minus"}
_CASES = ("caseI", "caseII", "caseIII")


def witness_check(reference: ref.StateRef):
    def check(flat):
        f, b = ref.as_float, ref.as_bool
        got = {
            "S": f(flat["S"]), "S_violated": b(flat["ekertViolated"]),
            "T": f(flat["T"]), "T_violated": b(flat["bbmViolated"]),
            "U": [f(flat[f"U{k}"]) for k in (1, 2, 3)],
            "U_violated": [b(flat[f"ksViolated.{c}"]) for c in _CASES],
            "fidelities": {name: f(flat[f"fidelities.{key}"]) for key, name in _BELL_KEYS.items()},
            "distillable": b(flat["distillable"]),
            "distillable_state": _BELL_KEYS.get(flat["distillableBellState"]),
        }
        return ref.check_witnesses(reference, got)
    return _expect_ok(check)


def ks_check(reference: Optional[ref.StateRef], assignments: bool):
    def check(flat):
        f, b = ref.as_float, ref.as_bool
        problems = []
        if f(flat["bound"]) != 2.0 or int(flat["assignmentCount"]) != 64:
            problems.append(f"bound {flat['bound']} over {flat['assignmentCount']} assignments")
        for c in _CASES:
            if f(flat[f"maxima.{c}"]) != 2.0:
                problems.append(f"{c} maximum {flat[f'maxima.{c}']}")
        if reference is not None:
            for k, c in enumerate(_CASES):
                if abs(f(flat[f"values.{c}"]) - reference.u[k]) > ref.SLACK:
                    problems.append(f"{c} value {flat[f'values.{c}']} vs {reference.u[k]!r}")
                if b(flat[f"violated.{c}"]) != ref.violated(reference.u[k], ref.KS_BOUND):
                    problems.append(f"{c} verdict {flat[f'violated.{c}']}")
        if assignments != ("assignments.63.singles.ax" in flat):
            problems.append("assignment list present where not asked for, or missing")
        return problems
    return _expect_ok(check)


def fine_check(quad: np.ndarray, feasible: bool):
    def check(flat):
        f = ref.as_float
        names = [f"quad.{c}" for c in ("c11", "c13", "c31", "c33")] + \
            [f"marginals.{m}" for m in ("a1", "a3", "b1", "b3")]
        weights = None
        if "weights.0" in flat:
            weights = [f(flat[f"weights.{k}"]) for k in range(16)]
        got = {
            "quad": [f(flat[n]) for n in names],
            "chsh": [f(flat[f"chshValues.{k}"]) for k in range(8)],
            "passes": ref.as_bool(flat["chshPasses"]),
            "weights": weights,
        }
        problems = ref.check_local_model(quad, feasible, got)
        if ref.as_bool(flat["feasible"]) != (weights is not None):
            problems.append("feasible flag disagrees with the weights")
        return problems
    return _expect_ok(check)


def bound_check(name: str):
    def check(flat):
        f = ref.as_float
        return ref.check_bound(
            name, f(flat["supremum"]), [f(flat[f"argmaxBlochA.{k}"]) for k in range(3)],
            [f(flat[f"argmaxBlochB.{k}"]) for k in range(3)], int(flat["evaluations"]))
    return _expect_ok(check)


def qkd_check(protocol: str, rounds: int, source_t, t_eff):
    def check(flat):
        f, b = ref.as_float, ref.as_bool
        by_basis = None
        if protocol == "bbm92":
            by_basis = {ax: f(flat[f"qberByBasis.{ax}"]) for ax in ("x", "z")}
        used = {key.split(".", 1)[1]: int(v) for key, v in flat.items()
                if key.startswith("roundsUsed.")}
        got = ref.QkdResult(
            statistic=f(flat["statistic"]), stderr=f(flat["stderr"]),
            aborted=b(flat["aborted"]), qber=f(flat["qber"]), qber_by_basis=by_basis,
            key_a=str(flat["siftedKeyA"]), key_b=str(flat["siftedKeyB"]), rounds_used=used)
        problems = ref.check_qkd(protocol, rounds, source_t, t_eff, got, ABORT_SIGMA, TEST_FRACTION)
        if int(flat["siftedBits"]) != len(got.key_a):
            problems.append(f"siftedBits {flat['siftedBits']} vs key length {len(got.key_a)}")
        return problems
    return _expect_ok(check)


def bell_ref(name: str) -> ref.StateRef:
    return ref.StateRef.of(ref.pure_rho(ref.BELL_VECTORS[name]))


def _num(x: float) -> str:
    return repr(float(x))


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


def _ensemble_json(terms) -> list:
    return [{"weight": w, "blochA": a, "blochB": b} for w, a, b in terms]


def _qkd(protocol, rounds, seed, fmt="json", source=("singlet",), eve=("none",), eve_arg="none"):
    run = QkdInput(protocol, rounds, source, eve, seed)
    source_arg = "psi-minus" if source[0] == "singlet" else f"werner:{_num(source[1])}"
    argv = ("qkd", "--protocol", protocol, "--rounds", str(rounds), "--seed", str(seed),
            "--source", source_arg, "--eve", eve_arg, "--format", fmt)
    return Invocation(argv, qkd_check(protocol, rounds, *run.reference()))


def make_mix(rng, workdir: str, full: bool) -> list[Invocation]:
    """The CLI mix: all five subcommands and three formats. The full mix adds
    file states, ensembles, more qkd runs, two rejected inputs and the two
    invocations that fail today because of program faults."""
    seeds = [int(s) for s in rng.integers(0, 2**32, size=6)]
    w1 = float(rng.uniform(0.05, 0.95))
    ph1 = float(rng.uniform(0.0, 2 * math.pi))
    local_weights = rng.dirichlet(np.ones(16))
    local_quad = ref.strategy_sum(local_weights)
    singlet = bell_ref("psi-minus")
    mix = [
        Invocation(("witness", "--state", "psi-minus"), witness_check(singlet)),
        Invocation(("witness", "--state", f"werner:{_num(w1)}", "--format", "csv"),
                   witness_check(ref.StateRef.of(ref.werner_rho(w1)))),
        Invocation(("ks", "--state", f"phase:{_num(ph1)}", "--format", "plain"),
                   ks_check(ref.StateRef.of(ref.phase_rho(ph1)), False)),
        Invocation(("fine", "--marginals", *map(_num, local_quad[4:]), "--",
                    *map(_num, local_quad[:4])), fine_check(local_quad, True)),
        Invocation(("bound", "bbm-t"), bound_check("bbm-t")),
        _qkd("e91", 10_000, seeds[0]),
        _qkd("bbm92", 10_000, seeds[1], "plain", eve=("intercept-xz",), eve_arg="intercept-xz"),
    ]
    if not full:
        return mix

    w2, w3 = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.85, 0.95))
    ph2 = float(rng.uniform(0.0, 2 * math.pi))
    matrix = random_mixed(rng)
    matrix_file = _write_json(os.path.join(workdir, "matrix.json"),
                              [[[z.real, z.imag] for z in row] for row in matrix.tolist()])
    terms = random_ensemble(rng)
    ensemble_file = _write_json(os.path.join(workdir, "ensemble.json"), _ensemble_json(terms))
    eve_terms = weak_ensemble(rng)
    eve_file = _write_json(os.path.join(workdir, "eve.json"), _ensemble_json(eve_terms))
    object_file = _write_json(os.path.join(workdir, "object.json"), {"state": "psi-minus"})
    direction = np.asarray(random_bloch(rng))
    direction /= np.linalg.norm(direction)
    matrix_ref = ref.StateRef.of(matrix)
    phase_quad = ref.StateRef.of(ref.phase_rho(ph2)).quad
    mix += [
        Invocation(("witness", "--state", "phi-plus", "--format", "plain"),
                   witness_check(bell_ref("phi-plus"))),
        Invocation(("witness", "--state", f"phase:{_num(ph1)}"),
                   witness_check(ref.StateRef.of(ref.phase_rho(ph1)))),
        Invocation(("witness", "--state", "werner", "--w", _num(w2), "--format", "plain"),
                   witness_check(ref.StateRef.of(ref.werner_rho(w2)))),
        Invocation(("witness", "--state", "phase", "--phi", _num(ph2), "--format", "csv"),
                   witness_check(ref.StateRef.of(ref.phase_rho(ph2)))),
        Invocation(("witness", "--state", matrix_file), witness_check(matrix_ref)),
        Invocation(("witness", "--state", ensemble_file, "--format", "plain"),
                   witness_check(ref.StateRef.of(ref.ensemble_rho(terms)))),
        Invocation(("witness", "--state", "mixed", "--format", "csv"),
                   witness_check(ref.StateRef.of(np.eye(4) / 4.0))),
        Invocation(("ks",), ks_check(None, False)),
        Invocation(("ks", "--state", "psi-plus", "--format", "plain"),
                   ks_check(bell_ref("psi-plus"), False)),
        Invocation(("ks", "--state", matrix_file), ks_check(matrix_ref, False)),
        Invocation(("ks", "--assignments", "--format", "plain"), ks_check(None, True)),
        Invocation(("fine", "--", *map(_num, singlet.quad[:4])), fine_check(singlet.quad, False)),
        Invocation(("fine", "--format", "plain", "--marginals", *map(_num, phase_quad[4:]),
                    "--", *map(_num, phase_quad[:4])),
                   fine_check(phase_quad, ref.lp_feasible(phase_quad))),
        Invocation(("bound", "ekert-s"), bound_check("ekert-s")),
        Invocation(("bound", "ks-ii", "--format", "csv"), bound_check("ks-ii")),
        _qkd("e91", 20_000, seeds[2]),
        _qkd("bbm92", 20_000, seeds[3], eve=("substitute", eve_terms),
             eve_arg=f"substitute:{eve_file}"),
        _qkd("e91", 10_000, seeds[4], source=("werner", w3)),
        Invocation(("qkd", "--protocol", "e91", "--rounds", "10000", "--seed", str(seeds[5]),
                    "--eve", "intercept:" + ",".join(map(_num, direction)), "--format", "plain"),
                   qkd_check("e91", 10_000, singlet.t,
                             ref.eve_t(singlet.t, ("intercept", (direction,))))),
        Invocation(("witness", "--state", "werner:1.5"), expect_rejected),
        Invocation(("qkd", "--protocol", "bbm92", "--rounds", "50"), expect_rejected),
        # Known faults, seed-independent: a JSON object as a state file escapes as
        # TypeError, and --abort-sigma inf prints the non-JSON constant Infinity.
        Invocation(("witness", "--state", object_file), None),
        Invocation(("qkd", "--protocol", "e91", "--rounds", "2000", "--abort-sigma", "inf"), None),
    ]
    return mix


class CliJob:
    """In-process eprlab.cli.main calls; one operation per call."""

    def __init__(self, mix: list[Invocation]):
        self.mix = mix
        self.stats = JobStats()
        self.times = OpTimes(len(mix))
        self.output_bytes = 0
        self.calls = 0

    @property
    def calls_per_s(self) -> float:
        calls, seconds = self.times.total()
        return calls / seconds

    def run_round(self, recorder) -> None:
        for k, invocation in enumerate(self.mix):
            self.stats.attempted += 1
            with _span(recorder, "op.cli", subcommand=invocation.argv[0]):
                start = perf_counter()
                raised, code, stdout, stderr = invoke(eprlab.cli.main, invocation.argv)
                self.times.record(k, perf_counter() - start)
            self.calls += 1
            self.output_bytes += len(stdout.encode("utf-8"))
            why = ref.invocation_failed(raised, code, stdout, invocation.fmt)
            if why is not None:
                self.stats.failed += 1
                self.stats.failures.append(f"{' '.join(invocation.argv)}: {why}")
                continue
            if invocation.check is not None:
                flat = ref.parse_output(stdout, invocation.fmt) if code == 0 else {}
                self.stats.problems += [f"{' '.join(invocation.argv)}: {p}"
                                        for p in invocation.check(code, flat, stderr)]
