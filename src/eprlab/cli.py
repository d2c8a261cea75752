"""Command-line interface: witness reports, classical-model checks, QKD runs.

Subcommands
-----------
- witness: all witness statistics, fidelities, and verdicts for a state.
- ks: the value-assignment enumeration and its bound, optionally
  evaluated on a state.
- fine: CHSH panel and local-model construction for a correlator quad.
- bound: exact product-state supremum of one witness statistic, the
  offset plus the top singular value of its correlation-matrix form.
- qkd: one simulated key-distribution run.

States are named (psi-minus, psi-plus, phi-plus, phi-minus, mixed),
parametric (werner:W, phase:PHI), or read from a JSON file holding
either a 4x4 matrix of [re, im] pairs or a product ensemble
[{"weight": w, "blochA": [...], "blochB": [...]}, ...].

Exit codes: 0 on success, 2 on invalid input (NaN and infinite numbers
included), 3 on an internal consistency failure.  Output is deterministic
for a fixed command line, and JSON output never carries NaN or Infinity.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .hidden_variables import (
    STRATEGIES,
    CorrelatorQuad,
    SeparableFunctional,
    chsh_panel,
    enumerate_ks_assignments,
    fine_local_model,
    ks_classical_bound,
    ks_functional_value,
    separable_bound,
)
from .protocol import (
    InterceptResend,
    NoEve,
    Protocol,
    ProtocolConfig,
    SeparableSubstitution,
    run_protocol,
)
from .qstate import (
    BellLabel,
    ProductEnsemble,
    TwoQubitState,
    bell_state,
    density_from_pure,
    phase_epr_state,
    product_mixture,
    werner_state,
)
from .witnesses import (
    KS_BOUND,
    KSCase,
    bbm_verdict,
    bell_fidelities,
    distillable_witness,
    ekert_verdict,
    ks_functional,
    ks_verdict,
)

NAMED_STATES = ("psi-minus", "psi-plus", "phi-plus", "phi-minus", "mixed")

_BELL_JSON_NAMES = {
    BellLabel.PHI_PLUS: "phiPlus",
    BellLabel.PHI_MINUS: "phiMinus",
    BellLabel.PSI_PLUS: "psiPlus",
    BellLabel.PSI_MINUS: "psiMinus",
}

_CASE_JSON_NAMES = {KSCase.CASE_I: "caseI", KSCase.CASE_II: "caseII", KSCase.CASE_III: "caseIII"}


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"state file {path} is not valid JSON: {exc}") from exc


def _ensemble_from_json(data: Any, path: str) -> ProductEnsemble:
    terms = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or set(entry) != {"weight", "blochA", "blochB"}:
            raise ValueError(
                f"ensemble entry {k} in {path} must have exactly the keys "
                "weight, blochA, blochB"
            )
        terms.append(
            (
                _numbers(entry["weight"], (), f"ensemble entry {k} weight in {path}"),
                _numbers(entry["blochA"], (3,), f"ensemble entry {k} blochA in {path}"),
                _numbers(entry["blochB"], (3,), f"ensemble entry {k} blochB in {path}"),
            )
        )
    return ProductEnsemble(terms)


def _numbers(data: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """JSON numbers of the given shape as a finite float array; anything else is invalid."""
    try:
        values = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must hold only numbers: {exc}") from exc
    if values.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{what} holds a NaN or infinite number")
    return values


def _matrix_from_json(data: Any, path: str, tolerance: float) -> TwoQubitState:
    m = _numbers(data, (4, 4, 2), f"state file {path} (a 4x4 matrix of [re, im] pairs)")
    matrix = m[..., 0] + 1.0j * m[..., 1]
    herm_dev = float(np.abs(matrix - matrix.conj().T).max())
    if not herm_dev <= tolerance:
        raise ValueError(
            f"state file {path} violates Hermiticity (deviation {herm_dev:.3e} "
            f"> tolerance {tolerance:.3e})"
        )
    matrix = 0.5 * (matrix + matrix.conj().T)
    trace = float(matrix.trace().real)
    if not abs(trace - 1.0) <= tolerance:
        raise ValueError(
            f"state file {path} violates unit trace (trace {trace!r}, "
            f"tolerance {tolerance:.3e})"
        )
    matrix = matrix / trace
    eigmin = float(np.linalg.eigvalsh(matrix).min())
    if not eigmin >= -tolerance:
        raise ValueError(
            f"state file {path} violates positivity (eigenvalue {eigmin:.3e})"
        )
    if eigmin < 0.0:
        # Shift tiny negative eigenvalues inside tolerance back to the cone.
        eigvals, eigvecs = np.linalg.eigh(matrix)
        eigvals = np.clip(eigvals, 0.0, None)
        matrix = (eigvecs * eigvals) @ eigvecs.conj().T
        matrix = matrix / matrix.trace().real
    return TwoQubitState(matrix)


def resolve_state(
    descriptor: str,
    phi: Optional[float] = None,
    w: Optional[float] = None,
    tolerance: float = 1e-10,
) -> tuple[TwoQubitState, str]:
    """Turn a state descriptor into a density matrix and a display label."""
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    name = descriptor.strip()
    base, _, argument = name.partition(":")
    for flag, value, owner in (("--w", w, "werner"), ("--phi", phi, "phase")):
        if value is not None and base != owner:
            raise ValueError(f"{flag} parameterizes only {owner} states, not {name!r}")
    if base in NAMED_STATES:
        if argument:
            raise ValueError(f"named state {base} takes no parameter")
        if base == "mixed":
            return TwoQubitState(np.eye(4, dtype=complex) / 4.0), base
        return density_from_pure(bell_state(BellLabel(base))), base
    if base == "werner":
        if argument and w is not None:
            raise ValueError("give the Werner parameter once, not twice")
        value = float(argument) if argument else w
        if value is None:
            raise ValueError("werner state needs a parameter, e.g. werner:0.4 or --w 0.4")
        return werner_state(value), f"werner:{value:g}"
    if base == "phase":
        if argument and phi is not None:
            raise ValueError("give the phase once, not twice")
        value = float(argument) if argument else phi
        if value is None:
            raise ValueError("phase state needs a parameter, e.g. phase:0.7854 or --phi 0.7854")
        return density_from_pure(phase_epr_state(value)), f"phase:{value:g}"
    data = _load_json_file(name)
    if isinstance(data, list) and data and isinstance(data[0], dict):
        return product_mixture(_ensemble_from_json(data, name)), f"ensemble:{name}"
    return _matrix_from_json(data, name, tolerance), f"file:{name}"


def _flatten(doc: Any, prefix: str = "") -> list[tuple[str, Any]]:
    items: list[tuple[str, Any]] = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            items.extend(_flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        for index, value in enumerate(doc):
            items.extend(_flatten(value, f"{prefix}{index}."))
    else:
        items.append((prefix[:-1], doc))
    return items


def render(doc: dict[str, Any], fmt: str, flat_report: bool = True) -> str:
    """Serialize a report dict deterministically in the requested format."""
    if fmt == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    flat = _flatten(doc)
    if fmt == "plain":
        return "".join(f"{key} = {value}\n" for key, value in flat)
    if fmt == "csv":
        if not flat_report:
            raise ValueError("this report is structured; use json or plain")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([key for key, _ in flat])
        writer.writerow([value for _, value in flat])
        return buffer.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def cmd_witness(args: argparse.Namespace) -> dict[str, Any]:
    state, label = resolve_state(args.state, args.phi, args.w, args.tolerance)
    ekert = ekert_verdict(state)
    bbm = bbm_verdict(state)
    fidelities = bell_fidelities(state)
    distill = distillable_witness(state)
    doc: dict[str, Any] = {
        "state": label,
        "S": ekert.statistic,
        "ekertBound": ekert.bound,
        "ekertViolated": ekert.violated,
        "ekertMargin": ekert.margin,
        "T": bbm.statistic,
        "bbmBound": bbm.bound,
        "bbmViolated": bbm.violated,
        "bbmMargin": bbm.margin,
    }
    for case, short in ((KSCase.CASE_I, "U1"), (KSCase.CASE_II, "U2"), (KSCase.CASE_III, "U3")):
        doc[short] = ks_functional(state, case)
    doc["ksBound"] = KS_BOUND
    doc["ksViolated"] = {
        _CASE_JSON_NAMES[case]: ks_verdict(state, case).violated for case in KSCase
    }
    doc["fidelities"] = {
        _BELL_JSON_NAMES[lbl]: value for lbl, value in fidelities.by_label().items()
    }
    doc["distillable"] = distill.distillable
    doc["distillableBellState"] = (
        _BELL_JSON_NAMES[distill.bell_label] if distill.bell_label is not None else None
    )
    doc["maxFidelity"] = distill.fidelity
    return doc


def cmd_ks(args: argparse.Namespace) -> dict[str, Any]:
    assignments = enumerate_ks_assignments()
    doc: dict[str, Any] = {
        "bound": KS_BOUND,
        "assignmentCount": len(assignments),
        "maxima": {
            _CASE_JSON_NAMES[case]: ks_classical_bound(case) for case in KSCase
        },
        "valueSets": {
            _CASE_JSON_NAMES[case]: sorted({ks_functional_value(a, case) for a in assignments})
            for case in KSCase
        },
    }
    if args.state is None and (args.phi, args.w) != (None, None):
        raise ValueError("--phi and --w parameterize a state; give one with --state")
    if args.state is not None:
        state, label = resolve_state(args.state, args.phi, args.w, args.tolerance)
        doc["state"] = label
        doc["values"] = {_CASE_JSON_NAMES[c]: ks_functional(state, c) for c in KSCase}
        doc["violated"] = {
            _CASE_JSON_NAMES[c]: ks_verdict(state, c).violated for c in KSCase
        }
    if args.assignments:
        doc["assignments"] = [
            {"singles": dict(a.singles), "products": dict(a.products)} for a in assignments
        ]
    return doc


def cmd_fine(args: argparse.Namespace) -> dict[str, Any]:
    marginals = args.marginals if args.marginals is not None else [0.0, 0.0, 0.0, 0.0]
    quad = CorrelatorQuad(
        c11=args.c11,
        c13=args.c13,
        c31=args.c31,
        c33=args.c33,
        m_a1=marginals[0],
        m_a3=marginals[1],
        m_b1=marginals[2],
        m_b3=marginals[3],
    )
    panel = chsh_panel(quad)
    model = fine_local_model(quad)
    return {
        "quad": {"c11": quad.c11, "c13": quad.c13, "c31": quad.c31, "c33": quad.c33},
        "marginals": {
            "a1": quad.m_a1, "a3": quad.m_a3, "b1": quad.m_b1, "b3": quad.m_b3
        },
        "chshValues": list(panel.values),
        "chshMax": panel.max_value,
        "chshPasses": panel.passes,
        "minJointProbability": panel.min_joint_probability,
        "finePasses": panel.fine_passes,
        "feasible": model is not None,
        "weights": list(model.weights) if model is not None else None,
        "strategyOrder": [",".join(f"{v:+d}" for v in s) for s in STRATEGIES],
    }


def cmd_bound(args: argparse.Namespace) -> dict[str, Any]:
    functional = SeparableFunctional(args.functional)
    report = separable_bound(functional)
    return {
        "functional": functional.value,
        "supremum": report.supremum,
        "analyticBound": report.analytic_bound,
        "gap": report.analytic_bound - report.supremum,
        "evaluations": report.evaluations,
        "argmaxBlochA": list(report.argmax_bloch_a),
        "argmaxBlochB": list(report.argmax_bloch_b),
    }


def _parse_eve(descriptor: str):
    name, _, argument = descriptor.partition(":")
    if name == "none":
        return NoEve()
    if name in ("intercept-x", "intercept-z", "intercept-xz"):
        return InterceptResend(basis=name.split("-", 1)[1])
    if name == "intercept":
        if not argument:
            raise ValueError("intercept takes a direction, e.g. intercept:0.6,0,0.8")
        parts = [float(x) for x in argument.split(",")]
        return InterceptResend(basis=tuple(parts))
    if name == "substitute":
        if not argument:
            raise ValueError("substitute takes an ensemble file, e.g. substitute:eve.json")
        data = _load_json_file(argument)
        if not isinstance(data, list):
            raise ValueError(f"ensemble file {argument} must hold a JSON list")
        return SeparableSubstitution(_ensemble_from_json(data, argument))
    raise ValueError(
        f"unknown eavesdropper {descriptor!r}; expected none, intercept-x, intercept-z, "
        "intercept-xz, intercept:DX,DY,DZ, or substitute:FILE"
    )


def cmd_qkd(args: argparse.Namespace) -> dict[str, Any]:
    source, source_label = resolve_state(args.source, args.phi, args.w, args.tolerance)
    eve = _parse_eve(args.eve)
    cfg = ProtocolConfig(
        protocol=Protocol(args.protocol),
        rounds=args.rounds,
        source_state=source,
        eve=eve,
        test_fraction=args.test_fraction,
        seed=args.seed,
        abort_sigma=args.abort_sigma,
    )
    try:
        report = run_protocol(cfg)
    except MemoryError:
        raise ValueError(f"the key of a {cfg.rounds}-round run does not fit in memory; "
                         "lower --rounds") from None
    return {
        "protocol": report.protocol.value,
        "rounds": cfg.rounds,
        "seed": cfg.seed,
        "testFraction": cfg.test_fraction,
        "abortSigma": cfg.abort_sigma,
        "source": source_label,
        "eve": args.eve,
        "statistic": report.statistic,
        "stderr": report.stderr,
        "bound": report.bound,
        "aborted": report.aborted,
        "qber": report.qber,
        "qberByBasis": dict(report.qber_by_basis) if report.qber_by_basis is not None else None,
        "siftedBits": len(report.sifted_key_a),
        "siftedKeyA": report.sifted_key_a,
        "siftedKeyB": report.sifted_key_b,
        "roundsUsed": dict(report.rounds_used),
    }


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "plain"), default="json",
        help="output format (default: json)",
    )
    common.add_argument(
        "--tolerance", type=float, default=1e-10,
        help="acceptance tolerance for states loaded from files (default: 1e-10)",
    )

    state_opts = argparse.ArgumentParser(add_help=False)
    state_opts.add_argument("--phi", type=float, default=None, help="phase for phase states")
    state_opts.add_argument("--w", type=float, default=None, help="Werner mixing parameter")

    parser = argparse.ArgumentParser(
        prog="eprlab",
        description="Witness statistics, classical models, and QKD runs for two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_witness = sub.add_parser(
        "witness", parents=[common, state_opts],
        help="witness statistics and verdicts for a state",
    )
    p_witness.add_argument("--state", required=True, help="state descriptor or file")
    p_witness.set_defaults(flat_report=True)

    p_ks = sub.add_parser(
        "ks", parents=[common, state_opts],
        help="value-assignment enumeration, bound, and optional state evaluation",
    )
    p_ks.add_argument("--state", default=None, help="optional state descriptor or file")
    p_ks.add_argument(
        "--assignments", action="store_true", help="list all 64 assignments in the report"
    )
    p_ks.set_defaults(flat_report=False)

    p_fine = sub.add_parser(
        "fine", parents=[common],
        help="CHSH panel and local-model construction for a correlator quad",
    )
    for name in ("c11", "c13", "c31", "c33"):
        p_fine.add_argument(name, type=float, help=f"correlator {name}")
    p_fine.add_argument(
        "--marginals", type=float, nargs=4, default=None,
        metavar=("A1", "A3", "B1", "B3"), help="single-party expectations (default: zero)",
    )
    p_fine.set_defaults(flat_report=False)

    p_bound = sub.add_parser(
        "bound", parents=[common],
        help="exact product-state supremum of a witness statistic",
    )
    p_bound.add_argument(
        "functional", choices=[f.value for f in SeparableFunctional],
        help="which statistic to maximize",
    )
    p_bound.set_defaults(flat_report=True)

    p_qkd = sub.add_parser(
        "qkd", parents=[common, state_opts], help="simulate one key-distribution run"
    )
    p_qkd.add_argument("--protocol", choices=[p.value for p in Protocol], required=True)
    p_qkd.add_argument("--rounds", type=int, default=20_000)
    p_qkd.add_argument("--source", default="psi-minus", help="source state descriptor")
    p_qkd.add_argument(
        "--eve", default="none",
        help="none, intercept-x, intercept-z, intercept-xz, intercept:DX,DY,DZ, "
        "or substitute:FILE",
    )
    p_qkd.add_argument("--test-fraction", type=float, default=0.25)
    p_qkd.add_argument("--seed", type=int, default=0)
    p_qkd.add_argument("--abort-sigma", type=float, default=3.0)
    p_qkd.set_defaults(flat_report=False)

    return parser


@functools.lru_cache(maxsize=1)
def _parser_from(factory: Callable[[], argparse.ArgumentParser]) -> argparse.ArgumentParser:
    """The parser, built on first use; keyed by the factory, so a replaced build_parser counts."""
    return factory()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser_from(build_parser).parse_args(argv)
    try:
        # Looked up per call, not stored in the cached parser, so a replaced handler counts.
        doc = globals()[f"cmd_{args.command}"](args)
        sys.stdout.write(render(doc, args.format, args.flat_report))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
