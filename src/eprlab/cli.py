"""Command-line interface: witness reports, classical-model checks, QKD runs.

Subcommands
-----------
- witness: all witness statistics, fidelities, and verdicts for a state;
  distillability is the KS verdict (4 f against 2) of the same Bell row.
- ks: the value-assignment enumeration and its bound, optionally
  evaluated on a state.
- fine: CHSH panel and local-model construction for a correlator quad.
- bound: exact product-state supremum of one witness statistic, the
  offset plus the top singular value of its correlation-matrix form.
- qkd: one simulated key-distribution run.

A state is named, parametric, or read from a JSON file holding either a
4x4 matrix of [re, im] pairs or a product ensemble
[{"weight": w, "blochA": [...], "blochB": [...]}, ...]; --help lists the
named and parametric forms.  File states are checked against --tolerance,
which only witness, ks and qkd take.  Every subcommand prints json or
plain; the flat reports of witness and bound may also be csv.

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
import re
import sys
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .hidden_variables import (
    _ASSIGNMENT_VALUES,
    _fine_model,
    PRODUCT_KEYS,
    SINGLE_KEYS,
    STRATEGIES,
    CorrelatorQuad,
    SeparableFunctional,
    chsh_panel,
    enumerate_ks_assignments,
    ks_classical_bound,
    separable_bound,
)
from .protocol import (
    _INTERCEPT_AXES,
    InterceptResend,
    NoEve,
    Protocol,
    ProtocolConfig,
    SeparableSubstitution,
    run_protocol,
)
from .qstate import (
    _state_from_bloch,
    ATOL_PSD,
    BELL_CORRELATORS,
    BellLabel,
    ProductEnsemble,
    TwoQubitState,
    density_from_pure,
    phase_epr_state,
    product_mixture,
    werner_state,
)
from .witnesses import (
    KS_BOUND,
    KSCase,
    bbm_verdict,
    distillable_witness,
    ekert_verdict,
    ks_verdict,
)

NAMED_STATES = (*(label.value for label in BellLabel), "mixed")


def _json_name(label: BellLabel) -> str:
    """A Bell state's JSON name: phi-plus -> phiPlus."""
    head, tail = label.value.split("-")
    return head + tail.capitalize()


def _by_case(value: Callable[[KSCase], Any]) -> dict[str, Any]:
    """One JSON object with an entry per value-assignment case: CASE_II -> caseII."""
    return {"case" + case.name.partition("_")[2]: value(case) for case in KSCase}


def _load_json_file(path: str, role: str) -> Any:
    """The JSON in a file; role ("state file", "ensemble file") names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {role} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{role} {path} is not valid JSON: {exc}") from exc


_ENSEMBLE_SHAPES = {"weight": (), "blochA": (3,), "blochB": (3,)}


def _ensemble_from_json(data: Any, path: str) -> ProductEnsemble:
    terms = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or entry.keys() != _ENSEMBLE_SHAPES.keys():
            raise ValueError(f"ensemble entry {k} in {path} must have exactly the keys "
                             f"{', '.join(_ENSEMBLE_SHAPES)}")
        terms.append(tuple(_numbers(entry[key], shape, f"ensemble entry {k} {key} in {path}")
                           for key, shape in _ENSEMBLE_SHAPES.items()))
    return ProductEnsemble(terms)


def _numbers(data: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """JSON numbers of the given shape as a finite float array; anything else is invalid."""
    try:
        cells = np.asarray(data, dtype=object)
        for v in cells.flat:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError(f"{json.dumps(v)} is not a number")
        values = cells.astype(float)
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
    if not trace > 0.0:
        raise ValueError(f"state file {path} has trace {trace!r}; a state's trace must be positive")
    if not abs(trace - 1.0) <= tolerance:
        raise ValueError(
            f"state file {path} violates unit trace (trace {trace!r}, "
            f"tolerance {tolerance:.3e})"
        )
    least = float(np.linalg.eigvalsh(matrix).min())
    if not least >= -tolerance:
        raise ValueError(f"state file {path} violates positivity (eigenvalue {least:.3e})")
    matrix = matrix / trace
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if eigvals[0] < 0.0:
        # Shift tiny negative eigenvalues inside tolerance back to the cone.
        matrix = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.conj().T
        matrix = matrix / matrix.trace().real
    return TwoQubitState(matrix)


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")


# Parametric states: name -> (flag, builder, what the parameter is called, an example value).
_PARAMETRIC_STATES = {
    "werner": ("--w", werner_state, "the Werner parameter", "0.4"),
    "phase": ("--phi", lambda phi: density_from_pure(phase_epr_state(phi)), "the phase", "0.7854"),
}


def resolve_state(
    descriptor: str,
    phi: Optional[float] = None,
    w: Optional[float] = None,
    # TwoQubitState's floor, checked as it checks it, on the matrix as written: divided by a
    # trace just under 1, a matrix it accepts at the floor would read below the floor.
    tolerance: float = ATOL_PSD,
) -> tuple[TwoQubitState, str]:
    """Turn a state descriptor into a density matrix and a display label."""
    _check_tolerance(tolerance)
    name = descriptor.strip()
    base, colon, argument = name.partition(":")
    given = {owner: {"--phi": phi, "--w": w}[flag]
             for owner, (flag, *_) in _PARAMETRIC_STATES.items()}
    for owner, (flag, _, _, _) in _PARAMETRIC_STATES.items():
        if given[owner] is not None and base != owner:
            raise ValueError(f"{flag} parameterizes only {owner} states, not {name!r}")
    # 'psi-minus:' and 'werner: --w 0.4' are errors; a bare 'werner:' needs a parameter below.
    if colon and not argument and (base in NAMED_STATES or given.get(base) is not None):
        raise ValueError(f"state {name!r} has an empty parameter after ':'")
    if base in NAMED_STATES:
        if argument:
            raise ValueError(f"named state {base} takes no parameter")
        if base == "mixed":
            return werner_state(0.0), base  # I/4 is the Werner state at w = 0
        return _state_from_bloch(0.0, 0.0, np.diag(BELL_CORRELATORS[BellLabel(base)])), base
    if base in _PARAMETRIC_STATES:
        flag, build, parameter, example = _PARAMETRIC_STATES[base]
        if argument and given[base] is not None:
            raise ValueError(f"give {parameter} once, not twice")
        value = float(argument) if argument else given[base]
        if value is None:
            raise ValueError(f"{base} state needs a parameter, e.g. "
                             f"{base}:{example} or {flag} {example}")
        return build(value), f"{base}:{value:g}"
    data = _load_json_file(name, "state file")
    if isinstance(data, list) and data and isinstance(data[0], dict):
        return product_mixture(_ensemble_from_json(data, name)), f"ensemble:{name}"
    return _matrix_from_json(data, name, tolerance), f"file:{name}"


def _flatten(doc: Any, prefix: str = "") -> list[tuple[str, Any]]:
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, (list, tuple)):
        children = enumerate(doc)
    else:
        return [(prefix[:-1], doc)]
    return [item for key, value in children for item in _flatten(value, f"{prefix}{key}.")]


def render(doc: dict[str, Any], fmt: str) -> str:
    """Serialize a report dict deterministically in the requested format."""
    if fmt == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    flat = _flatten(doc)
    if fmt == "plain":
        return "".join(f"{key} = {value}\n" for key, value in flat)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([key for key, _ in flat])
        writer.writerow([value for _, value in flat])
        return buffer.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def cmd_witness(args: argparse.Namespace) -> dict[str, Any]:
    state, label = resolve_state(args.state, args.phi, args.w, args.tolerance)
    distill = distillable_witness(state)
    doc: dict[str, Any] = {"state": label}
    for statistic, name, verdict in (("S", "ekert", ekert_verdict(state)),
                                     ("T", "bbm", bbm_verdict(state))):
        doc.update({statistic: verdict.statistic, f"{name}Bound": verdict.bound,
                    f"{name}Violated": verdict.violated, f"{name}Margin": verdict.margin})
    ks = {case: ks_verdict(state, case) for case in KSCase}
    doc.update({f"U{n}": ks[case].statistic for n, case in enumerate(KSCase, 1)})
    doc["ksBound"] = KS_BOUND
    doc["ksViolated"] = _by_case(lambda case: ks[case].violated)
    doc["fidelities"] = {_json_name(lbl): v for lbl, v in distill.fidelities.by_label().items()}
    doc["distillable"] = distill.distillable
    doc["distillableBellState"] = _json_name(distill.bell_label) if distill.bell_label else None
    doc["maxFidelity"] = distill.fidelity
    return doc


def cmd_ks(args: argparse.Namespace) -> dict[str, Any]:
    assignments = enumerate_ks_assignments()
    values = dict(zip(KSCase, _ASSIGNMENT_VALUES.T.tolist()))
    doc: dict[str, Any] = {
        "bound": KS_BOUND,
        "assignmentCount": len(assignments),
        "maxima": _by_case(ks_classical_bound),
        "valueSets": _by_case(lambda c: sorted(set(values[c]))),
    }
    if args.state is None:
        flags = sorted(flag for flag, *_ in _PARAMETRIC_STATES.values())
        if any(getattr(args, flag.lstrip("-")) is not None for flag in flags):
            raise ValueError(f"{' and '.join(flags)} parameterize a state; give one with --state")
        _check_tolerance(args.tolerance)
    else:
        state, label = resolve_state(args.state, args.phi, args.w, args.tolerance)
        doc["state"] = label
        ks = {case: ks_verdict(state, case) for case in KSCase}
        doc["values"] = _by_case(lambda case: ks[case].statistic)
        doc["violated"] = _by_case(lambda case: ks[case].violated)
    if args.assignments:
        doc["assignments"] = [{"singles": dict(zip(SINGLE_KEYS, row[:len(SINGLE_KEYS)])),
                               "products": dict(zip(PRODUCT_KEYS, row[len(SINGLE_KEYS):]))}
                              for row in assignments.tolist()]
    return doc


def cmd_fine(args: argparse.Namespace) -> dict[str, Any]:
    # --marginals A1 A3 B1 B3 fill m_a1, m_a3, m_b1, m_b3 in order; absent, they default to 0.
    quad = CorrelatorQuad(args.c11, args.c13, args.c31, args.c33, *(args.marginals or ()))
    panel = chsh_panel(quad)
    model = _fine_model(quad, panel)
    return {
        "quad": dict(zip(("c11", "c13", "c31", "c33"), quad.correlators())),
        "marginals": dict(zip(("a1", "a3", "b1", "b3"), quad.marginals())),
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


def _state_choices() -> str:
    parametric = ", ".join(f"{name}:{flag.lstrip('-').upper()}"
                           for name, (flag, *_) in _PARAMETRIC_STATES.items())
    return f"{', '.join(NAMED_STATES)}, {parametric}, or a JSON file"


def _eve_choices() -> str:
    named = ", ".join(f"intercept-{basis}" for basis in _INTERCEPT_AXES)
    return f"none, {named}, intercept:DX,DY,DZ, or substitute:FILE"


def _parse_eve(descriptor: str):
    name, _, argument = descriptor.partition(":")
    if name == "none":
        return NoEve()
    kind, _, basis = name.partition("-")
    if kind == "intercept" and basis in _INTERCEPT_AXES:
        return InterceptResend(basis=basis)
    if name == "intercept":
        if not argument:
            raise ValueError("intercept takes a direction, e.g. intercept:0.6,0,0.8")
        parts = [float(x) for x in argument.split(",")]
        return InterceptResend(basis=tuple(parts))
    if name == "substitute":
        if not argument:
            raise ValueError("substitute takes an ensemble file, e.g. substitute:eve.json")
        data = _load_json_file(argument, "ensemble file")
        if not isinstance(data, list):
            raise ValueError(f"ensemble file {argument} must hold a JSON list")
        return SeparableSubstitution(_ensemble_from_json(data, argument))
    raise ValueError(f"unknown eavesdropper {descriptor!r}; expected {_eve_choices()}")


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


def _format_options(*choices: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=choices, default="json",
                        help="output format (default: json)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    # Only the flat reports (witness, bound) keep their keys from run to run, so only they fit CSV.
    flat_format = _format_options("json", "csv", "plain")
    structured_format = _format_options("json", "plain")

    state_opts = argparse.ArgumentParser(add_help=False)
    state_opts.add_argument(
        "--tolerance", type=float, default=ATOL_PSD,
        help="acceptance tolerance for states loaded from files (default: %(default)g)",
    )
    state_opts.add_argument("--phi", type=float, default=None, help="phase for phase states")
    state_opts.add_argument("--w", type=float, default=None, help="Werner mixing parameter")

    parser = argparse.ArgumentParser(
        prog="eprlab",
        description="Witness statistics, classical models, and QKD runs for two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_witness = sub.add_parser(
        "witness", parents=[flat_format, state_opts],
        help="witness statistics and verdicts for a state",
    )
    p_witness.add_argument("--state", required=True, help=f"the state: {_state_choices()}")

    p_ks = sub.add_parser(
        "ks", parents=[structured_format, state_opts],
        help="value-assignment enumeration, bound, and optional state evaluation",
    )
    p_ks.add_argument("--state", default=None, help=f"optional state: {_state_choices()}")
    p_ks.add_argument(
        "--assignments", action="store_true", help="list all 64 assignments in the report"
    )

    p_fine = sub.add_parser(
        "fine", parents=[structured_format],
        help="CHSH panel and local-model construction for a correlator quad",
    )
    for name in ("c11", "c13", "c31", "c33"):
        p_fine.add_argument(name, type=float, help=f"correlator {name}")
    p_fine.add_argument(
        "--marginals", type=float, nargs=4, default=None,
        metavar=("A1", "A3", "B1", "B3"), help="single-party expectations (default: zero)",
    )

    p_bound = sub.add_parser(
        "bound", parents=[flat_format],
        help="exact product-state supremum of a witness statistic",
    )
    p_bound.add_argument(
        "functional", choices=[f.value for f in SeparableFunctional],
        help="which statistic to maximize",
    )

    p_qkd = sub.add_parser(
        "qkd", parents=[structured_format, state_opts], help="simulate one key-distribution run"
    )
    p_qkd.add_argument("--protocol", choices=[p.value for p in Protocol], required=True)
    p_qkd.add_argument("--rounds", type=int, default=20_000)
    p_qkd.add_argument("--source", default="psi-minus", help=f"source state: {_state_choices()}")
    p_qkd.add_argument("--eve", default="none", help=_eve_choices())
    p_qkd.add_argument("--test-fraction", type=float, default=0.25)
    p_qkd.add_argument("--seed", type=int, default=0)
    p_qkd.add_argument("--abort-sigma", type=float, default=3.0)

    # argparse reads only plain decimals such as -0.5 as numbers; read -1e-05, -inf, -nan too.
    negative_number = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?\Z|-(inf|infinity|nan)\Z", re.I)
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = negative_number
    return parser


@functools.lru_cache(maxsize=1)
def _parser_from(factory: Callable[[], argparse.ArgumentParser]) -> argparse.ArgumentParser:
    """The parser, built on first use; keyed by the factory, so a replaced build_parser counts."""
    return factory()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser_from(build_parser)
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # Python < 3.12 parses a second '--', or --w=--, to []
        parser.error("'--' is not a value")
    try:
        # Looked up per call, not stored in the cached parser, so a replaced handler counts.
        doc = globals()[f"cmd_{args.command}"](args)
        sys.stdout.write(render(doc, args.format))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
