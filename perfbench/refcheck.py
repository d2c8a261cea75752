"""Reference computations and checkers, built apart from eprlab.

Everything here starts from the benchmark's own Pauli matrices, Bell
vectors and measurement directions. The checkers take plain values, so the
self-tests can hand them deliberately wrong results. Each checker returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULIS = (SX, SY, SZ)

R2 = math.sqrt(2.0)
EX, EY, EZ = np.eye(3)
# Default Ekert settings: Alice x and y, Bob (x+y)/sqrt2 and (y-x)/sqrt2.
A1, A3 = EX, EY
B1, B3 = (EX + EY) / R2, (EY - EX) / R2

EKERT_BOUND = R2
BBM_BOUND = 1.0
KS_BOUND = 2.0
SLACK = 1e-10
# Sign patterns (s_xx, s_yy, s_zz) of U1, U2, U3.
KS_SIGNS = ((1.0, 1.0, -1.0), (-1.0, -1.0, -1.0), (1.0, -1.0, 1.0))
BELL_NAMES = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")
BELL_VECTORS = {
    "phi-plus": np.array([1, 0, 0, 1], dtype=complex) / R2,
    "phi-minus": np.array([1, 0, 0, -1], dtype=complex) / R2,
    "psi-plus": np.array([0, 1, 1, 0], dtype=complex) / R2,
    "psi-minus": np.array([0, 1, -1, 0], dtype=complex) / R2,
}
# Deterministic strategies (a1, a3, b1, b3), +1 first, the documented order.
STRATEGIES = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
CHSH_SIGNS = np.array(
    [p for p in itertools.product((1.0, -1.0), repeat=4) if p.count(-1.0) % 2 == 1]
)

# ---------------------------------------------------------------- states


def pure_rho(amplitudes: Sequence[complex]) -> np.ndarray:
    amp = np.asarray(amplitudes, dtype=complex)
    return np.outer(amp, amp.conj())


def werner_rho(w: float) -> np.ndarray:
    return w * pure_rho(BELL_VECTORS["psi-minus"]) + (1.0 - w) * np.eye(4) / 4.0


def phase_rho(phase: float) -> np.ndarray:
    return pure_rho(np.array([0.0, 1.0, np.exp(-1j * phase), 0.0]) / R2)


def qubit_rho(bloch: Sequence[float]) -> np.ndarray:
    return 0.5 * (I2 + sum(n * s for n, s in zip(bloch, PAULIS)))


def ensemble_rho(terms) -> np.ndarray:
    return sum(w * np.kron(qubit_rho(a), qubit_rho(b)) for w, a, b in terms)


def ekert_s(t: np.ndarray) -> float:
    """S at the default settings from the correlation matrix."""
    return float(A1 @ t @ B1 - A1 @ t @ B3 + A3 @ t @ B1 + A3 @ t @ B3)


def bbm_t(t: np.ndarray) -> float:
    return float(t[0, 0] + t[2, 2])


@dataclass(frozen=True)
class StateRef:
    """The 15 real numbers of a two-qubit state, and what follows from them."""

    rho: np.ndarray
    r_a: np.ndarray
    r_b: np.ndarray
    t: np.ndarray

    @classmethod
    def of(cls, rho: np.ndarray) -> "StateRef":
        r_a = np.array([np.trace(rho @ np.kron(s, I2)).real for s in PAULIS])
        r_b = np.array([np.trace(rho @ np.kron(I2, s)).real for s in PAULIS])
        t = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS] for si in PAULIS])
        return cls(rho=rho, r_a=r_a, r_b=r_b, t=t)

    @cached_property
    def s(self) -> float:
        return ekert_s(self.t)

    @cached_property
    def bbm_t(self) -> float:
        return bbm_t(self.t)

    @cached_property
    def u(self) -> tuple[float, float, float]:
        d = np.diag(self.t)
        return tuple(float(1.0 + np.dot(signs, d)) for signs in KS_SIGNS)

    @cached_property
    def fidelities(self) -> dict[str, float]:
        return {
            name: float((v.conj() @ self.rho @ v).real) for name, v in BELL_VECTORS.items()
        }

    @cached_property
    def quad(self) -> np.ndarray:
        """c11, c13, c31, c33, m_a1, m_a3, m_b1, m_b3 at the default settings."""
        t = self.t
        return np.array([
            A1 @ t @ B1, A1 @ t @ B3, A3 @ t @ B1, A3 @ t @ B3,
            A1 @ self.r_a, A3 @ self.r_a, B1 @ self.r_b, B3 @ self.r_b,
        ])


def violated(statistic: float, bound: float) -> bool:
    return abs(statistic) > bound + SLACK


def chsh_values(correlators: Sequence[float]) -> np.ndarray:
    return CHSH_SIGNS @ np.asarray(correlators, dtype=float)


def strategy_sum(weights: Sequence[float]) -> np.ndarray:
    """Correlators and marginals of a strategy mixture, in quad order."""
    s = STRATEGIES
    columns = np.column_stack([
        s[:, 0] * s[:, 2], s[:, 0] * s[:, 3], s[:, 1] * s[:, 2], s[:, 1] * s[:, 3],
        s[:, 0], s[:, 1], s[:, 2], s[:, 3],
    ])
    return np.asarray(weights, dtype=float) @ columns


def lp_feasible(quad: Sequence[float]) -> bool:
    """Oracle: does a strategy mixture reproduce the quad? (HiGHS via SciPy)."""
    columns = np.vstack([np.ones(16), strategy_sum(np.eye(16)).T])
    rhs = np.concatenate([[1.0], np.asarray(quad, dtype=float)])
    result = linprog(np.zeros(16), A_eq=columns, b_eq=rhs, bounds=(0, None), method="highs")
    if result.status not in (0, 2):
        raise RuntimeError(f"linprog oracle ended with status {result.status}: {result.message}")
    return result.status == 0


# ---------------------------------------------------------------- checkers


def _close(problems: list, what: str, got: float, want: float, tol: float) -> None:
    if not abs(float(got) - float(want)) <= tol:
        problems.append(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def _same(problems: list, what: str, got: Any, want: Any) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_witnesses(ref: StateRef, got: dict) -> list[str]:
    """got: S, T, U (3), ekert/bbm/ks violated flags, fidelities, distillable."""
    p: list[str] = []
    _close(p, "S", got["S"], ref.s, SLACK)
    _close(p, "T", got["T"], ref.bbm_t, SLACK)
    _same(p, "S verdict", got["S_violated"], violated(got["S"], EKERT_BOUND))
    _same(p, "T verdict", got["T_violated"], violated(got["T"], BBM_BOUND))
    for k, (value, flag) in enumerate(zip(got["U"], got["U_violated"])):
        _close(p, f"U{k + 1}", value, ref.u[k], SLACK)
        _same(p, f"U{k + 1} verdict", flag, violated(value, KS_BOUND))
    fid = ref.fidelities
    for name in BELL_NAMES:
        _close(p, f"fidelity {name}", got["fidelities"][name], fid[name], SLACK)
    best = max(fid.values())
    _same(p, "distillable", got["distillable"], best > 0.5 + SLACK)
    if got["distillable"]:
        _same(p, "distillable Bell state", got["distillable_state"], max(fid, key=fid.get))
    return p


def check_local_model(ref_quad: np.ndarray, feasible: bool, got: dict) -> list[str]:
    """got: quad (8), chsh (8 values), passes, weights (16) or None."""
    p: list[str] = []
    for name, g, w in zip(("c11", "c13", "c31", "c33", "ma1", "ma3", "mb1", "mb3"),
                          got["quad"], ref_quad):
        _close(p, f"quad {name}", g, w, SLACK)
    want_values = chsh_values(ref_quad[:4])
    for k, (g, w) in enumerate(zip(got["chsh"], want_values)):
        _close(p, f"CHSH value {k}", g, w, SLACK)
    _same(p, "CHSH passes", got["passes"], bool(max(want_values) <= 2.0 + 1e-8))
    _same(p, "local model exists", got["weights"] is not None, feasible)
    if got["weights"] is not None:
        w = np.asarray(got["weights"], dtype=float)
        if len(w) != 16 or w.min() < 0.0:
            p.append(f"weights must be 16 nonnegative numbers, got {w.tolist()}")
        else:
            _close(p, "weight sum", w.sum(), 1.0, 1e-9)
            predicted = strategy_sum(w)
            for k in range(8):
                _close(p, f"model reproduces quad[{k}]", predicted[k], ref_quad[k], 1e-8)
    return p


# Separable functionals as offset + |u^T W v| (witnesses) or offset + u^T W v (KS).
def functional_form(name: str) -> tuple[float, np.ndarray, bool]:
    if name == "ekert-s":
        return 0.0, np.outer(A1, B1 - B3) + np.outer(A3, B1 + B3), True
    if name == "bbm-t":
        return 0.0, np.diag([1.0, 0.0, 1.0]), True
    signs = dict(zip(("ks-i", "ks-ii", "ks-iii"), KS_SIGNS))[name]
    return 1.0, np.diag(signs), False


def bound_reference(name: str) -> float:
    offset, w, _ = functional_form(name)
    return offset + float(np.linalg.svd(w, compute_uv=False)[0])


def functional_value(name: str, u: Sequence[float], v: Sequence[float]) -> float:
    offset, w, absolute = functional_form(name)
    value = float(np.asarray(u) @ w @ np.asarray(v))
    return offset + (abs(value) if absolute else value)


def check_bound(name: str, supremum: float, argmax_a, argmax_b, evaluations: int) -> list[str]:
    p: list[str] = []
    want = bound_reference(name)
    _close(p, f"{name} supremum", supremum, want, 1e-4)
    if supremum > want + 1e-12:
        p.append(f"{name} supremum {supremum!r} lies above the exact bound {want!r}")
    for label, vec in (("A", argmax_a), ("B", argmax_b)):
        _close(p, f"{name} argmax {label} norm", np.linalg.norm(vec), 1.0, 1e-9)
    _close(p, f"{name} objective at argmax", functional_value(name, argmax_a, argmax_b),
           supremum, 1e-12)
    if int(evaluations) < 1:
        p.append(f"{name} reports {evaluations} evaluations")
    return p


# ---------------------------------------------------------------- QKD


def eve_t(source_t: np.ndarray, eve: tuple) -> np.ndarray:
    """Correlation matrix Alice and Bob see, for eve = ('none',),
    ('intercept', directions) or ('substitute', terms)."""
    kind = eve[0]
    if kind == "none":
        return source_t
    if kind == "intercept":
        return sum(source_t @ np.outer(d, d) for d in eve[1]) / len(eve[1])
    if kind == "substitute":
        return sum(w * np.outer(a, b) for w, a, b in eve[1])
    raise ValueError(f"unknown eavesdropper {eve!r}")


@dataclass(frozen=True)
class QkdResult:
    """The fields of a protocol report that the checks read."""

    statistic: float
    stderr: float
    aborted: bool
    qber: float
    qber_by_basis: Optional[dict]
    key_a: str
    key_b: str
    rounds_used: dict


def _sign(value: float) -> float:
    return -1.0 if value < 0.0 else 1.0


def _key_array(key: str) -> np.ndarray:
    return np.frombuffer(key.encode("ascii"), dtype=np.uint8)


def _within(p: list, what: str, got: float, want: float, n: int, sigmas: float = 5.0) -> None:
    sd = math.sqrt(max(want * (1.0 - want), 0.0) / max(n, 1))
    if want in (0.0, 1.0):
        _same(p, what, got, want)
    elif not abs(got - want) <= sigmas * sd:
        p.append(f"{what}: got {got!r}, want {want!r} +- {sigmas}x{sd:.3g}")


def check_qkd(protocol: str, rounds: int, source_t: np.ndarray, t_eff: np.ndarray,
              got: QkdResult, abort_sigma: float = 3.0, test_fraction: float = 0.25) -> list[str]:
    p: list[str] = []
    ka, kb = got.key_a, got.key_b
    if len(ka) != len(kb):
        return [f"sifted keys differ in length: {len(ka)} vs {len(kb)}"]
    a, b = _key_array(ka), _key_array(kb)
    if not (np.isin(a, (48, 49)).all() and np.isin(b, (48, 49)).all()):
        return ["sifted keys hold characters other than 0 and 1"]
    n_key = len(ka)
    used = {k: int(v) for k, v in got.rounds_used.items()}
    if protocol == "e91":
        bound = EKERT_BOUND
        exact = ekert_s(t_eff)
        _same(p, "rounds_used total", sum(used.values()), rounds)
        key_fraction = 1.0 / 9.0
        errors = {"y": (1.0 - _sign(source_t[1, 1]) * t_eff[1, 1]) / 2.0}
        disagreement = int(np.count_nonzero(a != b))
        _same(p, "qber from the keys", got.qber, disagreement / n_key if n_key else None)
        _within(p, "qber", got.qber, errors["y"], n_key)
    else:
        bound = BBM_BOUND
        exact = bbm_t(t_eff)
        _same(p, "rounds_used total", used["x:x"] + used["z:z"] + used["discarded"], rounds)
        _same(p, "test + key rounds", used["test"] + used["key"], used["x:x"] + used["z:z"])
        key_fraction = 0.5 * (1.0 - test_fraction)
        errors = {ax: (1.0 - _sign(source_t[i, i]) * t_eff[i, i]) / 2.0
                  for ax, i in (("x", 0), ("z", 2))}
        for ax in ("x", "z"):
            n_test = int(round(used[f"{ax}:{ax}"] * test_fraction))
            _within(p, f"qber in basis {ax}", float(got.qber_by_basis[ax]), errors[ax], n_test)
        mean_error = (errors["x"] + errors["z"]) / 2.0
        _within(p, "qber", got.qber, mean_error, used["test"])
        disagreement = int(np.count_nonzero(a != b))
        _within(p, "key disagreement", disagreement / n_key, mean_error, n_key)
    _same(p, "key rounds", used["key"], n_key)
    _within(p, "sifted-key fraction", n_key / rounds, key_fraction, rounds)
    if not abs(got.statistic - exact) <= 5.0 * got.stderr + 1e-12:
        p.append(f"statistic {got.statistic!r} is more than 5 stderr ({got.stderr!r}) "
                 f"from the exact {exact!r}")
    _same(p, "abort rule", got.aborted,
          bool(abs(got.statistic) - abort_sigma * got.stderr <= bound))
    if abs(exact) > bound + (abort_sigma + 5.0) * got.stderr:
        _same(p, "abort against an entangled source", got.aborted, False)
    elif abs(exact) < bound - 5.0 * got.stderr:
        _same(p, "abort against a separable channel", got.aborted, True)
    return p


# ---------------------------------------------------------------- CLI output


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-strict JSON constant {name}")


def parse_output(stdout: str, fmt: str) -> dict[str, Any]:
    """Parse a report strictly and flatten it to dotted keys; raise ValueError if it fails."""
    if fmt == "json":
        return dict(_flatten(json.loads(stdout, parse_constant=_reject_constant)))
    if fmt == "plain":
        flat = {}
        for line in stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if not sep or not key:
                raise ValueError(f"malformed plain line {line!r}")
            flat[key] = value
        if not flat:
            raise ValueError("empty plain report")
        return flat
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if len(rows) != 2 or len(rows[0]) != len(rows[1]) or not rows[0]:
            raise ValueError(f"csv report must be one header and one row, got {len(rows)} rows")
        return dict(zip(rows[0], rows[1]))
    raise ValueError(f"unknown format {fmt!r}")


def _flatten(doc: Any, prefix: str = ""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _flatten(value, f"{prefix}{key}.")
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _flatten(value, f"{prefix}{index}.")
    else:
        yield prefix[:-1], doc


def as_float(value: Any) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if value in ("True", "False"):
        return value == "True"
    raise ValueError(f"expected a boolean, got {value!r}")


def invocation_failed(raised: Optional[BaseException], code: Any, stdout: str,
                      fmt: str) -> Optional[str]:
    """Why an invocation failed, or None: it raised, exited outside {0, 2, 3},
    or exited 0 with output that does not parse strictly."""
    if raised is not None:
        return f"raised {type(raised).__name__}: {raised}"
    if code not in (0, 2, 3):
        return f"exit code {code!r}"
    if code == 0:
        try:
            parse_output(stdout, fmt)
        except ValueError as exc:
            return f"stdout does not parse as {fmt}: {exc}"
    return None
