"""Tests for the command-line interface and its report schemas."""

import csv
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from eprlab import cli, protocol
from eprlab.protocol import InterceptResend
from eprlab.qstate import (
    Y_AXIS, BellLabel, TwoQubitState, bell_state, density_from_pure, werner_state,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call_cli(capsys, argv):
    """Like run_cli, but an argv the parser rejects returns argparse's exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResolveState:
    def test_named_states(self):
        for name in ("psi-minus", "psi-plus", "phi-plus", "phi-minus", "mixed"):
            state, label = cli.resolve_state(name)
            assert label == name
            assert state.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_werner_forms(self):
        inline, _ = cli.resolve_state("werner:0.4")
        flagged, _ = cli.resolve_state("werner", w=0.4)
        assert np.allclose(inline.matrix, flagged.matrix, atol=1e-15)
        with pytest.raises(ValueError, match="parameter"):
            cli.resolve_state("werner")
        with pytest.raises(ValueError, match="once"):
            cli.resolve_state("werner:0.4", w=0.5)

    def test_phase_forms(self):
        inline, label = cli.resolve_state("phase:0.5")
        assert label == "phase:0.5"
        flagged, _ = cli.resolve_state("phase", phi=0.5)
        assert np.allclose(inline.matrix, flagged.matrix, atol=1e-15)

    def test_named_state_rejects_parameter(self):
        for descriptor in ("psi-minus:0.3", "mixed:0.3"):
            with pytest.raises(ValueError, match="no parameter"):
                cli.resolve_state(descriptor)

    @pytest.mark.parametrize("argv", [
        ["witness", "--state", "psi-minus:"],
        ["witness", "--state", "mixed:"],
        ["witness", "--state", "werner:", "--w", "0.4"],
        ["witness", "--state", "phase:", "--phi", "0.5"],
        ["ks", "--state", "phi-plus:"],
        ["qkd", "--protocol", "e91", "--source", "phi-minus:"],
    ])
    def test_empty_parameter_rejected(self, capsys, argv):
        """A ':' with nothing after it is an error naming the descriptor, not the bare state."""
        descriptor = argv[2] if argv[0] != "qkd" else argv[4]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: state {descriptor!r} has an empty parameter after ':'\n"

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read"):
            cli.resolve_state("no-such-file.json")

    def test_matrix_file_roundtrip(self, tmp_path):
        rho = density_from_pure(bell_state(BellLabel.PHI_PLUS)).matrix
        payload = [[[float(v.real), float(v.imag)] for v in row] for row in rho]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        state, label = cli.resolve_state(str(path))
        assert label == f"file:{path}"
        assert np.allclose(state.matrix, rho, atol=1e-12)

    def test_matrix_file_hermiticity_gate(self, tmp_path):
        rho = density_from_pure(bell_state(BellLabel.PHI_PLUS)).matrix.copy()
        payload = [[[float(v.real), float(v.imag)] for v in row] for row in rho]
        payload[0][1][0] += 3e-6  # breaks symmetry with its transpose partner
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="Hermiticity"):
            cli.resolve_state(str(path))
        state, _ = cli.resolve_state(str(path), tolerance=1e-4)
        assert state.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_default_file_tolerance_is_1e_10(self, tmp_path):
        """A matrix file whose Hermiticity deviation is exactly 1e-10, or one step less, is
        read with the default tolerance; one step more is rejected."""
        path = tmp_path / "state.json"
        for deviation, accepted in ((np.nextafter(1e-10, 0.0), True), (1e-10, True),
                                    (np.nextafter(1e-10, 1.0), False)):
            payload = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
            payload[0][1][0] = float(deviation)  # its transpose partner stays 0
            path.write_text(json.dumps(payload))
            if accepted:
                state, _ = cli.resolve_state(str(path))
                assert state.matrix[0, 1] == deviation / 2
            else:
                with pytest.raises(ValueError, match="Hermiticity"):
                    cli.resolve_state(str(path))

    def test_ensemble_file(self, tmp_path):
        payload = [
            {"weight": 0.5, "blochA": [0.0, 0.0, 1.0], "blochB": [0.0, 0.0, -1.0]},
            {"weight": 0.5, "blochA": [0.0, 0.0, -1.0], "blochB": [0.0, 0.0, 1.0]},
        ]
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(payload))
        state, label = cli.resolve_state(str(path))
        assert label == f"ensemble:{path}"
        assert state.matrix[0, 0].real == pytest.approx(0.0, abs=1e-12)

    def test_json_object_file_rejected(self, capsys, tmp_path):
        """A JSON object is neither a matrix nor an ensemble: exit 2, naming the file."""
        path = tmp_path / "object.json"
        path.write_text(json.dumps({"a": 1}))
        code, out, err = run_cli(capsys, "witness", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[[1, 2")
        with pytest.raises(ValueError, match="is not valid JSON"):
            cli.resolve_state(str(path))

    def test_ensemble_file_strict_keys(self, tmp_path):
        payload = [{"weight": 1.0, "blochA": [0, 0, 1], "bloch_b": [0, 0, 1]}]
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="exactly the keys"):
            cli.resolve_state(str(path))


class TestWitnessCommand:
    def test_singlet_json(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--state", "psi-minus")
        assert code == 0
        doc = json.loads(out)
        assert doc["state"] == "psi-minus"
        assert doc["S"] == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-10)
        assert doc["ekertViolated"] is True
        assert doc["T"] == pytest.approx(-2.0, abs=1e-10)
        assert doc["bbmViolated"] is True
        assert doc["U2"] == pytest.approx(4.0, abs=1e-10)
        assert doc["ksViolated"] == {"caseI": False, "caseII": True, "caseIII": False}
        assert doc["fidelities"]["psiMinus"] == pytest.approx(1.0, abs=1e-10)
        assert doc["distillable"] is True
        assert doc["distillableBellState"] == "psiMinus"

    def test_distillability_and_the_ks_verdict_agree_just_above_the_bound(self, capsys):
        """U2 = 4 f(psi-minus) = 2.0000000002 violates KS_BOUND beyond its slack, and the
        distillability verdict reads the same Bell row by the same rule (it said false)."""
        code, out, _ = run_cli(capsys, "witness", "--state", "werner:0.3333333334")
        assert code == 0
        doc = json.loads(out)
        assert (doc["U2"], doc["maxFidelity"]) == (2.0000000002, 0.50000000005)
        assert doc["ksViolated"] == {"caseI": False, "caseII": True, "caseIII": False}
        assert doc["distillable"] is True
        assert doc["distillableBellState"] == "psiMinus"

    def test_werner_flag(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--state", "werner", "--w", "0.25")
        assert code == 0
        doc = json.loads(out)
        assert doc["distillable"] is False
        assert doc["distillableBellState"] is None

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--state", "phi-plus", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        header, values = rows
        record = dict(zip(header, values))
        assert float(record["T"]) == pytest.approx(2.0, abs=1e-10)
        assert record["fidelities.phiPlus"] == "1.0000000000000002" or float(
            record["fidelities.phiPlus"]
        ) == pytest.approx(1.0, abs=1e-10)

    def test_plain_format(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--state", "mixed", "--format", "plain")
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(lines["S"]) == pytest.approx(0.0, abs=1e-10)


class TestKsCommand:
    def test_enumeration_summary(self, capsys):
        code, out, _ = run_cli(capsys, "ks")
        assert code == 0
        doc = json.loads(out)
        assert doc["assignmentCount"] == 64
        assert doc["bound"] == 2.0
        assert doc["valueSets"] == {
            "caseI": [-2.0, 2.0], "caseII": [-2.0, 2.0], "caseIII": [-2.0, 2.0]
        }

    def test_with_state_and_assignments(self, capsys):
        code, out, _ = run_cli(capsys, "ks", "--state", "psi-plus", "--assignments")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["caseI"] == pytest.approx(4.0, abs=1e-10)
        assert doc["violated"]["caseI"] is True
        assert len(doc["assignments"]) == 64
        first = doc["assignments"][0]
        assert first["products"]["zz"] == first["products"]["xx"] * first["products"]["yy"]


class TestFineCommand:
    def test_zero_quad(self, capsys):
        code, out, _ = run_cli(capsys, "fine", "0", "0", "0", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["weights"] == pytest.approx([1.0 / 16.0] * 16, abs=1e-9)
        assert doc["chshPasses"] is True

    def test_infeasible_quad(self, capsys):
        code, out, _ = run_cli(capsys, "fine", "1", "1", "1", "-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["weights"] is None
        assert doc["chshMax"] == pytest.approx(4.0)

    def test_marginals_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "fine", "1", "1", "1", "1", "--marginals", "1", "1", "1", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["weights"][0] == pytest.approx(1.0, abs=1e-9)

    def test_probability_panel_agrees_with_feasibility(self, capsys):
        code, out, _ = run_cli(
            capsys, "fine", "1", "0", "0", "0", "--marginals", "0.5", "0", "-0.5", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["chshPasses"] is True
        assert doc["minJointProbability"] == -0.25
        assert doc["finePasses"] is False
        assert doc["feasible"] is False

    def test_out_of_range_correlator(self, capsys):
        code, _, err = run_cli(capsys, "fine", "1.5", "0", "0", "0")
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("argv, section, key", [
        (["0", "0", "0", "0", "--marginals", "-1e-05", "0", "0", "0"], "marginals", "a1"),
        (["-1e-05", "0", "0", "0"], "quad", "c11"),
    ])
    def test_negative_exponent_forms_are_numbers(self, capsys, argv, section, key):
        """argparse alone takes -1e-05 for a flag and would cut the four marginals short."""
        code, out, err = run_cli(capsys, "fine", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)[section][key] == -1e-05


    def test_golden_panel_digest_is_pinned(self, capsys):
        """Every `fine` report over a fixed panel, weights included, stays byte-identical."""
        outputs = [run_cli(capsys, "fine", *argv)[:2] for argv in FINE_PANEL]
        assert {json.loads(out)["feasible"] for _, out in outputs} == {True, False}
        text = "".join(f"{code}\n{out}" for code, out in outputs)
        assert hashlib.sha256(text.encode()).hexdigest() == FINE_PANEL_DIGEST


def _fine_grid_panel(count, seed):
    """`fine` argv on the 1/16 grid: correlators in [-1, 1], half with marginals in [-1/2, 1/2]."""
    rng = np.random.default_rng(seed)
    panel = []
    for k in range(count):
        argv = [f"{v / 16:g}" for v in rng.integers(-16, 17, 4)]
        if k % 2:
            argv += ["--marginals", *(f"{v / 16:g}" for v in rng.integers(-8, 9, 4))]
        panel.append(argv)
    return panel


FINE_PANEL = [
    ["0", "0", "0", "0"],
    ["1", "1", "1", "-1"],
    ["0.5", "0.5", "0.5", "-0.5"],
    ["0.5", "-0.5", "0.5", "0.5"],
    ["-0.7071067811865476", "-0.7071067811865476", "-0.7071067811865476", "0.7071067811865476"],
    ["1", "1", "1", "1", "--marginals", "1", "1", "1", "1"],
    ["1", "0", "0", "0", "--marginals", "0.5", "0", "-0.5", "0"],
    ["0.3", "0.1", "-0.2", "0.45", "--marginals", "0.1", "-0.2", "0.3", "0"],
] + _fine_grid_panel(32, seed=8)
# Recorded before the simplex kept its tableau between pivots: the LP's
# vertex, and so every printed weight, must not move.  Recorded on CPython
# 3.11.7 with NumPy 2.4.6 on scipy-openblas 0.3.31.188.0 (DYNAMIC_ARCH,
# Haswell); the pytest header names the build a run uses.
FINE_PANEL_DIGEST = "a437106ddeeaaf9ee0d76ba3cc9063847a175fe59606e642539267fa62328dc2"


# A fixed mixed state with complex coherences, as [re, im] pairs, and a
# two-term product ensemble, both written out by hand.
REPORT_MATRIX = [
    [[0.075, 0.0], [0.0, 0.0], [0.0, 0.0], [0.05, 0.0]],
    [[0.0, 0.0], [0.425, 0.0], [0.0, -0.35], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.35], [0.425, 0.0], [0.0, 0.0]],
    [[0.05, 0.0], [0.0, 0.0], [0.0, 0.0], [0.075, 0.0]],
]
REPORT_ENSEMBLE = [
    {"weight": 0.25, "blochA": [0.6, 0.0, 0.8], "blochB": [0.0, 1.0, 0.0]},
    {"weight": 0.75, "blochA": [0.0, 0.0, -1.0], "blochB": [0.36, 0.48, 0.8]},
]
REPORT_STATES = ["psi-minus", "psi-plus", "phi-plus", "phi-minus", "mixed", "werner:0.4",
                 "phase:0.7853981633974483", "matrix.json", "ensemble.json"]
REPORT_PANEL = (
    [["witness", "--state", s, "--format", f]
     for s in REPORT_STATES for f in ("json", "plain", "csv")]
    + [["witness", "--state", "werner", "--w", "0.3"],
       ["witness", "--state", "phase", "--phi", "1.2", "--format", "csv"],
       ["witness", "--state", "matrix.json", "--tolerance", "1e-6", "--format", "plain"]]
    + [["ks", *extra, "--format", f]
       for extra in ([], ["--assignments"]) for f in ("json", "plain")]
    + [["ks", "--state", s, "--format", f] for s in REPORT_STATES for f in ("json", "plain")]
    + [["ks", "--state", "phase", "--phi", "0.4", "--assignments"]]
    + [["bound", name, "--format", f]
       for name in ("ekert-s", "bbm-t", "ks-i", "ks-ii", "ks-iii")
       for f in ("json", "plain", "csv")]
)
# Recorded before the witness, fidelity and bound tables were merged: every
# report, key order included, must not move.  Recorded on the same build as
# FINE_PANEL_DIGEST; the bound reports rest on LAPACK's SVD.
REPORT_PANEL_DIGEST = "b155ea99b1577a4caa32d148838b544a3ba70d469596a89ab82b240c25b395b1"


def test_golden_report_digest_is_pinned(capsys, tmp_path, monkeypatch):
    """Every witness, ks and bound report over a fixed panel stays byte-identical."""
    monkeypatch.chdir(tmp_path)  # file labels are the relative names, wherever tmp_path is
    (tmp_path / "matrix.json").write_text(json.dumps(REPORT_MATRIX))
    (tmp_path / "ensemble.json").write_text(json.dumps(REPORT_ENSEMBLE))
    outputs = [run_cli(capsys, *argv)[:2] for argv in REPORT_PANEL]
    assert {code for code, _ in outputs} == {0}
    text = "".join(f"{code}\n{out}" for code, out in outputs)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_PANEL_DIGEST


class TestBoundCommand:
    def test_bbm_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "bbm-t")
        assert code == 0
        doc = json.loads(out)
        assert doc["supremum"] == pytest.approx(1.0, abs=1e-4)
        assert doc["gap"] >= -1e-6
        assert doc["evaluations"] <= 100_000


class TestQkdCommand:
    def test_bbm92_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "qkd", "--protocol", "bbm92", "--rounds", "5000", "--seed", "8"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["aborted"] is False
        assert doc["qber"] == 0.0
        assert doc["siftedBits"] == len(doc["siftedKeyA"])
        assert doc["siftedKeyA"] == doc["siftedKeyB"]

    def test_eve_intercept(self, capsys):
        code, out, _ = run_cli(
            capsys, "qkd", "--protocol", "bbm92", "--rounds", "20000",
            "--eve", "intercept-xz", "--seed", "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["aborted"] is True
        assert doc["qber"] == pytest.approx(0.25, abs=0.03)

    def test_eve_substitute(self, capsys, tmp_path):
        payload = [{"weight": 1.0, "blochA": [0.0, 1.0, 0.0], "blochB": [0.0, -1.0, 0.0]}]
        path = tmp_path / "eve.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(
            capsys, "qkd", "--protocol", "e91", "--rounds", "20000",
            "--eve", f"substitute:{path}", "--seed", "2",
        )
        assert code == 0
        assert json.loads(out)["aborted"] is True

    def test_infinite_abort_sigma_rejected(self, capsys):
        """stdout never carries Infinity: the config rejects it and render refuses it."""
        code, out, err = run_cli(
            capsys, "qkd", "--protocol", "e91", "--rounds", "2000", "--abort-sigma", "inf"
        )
        assert code == 2
        assert out == ""
        assert "abort_sigma must be positive and finite, got inf" in err
        with pytest.raises(ValueError, match="JSON"):
            cli.render({"abortSigma": float("inf")}, "json")

    def test_bad_eve_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "qkd", "--protocol", "e91", "--eve", "listen-quietly"
        )
        assert code == 2
        assert "eavesdropper" in err

    def test_eve_forms_are_listed_once(self, capsys):
        expected = ("none, intercept-x, intercept-z, intercept-xz, intercept:DX,DY,DZ, "
                    "or substitute:FILE")
        code, _, err = run_cli(capsys, "qkd", "--protocol", "e91", "--eve", "tap")
        assert code == 2
        assert err == f"error: unknown eavesdropper 'tap'; expected {expected}\n"
        code, out, _ = call_cli(capsys, ["qkd", "--help"])
        assert code == 0
        assert expected in " ".join(out.split())

    @pytest.mark.parametrize("argv", [["witness", "--help"], ["ks", "--help"],
                                      ["qkd", "--help"]])
    def test_state_forms_are_listed_from_the_tables(self, capsys, argv):
        code, out, _ = call_cli(capsys, argv)
        assert code == 0
        text = "".join(out.split())  # argparse wraps the help, sometimes inside a name
        for name in cli.NAMED_STATES:
            assert f"{name}," in text
        for name, (flag, *_) in cli._PARAMETRIC_STATES.items():
            assert f"{name}:{flag.lstrip('-').upper()}," in text

    def test_readme_names_every_state_and_eavesdropper(self):
        """A new named state, parametric state or intercept basis fails until it is documented."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for name in cli.NAMED_STATES:
            assert f"`{name}`" in readme, name
        for name, (flag, *_) in cli._PARAMETRIC_STATES.items():
            assert f"`{name}:" in readme and f"`{flag} " in readme, name
        for basis in protocol._INTERCEPT_AXES:
            assert f"`intercept-{basis}`" in readme, basis

    def test_a_new_intercept_basis_needs_only_the_axes_table(self, monkeypatch):
        monkeypatch.setitem(protocol._INTERCEPT_AXES, "y", (Y_AXIS,))
        assert cli._parse_eve("intercept-y") == InterceptResend(basis="y")
        with pytest.raises(ValueError, match="intercept-xz, intercept-y, intercept:DX,DY,DZ"):
            cli._parse_eve("tap")
        with pytest.raises(ValueError, match="basis must be 'x', 'z', 'xz', 'y', or a 3-vector"):
            InterceptResend(basis="w")

    def test_starved_bbm92_run_names_the_test_fraction(self, capsys):
        for fraction, message in (("0.999", "no rounds landed on the key settings"),
                                  ("0.01", "setting pair x:x has")):
            code, out, err = run_cli(
                capsys, "qkd", "--protocol", "bbm92", "--rounds", "100",
                "--test-fraction", fraction,
            )
            assert code == 2
            assert out == ""
            assert message in err
            assert "increase rounds or" in err and "test fraction" in err

    def test_starved_e91_run_keeps_its_message(self, capsys):
        code, out, err = run_cli(
            capsys, "qkd", "--protocol", "e91", "--rounds", "150", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: setting pair a1:b1 has 15 samples, need 30; increase rounds\n"

    def test_out_of_memory_run_names_its_rounds(self, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError

        monkeypatch.setattr(cli, "run_protocol", exhausted)
        code, out, err = run_cli(
            capsys, "qkd", "--protocol", "e91", "--rounds", "5000000000000"
        )
        assert code == 2
        assert out == ""
        assert "5000000000000-round run does not fit in memory" in err

    def test_custom_direction_eve(self, capsys):
        code, out, _ = run_cli(
            capsys, "qkd", "--protocol", "bbm92", "--rounds", "20000",
            "--eve", "intercept:0.7071067811865476,0,0.7071067811865476", "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["aborted"] is True

    def test_huge_direction_eve_is_an_input_error(self, capsys):
        """A 1e200 component is refused by its norm, without an overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "qkd", "--protocol", "e91",
                                     "--eve", "intercept:1e200,0,0")
        assert code == 2
        assert out == ""
        assert err == "error: basis vector [1e+200, 0.0, 0.0] has norm 1e+200, not 1\n"


class TestFormatsAndCodes:
    def test_structured_report_refuses_csv(self, capsys):
        code, out, err = call_cli(capsys, ["fine", "0", "0", "0", "0", "--format", "csv"])
        assert code == 2
        assert out == ""
        assert "invalid choice: 'csv'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ks", "--format", "csv"], "invalid choice: 'csv'"),
            (["qkd", "--protocol", "bbm92", "--rounds", "100000000", "--format", "csv"],
             "invalid choice: 'csv'"),
            (["fine", "0", "0", "0", "0", "--tolerance", "1e-3"],
             "unrecognized arguments: --tolerance 1e-3"),
            (["bound", "bbm-t", "--tolerance", "1e-3"], "unrecognized arguments: --tolerance 1e-3"),
        ],
    )
    def test_parser_refuses_options_the_subcommand_lacks(self, capsys, argv, message):
        """The parser, not the report, decides where --format csv and --tolerance apply."""
        code, out, err = call_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_invalid_state_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--state", "werner:1.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fine", "nan", "0", "0", "0"], "c11=nan outside [-1, 1]"),
            (["fine", "0", "0", "0", "0", "--marginals", "nan", "0", "0", "0"], "m_a1=nan outside"),
            (["fine", "inf", "0", "0", "0"], "c11=inf outside [-1, 1]"),
            (["witness", "--state", "phase:nan"], "phase must be a finite number, got nan"),
            (["witness", "--state", "phase", "--phi", "inf"], "phase must be a finite number"),
            (["witness", "--state", "werner:nan"], "Werner parameter must lie in [0, 1], got nan"),
            (["witness", "--state", "mixed", "--tolerance", "nan"], "tolerance must be finite"),
            (["ks", "--state", "mixed", "--tolerance", "inf"], "tolerance must be finite"),
            (["qkd", "--protocol", "bbm92", "--eve", "intercept:nan,0,0"], "[nan, 0.0, 0.0]"),
            (["qkd", "--protocol", "e91", "--abort-sigma", "nan"], "abort_sigma"),
            (["qkd", "--protocol", "e91", "--test-fraction", "nan"], "test_fraction"),
            (["fine", "0", "0", "0", "0", "--marginals", "-inf", "0", "0", "0"],
             "error: m_a1=-inf outside [-1, 1]\n"),
            (["fine", "-nan", "0", "0", "0"], "error: c11=nan outside [-1, 1]\n"),
        ],
    )
    def test_non_finite_numbers_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["witness", "--state", "psi-minus", "--w", "0.3"], "--w parameterizes only werner"),
            (["witness", "--state", "werner:0.3", "--phi", "1"], "--phi parameterizes only phase"),
            (["qkd", "--protocol", "e91", "--rounds", "2000", "--w", "0.3"], "--w parameterizes"),
            (["ks", "--phi", "0.5"], "--phi and --w parameterize a state"),
            (["ks", "--tolerance", "nan"], "tolerance must be finite and nonnegative, got nan"),
            (["ks", "--tolerance", "-1"], "tolerance must be finite and nonnegative, got -1.0"),
            (["witness", "--state", "phase:1", "--phi", "1"], "give the phase once, not twice"),
            (["witness", "--state", "phase"], "phase state needs a parameter"),
            (["witness", "--state", "werner"],
             "error: werner state needs a parameter, e.g. werner:0.4 or --w 0.4\n"),
            (["witness", "--state", "phase:"],
             "error: phase state needs a parameter, e.g. phase:0.7854 or --phi 0.7854\n"),
            (["witness", "--state", "werner:0.4", "--w", "0.5"],
             "error: give the Werner parameter once, not twice\n"),
            (["witness", "--state", "mixed", "--phi", "1", "--w", "0.3"],
             "error: --w parameterizes only werner states, not 'mixed'\n"),
        ],
    )
    def test_stray_state_flag_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_ks_names_every_state_flag(self, capsys):
        flags = [flag for flag, *_ in cli._PARAMETRIC_STATES.values()]
        for flag in flags:
            code, out, err = run_cli(capsys, "ks", flag, "0.5")
            assert code == 2
            assert out == ""
            assert all(f"{name} " in err for name in flags), err

    @pytest.mark.parametrize("argv", [
        ["fine", "--", "1", "--", "0", "0"],
        ["witness", "--state", "werner", "--w=--"],
        ["qkd", "--protocol", "e91", "--abort-sigma=--"],
    ])
    def test_double_dash_is_not_a_value(self, capsys, argv):
        """The parser refuses '--' as a value, whether Python's argparse drops it or not."""
        code, out, err = call_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "error: " in err

    def test_positivity_gate_admits_an_eigenvalue_of_exactly_minus_the_tolerance(
            self, capsys, tmp_path):
        """A unit-trace file: -0.25 passes at --tolerance 0.25 and fails one ulp below it."""
        path = tmp_path / "edge.json"
        diagonal = [0.75, 0.25, 0.25, -0.25]
        path.write_text(json.dumps([[[v if i == j else 0.0, 0.0] for j in range(4)]
                                    for i, v in enumerate(diagonal)]))
        for tolerance, code in ((0.25, 0), (float(np.nextafter(0.25, 0.0)), 2)):
            got, out, err = run_cli(capsys, "witness", "--state", str(path),
                                    "--tolerance", repr(tolerance))
            assert got == code, err
            assert ("violates positivity (eigenvalue -2.500e-01)" in err) == bool(code)

    def test_positivity_gate_reads_the_matrix_as_written_whatever_its_trace(
            self, capsys, tmp_path):
        """Trace 0.8 and an eigenvalue of -0.22 as written (-0.275 once divided by the trace):
        --tolerance 0.22 reads the file, clipped into the cone, and one ulp less refuses it."""
        path = tmp_path / "light.json"
        diagonal = [0.34, 0.34, 0.34, -0.22]
        path.write_text(json.dumps([[[v if i == j else 0.0, 0.0] for j in range(4)]
                                    for i, v in enumerate(diagonal)]))
        state, _ = cli.resolve_state(str(path), tolerance=0.22)
        assert np.allclose(state.matrix, np.diag([1.0, 1.0, 1.0, 0.0]) / 3.0, rtol=0.0, atol=1e-15)
        code, out, err = run_cli(capsys, "witness", "--state", str(path),
                                 "--tolerance", repr(float(np.nextafter(0.22, 0.0))))
        assert (code, out) == (2, "")
        assert "violates positivity (eigenvalue -2.200e-01)" in err

    def test_a_floor_state_with_a_trace_under_one_is_read_at_the_default_tolerance(
            self, capsys, tmp_path):
        """TwoQubitState accepts eigenvalue -ATOL_PSD at trace 1 - 2.5e-13; divided by that
        trace the eigenvalue would read -1.00000000000025e-10, below the default tolerance."""
        e = 1e-10
        state = TwoQubitState(np.diag([-e, 0.5 + e / 2 - 2.5e-13, 0.25 + e / 4, 0.25 + e / 4]))
        path = tmp_path / "floor.json"
        path.write_text(json.dumps([[[z.real, z.imag] for z in row]
                                    for row in state.matrix.tolist()]))
        for argv in (["witness", "--state", str(path)],
                     ["qkd", "--protocol", "bbm92", "--source", str(path), "--rounds", "2000"]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err

    def test_a_positive_file_state_is_read_as_written(self, tmp_path):
        """Only a negative spectrum is rebuilt from its eigenvectors and clipped: a Werner
        state whose least eigenvalue is 5e-10 comes back bit for bit."""
        rho = werner_state(1.0 - 2e-9).matrix
        assert 0.0 < np.linalg.eigh(rho)[0][0] < 1e-9
        path = tmp_path / "werner.json"
        path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in rho.tolist()]))
        state, _ = cli.resolve_state(str(path))
        assert np.array_equal(state.matrix, rho / rho.trace().real)

    def test_trace_may_miss_one_by_exactly_the_tolerance(self, capsys, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps([[[0.3125 * (i == j), 0.0] for j in range(4)]
                                    for i in range(4)]))  # trace 1.25
        for tolerance, code in (("0.25", 0), (repr(float(np.nextafter(0.25, 0.0))), 2)):
            got, _, err = run_cli(capsys, "witness", "--state", str(path),
                                  "--tolerance", tolerance)
            assert got == code, err
            assert ("violates unit trace" in err) == bool(code)

    def test_zero_tolerance_is_accepted(self, capsys):
        assert run_cli(capsys, "ks", "--tolerance", "0")[0] == 0

    def test_nan_tolerance_keeps_the_positivity_gate(self, capsys, tmp_path):
        """A file state with eigenvalue -0.5 is rejected, never clipped into the cone."""
        matrix = np.diag([0.5, 0.5, 0.5, -0.5])
        path = tmp_path / "negative.json"
        path.write_text(json.dumps([[[float(v), 0.0] for v in row] for row in matrix]))
        for tolerance, message in (("1e-10", "violates positivity"), ("nan", "finite")):
            code, out, err = run_cli(
                capsys, "witness", "--state", str(path), "--tolerance", tolerance
            )
            assert code == 2
            assert out == ""
            assert message in err

    @pytest.mark.parametrize(
        "payload, tolerance, message",
        [
            ([[[-0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)], "3",
             "trace -1.0; a state's trace must be positive"),
            ([[[0.0, 0.0]] * 4] * 4, "2", "trace 0.0; a state's trace must be positive"),
            ([{"weight": True, "blochA": [0, 0, 1], "blochB": [0, 0, -1]}], "1e-10",
             "weight in FILE must hold only numbers: true is not a number"),
            ([[[float(i == j), False] for j in range(4)] for i in range(4)], "1e-10",
             "must hold only numbers: false is not a number"),
            ([[[float("nan") if i == j == 0 else 0.0, 0.0] for j in range(4)] for i in range(4)],
             "1e-10", "FILE (a 4x4 matrix of [re, im] pairs) holds a NaN or infinite number"),
            ([[[0.3 * (i == j), 0.0] for j in range(4)] for i in range(4)], "0.1",
             "FILE violates unit trace"),
            ([[0.25 * (i == j) for j in range(4)] for i in range(4)], "1e-10",
             "FILE (a 4x4 matrix of [re, im] pairs) must have shape (4, 4, 2), got shape (4, 4)"),
        ],
        ids=["negative-trace", "zero-matrix", "boolean-weight", "boolean-entry", "nan-literal",
             "trace-off", "real-matrix"],
    )
    def test_invalid_state_file_rejected(self, capsys, tmp_path, payload, tolerance, message):
        """Exit 2 with a message naming the file, and no NumPy warning on the way."""
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "witness", "--state", str(path), "--tolerance", tolerance
            )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message.replace("FILE", str(path)) in err
        assert str(path) in err and "Warning" not in err

    @pytest.mark.parametrize(
        "eve, contents, message",
        [
            ("intercept:", None, "intercept takes a direction"),
            ("substitute:", None, "substitute takes an ensemble file"),
            ("substitute:FILE", {"weight": 1.0}, "ensemble file FILE must hold a JSON list"),
            ("substitute:FILE.missing", None, "cannot read ensemble file FILE.missing: "),
            ("substitute:/dev/null", None, "ensemble file /dev/null is not valid JSON: "),
        ],
    )
    def test_bad_eve_descriptor_rejected(self, capsys, tmp_path, eve, contents, message):
        path = tmp_path / "eve.json"
        path.write_text(json.dumps(contents))
        code, out, err = run_cli(capsys, "qkd", "--protocol", "e91",
                                 "--eve", eve.replace("FILE", str(path)))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message.replace("FILE", str(path)) in err

    def test_long_bloch_vector_reported_in_plain_numbers(self, capsys, tmp_path):
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps([{"weight": 1.0, "blochA": [1, 0, 0.5], "blochB": [0, 0, 1]}]))
        code, out, err = run_cli(capsys, "witness", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: blochA at index 0 has norm 1.118033988749895 above 1\n"

    def test_internal_failure_exit_code(self, capsys, monkeypatch):
        def explode(args):
            raise RuntimeError("cross-check failed")

        monkeypatch.setattr(cli, "cmd_witness", explode)
        code, _, err = run_cli(capsys, "witness", "--state", "psi-minus")
        assert code == 3
        assert "consistency" in err

    def test_byte_identical_repeats(self, capsys):
        first = run_cli(
            capsys, "qkd", "--protocol", "e91", "--rounds", "3000", "--seed", "123"
        )
        second = run_cli(
            capsys, "qkd", "--protocol", "e91", "--rounds", "3000", "--seed", "123"
        )
        assert first == second
        assert first[0] == 0

    def test_witness_deterministic(self, capsys):
        a = run_cli(capsys, "witness", "--state", "phase:0.3")
        b = run_cli(capsys, "witness", "--state", "phase:0.3")
        assert a == b


# The five invocations of acceptance criterion 10, and one the parser rejects.
PARSER_REUSE_ARGV = [
    ["witness", "--state", "psi-minus"],
    ["witness", "--state", "phase:0.7853981633974483", "--format", "csv"],
    ["fine", "0.5", "-0.5", "0.5", "0.5"],
    ["qkd", "--protocol", "e91", "--rounds", "2000", "--seed", "77"],
    ["qkd", "--protocol", "bbm92", "--rounds", "2000", "--seed", "77", "--eve", "intercept-xz"],
    ["qkd", "--protocol", "bb84"],
]


class TestParserReuse:
    def test_one_parser_serves_interleaved_calls(self, capsys):
        """Calls through the cached parser match calls through a fresh one, byte for byte."""
        invocations = PARSER_REUSE_ARGV * 2
        fresh = []
        for argv in invocations:
            cli._parser_from.cache_clear()
            fresh.append(call_cli(capsys, argv))
        cli._parser_from.cache_clear()
        reused = [call_cli(capsys, argv) for argv in invocations]
        assert cli._parser_from.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 2] * 2
        assert "invalid choice: 'bb84'" in fresh[5][2]
