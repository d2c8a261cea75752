"""Fuzz of the command line, called in process through eprlab.cli.main.

Whatever the argv and whatever JSON a state file holds, the contract is:
no exception escapes, the exit code is 0, 2 or 3, and a JSON report is
strict JSON, without NaN or Infinity.  --format csv and --tolerance are
drawn only for the subcommands that take them, numeric options are
numbers in any spelling float() reads, and functionals are valid names:
each with a few malformed values now and then, so that most examples
reach the commands instead of ending at the parser.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from eprlab import cli

FORMATS = ("json", "plain", "csv")
FLAT_REPORTS = ("witness", "bound")  # the only commands whose reports may be csv
TOLERANT = ("witness", "ks", "qkd")  # the only commands that take --tolerance

# Text for options the parser types as float or int: numbers in spellings
# float() reads, and now and then one of a few malformed strings.
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-3, max_value=3).map(str),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999", "0", "1", "-1", "0.5", "-0.25",
                     "", "x", "1,5", "0x1", "1e", "--"]),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=3), children, max_size=3)
    ),
    max_leaves=10,
)
numeric = st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.floats(), json_values)
matrix_like = st.lists(
    st.lists(st.lists(numeric, min_size=2, max_size=2), min_size=4, max_size=4),
    min_size=4,
    max_size=4,
)
ensemble_like = st.lists(
    st.fixed_dictionaries(
        {
            "weight": numeric,
            "blochA": st.one_of(st.lists(numeric, min_size=3, max_size=3), json_values),
            "blochB": st.one_of(st.lists(numeric, min_size=3, max_size=3), json_values),
        }
    ),
    min_size=1,
    max_size=3,
)
file_contents = st.one_of(json_values, matrix_like, ensemble_like)


@st.composite
def invocations(draw):
    """(argv, contents of the state file that the FILE placeholder names)."""
    state = draw(
        st.one_of(
            st.just("FILE"),
            st.sampled_from(["psi-minus", "psi-plus", "phi-plus", "phi-minus", "mixed"]),
            st.builds(lambda k, x: f"{k}:{x}", st.sampled_from(["werner", "phase"]), numbers),
            st.sampled_from(["werner", "phase", "psi-minus:1", "psi-minus:", ""]),
            st.text(max_size=6),
        )
    )
    command = draw(st.sampled_from(["witness", "ks", "fine", "bound", "qkd"]))
    options = []
    if draw(st.booleans()):
        formats = FORMATS if command in FLAT_REPORTS else FORMATS[:2]
        options += ["--format", draw(st.sampled_from(formats))]
    if command in TOLERANT and draw(st.booleans()):
        options += [f"--tolerance={draw(numbers)}"]
    state_options = []
    for flag in ("--phi", "--w"):
        if draw(st.booleans()):
            state_options += [f"{flag}={draw(numbers)}"]

    if command == "witness":
        argv = ["witness", "--state", state, *state_options]
    elif command == "ks":
        argv = ["ks", *(["--state", state] if draw(st.booleans()) else []), *state_options]
        argv += ["--assignments"] if draw(st.booleans()) else []
    elif command == "fine":
        marginals = draw(st.lists(numbers, min_size=4, max_size=4))
        argv = ["fine", *(["--marginals", *marginals] if draw(st.booleans()) else [])]
        options += ["--", *draw(st.lists(numbers, min_size=4, max_size=4))]
    elif command == "bound":
        # The five functionals, and now and then a name the parser refuses.
        names = ["ekert-s", "bbm-t", "ks-i", "ks-ii", "ks-iii", "ks-iv", ""]
        argv = ["bound", draw(st.sampled_from(names))]
    else:
        eve = draw(
            st.one_of(
                st.sampled_from(["none", "intercept-x", "intercept-z", "intercept-xz"]),
                st.builds(lambda *d: "intercept:" + ",".join(d), numbers, numbers, numbers),
                st.sampled_from(["intercept:", "substitute:FILE", "substitute:", "tap"]),
            )
        )
        argv = [
            "qkd",
            "--protocol", draw(st.sampled_from(["e91", "bbm92"])),
            "--rounds", draw(st.sampled_from(["50", "100", "600", "2000", "-1", "x", str(10**20)])),
            "--seed", draw(st.sampled_from(["0", "7", "-1", str(2**64)])),
            "--source", state,
            "--eve", eve,
            *state_options,
        ]
        for flag in ("--test-fraction", "--abort-sigma"):
            if draw(st.booleans()):
                argv += [f"{flag}={draw(numbers)}"]
    return argv + options, draw(file_contents)


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name} in stdout")


@settings(max_examples=120, deadline=None)
@given(invocation=invocations())
def test_cli_contract_holds_for_any_input(invocation):
    argv, contents = invocation
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(contents, handle)
        argv = [arg.replace("FILE", path) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejecting the argv
                code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    stdout = out.getvalue()
    if code != 0:
        assert stdout == ""
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        assert isinstance(json.loads(stdout, parse_constant=_no_constant), dict)
    elif fmt == "plain":
        assert all(" = " in line for line in stdout.splitlines())
    else:
        header, values = csv.reader(io.StringIO(stdout))
        assert len(header) == len(values)
