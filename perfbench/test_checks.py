"""Self-tests of the benchmark's checkers: each must reject a deliberately
wrong result, and CLI faults must be counted without stopping a round.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import eprlab.cli  # noqa: E402
import eprlab.hidden_variables as hv  # noqa: E402
import eprlab.protocol as pr  # noqa: E402
import eprlab.witnesses as wt  # noqa: E402
import jobs  # noqa: E402
import refcheck as ref  # noqa: E402


@pytest.fixture(scope="module")
def certified():
    """A Werner state on the CHSH-violating side, certified by the program."""
    item = jobs.StateInput("werner", 0.8)
    state, _ = item.build()
    reference = ref.StateRef.of(item.rho())
    got = jobs.certify(state, None, wt.default_ekert_settings())
    return reference, ref.lp_feasible(reference.quad), got


def test_certification_passes_as_computed(certified):
    reference, feasible, got = certified
    assert feasible is False
    assert jobs.CertifyJob.check_state(reference, feasible, got) == []


@pytest.mark.parametrize("field, value", [
    ("S", lambda g: g["S"] + 1e-6),
    ("T", lambda g: g["T"] - 1e-6),
    ("U", lambda g: [g["U"][0], g["U"][1] + 1e-6, g["U"][2]]),
    ("S_violated", lambda g: not g["S_violated"]),
    ("fidelities", lambda g: {**g["fidelities"], "psi-minus": g["fidelities"]["psi-minus"] + 1e-6}),
    ("distillable", lambda g: not g["distillable"]),
    ("chsh", lambda g: [g["chsh"][0] + 1e-6] + g["chsh"][1:]),
    ("passes", lambda g: not g["passes"]),
    ("quad", lambda g: g["quad"][:5] + [g["quad"][5] + 1e-6] + g["quad"][6:]),
    ("weights", lambda g: [1.0 / 16] * 16),
    ("matrix", lambda g: g["matrix"] + 1e-9 * np.eye(4)),
])
def test_certification_rejects_a_wrong_field(certified, field, value):
    reference, feasible, got = certified
    assert jobs.CertifyJob.check_state(reference, feasible, {**got, field: value(got)})


def test_local_model_checks_weights():
    weights = np.random.default_rng(3).dirichlet(np.ones(16))
    quad = ref.strategy_sum(weights)
    got = {"quad": list(quad), "chsh": list(ref.chsh_values(quad[:4])), "passes": True,
           "weights": list(weights)}
    assert ref.lp_feasible(quad) is True
    assert ref.check_local_model(quad, True, got) == []
    shifted = list(weights)
    shifted[0], shifted[1] = shifted[0] + 1e-6, shifted[1] - 1e-6
    assert ref.check_local_model(quad, True, {**got, "weights": shifted})
    assert ref.check_local_model(quad, True, {**got, "weights": None})
    negative = [-1e-6] + list(weights[1:] + 1e-6 / 15)
    assert ref.check_local_model(quad, True, {**got, "weights": negative})


@pytest.mark.parametrize("name", jobs.FUNCTIONALS)
def test_bound_check(name):
    report = hv.separable_bound(hv.SeparableFunctional(name))
    args = (report.argmax_bloch_a, report.argmax_bloch_b, report.evaluations)
    assert ref.check_bound(name, report.supremum, *args) == []
    assert ref.check_bound(name, report.supremum - 1e-3, *args)
    assert ref.check_bound(name, ref.bound_reference(name) + 1e-9, *args)
    assert ref.check_bound(name, report.supremum, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                           report.evaluations)


@pytest.fixture(scope="module", params=["e91", "bbm92"])
def clean_run(request):
    run = jobs.QkdInput(request.param, 20_000, ("singlet",), ("none",), seed=5)
    return run, jobs.as_result(pr.run_protocol(run.config()))


def _flip(key: str, index: int) -> str:
    return key[:index] + ("1" if key[index] == "0" else "0") + key[index + 1:]


def test_qkd_check_passes_and_rejects(clean_run):
    run, got = clean_run
    source_t, t_eff = run.reference()
    check = lambda g: ref.check_qkd(run.protocol, run.rounds, source_t, t_eff, g)  # noqa: E731
    assert got.qber == 0.0 and got.key_a == got.key_b
    assert check(got) == []
    assert check(dataclasses.replace(got, key_b=_flip(got.key_b, 7)))
    assert check(dataclasses.replace(got, key_b=got.key_b[:-1]))
    assert check(dataclasses.replace(got, statistic=-got.statistic))
    assert check(dataclasses.replace(got, aborted=not got.aborted))
    assert check(dataclasses.replace(got, qber=1e-4))
    used = dict(got.rounds_used, key=got.rounds_used["key"] + 1)
    assert check(dataclasses.replace(got, rounds_used=used))


def test_qkd_check_reads_intercept_resend():
    run = jobs.QkdInput("bbm92", 40_000, ("singlet",), ("intercept-xz",), seed=9)
    source_t, t_eff = run.reference()
    assert np.allclose(t_eff, np.diag([-0.5, 0.0, -0.5]))
    got = jobs.as_result(pr.run_protocol(run.config()))
    assert got.aborted
    assert ref.check_qkd("bbm92", run.rounds, source_t, t_eff, got) == []
    assert ref.check_qkd("bbm92", run.rounds, source_t, source_t, got)


@pytest.mark.parametrize("stdout, fmt, code, raised, failed", [
    ('{"a": 1.5}\n', "json", 0, None, False),
    ('{"a": Infinity}\n', "json", 0, None, True),
    ('{"a": NaN}\n', "json", 0, None, True),
    ('{"a": 1', "json", 0, None, True),
    ("a = 1\nb\n", "plain", 0, None, True),
    ("a,b\n1,2\n", "csv", 0, None, False),
    ("a,b\n1\n", "csv", 0, None, True),
    ("", "json", 2, None, False),
    ("", "json", 3, None, False),
    ("", "json", 1, None, True),
    ("", "json", None, TypeError("float() argument"), True),
])
def test_invocation_failed(stdout, fmt, code, raised, failed):
    assert (ref.invocation_failed(raised, code, stdout, fmt) is not None) is failed


def test_known_faults_count_as_failed_and_the_round_goes_on(monkeypatch, tmp_path):
    mix = jobs.make_mix(np.random.default_rng(0), str(tmp_path), full=True)
    known = [inv for inv in mix if inv.check is None]
    assert [inv.argv[0] for inv in known] == ["witness", "qkd"]
    assert known[0].argv[2].endswith("object.json") and "inf" in known[1].argv

    def faulty_main(argv):
        if argv == list(known[0].argv):
            raise TypeError("float() argument must be a string or a real number, not 'dict'")
        if argv == list(known[1].argv):
            print('{"abortSigma": Infinity}')
            return 0
        print('{"ok": true}')
        return 0

    monkeypatch.setattr(eprlab.cli, "main", faulty_main)
    plain = jobs.Invocation(("ok",), None)
    job = jobs.CliJob([plain, known[0], plain, known[1], plain])
    job.run_round(None)
    job.run_round(None)
    assert (job.stats.attempted, job.stats.failed) == (10, 4)
    assert job.stats.problems == []
    assert job.calls_per_s > 0


def test_a_wrong_cli_report_is_a_problem_not_a_failure():
    singlet = ref.StateRef.of(ref.pure_rho(ref.BELL_VECTORS["psi-minus"]))
    for fmt in ("json", "plain", "csv"):
        right = jobs.Invocation(("witness", "--state", "psi-minus", "--format", fmt),
                                jobs.witness_check(singlet))
        wrong = jobs.Invocation(("witness", "--state", "psi-plus", "--format", fmt),
                                jobs.witness_check(singlet))
        job = jobs.CliJob([right])
        job.run_round(None)
        assert job.stats.problems == [] and job.stats.failed == 0
        job = jobs.CliJob([wrong])
        job.run_round(None)
        assert job.stats.problems and job.stats.failed == 0


def test_traced_round_reports_every_benchmark_metric(tmp_path):
    import json

    import eprlab.qstate
    import run
    from spans import Recorder, wrap_functions

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(3)]
    qkd = jobs.QkdJob(jobs.make_runs(rngs[0], bulk=False))
    certify = jobs.CertifyJob(jobs.make_population(rngs[1], big=False))
    cli = jobs.CliJob(jobs.make_mix(rngs[2], str(tmp_path), full=False))
    original = eprlab.qstate.correlator
    recorder = Recorder()
    with wrap_functions(recorder, run.trace_targets() + [run.parser_target(recorder)]):
        assert eprlab.witnesses.correlator is not original
        for job in (qkd, certify, cli):
            job.run_round(recorder)
    assert eprlab.witnesses.correlator is original and eprlab.protocol.correlator is original
    assert all(job.stats.failed == 0 and job.stats.problems == [] for job in (qkd, certify, cli))

    layers = run.per_layer(recorder, qkd, cli, (0.2, 0.1, 0.05), {"e91": 45.0, "bbm92": 63.0}, 1)
    assert {name: unit for name, (_, unit) in layers.items()} == \
        {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(value > 0 for value, _ in layers.values())
    e2e = run.end_to_end(0.2, qkd, certify, cli, 45.0)
    assert {name: run.E2E_UNITS[name] for name in e2e} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert all(value > 0 for value in e2e.values())
