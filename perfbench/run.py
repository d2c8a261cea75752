"""eprlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; eprlab is imported from its src/. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1). A summary of checks and failures goes to stderr. The traced
pass also writes its spans to .bench_out/. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads, here and in the set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("qkd-bulk", "certify", "cli-mix")
MIN_ROUNDS = 3
# Set-up children run between rounds, spread over the run, so that one slow
# stretch of the host does not set the median.
SETUP_SAMPLES = 9
SETUP_CHILD = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import eprlab.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)
E2E_UNITS = {
    "setup_s": "s",
    "qkd_rounds_per_s": "rounds/s",
    "qkd_peak_bytes_per_round": "B/round",
    "states_per_s": "states/s",
    "bound_certify_s": "s",
    "cli_calls_per_s": "calls/s",
}
VERDICT_SPANS = ("witnesses.ekert_verdict", "witnesses.bbm_verdict", "witnesses.ks_verdict",
                 "witnesses.bell_fidelities", "witnesses.distillable_witness")
FIXED_COST_SPANS = ("protocol.effective_state", "qstate.outcome_distribution",
                    "qstate.correlator")
SUBCOMMANDS = ("witness", "ks", "fine", "bound", "qkd")


class SetupTimer:
    """Fresh interpreters importing eprlab.cli, timed as wholes; each child
    also reports its numpy and eprlab import times."""

    def __init__(self) -> None:
        self.command = [sys.executable, "-c", SETUP_CHILD]
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.walls: list[float] = []
        self.numpy_s: list[float] = []
        self.eprlab_s: list[float] = []
        self._run()  # untimed: fills the bytecode cache of a fresh checkout

    def _run(self) -> str:
        child = subprocess.run(self.command, env=self.env, cwd=ROOT, check=True,
                               capture_output=True, text=True, timeout=120)
        return child.stdout

    def sample(self) -> None:
        start = time.perf_counter()
        stdout = self._run()
        self.walls.append(time.perf_counter() - start)
        numpy_s, eprlab_s = stdout.split()
        self.numpy_s.append(float(numpy_s))
        self.eprlab_s.append(float(eprlab_s))

    def medians(self) -> tuple[float, float, float]:
        median = statistics.median
        return median(self.walls), median(self.numpy_s), median(self.eprlab_s)


def trace_targets():
    """(function, span name, on_result) for every public function the traced pass wraps."""
    def on_run(record, args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        record.attrs.update(protocol=cfg.protocol.value, rounds=cfg.rounds)

    def on_qber(record, args, kwargs, result):
        record.attrs["bits"] = len(args[0])

    def on_solve(record, args, kwargs, result):
        record.attrs["iterations"] = result.iterations

    def on_bound(record, args, kwargs, result):
        record.attrs.update(functional=result.functional.value, evaluations=result.evaluations)

    targets = [
        ("eprlab.protocol.run_protocol", "protocol.run_protocol", on_run),
        ("eprlab.protocol.effective_state", "protocol.effective_state", None),
        ("eprlab.protocol.estimate_statistic", "protocol.estimate_statistic", None),
        ("eprlab.protocol.qber", "protocol.qber", on_qber),
        ("eprlab.qstate.correlator", "qstate.correlator", None),
        ("eprlab.qstate.outcome_distribution", "qstate.outcome_distribution", None),
        ("eprlab.witnesses.fidelity_identities_check", "witnesses.fidelity_identities_check", None),
        ("eprlab.hidden_variables.quad_from_state", "hidden_variables.quad_from_state", None),
        ("eprlab.hidden_variables.chsh_panel", "hidden_variables.chsh_panel", None),
        ("eprlab.hidden_variables.fine_local_model", "hidden_variables.fine_local_model", None),
        ("eprlab.hidden_variables.separable_expansion_check",
         "hidden_variables.separable_expansion_check", None),
        ("eprlab.hidden_variables.separable_bound", "hidden_variables.separable_bound", on_bound),
        ("eprlab.simplex.solve_lp", "simplex.solve_lp", on_solve),
        ("eprlab.cli.main", "cli.main", None),
        ("eprlab.cli.resolve_state", "cli.resolve_state", None),
        ("eprlab.cli.render", "cli.render", None),
    ]
    targets += [(f"eprlab.{name}", name, None) for name in VERDICT_SPANS]
    return targets


def parser_target(recorder):
    """build_parser, wrapped so that parse_args on the parser it returns is a span too."""
    def on_parser(record, args, kwargs, parser):
        parse_args = parser.parse_args

        @functools.wraps(parse_args)
        def traced_parse_args(*a, **k):
            with recorder.span("cli.parse_args"):
                return parse_args(*a, **k)

        parser.parse_args = traced_parse_args

    return ("eprlab.cli.build_parser", "cli.build_parser", on_parser)


def end_to_end(setup_s, qkd, certify, cli, peak) -> dict:
    return {
        "setup_s": setup_s,
        "qkd_rounds_per_s": qkd.rounds_per_s,
        "qkd_peak_bytes_per_round": peak,
        "states_per_s": certify.states_per_s,
        "bound_certify_s": certify.bound_s,
        "cli_calls_per_s": cli.calls_per_s,
    }


def per_layer(rec, qkd, cli, setup, peaks, certify_rounds) -> dict:
    spans = rec.spans

    def total(items):
        return sum(s.duration for s in items)

    def mean_us(items):
        return 1e6 * total(items) / len(items)

    runs = rec.named("protocol.run_protocol")
    by_flavour = {p: [s for s in runs if s.attrs["protocol"] == p] for p in ("e91", "bbm92")}
    run_rounds = sum(s.attrs["rounds"] for s in runs)
    run_ids = {i for i, s in enumerate(spans) if s.name == "protocol.run_protocol"}
    fixed = sum(s.duration for s in spans if s.parent in run_ids and s.name in FIXED_COST_SPANS)
    qbers = rec.named("protocol.qber")
    n_states = len(rec.named("op.state"))
    in_states = dict(roots=("op.state",))
    solves = rec.named("simplex.solve_lp")
    bounds = rec.named("hidden_variables.separable_bound", roots=("op.bound",))
    n_calls = len(rec.named("op.cli"))
    mains = rec.named("cli.main")
    m = {
        "setup.numpy_import_s": (setup[1], "s"),
        "setup.eprlab_import_s": (setup[2], "s"),
    }
    for flavour, items in by_flavour.items():
        m[f"protocol.{flavour}_ns_per_round"] = (
            1e9 * total(items) / sum(s.attrs["rounds"] for s in items), "ns/round")
    m["protocol.self_ns_per_round"] = (1e9 * sum(s.self_time for s in runs) / run_rounds,
                                       "ns/round")
    m["protocol.qber_ns_per_bit"] = (1e9 * total(qbers) / sum(s.attrs["bits"] for s in qbers),
                                     "ns/bit")
    m["protocol.e91_peak_bytes_per_round"] = (peaks["e91"], "B/round")
    m["protocol.bbm92_peak_bytes_per_round"] = (peaks["bbm92"], "B/round")
    m["protocol.key_bytes_per_bit"] = (qkd.key_bytes / qkd.key_bits, "B/bit")
    m["protocol.fixed_us_per_run"] = (1e6 * fixed / len(runs), "us/run")
    m["qstate.correlator_calls_per_state"] = (
        len(rec.named("qstate.correlator", **in_states)) / n_states, "calls/state")
    m["qstate.correlator_us"] = (mean_us(rec.named("qstate.correlator")), "us")
    m["qstate.outcome_distribution_us"] = (mean_us(rec.named("qstate.outcome_distribution")), "us")
    m["qstate.state_build_us"] = (mean_us(rec.named("qstate.state_build")), "us")
    m["witnesses.verdicts_self_us_per_state"] = (
        1e6 * sum(s.self_time for s in rec.named(*VERDICT_SPANS, **in_states)) / n_states,
        "us/state")
    m["witnesses.crosscheck_us_per_state"] = (
        1e6 * total(rec.named("witnesses.fidelity_identities_check", **in_states)) / n_states,
        "us/state")
    m["hidden_variables.quad_us_per_state"] = (
        1e6 * total(rec.named("hidden_variables.quad_from_state", **in_states)) / n_states,
        "us/state")
    fines = rec.named("hidden_variables.fine_local_model")
    m["hidden_variables.fine_self_us"] = (1e6 * sum(s.self_time for s in fines) / len(fines), "us")
    m["hidden_variables.expansion_check_us"] = (
        mean_us(rec.named("hidden_variables.separable_expansion_check")), "us")
    m["hidden_variables.bound_evaluations"] = (
        sum(s.attrs["evaluations"] for s in bounds) / certify_rounds, "count")
    for name in ("ekert-s", "bbm-t", "ks-i", "ks-ii", "ks-iii"):
        items = [s for s in bounds if s.attrs["functional"] == name]
        m[f"hidden_variables.bound_ms.{name}"] = (1e3 * total(items) / len(items), "ms")
    m["simplex.solve_calls"] = (
        len(rec.named("simplex.solve_lp", **in_states)) / certify_rounds, "count")
    m["simplex.pivots_per_solve"] = (
        sum(s.attrs["iterations"] for s in solves) / len(solves), "pivots/solve")
    m["simplex.solve_us"] = (mean_us(solves), "us")
    m["cli.parse_us"] = (
        1e6 * total(rec.named("cli.build_parser", "cli.parse_args")) / n_calls, "us")
    m["cli.resolve_state_us"] = (mean_us(rec.named("cli.resolve_state")), "us")
    m["cli.render_us"] = (mean_us(rec.named("cli.render")), "us")
    m["cli.output_bytes_per_call"] = (cli.output_bytes / cli.calls, "B/call")
    for sub in SUBCOMMANDS:
        items = [s for s in mains if spans[s.root].attrs["subcommand"] == sub]
        m[f"cli.{sub}_ms"] = (1e3 * total(items) / len(items), "ms")
    return m


def summarize(jobs_by_name: dict) -> bool:
    """Print attempted, failed, failures and check problems per job to stderr."""
    correct = True
    for name, job in jobs_by_name.items():
        st = job.stats
        print(f"[{name}] attempted {st.attempted}, failed {st.failed}, "
              f"check problems {len(st.problems)}", file=sys.stderr)
        for line, count in Counter(st.failures).most_common(10):
            print(f"  failed x{count}: {line[:300]}", file=sys.stderr)
        for line in st.problems[:20]:
            print(f"  WRONG: {line[:300]}", file=sys.stderr)
        correct = correct and not st.problems
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eprlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eprlab", "__init__.py")):
        print(f"error: no eprlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import eprlab
    if os.path.dirname(os.path.abspath(eprlab.__file__)) != os.path.join(SRC, "eprlab"):
        print(f"error: eprlab was imported from {eprlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import jobs
    from spans import Recorder, wrap_functions

    setup = SetupTimer()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        seeds = np.random.SeedSequence(abs(args.seed)).spawn(3)
        rng_qkd, rng_states, rng_cli = (np.random.default_rng(s) for s in seeds)
        qkd = jobs.QkdJob(jobs.make_runs(rng_qkd, bulk=args.workload == "qkd-bulk"))
        certify = jobs.CertifyJob(
            jobs.make_population(rng_states, big=args.workload == "certify"))
        cli = jobs.CliJob(jobs.make_mix(rng_cli, workdir, full=args.workload == "cli-mix"))
        job_list = {"qkd": qkd, "certify": certify, "cli": cli}

        if args.trace:
            peaks = {p: qkd.peak_bytes_per_round(p) for p in ("e91", "bbm92")}
        peak = qkd.peak_bytes_per_round()

        recorder = Recorder() if args.trace else None
        targets = trace_targets() + [parser_target(recorder)] if args.trace else []
        rounds = 0
        with wrap_functions(recorder, targets):
            start = time.perf_counter()
            while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                elapsed = time.perf_counter() - start
                if len(setup.walls) < 1 + int(SETUP_SAMPLES * elapsed / args.seconds):
                    setup.sample()
                for job in job_list.values():
                    job.run_round(recorder)
                rounds += 1
            while len(setup.walls) < SETUP_SAMPLES:
                setup.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = summarize(job_list)
    setup_medians = setup.medians()
    e2e = end_to_end(setup_medians[0], qkd, certify, cli, peak)
    print(f"rounds {rounds}; end-to-end{' (traced)' if args.trace else ''}: "
          + ", ".join(f"{k}={v:.6g}" for k, v in e2e.items()), file=sys.stderr)
    if args.trace:
        layers = per_layer(recorder, qkd, cli, setup_medians, peaks, rounds)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        recorder.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                              "end_to_end_traced": e2e})
        print(f"trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    attempted = sum(job.stats.attempted for job in job_list.values())
    failed = sum(job.stats.failed for job in job_list.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
