"""Paired A/B: this checkout's src/eprlab against the same tree at a git revision.

    python3 tools/ab.py --against REV [--seconds S] [--bulk | --certify]

REV's src/eprlab is extracted with git archive into a temporary directory and
loaded under a second package name (eprlab imports only relatively, so both
trees load side by side in one interpreter).  Both then run perfbench's seed-1
inputs.  By default these are the protocol runs of the companion list of the
certify and cli-mix workloads (six runs, 3e5 rounds), or with --bulk the
qkd-bulk list (7e6 rounds), each configured by perfbench's own QkdInput.config.
With --certify they are the certify workload's 42 states, each built and put
through perfbench's certification chain, and the five separable bounds.  Each
perfbench function runs with its module globals pointed at each tree's modules.
Each operation goes to both trees in turn, and which goes first alternates
operation by operation and pass by pass, so a slow stretch of the host touches
both alike.

Before timing, every output is hashed on both trees (floats by float.hex, arrays
by their bytes); the script prints how many differ and exits 1 if any does.  It
then prints the ratio of this tree's qkd_rounds_per_s (states_per_s with
--certify) to REV's over 1 s windows of whole passes: the median and the
interquartile range.  Run from anywhere in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # the benchmark's CI smoke seed
WINDOW_S = 1.0
AGAINST = "eprlab_against"  # the package name REV's tree loads under
MODULES = ("qstate", "witnesses", "hidden_variables", "protocol")


def load_revision(rev: str, folder: Path):
    """REV's src/eprlab, extracted into folder and imported as AGAINST."""
    archive = subprocess.run(["git", "archive", rev, "src/eprlab"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(folder, **safe)
    package = folder / "src" / "eprlab"
    spec = importlib.util.spec_from_file_location(AGAINST, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = module
    spec.loader.exec_module(module)
    return tree(AGAINST)


def tree(package: str) -> types.SimpleNamespace:
    """One tree's MODULES, by name."""
    return types.SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}")
                                    for name in MODULES})


def rebound(function, **modules):
    """function with the named module globals swapped for one tree's modules."""
    return types.FunctionType(function.__code__, {**function.__globals__, **modules},
                              function.__name__, function.__defaults__, function.__closure__)


def digest(output) -> str:
    """SHA-256 over an output: floats as hex, arrays as dtype, shape and bytes, dataclasses
    by field and dicts in their key order."""
    def text(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, (type(None), bool, int, str)):
            return repr(value)
        if isinstance(value, (list, tuple)):
            return repr([text(v) for v in value])
        if dataclasses.is_dataclass(value):
            return repr([(f.name, text(getattr(value, f.name))) for f in dataclasses.fields(value)])
        if hasattr(value, "tobytes"):
            return f"{value.dtype}{value.shape}{value.tobytes().hex()}"
        return repr([(k, text(v)) for k, v in value.items()])

    return hashlib.sha256(text(output).encode()).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV", help="a git revision")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds (default 20)")
    workload = parser.add_mutually_exclusive_group()
    workload.add_argument("--bulk", action="store_true",
                          help="the qkd-bulk runs, not the companion")
    workload.add_argument("--certify", action="store_true",
                          help="the certify workload's states and bounds, not protocol runs")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import eprlab
    import jobs
    if Path(eprlab.__file__).resolve().parent != ROOT / "src" / "eprlab":
        print(f"error: eprlab was imported from {eprlab.__file__}", file=sys.stderr)
        return 2

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(SEED).spawn(3)]
    with tempfile.TemporaryDirectory(prefix="eprlab-ab-") as folder:
        trees = [tree("eprlab"), load_revision(args.against, Path(folder))]
        if args.certify:
            names, calls, timed = certify_calls(jobs, rngs[1], trees)
            metric = "states_per_s"
        else:
            names, calls, timed = protocol_calls(jobs, rngs[0], trees, args.bulk)
            metric = "qkd_rounds_per_s"
        differing = [name for name, *pair in zip(names, *calls)
                     if len({digest(call()) for call in pair}) > 1]
        for name in differing:
            print(f"DIFFERS: {name}")
        print(f"reports differing: {len(differing)} of {len(names)}")
        ratios, passes = paired_ratios([tree_calls[:timed] for tree_calls in calls], args.seconds)
    low, median, high = quartiles(ratios)
    print(f"{metric} ratio, this tree / {args.against}, over {len(ratios)} windows "
          f"of {passes} passes: median {median:.3f}, IQR [{low:.3f}, {high:.3f}]")
    return 1 if differing else 0


def protocol_calls(jobs, rng, trees, bulk: bool):
    """Each run's name, and its run_protocol call on each tree; all are timed."""
    runs = jobs.make_runs(rng, bulk=bulk)
    print(f"{len(runs)} runs, {sum(run.rounds for run in runs)} rounds a pass "
          f"({'bulk' if bulk else 'companion'} list)")
    names = [f"{run.protocol} {run.source[0]} {run.eve[0]} at {run.rounds} rounds"
             for run in runs]
    calls = []
    for t in trees:
        config = rebound(jobs.QkdInput.config, qs=t.qstate, pr=t.protocol)
        calls.append([functools.partial(t.protocol.run_protocol, config(run)) for run in runs])
    return names, calls, len(runs)


def certify_calls(jobs, rng, trees):
    """Each state's name and then each bound's, and on each tree the call that builds the
    state and certifies it, as perfbench's CertifyJob times it, or that computes the bound.
    The states are timed, the bounds (cached after their first call) are not."""
    population = jobs.make_population(rng, big=True)
    print(f"{len(population)} states and {len(jobs.FUNCTIONALS)} bounds a pass")
    names = [f"{item.kind} state {k}" for k, item in enumerate(population)]
    names += [f"separable_bound {name}" for name in jobs.FUNCTIONALS]
    calls = []
    for t in trees:
        build = rebound(jobs.StateInput.build, qs=t.qstate)
        chain = rebound(jobs.certify, wt=t.witnesses, hv=t.hidden_variables)
        settings = t.witnesses.default_ekert_settings()
        hv = t.hidden_variables
        calls.append([functools.partial(certify_state, build, chain, settings, item)
                      for item in population]
                     + [functools.partial(hv.separable_bound, hv.SeparableFunctional(name))
                        for name in jobs.FUNCTIONALS])
    return names, calls, len(population)


def certify_state(build, chain, settings, item):
    """One population state, built and put through the certification chain."""
    return chain(*build(item), settings)


def paired_ratios(calls, seconds: float) -> tuple[list[float], int]:
    """Each window's ratio of REV's time to this tree's over the same whole passes, and the
    passes made; which tree runs first alternates call by call and pass by pass."""
    gc.collect()
    ratios = []
    spent = [0.0, 0.0]
    perf_counter = time.perf_counter
    start = window = perf_counter()
    passes = 0
    while True:
        for k in range(len(calls[0])):
            for side in ((0, 1), (1, 0))[(passes + k) % 2]:
                call = calls[side][k]
                began = perf_counter()
                call()
                spent[side] += perf_counter() - began
        passes += 1
        now = perf_counter()
        if now - window >= WINDOW_S or now - start >= seconds:
            ratios.append(spent[1] / spent[0])
            spent = [0.0, 0.0]
            window = now
            if now - start >= seconds:
                return ratios, passes


if __name__ == "__main__":
    sys.exit(main())
