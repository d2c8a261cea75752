"""Paired A/B of run_protocol: this checkout's src/eprlab against the same tree at a git revision.

    python3 tools/ab.py --against REV [--seconds S] [--bulk]

REV's src/eprlab is extracted with git archive into a temporary directory and
loaded under a second package name (eprlab imports only relatively, so both
trees load side by side in one interpreter).  Both then run the protocol runs
of perfbench's seed-1 inputs: the companion list of the certify and cli-mix
workloads (six runs, 3e5 rounds), or with --bulk the qkd-bulk list (7e6
rounds).  Each run goes to both trees in turn, and which goes first alternates
run by run and pass by pass, so a slow stretch of the host touches both alike.

Before timing, every run's report is hashed on both trees; the script prints
how many differ and exits 1 if any does.  It then prints the ratio of this
tree's qkd_rounds_per_s to REV's over 1 s windows of whole passes: the median
and the interquartile range.  Run from anywhere in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
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
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # the benchmark's CI smoke seed
WINDOW_S = 1.0
AGAINST = "eprlab_against"  # the package name REV's tree loads under


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
    return tuple(importlib.import_module(f"{AGAINST}.{name}") for name in ("qstate", "protocol"))


def config(qs, pr, run, jobs):
    """The ProtocolConfig of one perfbench run input, built from one tree's classes."""
    if run.source[0] == "singlet":
        source = qs.density_from_pure(qs.bell_state(qs.BellLabel.PSI_MINUS))
    else:
        source = qs.werner_state(run.source[1])
    eve = {
        "none": lambda: pr.NoEve(),
        "intercept-xz": lambda: pr.InterceptResend("xz"),
        "substitute": lambda: pr.SeparableSubstitution(qs.ProductEnsemble(run.eve[1])),
    }[run.eve[0]]()
    return pr.ProtocolConfig(protocol=pr.Protocol(run.protocol), rounds=run.rounds,
                             source_state=source, eve=eve, test_fraction=jobs.TEST_FRACTION,
                             seed=run.seed, abort_sigma=jobs.ABORT_SIGMA)


def digest(report) -> str:
    """SHA-256 over every report field: floats as hex, dicts in their key order."""
    def text(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, (type(None), bool, int, str)):
            return repr(value)
        return repr([(k, text(v)) for k, v in value.items()])

    fields = (f"{f.name}={text(getattr(report, f.name))}" for f in dataclasses.fields(report))
    return hashlib.sha256("\n".join(fields).encode()).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV", help="a git revision")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds (default 20)")
    parser.add_argument("--bulk", action="store_true", help="the qkd-bulk runs, not the companion")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import eprlab.protocol
    import eprlab.qstate
    import jobs
    if Path(eprlab.__file__).resolve().parent != ROOT / "src" / "eprlab":
        print(f"error: eprlab was imported from {eprlab.__file__}", file=sys.stderr)
        return 2

    runs = jobs.make_runs(np.random.default_rng(np.random.SeedSequence(SEED).spawn(3)[0]),
                          bulk=args.bulk)
    with tempfile.TemporaryDirectory(prefix="eprlab-ab-") as folder:
        trees = [(eprlab.qstate, eprlab.protocol), load_revision(args.against, Path(folder))]
        calls = [[(pr.run_protocol, config(qs, pr, run, jobs)) for run in runs]
                 for qs, pr in trees]
        differing = [run for run, *pair in zip(runs, *calls)
                     if len({digest(run_protocol(cfg)) for run_protocol, cfg in pair}) > 1]
        print(f"{len(runs)} runs, {sum(run.rounds for run in runs)} rounds a pass "
              f"({'bulk' if args.bulk else 'companion'} list)")
        for run in differing:
            print(f"DIFFERS: {run.protocol} {run.source[0]} {run.eve[0]} at {run.rounds} rounds")
        print(f"reports differing: {len(differing)} of {len(runs)}")
        ratios, passes = paired_ratios(calls, args.seconds)
    low, median, high = quartiles(ratios)
    print(f"qkd_rounds_per_s ratio, this tree / {args.against}, over {len(ratios)} windows "
          f"of {passes} passes: median {median:.3f}, IQR [{low:.3f}, {high:.3f}]")
    return 1 if differing else 0


def paired_ratios(calls, seconds: float) -> tuple[list[float], int]:
    """Each window's ratio of REV's time to this tree's over the same whole passes, and the
    passes made; which tree runs first alternates run by run and pass by pass."""
    gc.collect()
    ratios = []
    spent = [0.0, 0.0]
    perf_counter = time.perf_counter
    start = window = perf_counter()
    passes = 0
    while True:
        for k in range(len(calls[0])):
            for tree in ((0, 1), (1, 0))[(passes + k) % 2]:
                run_protocol, cfg = calls[tree][k]
                began = perf_counter()
                run_protocol(cfg)
                spent[tree] += perf_counter() - began
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
