"""Every pinned digest holds under another BLAS kernel, and with NumPy's SIMD dispatch off.

scipy-openblas is built with DYNAMIC_ARCH and picks a kernel per CPU; the
kernels without FMA round some products differently.  OPENBLAS_CORETYPE
forces a kernel for one process, so a child pytest run under Prescott, the
oldest x86-64 core table, checks on any x86-64 machine what a CPU without FMA
would print.  NumPy dispatches its own loops to the widest SIMD features the
CPU has; NPY_DISABLE_CPU_FEATURES turns them off for one process, so the same
child run with them off checks NumPy's loops.  Every mean eprlab reads is an
ordered sum (qstate._sum_in_order), so neither may move a digest; the products
digest below hashes those means themselves.
"""

import contextlib
import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import blas_kernel, simd_dispatch
from eprlab import protocol
from eprlab.hidden_variables import quad_from_state
from eprlab.protocol import MIN_ROUNDS, InterceptResend, Protocol, ProtocolConfig
from eprlab.qstate import (
    Party,
    ProductEnsemble,
    SpinSetting,
    correlator,
    outcome_distribution,
    product_mixture,
)
from eprlab.witnesses import EkertSettings

ROOT = Path(__file__).resolve().parents[1]
FORCED = "Prescott"
# OpenBLAS names a core table by the first x86 core that uses it; Prescott's reads Katmai.
FORCED_NAMES = ("Prescott", "Katmai")
DIGEST_TESTS = (
    "tests/test_cli.py::test_golden_report_digest_is_pinned",
    "tests/test_cli.py::TestFineCommand::test_golden_panel_digest_is_pinned",
    "tests/test_protocol.py::test_seeded_report_digest_is_pinned",
    "tests/test_protocol.py::test_reference_sampler_is_the_shuffle_sampler",
    "tests/test_protocol.py::test_mixed_source_report_digest_is_pinned",
    "tests/test_witnesses.py::test_table_rows_match_per_functional_oracle_bit_for_bit",
    "tests/test_kernel_independence.py::test_products_digest_is_pinned",
)
PRODUCTS_DIGEST = "7303e3af494d129e411b68000dc13be8c7a82e45d59659da6c984601cbac0354"


def unit_vector(rng: random.Random) -> tuple[float, float, float]:
    """A random direction normalized in Python floats: np.linalg.norm would call BLAS."""
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return (v[0] / norm, v[1] / norm, v[2] / norm)


def bloch_vector(rng: random.Random) -> tuple[float, float, float]:
    length = rng.random()
    return tuple(length * x for x in unit_vector(rng))


def products_digest(draws: int = 300, seed: int = 33) -> str:
    """SHA-256 over every mean of seeded random draws: a product mixture's (r_A, r_B, T),
    its intercept-resend image on a random axis, the image's correlator, outcome
    distribution and quad on random settings, and the protocol's table for the pair."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for n in range(draws):
        raw = [rng.random() + 0.01 for _ in range(rng.randint(1, 4))]
        terms = [(u / sum(raw), bloch_vector(rng), bloch_vector(rng)) for u in raw]
        mixture, eve = product_mixture(ProductEnsemble(terms)), InterceptResend(unit_vector(rng))
        image = protocol.effective_state(mixture, eve)
        a, b = SpinSetting.alice(unit_vector(rng)), SpinSetting.bob(unit_vector(rng))
        quad = quad_from_state(image, EkertSettings(*(SpinSetting(unit_vector(rng), party)
                                                      for party in [Party.ALICE] * 2
                                                      + [Party.BOB] * 2)))
        cfg = ProtocolConfig(list(Protocol)[n % 2], MIN_ROUNDS, source_state=mixture, eve=eve)
        with mock.patch.object(protocol, "_physical", wraps=protocol._physical) as table, \
                contextlib.suppress(ValueError):  # too few rounds for a verdict, not the table
            protocol.run_protocol(cfg)
        for values in (mixture.bloch_a, mixture.bloch_b, mixture.correlations, image.bloch_b,
                       image.correlations, [correlator(image, a, b)],
                       outcome_distribution(image, a, b), quad.correlators() + quad.marginals(),
                       table.call_args.args[0]):
            digest.update(np.asarray(values, dtype=float).tobytes())
    return digest.hexdigest()


def test_products_digest_is_pinned():
    assert products_digest() == PRODUCTS_DIGEST


def run_digest_tests(env: dict[str, str]) -> str:
    """Run DIGEST_TESTS in a child pytest with env set, require every one to pass, and
    return the child's header line, which names its SIMD features and BLAS kernel."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                           *DIGEST_TESTS], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, **env}, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = done.stdout.splitlines()[-1]
    assert "passed" in summary and "skipped" not in summary, summary
    return next(line for line in done.stdout.splitlines() if line.startswith("numpy "))


def test_digests_hold_under_the_prescott_kernel():
    """The report and fine panels, GOLDEN_, SHUFFLE_ and MIXED_DIGESTS, the table oracle and
    the products digest pass in a child run forced to Prescott."""
    if blas_kernel() == "unknown":
        pytest.skip("the BLAS NumPy loads is not scipy-openblas, so its kernel cannot be forced")
    header = run_digest_tests({"OPENBLAS_CORETYPE": FORCED})
    assert header.rpartition(", kernel ")[2] in FORCED_NAMES, header


def test_digests_hold_with_numpy_simd_dispatch_off():
    """The same child run with every SIMD feature NumPy dispatches to on this CPU turned off."""
    dispatched = simd_dispatch()
    if not dispatched:
        pytest.skip("NumPy dispatches to no SIMD feature here, so there is none to turn off")
    header = run_digest_tests({"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)})
    assert ", SIMD baseline, " in header, header
