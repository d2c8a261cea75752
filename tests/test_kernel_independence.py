"""Every pinned digest holds under another BLAS kernel.

scipy-openblas is built with DYNAMIC_ARCH and picks a kernel per CPU; the
kernels without FMA round some products differently.  OPENBLAS_CORETYPE
forces a kernel for one process, so a child pytest run under Prescott, the
oldest x86-64 core table, checks on any x86-64 machine what a CPU without FMA
would print.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import blas_kernel

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
)


def test_digests_hold_under_the_prescott_kernel():
    """The report and fine panels, GOLDEN_, SHUFFLE_ and MIXED_DIGESTS and the table oracle
    pass in a child run forced to Prescott, whose pytest header names the kernel it ran on."""
    if blas_kernel() == "unknown":
        pytest.skip("the BLAS NumPy loads is not scipy-openblas, so its kernel cannot be forced")
    done = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                           *DIGEST_TESTS], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_CORETYPE": FORCED}, timeout=600)
    header = next(line for line in done.stdout.splitlines() if line.startswith("numpy "))
    assert header.rpartition(", kernel ")[2] in FORCED_NAMES, header
    assert done.returncode == 0, done.stdout + done.stderr
    summary = done.stdout.splitlines()[-1]
    assert "passed" in summary and "skipped" not in summary, summary
