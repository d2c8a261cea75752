"""Shared pytest hooks: name the NumPy and BLAS build and the BLAS kernel in the
header, and surface acceptance verdict lines after the run."""

import ctypes
import glob
import os

import numpy as np

VERDICT_LINES: list[str] = []


def record_verdict(line: str) -> None:
    VERDICT_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


def blas_kernel() -> str:
    """The core OpenBLAS's DYNAMIC_ARCH picked for this CPU, asked of the library NumPy loads."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    """The golden digests hold for the build they were recorded on, so name this run's."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = " ".join(f"{blas['name']} {blas['version']} "
                         f"{blas.get('openblas configuration', '')}".split())
    except (TypeError, KeyError):  # show_config has no mode="dicts" before NumPy 1.26
        build = "unknown"
    return f"numpy {np.__version__}, BLAS {build}, kernel {blas_kernel()}"
