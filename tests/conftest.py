"""Shared pytest hooks: name the NumPy and BLAS build, NumPy's dispatched SIMD features
and the BLAS kernel in the header, and surface acceptance verdict lines after the run.
Also the ordered sums every mean of eprlab is read by, written in Python floats."""

import ctypes
import functools
import glob
import operator
import os

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # NumPy before 2.0
    from numpy.core import _multiarray_umath

VERDICT_LINES: list[str] = []


def record_verdict(line: str) -> None:
    VERDICT_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


def ordered_sum(terms) -> float:
    """The terms added one after another in index order, as qstate._sum_in_order adds them."""
    return functools.reduce(operator.add, map(float, terms))


def ordered_dot(u, v) -> float:
    """u.v as the ordered sum of the products u_i v_i."""
    return ordered_sum(x * y for x, y in zip(map(float, u), map(float, v)))


def ordered_correlator(t, a, b) -> float:
    """a.T.b as the ordered sum of the products (a_i b_j) T_ij, row-major."""
    return ordered_sum(float(a[i]) * float(b[j]) * float(t[i][j])
                       for i in range(3) for j in range(3))


def ordered_mixture(weights, blochs_a, blochs_b) -> tuple[list, list, list]:
    """A product mixture's (r_A, r_B, T), each a sum over the terms in term order; T's terms
    are (w_k r_A,k,i) r_B,k,j."""
    w, a, b = (np.asarray(x, dtype=float).tolist() for x in (weights, blochs_a, blochs_b))
    weighted_a = [[w_k * x for x in a_k] for w_k, a_k in zip(w, a)]
    return ([ordered_sum(row[i] for row in weighted_a) for i in range(3)],
            [ordered_sum(w_k * b_k[i] for w_k, b_k in zip(w, b)) for i in range(3)],
            [[ordered_sum(row[i] * b_k[j] for row, b_k in zip(weighted_a, b)) for j in range(3)]
             for i in range(3)])


def simd_dispatch() -> list[str]:
    """The SIMD targets NumPy dispatches to on this CPU; NPY_DISABLE_CPU_FEATURES turns them off."""
    features = _multiarray_umath.__cpu_features__
    return [name for name in _multiarray_umath.__cpu_dispatch__ if features.get(name)]


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
    simd = " ".join(simd_dispatch()) or "baseline"
    return f"numpy {np.__version__}, BLAS {build}, SIMD {simd}, kernel {blas_kernel()}"
