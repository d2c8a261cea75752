"""Shared pytest hooks: name the NumPy and BLAS build in the header, and surface
acceptance verdict lines after the run."""

import numpy as np

VERDICT_LINES: list[str] = []


def record_verdict(line: str) -> None:
    VERDICT_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


def pytest_report_header(config):
    """The golden digests hold for the build they were recorded on, so name this run's."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = " ".join(f"{blas['name']} {blas['version']} "
                         f"{blas.get('openblas configuration', '')}".split())
    except (TypeError, KeyError):  # show_config has no mode="dicts" before NumPy 1.26
        build = "unknown"
    return f"numpy {np.__version__}, BLAS {build}"
