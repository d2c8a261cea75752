"""The command-line tools under tools/ run end to end."""

import ast
import collections
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("flags, reports, metric", [
    ([], 6, "qkd_rounds_per_s"),
    (["--certify"], 47, "states_per_s"),
], ids=["protocol", "certify"])
def test_ab_against_head_finds_no_differing_report(flags, reports, metric):
    """tools/ab.py loads HEAD's src/eprlab beside this checkout's, hashes every output of the
    companion run list (with --certify, of the certify workload's 42 states and 5 bounds) on
    both trees and times them in turn; the tree against itself (or against a change that
    keeps every output) differs in none."""
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs git and a checkout with a HEAD commit")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--against", "HEAD",
                           "--seconds", "1", *flags], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"reports differing: 0 of {reports}" in done.stdout.splitlines()
    assert f"{metric} ratio, this tree / HEAD" in done.stdout


def test_mutate_list_names_every_comparison_and_number():
    """tools/mutate.py --list names, file by file, one mutant per comparison operator and two
    per int or float literal of src/eprlab, counted here straight off each module's AST."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "mutate.py"), "--list"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    listed = collections.Counter()
    for line in done.stdout.splitlines():
        location, description = line.split(": ", 1)  # src/eprlab/<module>.py:<line>
        kind = "compare" if description.startswith("compare -> ") else "number"
        listed[Path(location.rsplit(":", 1)[0]).name, kind] += 1
    expected = collections.Counter()
    for path in sorted((ROOT / "src" / "eprlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                expected[path.name, "compare"] += len(node.ops)
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                expected[path.name, "number"] += 2
    assert listed == expected
