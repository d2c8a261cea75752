"""The command-line tools under tools/ run end to end."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_ab_against_head_finds_no_differing_report():
    """tools/ab.py loads HEAD's src/eprlab beside this checkout's, hashes every report of the
    companion run list on both trees and times them in turn; the tree against itself (or
    against a change that keeps every report) differs in none."""
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs git and a checkout with a HEAD commit")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--against", "HEAD",
                           "--seconds", "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "reports differing: 0 of 6" in done.stdout.splitlines()
    assert "qkd_rounds_per_s ratio, this tree / HEAD" in done.stdout
