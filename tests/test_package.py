"""Tests of the package's public surface: eprlab.__all__ and README's examples."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import eprlab
from eprlab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_block(heading, language):
    """The first fenced block of the given language in README's section '## heading'."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


QUICK_START = readme_block("Library quick start", "python")
COMMAND_LINES = [shlex.split(line, comments=True)[1:]
                 for line in readme_block("Command line", "sh").splitlines()
                 if line.startswith("eprlab ")]


def test_all_is_exactly_what_init_imports_from_the_submodules():
    """In import order, no duplicates, no modules; a stray `from typing import ...` fails."""
    tree = ast.parse(Path(eprlab.__file__).read_text(encoding="utf-8"))
    sources = [(alias.asname or alias.name, node.module) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert eprlab.__all__ == [name for name, _ in sources]
    assert len(set(eprlab.__all__)) == len(eprlab.__all__)
    for name, module in sources:
        value = getattr(eprlab, name)
        assert not isinstance(value, ModuleType), name
        assert getattr(importlib.import_module(f"eprlab.{module}"), name) is value, name


def test_all_holds_every_name_the_quick_start_imports():
    imported = [alias.name for node in ast.walk(ast.parse(QUICK_START))
                if isinstance(node, ast.ImportFrom) and node.module == "eprlab"
                for alias in node.names]
    assert imported and set(imported) <= set(eprlab.__all__)


def test_quick_start_runs(capsys):
    exec(compile(QUICK_START, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "violated=True" in out
    for value in ("statistic=-2.8284271247461894", "statistic=-1.9999999999999996",
                  "psi_minus=0.9999999999999998"):  # as the comments say
        assert value in out


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_command_line_examples_run(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eve_ensemble.json").write_text(json.dumps([
        {"weight": 0.5, "blochA": [0.0, 0.0, 1.0], "blochB": [0.0, 0.0, -1.0]},
        {"weight": 0.5, "blochA": [0.0, 0.0, -1.0], "blochB": [0.0, 0.0, 1.0]},
    ]))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out and captured.err == ""


def test_python_dash_m_runs_the_cli():
    src = Path(eprlab.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "eprlab", "bound", "bbm-t"], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["functional"] == "bbm-t"


def test_every_command_line_example_is_collected():
    assert len(COMMAND_LINES) == README.count("\neprlab ") >= 5
