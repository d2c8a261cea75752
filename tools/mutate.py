"""Mutation testing for src/eprlab: flip one comparison or nudge one number, run tier 1.

Each mutant changes one site in a scratch copy of the checkout:

- a comparison operator flips to its boundary twin (< and <=, > and >=, == and
  !=, is and is not, in and not in), one operator of a chained comparison at
  a time;
- a numeric literal is nudged both ways: a float by a factor 1 +- 2**-6 (0.0
  to +-2**-30), an integer by +-1.

The tier-1 suite then runs on the copy with pytest -x -q; a mutant whose run
passes survived, and the survivors are printed at the end.  Run from the
repository root, for example

    python3 tools/mutate.py --list
    python3 tools/mutate.py --match "^(PIVOT_TOL|MIN_ROUNDS) ="
    python3 tools/mutate.py --lines qstate.py:305-310 --lines witnesses.py:150

--match keeps the mutants whose source line (stripped) matches a regular
expression, --lines those in a file's line range; with both, a mutant
needs to pass either.  --kind compare or --kind number keeps one kind.
Each mutant costs up to one full tier-1 run, about 35 s on two cores, so
the script is kept out of tier 1 and run by hand.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/eprlab")
SKIPPED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
NUDGE = 2.0 ** -6
TIMEOUT = 600.0  # seconds per tier-1 run: a flipped loop condition can hang the suite


@dataclass(frozen=True)
class Mutant:
    path: Path  # relative to the checkout
    start: tuple[int, int]  # (line, column) of the replaced source, 1-based lines
    end: tuple[int, int]
    replacement: str
    description: str

    @property
    def kind(self) -> str:
        return "compare" if self.description.startswith("compare") else "number"


def _nudged(value):
    if isinstance(value, int):
        return (value - 1, value + 1)
    if value == 0.0:
        return (-(2.0 ** -30), 2.0 ** -30)
    return (value * (1.0 - NUDGE), value * (1.0 + NUDGE))


def mutants_of(path: Path) -> list[Mutant]:
    source = (ROOT / path).read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        span = ((getattr(node, "lineno", 0), getattr(node, "col_offset", 0)),
                (getattr(node, "end_lineno", 0), getattr(node, "end_col_offset", 0)))
        segment = ast.get_source_segment(source, node)
        if isinstance(node, ast.Compare):
            if ast.dump(ast.parse(f"({segment})", mode="eval").body) != ast.dump(node):
                continue  # a position Python reports wrongly, as inside some f-strings
            for k, op in enumerate(node.ops):
                if type(op) not in FLIPS:
                    continue
                flipped = ast.Compare(node.left, list(node.ops), node.comparators)
                flipped.ops[k] = FLIPS[type(op)]()
                text = ast.unparse(flipped)
                found.append(Mutant(path, *span, text, f"compare -> {text}"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if segment is None or ast.literal_eval(segment) != node.value:
                continue
            for value in _nudged(node.value):
                found.append(Mutant(path, *span, repr(value),
                                    f"{node.value!r} -> {value!r}"))
    return sorted(found, key=lambda m: (m.start, m.description))


def apply(source: str, mutant: Mutant) -> str:
    """The source with the mutant's span replaced; ast columns count UTF-8 bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    (l0, c0), (l1, c1) = mutant.start, mutant.end
    head = b"".join(lines[:l0 - 1]) + lines[l0 - 1][:c0]
    tail = lines[l1 - 1][c1:] + b"".join(lines[l1:])
    return (head + mutant.replacement.encode("utf-8") + tail).decode("utf-8")


def selected(mutant: Mutant, match, ranges) -> bool:
    if match is None and not ranges:
        return True
    line = (ROOT / mutant.path).read_text(encoding="utf-8").splitlines()[mutant.start[0] - 1]
    if match is not None and re.search(match, line.strip()):
        return True
    return any(mutant.path.name == name and lo <= mutant.start[0] <= hi for name, lo, hi in ranges)


def parse_range(text: str) -> tuple[str, int, int]:
    name, _, lines = text.partition(":")
    lo, _, hi = lines.partition("-")
    return name, int(lo), int(hi or lo)


def run_tier_one(workdir: Path) -> tuple[str, str]:
    """(outcome, detail): survived, killed (and the first test that failed) or timeout.

    Hypothesis's example database goes first: an example one mutant failed on would
    otherwise be replayed against every later mutant."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "-o", "addopts="]
    try:
        done = subprocess.run(command, cwd=workdir, env=env, capture_output=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode == 0:
        return "survived", ""
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED", "ERROR"))]
    return "killed", (failed or lines[-15:])[0] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--match", help="regex on the stripped source line of a mutant")
    parser.add_argument("--lines", action="append", default=[], type=parse_range,
                        metavar="FILE:START[-END]", help="a line range of one module")
    parser.add_argument("--kind", choices=("compare", "number"), help="only this kind of mutant")
    parser.add_argument("--list", action="store_true", help="list the mutants and stop")
    args = parser.parse_args(argv)

    mutants = [m for path in sorted((ROOT / PACKAGE).glob("*.py"))
               for m in mutants_of(path.relative_to(ROOT))
               if selected(m, args.match, args.lines) and args.kind in (None, m.kind)]
    if args.list:
        for m in mutants:
            print(f"{m.path}:{m.start[0]}: {m.description}")
        return 0
    workdir = Path(tempfile.mkdtemp(prefix="eprlab-mutate-")) / "checkout"
    try:
        shutil.copytree(ROOT, workdir, ignore=SKIPPED)
        outcome, detail = run_tier_one(workdir)
        if outcome != "survived":
            print(f"tier 1 fails on the unmutated copy ({outcome}): {detail}", file=sys.stderr)
            return 1
        survivors = []
        for k, m in enumerate(mutants, 1):
            target = workdir / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(apply(original, m), encoding="utf-8")
            try:
                outcome, detail = run_tier_one(workdir)
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"[{k}/{len(mutants)}] {outcome:8} {m.path}:{m.start[0]}: {m.description}"
                  + (f"  ({detail})" if detail else ""), flush=True)
            if outcome == "survived":
                survivors.append(m)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    print(f"\n{len(survivors)} of {len(mutants)} mutants survived")
    for m in survivors:
        print(f"SURVIVED {m.path}:{m.start[0]}: {m.description}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
