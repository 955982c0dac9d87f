#!/usr/bin/env python3
"""The mutant table: edits of the source that tier-1 must kill, each written
once as a row, and the runner that checks them:

    python tests/mutants.py

For each row the runner copies the repo, without `.git` and `perfbench/`,
into a temporary directory, replaces the row's old text in its file with the
new text, and runs `python -m pytest -q -x -p no:cacheprovider tests` there
with PYTHONPATH=src. Each run is under an address-space limit of
CHILD_AS_KIB, so a mutant that drops a size cap fails by MemoryError
instead of taking the host's memory. The runner exits 1 when

- a row's old text does not occur exactly once in its file, so a change to
  the source must update its rows;
- a `killed` row survives;
- an `equivalent` row is killed. Then it was not equivalent, and the row
  must be relabelled.

Pytest does not collect this file, since its name has no `test_` prefix.
"""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CHILD_AS_KIB = 700_000
CHILD_TIMEOUT_S = 300


class Mutant(NamedTuple):
    path: str  # from the root of the repo
    old: str  # must occur exactly once in the file
    new: str
    label: str  # "killed" or "equivalent"
    why: str


ROWS = [
    Mutant("src/oddferrers/qseries.py",
           "for r in range(min(e, len(t) - e)):", "for r in range(min(e, len(t) - e) - 1):",
           "killed", "the division leaves the last residue class of each level undivided"),
    Mutant("src/oddferrers/qseries.py", "t[:0] = [1] + [0] * e", "t[:0] = [1] + [0] * (e - 1)",
           "killed", "each inner level enters one order too low"),
    Mutant("src/oddferrers/cli.py", "for n in ns)", "for n in ns[:-1])",
           "killed", "the pnu table loses its last line"),
    Mutant("src/oddferrers/bijections.py", "parts[-1] % 4 == 1", "parts[-1] % 4 == 3",
           "killed", "the DO pre-check refuses every member"),
    Mutant("src/oddferrers/classes.py",
           "for x in parts if not x & 1]", "for x in parts[1:] if not x & 1]",
           "killed", "the S leaf test skips the head row"),
    Mutant("src/oddferrers/classes.py",
           "items = [tuple(sorted(x, reverse=True)) for x in items]", "items = list(items)",
           "killed", "members(D) keeps the walk's order, with the odd part last"),
    Mutant("src/oddferrers/partitions.py", "if type(cells) is not int:", "if False:",
           "killed", "_compose lays out float arms"),
    Mutant("src/oddferrers/partitions.py", "if cells > MAX_CELLS:", "if False:",
           "killed", "_compose builds a shape of any size"),
    Mutant("src/oddferrers/classes.py",
           "xmax = min(pairs[-1] - 4,", "xmax = min(pairs[-1] - 2,",
           "equivalent", "the step to 1 mod 4 below takes x - 2 down to x - 4"),
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_KIB * 1024, CHILD_AS_KIB * 1024))


def tier1_fails(row: Mutant, workdir: Path) -> bool:
    """Whether tier-1 fails on a copy of the repo with the row applied."""
    tree = workdir / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "perfbench", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
    target = tree / row.path
    target.write_text(target.read_text().replace(row.old, row.new))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=_limit_address_space, timeout=CHILD_TIMEOUT_S)
    return proc.returncode != 0


def main() -> int:
    problems = []
    for row in ROWS:
        found = (ROOT / row.path).read_text().count(row.old)
        if found != 1:
            problems.append(f"{row.path}: {row.old!r} occurs {found} times, not once")
    if problems:
        print("\n".join(problems))
        return 1
    for row in ROWS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as workdir:
            killed = tier1_fails(row, Path(workdir))
        outcome = "killed" if killed else "equivalent"
        print(f"{outcome:<10}  {time.perf_counter() - start:5.1f} s  {row.path}: {row.why}", flush=True)
        if outcome != row.label:
            problems.append(f"labelled {row.label}, but {outcome}: {row.path}: {row.old!r} -> {row.new!r}")
    print("\n".join(problems) or f"all {len(ROWS)} rows at their labels")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
