#!/usr/bin/env python3
"""The mutant table: edits of the source that tier-1 must kill, each written
once as a row, and the runner that checks them:

    python tests/mutants.py

For each row the runner copies the repo, without `.git` and `perfbench/`,
into a temporary directory, replaces the row's old text in its file with the
new text, and runs `python -m pytest -q -x -p no:cacheprovider` there with
PYTHONPATH=src on the test files, named one by one: the mutated module's own
`tests/test_<stem>.py` first, when there is one (`tests/test_cli.py` for
`commands`, `tests/test_namespace.py` for `__init__`), then the rest in name
order, so that a killed row stops in the file most likely to kill it. Pytest
keeps the order of the files it is given; handed the `tests` directory, it
would start with `test_acceptance.py` whatever came before. The list leaves
out `tests/test_mutant_table.py`. That test checks the rows against the
source, so every mutated copy would fail it; tier-1 runs it, so a stale row
fails tier-1 as well as this runner. Each run is
under an address-space limit of CHILD_AS_KIB, so a mutant that drops a size
cap fails by MemoryError instead of taking the host's memory, and a run
still going after CHILD_TIMEOUT_S is stopped and counts as a failure: the
row prints as `killed (timeout)`. Each row's line gives its time, and the
last line the total of those times. The runner exits 1 when

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
    why: str  # what the edit breaks, and the change that first recorded it


ROWS = [
    Mutant("src/oddferrers/qseries.py", "for r in range(e):", "for r in range(e - 1):",
           "killed", "the division leaves the last residue class of each level undivided"),
    Mutant("src/oddferrers/qseries.py", "acc = t[:e]", "acc = t[1:e + 1]",
           "killed", "the block division adds each block's neighbour one step on"),
    Mutant("src/oddferrers/qseries.py", "if e * e < len(t):", "if True:",
           "equivalent", "both branches do the same division; the test only picks the one "
           "with fewer slices"),
    Mutant("src/oddferrers/qseries.py", "t[:0] = [1] + [0] * e", "t[:0] = [1] + [0] * (e - 1)",
           "killed", "each inner level enters one order too low"),
    Mutant("src/oddferrers/cli.py",
           "block = ns[i:i + _PNU_BLOCK_LINES]", "block = ns[i:min(i + _PNU_BLOCK_LINES, len(ns) - 1)]",
           "killed", "the pnu table loses its last line"),
    Mutant("src/oddferrers/cli.py",
           "range(0, len(ns), _PNU_BLOCK_LINES)", "range(0, len(ns), _PNU_BLOCK_LINES + 1)",
           "killed", "each pnu block after the first starts one line late, so line 4096 is lost"),
    Mutant("src/oddferrers/cli.py", "except BrokenPipeError:", "except ZeroDivisionError:",
           "killed", "a reader that stops early leaves main as a traceback and exit 1"),
    Mutant("src/oddferrers/cli.py", "sys.stdout.flush()", "pass",
           "killed", "output still buffered meets the closed pipe as the interpreter exits, "
           "which prints a warning and exits 120"),
    Mutant("src/oddferrers/cli.py", "sys.stdout.close()", "pass",
           "killed", "the interpreter flushes the failed output again at exit, with a warning and exit 120"),
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
    Mutant("src/oddferrers/bijections.py", "hooks = [2 * arms[0] - 1]", "hooks = [2 * arms[0] + 1]",
           "killed", "S's head hook is laid out two cells long (PR 14)"),
    Mutant("src/oddferrers/bijections.py",
           "[4 * a - 2 for a in arms[1:]]", "[4 * a + 2 for a in arms[1:]]",
           "killed", "D's even parts are laid out 4 too large (PR 14)"),
    Mutant("src/oddferrers/bijections.py",
           "parts += (4 * a - 1, 4 * a - 3)", "parts += (4 * a + 1, 4 * a - 1)",
           "killed", "DO's pairs are laid out 2 too large (PR 14)"),
    Mutant("src/oddferrers/bijections.py", "if all(map(operator.gt, arms, arms[1:])) and ", "if ",
           "killed", "_decode_D accepts 10,3, whose arms (2, 3) rise (PR 14)"),
    Mutant("src/oddferrers/bijections.py", "x // 2 for x in hooks[1::2]", "x // 2 for x in hooks[2::2]",
           "killed", "_decode_S reads each pair's arm from the wrong hook"),
    Mutant("src/oddferrers/bijections.py",
           "[2 * a - 1 for a in hook_decompose(p)]", "[2 * a + 1 for a in hook_decompose(p)]",
           "killed", "sc_to_distinct_odd counts each hook two cells long"),
    Mutant("src/oddferrers/classes.py", "amax = head // 3", "amax = head // 3 + 1",
           "killed", "O's walk enters a second arm too large for the head (PR 15)"),
    Mutant("src/oddferrers/classes.py", "(head - arms[0]) // 2)", "(head - arms[0]) // 2 - 1)",
           "killed", "O's walk skips the largest arm below the second (PR 15)"),
    Mutant("src/oddferrers/classes.py", "xmax = (head - 5) // 3", "xmax = (head - 1) // 3",
           "killed", "DO's walk enters a first pair too large for the head (PR 15)"),
    Mutant("src/oddferrers/classes.py",
           "isqrt(4 * remaining - 1) - 1, -4)", "isqrt(4 * remaining) - 1, -4)",
           "killed", "the S walk drops the pair c = 2k - 1 when k^2 is left (PR 18)"),
    Mutant("src/oddferrers/classes.py",
           "emax = (2 * remaining - 1) // 3", "emax = (2 * remaining - 1) // 3 - 4",
           "killed", "D's walk starts its first even part one step low (PR 7)"),
    Mutant("src/oddferrers/partitions.py", "parts[r] > i)", "parts[r] >= i)",
           "killed", "the self-conjugacy test refuses a column that ends at its last row (PR 21)"),
    Mutant("src/oddferrers/partitions.py",
           "for i, r in enumerate(parts):", "for i, r in enumerate(parts[:4]):",
           "killed", "the self-conjugacy test reads only the first four rows (PR 13)"),
    Mutant("src/oddferrers/cli.py", "if value is not None and value > cap:",
           "if value is not None and value > cap + 1:",
           "killed", "the CLI walks a class to one index past its cap (PR 19)"),
    Mutant("src/oddferrers/cli.py", "cap = MAX_SERIES_ORDER if series else MAX_CLASS_N",
           "cap = MAX_CLASS_N if series else MAX_SERIES_ORDER",
           "killed", "the pnu table is refused past order 150, and a class walk only past index 10^5"),
    Mutant("src/oddferrers/commands.py", '"wider": wider[n]}', '"wider": base[n]}',
           "killed", "verify --checks series passes every coefficient"),
    Mutant("src/oddferrers/cli.py", "except OddFerrersError as exc:", "except ZeroDivisionError as exc:",
           "killed", "a non-member leaves main as a traceback, not as exit 1"),
    Mutant("src/oddferrers/cli.py", '"counts": 40,', '"counts": 41,',
           "killed", "a bare verify checks the counts to 41"),
    Mutant("src/oddferrers/cli.py", '"roundtrips": 25,', '"roundtrips": 26,',
           "killed", "a bare verify checks the roundtrips to 26"),
    Mutant("src/oddferrers/cli.py", "from . import _SOURCES, qseries\n", "from . import _SOURCES, classes, qseries\n",
           "killed", "count --class pnu imports the class walks it never runs"),
    Mutant("src/oddferrers/commands.py",
           "if counterexample is not None and failures == 0:", "if counterexample is not None:",
           "killed", "verify names a first counterexample at every failing n"),
    Mutant("src/oddferrers/commands.py", '_GRAPH_INPUT_MAPS = ("phi", "o_to_d")', '_GRAPH_INPUT_MAPS = ("phi",)',
           "killed", "map o-to-d hands its input to o_to_d as a partition, not a graph"),
    Mutant("src/oddferrers/commands.py",
           "series = qseries.nu_series(max_n)\n    for n in range(max_n + 1):\n",
           "for n in range(max_n + 1):\n        series = qseries.nu_series(max_n)\n",
           "killed", "verify --checks counts expands the series again at every n"),
    Mutant("src/oddferrers/commands.py", '"count": len(rows)', '"count": len(rows) + 1',
           "killed", "enumerate --format json counts one member too many"),
    Mutant("src/oddferrers/commands.py", '"weight": ferrers.graph_weight(g)', '"weight": shape.weight',
           "killed", "render --format json gives the cell count, not the graph weight"),
    Mutant("src/oddferrers/commands.py", '"row_sums": list(ferrers.row_sums(g))', '"row_sums": list(shape.parts)',
           "killed", "render --format json gives the row lengths, not the row weights"),
    Mutant("src/oddferrers/cli.py", "from . import _SOURCES, qseries\n", "from . import _SOURCES, commands, qseries\n",
           "killed", "count --class pnu compiles the class-side commands it never runs"),
    Mutant("src/oddferrers/cli.py",
           'series = args.command == "count" and args.cls == "pnu"', 'series = args.command == "count"',
           "killed", "count of a class prints the series, past the class cap, and walks no class"),
    Mutant("src/oddferrers/commands.py", "from .errors import Refused\n",
           "\n\nclass Refused(Exception):\n    pass\n",
           "killed", "commands raises a refusal class of its own, not errors', so main does not "
           "catch it and a bad partition is a traceback with exit 1"),
    Mutant("src/oddferrers/classes.py", "if _expect(int, n) >= 0 else ()", "if n >= 0 else ()",
           "killed", "the walks take a bool or a float as a class index"),
    Mutant("src/oddferrers/commands.py", 'values["pnu"] = series[n]', 'values["pnu"] = values["O"]',
           "killed", "verify --checks counts reads pnu off the O walk, not the series"),
    Mutant("src/oddferrers/commands.py",
           "len(set(sources.values())) > 1:", "len(set(sources.values())) > 2:",
           "killed", "verify passes an n whose sources take two values, as when one walk is off"),
    Mutant("src/oddferrers/commands.py",
           "if sorted(map(_parts, images)) != sorted(map(_parts, targets)):", "if False:",
           "killed", "verify --checks roundtrips passes a map whose images are not its target class"),
    Mutant("src/oddferrers/commands.py", "if lost is not None:", "if False:",
           "killed", "verify --checks roundtrips passes a map whose inverse does not give its source back"),
    Mutant("src/oddferrers/commands.py", "from . import qseries\n", "from . import cli, qseries\n",
           "killed", "under python -m, every class-side command loads a second copy of cli"),
    Mutant("src/oddferrers/commands.py", "if shape.weight > partitions.MAX_CELLS:", "if False:",
           "killed", "render draws a shape of any size"),
    Mutant("src/oddferrers/cli.py", "digits.isascii() and digits.isdigit()", "digits.isdigit()",
           "killed", "--n and --max-n take digits other than 0-9, such as \\u0663"),
    Mutant("src/oddferrers/partitions.py", "if type(x) is not cls and", "if not isinstance(x, cls) and",
           "killed", "a graph is built on a Partition subclass, and a class index may be a bool"),
    Mutant("src/oddferrers/cli.py", 'if module == "bijections"]', 'if module == "classes"]',
           "killed", "map offers the class predicates' names, not the bijections'"),
    Mutant("src/oddferrers/cli.py", "bound if args.max_n is None else args.max_n", "bound",
           "killed", "verify --max-n runs each check to its default bound"),
    Mutant("src/oddferrers/classes.py", "return w + arms[1]", "return w + arms[1] - 1",
           "killed", "count_table counts each O member with inner arms one index early"),
    Mutant("src/oddferrers/classes.py", "(parts[0] + 2 * e - 2) // 4 + 1", "(parts[0] + 2 * e - 2) // 4 + 2",
           "killed", "count_table counts each D member with even parts one index late"),
    Mutant("src/oddferrers/classes.py", "(parts[1] + p - 1) // 4 + 1", "(parts[1] + p - 1) // 4",
           "killed", "count_table counts each DO member with pairs one index early"),
    Mutant("src/oddferrers/classes.py", "    if least is None:\n", "    if True:\n",
           "killed", "count_table walks O, D and DO again at every n, as it walks S"),
    Mutant("src/oddferrers/commands.py",
           "values = {name: next(table) for name, table in tables.items()}",
           "values = {name: list(classes.count_table(classes.ClassId(name), max_n))[n] for name in tables}",
           "killed", "verify --checks counts rebuilds every table at every n, so O, D and DO are walked "
           "once per n"),
    Mutant("src/oddferrers/classes.py", "if at and not (min(at) >= 0 and max(at) <= max_n):", "if False:",
           "killed", "count_table drops the items of a least index outside 0..max_n without a word"),
    Mutant("src/oddferrers/partitions.py", "r < k and parts[r] > i", "r < k - 1 and parts[r] > i",
           "killed", "the self-conjugacy test misses a column one cell longer than its row when the "
           "row stops one short of the last row, and takes 3,2,2"),
    Mutant("src/oddferrers/ferrers.py",
           "enumerate(_expect(OddFerrersGraph, g).shape.parts)",
           "enumerate(_expect(OddFerrersGraph, g).shape.parts[:4])",
           "killed", "row_sums drops every row past the fourth, and no worked example has a fifth"),
    Mutant("src/oddferrers/__init__.py", '"errors", "cli", "commands"}', '"errors"}',
           "killed", "oddferrers.cli and oddferrers.commands are not attributes of the package"),
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_KIB * 1024, CHILD_AS_KIB * 1024))


# module stem -> the stem of its own test file, where the two differ
_OWN_TESTS = {"commands": "cli", "__init__": "namespace"}


def tier1_files(row: Mutant) -> list[str]:
    """The tier-1 test files for the row's run, its module's own file first:
    `tests/test_cli.py` for `commands`, whose commands run through `cli.main`,
    and `tests/test_namespace.py` for the package's `__init__`."""
    stem = Path(row.path).stem
    own = f"test_{_OWN_TESTS.get(stem, stem)}.py"
    names = sorted(p.name for p in (ROOT / "tests").glob("test_*.py"))
    names.remove("test_mutant_table.py")
    return [f"tests/{name}" for name in sorted(names, key=lambda name: name != own)]


def tier1_fails(row: Mutant, workdir: Path) -> bool:
    """Whether tier-1 fails on a copy of the repo with the row applied."""
    tree = workdir / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "perfbench", "__pycache__", ".pytest_cache", "*.egg-info"))
    target = tree / row.path
    target.write_text(target.read_text().replace(row.old, row.new))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tier1_files(row)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_limit_address_space, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # a mutant that hangs is caught, if only by the clock
        return True
    return proc.returncode != 0


def stale_rows() -> list[str]:
    """A line for each row whose old text does not occur exactly once in its
    file, so that a change to the source must update its rows."""
    problems = []
    for row in ROWS:
        found = (ROOT / row.path).read_text().count(row.old)
        if found != 1:
            problems.append(f"{row.path}: {row.old!r} occurs {found} times, not once")
    return problems


def main() -> int:
    problems = stale_rows()
    if problems:
        print("\n".join(problems))
        return 1
    total = 0.0
    for row in ROWS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as workdir:
            killed = tier1_fails(row, Path(workdir))
        seconds = time.perf_counter() - start
        total += seconds
        outcome = "killed" if killed else "equivalent"
        if seconds >= CHILD_TIMEOUT_S:  # tier1_fails stops a run at the timeout
            outcome += " (timeout)"
        print(f"{outcome:<10}  {seconds:5.1f} s  {row.path}: {row.why}", flush=True)
        if killed != (row.label == "killed"):
            problems.append(f"labelled {row.label}, but {outcome}: {row.path}: {row.old!r} -> {row.new!r}")
    print("\n".join(problems) or f"all {len(ROWS)} rows at their labels")
    print(f"total row time {total:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
