"""The CLI contract: every command-line assertion, written once as a row.

A row holds an argv, the exit code, the expected stdout (whole, or its last
line), the text that stderr starts with, and a timeout. On every row, an
exit of 0 writes nothing to stderr and any other exit nothing to stdout.
Every fact that one argv's exit code and output state, against a fixed value
or one from `tests/oracles.py`, is a row, as is each command and exit code
in the README; where the two disagree, this table is the contract.

`tests/test_cli.py` runs the rows that are not `slow` in-process through
`cli.main`; its other tests patch the package, call the library, count calls
or check usage text. `python tests/cli_contract.py` runs every row through
the installed `oddferrers` console script, each under its row's timeout, and
fails at once when that script is not on PATH.
"""
from __future__ import annotations

import shlex
import shutil
import subprocess
import sys
from typing import NamedTuple

import oracles

# p_nu(100) and p_nu(150), the counts that every class and the series share
C100, C150 = "100\t13396\n", "150\t194712\n"
# p_nu(0..200), from the schoolbook product-and-invert oracle
NU = oracles.naive_nu_minus_q(200)


def _table(coeffs) -> str:
    """The `count --max-n` output of coefficients 0, 1, ..."""
    return "".join(f"{n}\t{c}\n" for n, c in enumerate(coeffs))


def _passes(**bounds: int) -> str:
    """The whole output of a `verify` run whose checks, to these bounds, all pass."""
    return "".join(f"# {name} 0..{top}\n" + "".join(f"{n}\tPASS\n" for n in range(top + 1))
                   for name, top in bounds.items())


class Row(NamedTuple):
    argv: str  # split as a POSIX shell splits it
    code: int = 0
    out: str | None = None  # the whole stdout
    tail: str | None = None  # the last line of stdout
    err: str = ""  # what stderr starts with
    timeout: float = 5  # seconds, through the console script
    slow: bool = False  # a walk at the class cap or the series at its cap: console script only


ORDERS = (0, 1, 2, 5, 6, 11, 12, 200)
ROWS = [
    # the series against the oracle, at the orders n(n+1) and their
    # neighbours, where the expansion gains or loses a level
    *(Row(f"count --class pnu --max-n {top}", out=_table(NU[:top + 1])) for top in ORDERS),
    *(Row(f"count --class pnu --n {n}", out=f"{n}\t{NU[n]}\n") for n in ORDERS),
    Row("count --class pnu --max-n 3", out="0\t1\n1\t1\n2\t2\n3\t2\n"),
    # whitespace around an index is allowed, as around a part
    Row("count --class pnu --n ' 5'", out="5\t3\n"),
    Row("count --class pnu --max-n 40", tail="40\t191"),
    # the series against itself and against each class walk
    *(Row(f"count --class {c} --max-n 10", out=_table(NU[:11])) for c in ("pnu", "O", "S", "D", "DO")),
    Row("count --class S --n 0", out="0\t1\n"),
    Row("count --class S --n 5", out="5\t3\n"),
    Row("count --class pnu --max-n 10000", timeout=60,
        tail="10000\t177749137350628021317917086041001210413823141867008800"),
    Row("count --class pnu --n 100", out=C100),
    Row("count --class O --n 100", out=C100, timeout=30),
    Row("count --class S --n 100", out=C100, timeout=20),
    Row("count --class pnu --n 150", out=C150),
    *(Row(f"count --class {c} --n 150", out=C150, timeout=10, slow=True) for c in ("O", "D", "DO")),
    # one walk to the cap counts O, D and DO at every index below it
    *(Row(f"count --class {c} --max-n 150", out=_table(NU[:151]), slow=True) for c in ("O", "D", "DO")),
    # S composes and tests each of its 194 712 leaves at the class cap
    Row("count --class S --n 150", out=C150, timeout=30, slow=True),
    # the series at its cap order finishes
    Row("count --class pnu --n 100000", timeout=30, slow=True),

    # each member on one line, or the class as one JSON object
    Row("enumerate --class O --n 0", out="1\n"),
    Row("enumerate --class S --n 1", out="3,1,1\n"),
    Row("enumerate --class S --n 5", out="11,1,1,1,1,1,1,1,1,1,1\n9,3,3,1,1,1,1,1,1\n5,5,5,3,3\n"),
    Row("enumerate --class S --n 1 --format json",
        out='{"class": "S", "n": 1, "count": 1, "members": [[3, 1, 1]]}\n'),
    Row("enumerate --class O --n 5 --format json", out='{"class": "O", "n": 5, "count": 3, '
        '"members": [[6, 1, 1, 1, 1, 1], [5, 2, 1, 1, 1], [3, 3, 2]]}\n'),
    Row("enumerate --class D --n 5", out="11\n9,2\n6,5\n"),
    Row("enumerate --class DO --n 5", out="21\n17,3,1\n9,7,5\n"),
    Row("enumerate --class D --n 5 --format json",
        out='{"class": "D", "n": 5, "count": 3, "members": [[11], [9, 2], [6, 5]]}\n'),

    # every check in run order; the bare verify has the documented default bounds
    Row("verify --max-n 5", out=_passes(counts=5, roundtrips=5, series=5)),
    Row("verify", out=_passes(counts=40, roundtrips=25, series=40), timeout=30),
    Row("verify --checks counts --max-n 60", out=_passes(counts=60), timeout=30),
    Row("verify --max-n 10 --checks roundtrips", out=_passes(roundtrips=10)),

    # one character per cell, 1 on the first row and column and 2 inside; the
    # JSON weight counts the 2s twice. Whitespace around a part, a printed
    # line's newline included, is allowed
    Row("render --shape 3,3,2", out="111\n122\n12\n"),
    Row("render --shape 7,4,2,1", out="1111111\n1222\n12\n1\n"),
    Row("render --shape 1", out="1\n"),
    Row("render --shape 3,3,2 --format json",
        out='{"shape": [3, 3, 2], "weight": 11, "row_sums": [3, 5, 3]}\n'),
    Row("render --shape ' 5 , 3,1\n' --format json",
        out='{"shape": [5, 3, 1], "weight": 11, "row_sums": [5, 5, 1]}\n'),
    Row("render --shape 999999,1", out="1" * 999999 + "\n1\n"),

    # each map on the worked example; whitespace around a part is allowed
    Row("map phi --input 3,3,2", out="5,5,5,3,3\n"),
    Row("map phi --input ' 3, 3 ,2 '", out="5,5,5,3,3\n"),
    Row("map phi-inverse --input 5,5,5,3,3", out="3,3,2\n"),
    Row("map o-to-d --input 3,3,2", out="6,5\n"),
    Row("map d-to-o --input 6,5", out="3,3,2\n"),
    Row("map d-to-do --input 6,5", out="9,7,5\n"),
    Row("map do-to-d --input 9,7,5", out="6,5\n"),
    Row("map sc-to-distinct-odd --input 5,5,5,3,3", out="9,7,5\n"),
    Row("map distinct-odd-to-sc --input 9,7,5", out="5,5,5,3,3\n"),

    # a token that is not a run of ASCII digits, a rising shape or a blank
    # shape is a parse error
    *(Row(f"map phi --input {text}", 2, err="error: cannot parse partition")
      for text in ("3,x", "1,3", "3_0", "\u0663", "2,+1")),
    Row("render --shape a,b", 2, err="error: cannot parse partition"),
    Row("map phi --input ' '", 2, err="error: empty partition"),
    Row("render --shape ' '", 2, err="error: empty partition"),

    # a non-member exits 1 with one stderr line: its error class, its parts
    # and the class it is not in
    Row("map phi --input 3,1", 1, err="NotSelfConjugate: (3, 1) is not self-conjugate\n"),
    *(Row(f"map phi-inverse --input {text}", 1,
          err=f"MalformedSClass: {parts} does not have hook arms 2a_1 - 1 and pairs 2a, 2a - 1\n")
      for text, parts in (("4,4,2,2", "(4, 4, 2, 2)"), ("2,1", "(2, 1)"))),
    *(Row(f"map do-to-d --input {text}", 1,
          err=f"MalformedDOClass: {parts} is not a part 4a_1 - 3 and pairs 4a - 1, 4a - 3\n")
      for text, parts in (("13,7,1", "(13, 7, 1)"), ("7,5,3", "(7, 5, 3)"), ("8,6,4", "(8, 6, 4)"))),
    # 10,3 lays out D's arms (2, 3), which rise
    *(Row(f"map {name} --input 10,3", 1,
          err="MalformedDClass: (10, 3) is not a part 2a_1 - 1 and parts 4a - 2 with a_1 > a_2 > ...\n")
      for name in ("d-to-o", "d-to-do")),
    Row("map distinct-odd-to-sc --input 9,9", 1,
        err="NotDistinctOdd: (9, 9) is not a partition into distinct odd parts\n"),
    # refused on its first row alone, before any column of it is built
    *(Row(f"map {name} --input 100000000", 1, err="NotSelfConjugate: (100000000,) is not self-conjugate\n")
      for name in ("phi", "phi-inverse", "o-to-d", "sc-to-distinct-odd")),

    # one odd part c composes a hook of c cells, refused over 10^6 before
    # any row; render prints one character per cell
    *(Row(f"map {name} --input 999999", out="500000" + ",1" * 499999 + "\n")
      for name in ("d-to-o", "distinct-odd-to-sc")),
    *(Row(f"map {name} --input {c}", 2, err=f"error: the composed shape would have {c} cells, "
          "more than the 1000000")
      for name in ("d-to-o", "distinct-odd-to-sc") for c in (1000001, 100000001)),
    *(Row(f"render --shape {shape}{fmt}", 2, err=f"error: shape has {cells} cells, more than the 1000000")
      for shape, cells in (("999999,2", 1000001), ("100000000", 100000000))
      for fmt in ("", " --format json")),

    # the series is refused past order 10^5, and the class walks past index
    # 150, before any list is allocated or any walk starts
    *(Row(f"count --class pnu {flag} {order}", 2, err=f"error: series order {order} is more than the 100000")
      for flag in ("--n", "--max-n") for order in (100001, 10**9)),
    *(Row(f"{argv} {n}", 2, err=f"error: class index {n} is more than the 150")
      for argv in ("count --class S --n", "count --class O --max-n", "enumerate --class DO --n",
                   "verify --checks counts --max-n", "verify --checks roundtrips --max-n")
      for n in (151, 10**9)),
    # verify --checks series walks no class, but keeps the class cap
    Row("verify --checks series --max-n 151", 2, err="error: class index 151 is more than the 150"),
    Row("verify --checks series --max-n 1000000000", 2, err="error: class index 1000000000 is more than the 150"),
    Row("enumerate --class O --n 1000000", 2, err="error: class index 1000000 is more than the 150"),
    Row("count --class S --n 1000000", 2, err="error: class index 1000000 is more than the 150"),
    Row("verify --max-n 151", 2, err="error: class index 151 is more than the 150"),

    # a negative bound is a usage error for every subcommand
    Row("count --class S --n -1", 2, err="error: n must be nonnegative"),
    Row("count --class S --max-n -1", 2, err="error: max-n must be nonnegative"),
    Row("count --class pnu --max-n -1", 2, err="error: max-n must be nonnegative"),
    Row("enumerate --class S --n -1", 2, err="error: n must be nonnegative"),
    Row("verify --max-n -1", 2, err="error: max-n must be nonnegative"),
]


def problems(row: Row, code: int, out: str, err: str) -> list[str]:
    """What the row's run did that the row does not allow."""
    found = []
    if code != row.code:
        found.append(f"exit {code}, not {row.code}")
    if row.out is not None and out != row.out:
        found.append(f"stdout {out[:200]!r}, not {row.out!r}")
    if row.tail is not None and out.splitlines()[-1:] != [row.tail]:
        found.append(f"last line {out.splitlines()[-1:]}, not [{row.tail!r}]")
    if row.code != 0 and out:
        found.append(f"a refusal wrote stdout {out[:200]!r}")
    if row.code == 0 and err:
        found.append(f"a success wrote stderr {err[:200]!r}")
    if not err.startswith(row.err):
        found.append(f"stderr {err[:200]!r} does not start {row.err!r}")
    return found


def main() -> int:
    if shutil.which("oddferrers") is None:
        print("FAIL the console script oddferrers is not on PATH: install the package first")
        return 1
    failed = 0
    for row in ROWS:
        try:
            proc = subprocess.run(["oddferrers", *shlex.split(row.argv)], capture_output=True,
                                  text=True, timeout=row.timeout)
            found = problems(row, proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired:
            found = [f"no exit within {row.timeout} s"]
        failed += bool(found)
        for problem in found:
            print(f"FAIL oddferrers {row.argv}: {problem}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
