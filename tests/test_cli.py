"""The CLI tests that patch the package, call the library, count calls or
check usage text; every other CLI fact is a row of `tests/cli_contract.py`."""
import fcntl
import itertools
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import oddferrers.bijections
import oddferrers.classes
import oddferrers.cli
import oddferrers.commands
import oddferrers.qseries
from oddferrers.classes import ClassId, members
from oddferrers.cli import main
from oddferrers.errors import MalformedSClass
from oddferrers.partitions import Partition

import cli_contract


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# run in a fresh interpreter, so that no other test has imported a module
# yet, and each command after the package has been removed from sys.modules
_LOADED_BY_COMMANDS = """
import contextlib, importlib, io, json, sys

def loaded(argv):
    for name in [m for m in sys.modules if m.startswith("oddferrers")]:
        del sys.modules[name]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = importlib.import_module("oddferrers.cli").main(argv.split())
    return code, sorted(m.removeprefix("oddferrers.") for m in sys.modules if m.startswith("oddferrers."))

print(json.dumps([loaded(argv) for argv in sys.argv[1:]]))
"""

_WALKS = ["classes", "commands", "ferrers", "partitions"]
# the modules each command loads beyond cli, errors and qseries
_MODULES_BY_COMMAND = {
    "count --class pnu --max-n 5": [],
    "verify --checks series --max-n 3": ["commands"],
    "count --class S --n 3": _WALKS,
    "enumerate --class O --n 3": _WALKS,
    "verify --checks counts --max-n 3": _WALKS,
    "verify --checks roundtrips --max-n 3": ["bijections", *_WALKS],
    "map phi --input 3,3,2": ["bijections", "commands", "ferrers", "partitions"],
    "render --shape 3,3,2": ["commands", "ferrers", "partitions"],
}


def _loaded(argvs) -> dict:
    """argv -> (exit code, the package modules that main loaded)."""
    src = Path(oddferrers.cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY_COMMANDS, *argvs],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return {argv: tuple(run) for argv, run in zip(argvs, json.loads(proc.stdout))}


def test_a_command_imports_only_the_modules_it_runs():
    assert _loaded(list(_MODULES_BY_COMMAND)) == {argv: (0, sorted(["cli", "errors", "qseries", *extra]))
                                                  for argv, extra in _MODULES_BY_COMMAND.items()}


# one interpreter each: under `pytest -x`, a walk that a refusal fails to
# stop (seconds for S at 151) ends the run before roundtrips to 151 (minutes)
@pytest.mark.parametrize("argv", [
    "count --class S --n 151", "enumerate --class DO --n 1000000000",
    "verify --checks roundtrips --max-n 151", "verify --checks series --max-n 151",
    "count --class O --n -1",
])
def test_an_index_or_order_is_refused_before_a_command_module_loads(argv):
    assert _loaded([argv]) == {argv: (2, ["cli", "errors", "qseries"])}


def test_verify_expands_no_further_than_the_series_cap():
    # main holds a given --max-n to the class cap, and nothing checks a
    # default bound at run time; each check then expands the series to
    # max-n + 50 without the series cap of `count --class pnu`
    assert all(bound <= oddferrers.cli.MAX_CLASS_N for bound, _ in oddferrers.commands._CHECKS.values())
    assert oddferrers.cli.MAX_CLASS_N + 50 <= oddferrers.cli.MAX_SERIES_ORDER


def test_each_readme_command_is_a_contract_row():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
    argvs = {line.split("#")[0].strip().removeprefix("oddferrers ") for line in block}
    assert len(argvs) == 10 and argvs - {row.argv for row in cli_contract.ROWS} == set()


class TestEnumerate:
    def test_text_is_one_line_per_member(self, capsys):
        rows = "".join(",".join(map(str, p.parts)) + "\n" for p in members(ClassId.S, 12))
        assert run(capsys, "enumerate", "--class", "S", "--n", "12") == (0, rows, "")


class TestMap:
    def test_roundtrip_identical_text(self, capsys):
        for p in members(ClassId.S, 6):
            text = ",".join(map(str, p.parts))
            _, shape_text, _ = run(capsys, "map", "phi-inverse", "--input", text)
            _, back, _ = run(capsys, "map", "phi", "--input", shape_text.strip())
            assert back.strip() == text


class TestVerify:
    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "verify", "--max-n", "5")
        _, second, _ = run(capsys, "verify", "--max-n", "5")
        assert first == second

    def test_default_bounds(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("#")] == [
            "# counts 0..40", "# roundtrips 0..25", "# series 0..40"]


class TestRender:
    def test_text_roundtrip(self, capsys):
        # a printed shape parses back to the same parts
        code, out, _ = run(capsys, "map", "distinct-odd-to-sc", "--input", "9,7,5")
        assert (code, out) == (0, "5,5,5,3,3\n")
        code, out, _ = run(capsys, "render", "--shape", out, "--format", "json")
        assert code == 0 and json.loads(out)["shape"] == [5, 5, 5, 3, 3]

    def test_whitespace_around_parts_is_allowed(self, capsys):
        code, out, _ = run(capsys, "render", "--shape", " 5 , 3,1\n", "--format", "json")
        assert code == 0 and json.loads(out)["shape"] == [5, 3, 1]


class _RecordedStdout:
    """A stdout that keeps the number of lines in each write or writelines call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text.count("\n"))

    def writelines(self, lines):
        self.calls.append(sum(line.count("\n") for line in lines))

    def flush(self):
        pass


@pytest.mark.parametrize("argv, lines", [
    ("count --class pnu --max-n 600", [601]),
    ("count --class pnu --max-n 10000", [4096, 4096, 1809]),
    ("enumerate --class S --n 12", [len(members(ClassId.S, 12))]),
], ids=["pnu", "pnu-blocks", "enumerate"])
def test_a_table_in_memory_is_written_in_one_call(monkeypatch, argv, lines):
    # the pnu table is written in blocks of at most 4096 lines
    stdout = _RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv.split()) == 0
    assert stdout.calls == lines


@pytest.mark.parametrize("flag, top", [
    ("max-n", 10000), *((flag, top) for flag in ("max-n", "n") for top in (4095, 4096, 4097)),
])
def test_pnu_table_is_the_library_s_series_across_blocks(capsys, flag, top):
    # the contract rows pin only the last line past order 200, so a line lost
    # at a block boundary shows here
    first = 0 if flag == "max-n" else top
    coeffs = oddferrers.qseries.nu_series(top)
    want = "".join(f"{n}\t{c}\n" for n, c in enumerate(coeffs) if n >= first)
    assert run(capsys, "count", "--class", "pnu", f"--{flag}", str(top)) == (0, want, "")


@pytest.mark.parametrize("argv, lines", [
    ("count --class pnu --max-n 100000", [b"0\t1\n"]),
    ("enumerate --class O --n 60", [b"61" + b",1" * 60 + b"\n"]),
    # closed as the child starts up, long before it writes; the table waits
    # in stdout's buffer and fails only at main's flush
    ("count --class pnu --max-n 5", []),
], ids=["pnu", "enumerate", "buffered"])
def test_a_reader_that_stops_early_ends_the_run_quietly(argv, lines):
    # a reader that reads a line closes while the child is blocked on a full
    # pipe, so the child's next write fails; a 4 KiB pipe makes that so for
    # the 46 KB of enumerate too. stdout is buffered, as by default
    src = Path(oddferrers.cli.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with subprocess.Popen([sys.executable, "-m", "oddferrers.cli", *argv.split()],
                          stdout=write_end, stderr=subprocess.PIPE,
                          env=dict(env, PYTHONPATH=str(src))) as proc:
        os.close(write_end)
        with open(read_end, "rb") as reader:
            assert [reader.readline() for _ in lines] == lines
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (oddferrers.cli.CLOSED_PIPE_EXIT, b"")


def test_library_error_exits_1_with_its_class_name(capsys, monkeypatch):
    def refuse(g):
        raise MalformedSClass("refused")

    monkeypatch.setattr(oddferrers.bijections, "phi", refuse)
    code, _, err = run(capsys, "verify", "--checks", "roundtrips", "--max-n", "2")
    assert code == 1
    assert err == "MalformedSClass: refused\n"


def _expansion_refused(order):
    raise AssertionError(f"nu_series({order}) was called")


_CLASS_WALKS = [
    ["count", "--class", "S", "--n"],
    ["count", "--class", "O", "--max-n"],
    ["enumerate", "--class", "DO", "--n"],
    ["verify", "--checks", "roundtrips", "--max-n"],
]
_CLASS_WALK_IDS = ["count-n", "count-max-n", "enumerate", "verify-roundtrips"]


def _walk_refused(c, n):
    raise AssertionError(f"class {c.value} was walked to {n}")


@pytest.mark.parametrize("row", [r for r in cli_contract.ROWS if not r.slow],
                         ids=lambda row: row.argv.replace(" ", "_"))
def test_cli_contract(capsys, monkeypatch, row):
    if row.code != 0:
        # a walk or an expansion, or a list of a gigabyte, that came before a
        # refusal must fail here, not run
        monkeypatch.setattr(oddferrers.classes, "_walk", _walk_refused)
        monkeypatch.setattr(oddferrers.qseries, "nu_series", _expansion_refused)
        tracemalloc.start()
    try:
        code = main(shlex.split(row.argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert cli_contract.problems(row, code, out, err) == []
    assert peak < 2**20


@pytest.mark.parametrize("argv", _CLASS_WALKS, ids=_CLASS_WALK_IDS)
def test_class_index_at_cap_is_walked(capsys, monkeypatch, argv):
    walked = []

    def walk(c, n):
        walked.append(n)
        return iter(())

    monkeypatch.setattr(oddferrers.classes, "_walk", walk)
    cap = oddferrers.cli.MAX_CLASS_N
    code, _, err = run(capsys, *argv, str(cap))
    assert (code, err) == (0, "")
    assert walked[-1] == cap


def test_verify_series_walks_no_class(capsys, monkeypatch):
    # counts already compares every class count with the same coefficients
    monkeypatch.setattr(oddferrers.classes, "_walk", _walk_refused)
    code, out, err = run(capsys, "verify", "--checks", "series", "--max-n", "40")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["# series 0..40", *(f"{n}\tPASS" for n in range(41))]


@pytest.mark.parametrize("check, orders", [("counts", [5]), ("series", [5, 55])])
def test_verify_expands_the_series_once_per_run(capsys, monkeypatch, check, orders):
    real = oddferrers.qseries.nu_series
    calls = []

    def counted(order):
        calls.append(order)
        return real(order)

    monkeypatch.setattr(oddferrers.qseries, "nu_series", counted)
    assert run(capsys, "verify", "--checks", check, "--max-n", "5")[0] == 0
    assert sorted(calls) == orders


@pytest.mark.parametrize("coeff_3", [3, -1], ids=["off-by-one", "negative"])
def test_verify_series_failure_names_the_first_counterexample(capsys, monkeypatch, coeff_3):
    real = oddferrers.qseries.nu_series

    def shifted(order):
        # only the base order is wrong, so base and wider disagree at n = 3
        coeffs = list(real(order))
        if order == 5:
            coeffs[3] = coeff_3
        return tuple(coeffs)

    monkeypatch.setattr(oddferrers.qseries, "nu_series", shifted)
    code, out, _ = run(capsys, "verify", "--checks", "series", "--max-n", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[:4] == ["# series 0..5", "0\tPASS", "1\tPASS", "2\tPASS"]
    assert lines[4] == f"3\tFAIL\tcoeff={coeff_3} wider=2"
    assert lines[5] == f"first counterexample: n=3 coeff={coeff_3} wider=2"
    assert lines[6:] == ["4\tPASS", "5\tPASS"]
    assert out.count("first counterexample:") == 1


def test_verify_counts_failure_names_the_first_counterexample(capsys, monkeypatch):
    real = oddferrers.classes.count

    def count_off_by_one(c, n):
        # wrong from n = 3 on, and only the first failure is named
        return real(c, n) + (c is ClassId.D and n >= 3)

    monkeypatch.setattr(oddferrers.classes, "count", count_off_by_one)
    code, out, _ = run(capsys, "verify", "--checks", "counts", "--max-n", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[:4] == ["# counts 0..5", "0\tPASS", "1\tPASS", "2\tPASS"]
    assert lines[4] == "3\tFAIL\tO=2 S=2 D=3 DO=2 pnu=2"
    assert lines[5] == "first counterexample: n=3 O=2 S=2 D=3 DO=2 pnu=2"
    assert [line.split("\t")[:2] for line in lines[6:]] == [["4", "FAIL"], ["5", "FAIL"]]
    assert out.count("first counterexample:") == 1


def test_verify_counts_compares_the_walks_with_the_series(capsys, monkeypatch):
    # a check that read pnu off a walk would pass with one coefficient wrong
    real = oddferrers.qseries.nu_series

    def one_wrong(order):
        return tuple(c + 5 * (n == 3) for n, c in enumerate(real(order)))

    monkeypatch.setattr(oddferrers.qseries, "nu_series", one_wrong)
    code, out, _ = run(capsys, "verify", "--checks", "counts", "--max-n", "5")
    assert code == 1
    assert out.splitlines() == [
        "# counts 0..5", "0\tPASS", "1\tPASS", "2\tPASS", "3\tFAIL\tO=2 S=2 D=2 DO=2 pnu=7",
        "first counterexample: n=3 O=2 S=2 D=2 DO=2 pnu=7", "4\tPASS", "5\tPASS"]


def test_verify_judges_and_words_every_record(capsys, monkeypatch):
    # a check only yields records; n passes when there is no counterexample
    # and every source value is the same, and a sentence beats the sources
    def toy(max_n):
        yield {"a": 1, "b": 1}, None
        yield {"a": 1, "b": 2, "c": 1}, None
        yield {"a": 1, "b": 2}, "the toy's sentence"

    monkeypatch.setattr(oddferrers.commands, "_CHECKS", {"toy": (2, toy)})
    assert run(capsys, "verify") == (1, "# toy 0..2\n0\tPASS\n1\tFAIL\ta=1 b=2 c=1\n"
                                     "first counterexample: n=1 a=1 b=2 c=1\n"
                                     "2\tFAIL\tthe toy's sentence\n", "")


def test_verify_counts_record_names_each_source(monkeypatch):
    # the S walk loses its first member at n = 7, so S alone is one short
    walk, member = oddferrers.classes._CLASSES[ClassId.S]
    monkeypatch.setitem(oddferrers.classes._CLASSES, ClassId.S,
                        (lambda n: itertools.islice(walk(n), 1 if n == 7 else 0, None), member))
    sources, counterexample = list(oddferrers.commands._verify_counts(7))[-1]
    expected = oddferrers.qseries.nu_series(7)[7]
    assert counterexample is None
    assert list(sources.items()) == [
        ("O", expected), ("S", expected - 1), ("D", expected), ("DO", expected), ("pnu", expected)]


@pytest.mark.parametrize("name, detail", [
    ("d_to_do", "d_to_do image differs from its target class"),
    ("do_to_d", "inverse of d_to_do does not give back 3"),
])
def test_verify_roundtrips_failure_exits_1(capsys, monkeypatch, name, detail):
    # (1,) is a member of D and of DO at n = 0 only
    monkeypatch.setattr(oddferrers.bijections, name, lambda p: Partition((1,)))
    code, out, _ = run(capsys, "verify", "--checks", "roundtrips", "--max-n", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["# roundtrips 0..1", "0\tPASS"]
    assert lines[2].startswith(f"1\tFAIL\t{detail}")
    assert lines[3].startswith(f"first counterexample: n=1 {detail}")


def test_console_entry_point():
    # `python -m oddferrers.cli` reaches main through the module's __main__ guard
    row = next(row for row in cli_contract.ROWS if row.argv == "map phi --input 3,3,2")
    proc = subprocess.run([sys.executable, "-m", "oddferrers.cli", *shlex.split(row.argv)],
                          capture_output=True, text=True, timeout=60)
    assert cli_contract.problems(row, proc.returncode, proc.stdout, proc.stderr) == []


@pytest.mark.parametrize("argv, err", [
    ("map phi --input 3,x", "error: cannot parse partition '3,x'"),
    ("enumerate --class O --n 151", "error: class index 151 is more than the 150"),
], ids=["parse", "class-cap"])
def test_a_refusal_under_python_m_exits_2(argv, err):
    # run as __main__, cli must catch the refusal class that commands raises
    src = Path(oddferrers.cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "oddferrers.cli", *argv.split()], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(err) and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    [],
    ["count"],
    ["count", "--class", "X", "--n", "1"],
    ["map", "nope", "--input", "1"],
    ["count", "--class", "O", "--max-n", "x"],
    ["enumerate", "--class", "O"],
    ["render"],
    ["map", "phi", "--check", "--input", "3,3,2"],
    ["count", "--class", "S", "--n", "1", "--max-n", "2"],
])
def test_malformed_arguments_print_usage_and_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: oddferrers")
    assert lines[-1].startswith("oddferrers") and ": error: " in lines[-1]
