import json
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import oddferrers.bijections
import oddferrers.classes
import oddferrers.cli
import oddferrers.qseries
from oddferrers.classes import ClassId, members
from oddferrers.cli import main
from oddferrers.errors import MalformedSClass
from oddferrers.partitions import Partition

import cli_contract
import oracles


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCount:
    def test_single_n(self, capsys):
        code, out, _ = run(capsys, "count", "--class", "S", "--n", "0")
        assert code == 0 and out == "0\t1\n"

    def test_max_n(self, capsys):
        code, out, _ = run(capsys, "count", "--class", "pnu", "--max-n", "3")
        assert code == 0
        assert out == "0\t1\n1\t1\n2\t2\n3\t2\n"

    def test_pnu_matches_s(self, capsys):
        _, out_pnu, _ = run(capsys, "count", "--class", "pnu", "--max-n", "10")
        _, out_s, _ = run(capsys, "count", "--class", "S", "--max-n", "10")
        assert out_pnu == out_s

    @pytest.mark.parametrize("max_n", [0, 1, 2, 5, 6, 11, 12, 200])
    def test_pnu_lines_are_the_naive_series(self, capsys, max_n):
        # the orders n(n+1) and their neighbours are where the expansion
        # gains or loses a level
        lines = [f"{n}\t{c}\n" for n, c in enumerate(oracles.naive_nu_minus_q(max_n))]
        assert run(capsys, "count", "--class", "pnu", "--max-n", str(max_n)) == (0, "".join(lines), "")
        assert run(capsys, "count", "--class", "pnu", "--n", str(max_n)) == (0, lines[-1], "")

    def test_bad_class(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--class", "X", "--n", "0"])
        assert exc.value.code == 2

    def test_n_and_max_n_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--class", "S", "--n", "1", "--max-n", "2"])
        assert exc.value.code == 2


class TestEnumerate:
    def test_s1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "S", "--n", "1")
        assert code == 0 and out == "3,1,1\n"

    def test_o0(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "O", "--n", "0")
        assert code == 0 and out == "1\n"

    def test_s5_contains_worked_example(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "S", "--n", "5")
        assert code == 0 and "5,5,5,3,3" in out.splitlines()

    def test_text_is_one_line_per_member(self, capsys):
        rows = "".join(",".join(map(str, p.parts)) + "\n" for p in members(ClassId.S, 12))
        assert run(capsys, "enumerate", "--class", "S", "--n", "12") == (0, rows, "")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "S", "--n", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "class": "S", "n": 1, "count": 1, "members": [[3, 1, 1]],
        }


class TestMap:
    @pytest.mark.parametrize("name", ["d-to-o", "distinct-odd-to-sc"])
    def test_shape_under_cell_cap_is_composed(self, capsys, name):
        code, out, err = run(capsys, "map", name, "--input", "999999")
        assert (code, err) == (0, "")
        assert out == "500000" + ",1" * 499999 + "\n"

    def test_roundtrip_identical_text(self, capsys):
        from oddferrers.classes import members

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
    def test_diagram_goldens(self, capsys):
        code, out, _ = run(capsys, "render", "--shape", "3,3,2")
        assert code == 0 and out == "111\n122\n12\n"
        code, out, _ = run(capsys, "render", "--shape", "7,4,2,1")
        assert code == 0 and out == "1111111\n1222\n12\n1\n"
        code, out, _ = run(capsys, "render", "--shape", "1")
        assert code == 0 and out == "1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "render", "--shape", "3,3,2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"shape": [3, 3, 2], "weight": 11,
                                   "row_sums": [3, 5, 3]}

    def test_text_roundtrip(self, capsys):
        # a printed shape parses back to the same parts
        code, out, _ = run(capsys, "map", "distinct-odd-to-sc", "--input", "9,7,5")
        assert (code, out) == (0, "5,5,5,3,3\n")
        code, out, _ = run(capsys, "render", "--shape", out, "--format", "json")
        assert code == 0 and json.loads(out)["shape"] == [5, 5, 5, 3, 3]

    def test_whitespace_around_parts_is_allowed(self, capsys):
        code, out, _ = run(capsys, "render", "--shape", " 5 , 3,1\n", "--format", "json")
        assert code == 0 and json.loads(out)["shape"] == [5, 3, 1]

    def test_shape_at_cell_limit_renders(self, capsys):
        code, out, err = run(capsys, "render", "--shape", "999999,1")
        assert code == 0 and err == ""
        assert out == "1" * 999999 + "\n1\n"


class _RecordedStdout:
    """A stdout that keeps the lines of each write or writelines call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append([text])

    def writelines(self, lines):
        self.calls.append(list(lines))


@pytest.mark.parametrize("argv, lines", [
    ("count --class pnu --max-n 600", 601),
    ("enumerate --class S --n 12", len(members(ClassId.S, 12))),
], ids=["pnu", "enumerate"])
def test_a_table_in_memory_is_written_in_one_call(monkeypatch, argv, lines):
    stdout = _RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv.split()) == 0
    assert [len(call) for call in stdout.calls] == [lines]


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
    proc = subprocess.run(
        [sys.executable, "-m", "oddferrers.cli", "map", "phi", "--input", "3,3,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5,5,5,3,3\n"


@pytest.mark.parametrize("argv", [
    [],
    ["count"],
    ["count", "--class", "X", "--n", "1"],
    ["map", "nope", "--input", "1"],
    ["count", "--class", "O", "--max-n", "x"],
    ["enumerate", "--class", "O"],
    ["render"],
    ["map", "phi", "--check", "--input", "3,3,2"],
])
def test_malformed_arguments_print_usage_and_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: oddferrers")
    assert lines[-1].startswith("oddferrers") and ": error: " in lines[-1]
