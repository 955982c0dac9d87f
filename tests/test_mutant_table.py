"""The mutant table's rows must name source text that exists. Each row's run
through tier-1 is `python tests/mutants.py`; this checks only that a change
to the source has brought its rows along, and that a row whose run hangs
does not stop the runner."""
import subprocess

import mutants


def test_every_row_names_text_that_occurs_once():
    assert mutants.stale_rows() == []


def test_a_run_stopped_at_the_timeout_counts_as_killed(monkeypatch, tmp_path):
    def hang(args, **kwargs):
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    assert mutants.tier1_fails(mutants.ROWS[0], tmp_path) is True


def test_a_run_starts_with_the_mutated_module_s_own_tests():
    tier1 = sorted(f"tests/{p.name}" for p in (mutants.ROOT / "tests").glob("test_*.py")
                   if p.name != "test_mutant_table.py")
    for row in mutants.ROWS:
        files = mutants.tier1_files(row)
        assert sorted(files) == tier1
        own = (row.path.replace("src/oddferrers/", "tests/test_").replace("commands", "cli")
               .replace("__init__", "namespace"))
        if own in files:
            assert files[0] == own
