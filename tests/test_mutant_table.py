"""The mutant table's rows must name source text that exists. Each row's run
through tier-1 is `python tests/mutants.py`; this checks only that a change
to the source has brought its rows along."""
import mutants


def test_every_row_names_text_that_occurs_once():
    assert mutants.stale_rows() == []
