"""The package namespace is lazy: a name imports its submodule when it is
first read. That the CLI imports only the modules that a command runs is
tested in `tests/test_cli.py`, so a mutant of `cli` stops in its own file."""
import pytest

import oddferrers
from oddferrers import bijections, cli
from oddferrers.classes import ClassId


def test_every_public_name_resolves():
    star = {}
    exec("from oddferrers import *", star)
    for name in oddferrers.__all__:
        value = getattr(oddferrers, name)
        assert star[name] is value
        assert value.__module__.startswith("oddferrers.")
    assert set(oddferrers.__all__) <= set(dir(oddferrers))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        oddferrers.nope


def test_cli_names_are_the_library_names():
    # argparse offers these before the modules that define them are imported
    assert cli._CLASS_NAMES == tuple(c.value for c in ClassId)
    maps = set(cli._MAPS)
    assert maps == {name for name in oddferrers.__all__
                    if getattr(oddferrers, name).__module__ == bijections.__name__}
