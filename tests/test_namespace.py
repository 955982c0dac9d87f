"""The package namespace is lazy: a name imports its submodule when it is
first read. That the CLI imports only the modules that a command runs is
tested in `tests/test_cli.py`, so a mutant of `cli` stops in its own file.
Every public callable refuses a value of the wrong type with `TypeError`."""
import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddferrers
from oddferrers import bijections, cli, commands
from oddferrers.classes import ClassId
from oddferrers.errors import OddFerrersError
from oddferrers.ferrers import OddFerrersGraph
from oddferrers.partitions import Partition


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


# each stem is read in a fresh interpreter, since an import binds a submodule
# on the package, and tier-1 has imported them all
_READ_EACH_SUBMODULE = """
import json, sys
import oddferrers

stems = sys.argv[1:]
listed = [stem for stem in stems if stem in dir(oddferrers)]
resolved = [stem for stem in stems
            if getattr(getattr(oddferrers, stem, None), "__name__", None) == f"oddferrers.{stem}"]
print(json.dumps([listed, resolved]))
"""


def test_every_submodule_is_a_lazy_attribute():
    src = Path(oddferrers.__file__).resolve().parent
    stems = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    proc = subprocess.run([sys.executable, "-c", _READ_EACH_SUBMODULE, *stems],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src.parent)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [stems, stems]


def test_cli_names_are_the_library_names():
    # argparse offers these before the modules that define them are imported
    assert cli._CLASS_NAMES == tuple(c.value for c in ClassId)
    assert all(callable(getattr(commands, f"_verify_{name}", None)) for name in cli._CHECKS)
    # the map names in the order that the usage and help text give them
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    maps = next(a for a in sub.choices["map"]._actions if a.dest == "name").choices
    assert list(maps) == ["phi", "phi-inverse", "o-to-d", "d-to-o", "d-to-do", "do-to-d",
                          "sc-to-distinct-odd", "distinct-odd-to-sc"]
    assert {name.replace("-", "_") for name in maps} == {
        name for name in oddferrers.__all__ if getattr(oddferrers, name).__module__ == bijections.__name__}


# each probe once raised AttributeError from inside the map, on a missing
# `.parts` or `.shape`
@pytest.mark.parametrize("name, value", [
    ("d_to_o", (6, 5)),
    ("d_to_do", [6, 5]),
    ("phi_inverse", "5,5"),
    ("sc_to_distinct_odd", None),
    ("distinct_odd_to_sc", "x"),
    ("phi", Partition((3, 3, 2))),
    ("o_to_d", Partition((1,))),
    ("render_ascii", Partition((2, 1))),
    ("hook_decompose", (3, 3, 2)),
])
def test_a_value_of_the_wrong_type_is_a_type_error(name, value):
    with pytest.raises(TypeError, match="expected type"):
        getattr(oddferrers, name)(value)


_small_partitions = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True))))
# small ints, so that no walk, expansion or composed shape runs long
_scalars = st.integers(-3, 12) | st.booleans() | st.floats() | st.none() | st.text(max_size=3)
_values = st.recursive(
    _scalars | _small_partitions | _small_partitions.filter(lambda p: p.parts).map(OddFerrersGraph)
    | st.sampled_from(ClassId),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3), max_leaves=4)


def _arity(fn) -> int:
    """The positional parameters without a default, or 1 for `Partition(parts=())`."""
    params = inspect.signature(fn).parameters.values()
    return max(1, sum(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in params))


@pytest.mark.parametrize("name", oddferrers.__all__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_public_callable_raises_only_the_package_s_errors(name, data):
    fn = getattr(oddferrers, name)
    args = data.draw(st.tuples(*[_values] * _arity(fn)))
    try:
        fn(*args)
    except (OddFerrersError, TypeError, ValueError):
        pass
