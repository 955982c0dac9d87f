"""The package namespace is lazy: a name imports its submodule when it is
first read. That the CLI imports only the modules that a command runs is
tested in `tests/test_cli.py`, so a mutant of `cli` stops in its own file.
Every public callable refuses a value of the wrong type with `TypeError`."""
import argparse
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
# `.parts` or `.shape`; or, for hooks_compose, a bare KeyError on a dict, and
# a composed shape for a range
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
    ("hooks_compose", {1: 2}),
    ("hooks_compose", range(3, 0, -1)),
])
def test_a_value_of_the_wrong_type_is_a_type_error(name, value):
    with pytest.raises(TypeError, match="expected type"):
        getattr(oddferrers, name)(value)


_partitions = [Partition(parts) for parts in [(), (1,), (2, 1), (2, 2), (3, 1), (3, 3, 2), (6, 6, 6, 6, 6)]]
_graphs = [OddFerrersGraph(p) for p in _partitions if p.parts]
# one fixed list of 60 values: small ints, so that no walk, expansion or
# composed shape runs long; a dict, which once escaped hooks_compose as a bare
# KeyError; and tuples and lists one level deep, of arms that compose, arms
# that do not, and values of the other kinds
_atoms = [*range(-3, 13), True, False, 0.0, -0.0, 1.5, math.nan, math.inf, -math.inf,
          None, "", "x", "5,5", {1: 2}, *ClassId, *_partitions, *_graphs]
_values = [*_atoms, (), [], (3, 1), [4, 3], [3, 3], (-1,), [0], (2, 1.0), [True, False],
           (None, "x"), [ClassId.S, 2], (_partitions[1], _graphs[0]), [{1: 2}], (math.nan,)]


def _arity(fn) -> int:
    """The positional parameters without a default, or 1 for `Partition(parts=())`."""
    params = inspect.signature(fn).parameters.values()
    return max(1, sum(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in params))


@pytest.mark.parametrize("name", oddferrers.__all__)
def test_a_public_callable_raises_only_the_package_s_errors(name):
    # every tuple of values at the callable's arity: 60 calls, or 3,600
    fn = getattr(oddferrers, name)
    for args in itertools.product(_values, repeat=_arity(fn)):
        try:
            fn(*args)
        except (OddFerrersError, TypeError, ValueError):
            pass
