"""The package namespace is lazy: a name imports its submodule when it is
first read, and the CLI imports only the modules that a command runs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddferrers
from oddferrers import bijections, cli
from oddferrers.classes import ClassId

SRC = Path(oddferrers.__file__).resolve().parent.parent

# run in a fresh interpreter, so that no other test has imported a module yet
_LOADED_BY_COMMANDS = """
import contextlib, io, json, sys
from oddferrers.cli import main

def loaded(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return sorted(m for m in sys.modules if m.startswith("oddferrers."))

print(json.dumps([loaded(["count", "--class", "pnu", "--max-n", "5"]),
                  loaded(["verify", "--checks", "counts", "--max-n", "3"])]))
"""


def test_a_command_imports_only_the_modules_it_runs():
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY_COMMANDS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    series, counts = json.loads(proc.stdout)
    assert series == ["oddferrers.cli", "oddferrers.errors", "oddferrers.qseries"]
    assert "oddferrers.classes" in counts and "oddferrers.bijections" not in counts


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
    maps = {name for name, _ in cli._MAPS.values()}
    assert maps == {name for name in oddferrers.__all__
                    if getattr(oddferrers, name).__module__ == bijections.__name__}
