"""The scripts under scripts/ run end to end against this checkout's sources,
so a renamed or deleted package name they import fails here."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, arg", [("count_table.py", "12"), ("show_bijection.py", "3")])
def test_script_runs(script, arg):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), arg],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout and "MISMATCH" not in result.stdout
