"""Tier-1 needs only pytest: every Python file in its two test directories
imports nothing but the standard library, pytest, the package and modules
beside it. The test reads the files; it imports none."""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_ALLOWED = {*sys.stdlib_module_names, "pytest", "oddferrers"}


def _imported_modules(path: Path):
    """The top-level name of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_tier1_imports_only_the_standard_library_pytest_and_the_package():
    # the mutant table's copies leave out perfbench/, and the glob with it
    strays = [f"{path.relative_to(ROOT)}: {name}"
              for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")])
              for name in _imported_modules(path)
              if name not in _ALLOWED and not (path.parent / f"{name}.py").exists()]
    assert strays == []
