"""The package root is its docstring alone: every name is imported from
its module, and each module imports what it needs itself."""

import os
import subprocess
import sys

import pytest

import blockdet

SRC = os.path.dirname(os.path.dirname(os.path.abspath(blockdet.__file__)))
MODULES = ("ring", "matrix", "ncdet", "conditions", "traces", "verify", "cli")


def fresh(code: str) -> str:
    """The stdout of ``code`` in a fresh isolated interpreter with ``src``
    first on the path; it must exit 0 with no stderr."""
    proc = subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {SRC!r}); {code}"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    assert fresh(f"import blockdet.{module}; print(blockdet.{module}.__name__)") == f"blockdet.{module}\n"


def test_the_package_root_exports_no_name():
    assert fresh("import blockdet; print([n for n in vars(blockdet) if not n.startswith('_')])") == "[]\n"


def test_importing_the_rings_loads_no_other_module_of_the_package():
    code = "import blockdet.ring; print(sorted(m for m in sys.modules if m.startswith('blockdet')))"
    assert fresh(code) == "['blockdet', 'blockdet.ring']\n"
