"""Every module of the package imports first in a fresh interpreter.

Importing leeperfect.<module> normally runs the package's __init__ first,
which loads the modules in one fixed order and can hide an import cycle
that another entry point would hit.  Here the package is an empty namespace
over the same directory, so the named module starts the import chain.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

# the sources, not an import of them: a broken import fails each test below
# instead of the collection of this file
PACKAGE_DIR = str(Path(__file__).resolve().parent.parent / "src" / "leeperfect")
# __main__ runs the command line when it is imported
MODULES = sorted(m.name for m in pkgutil.iter_modules([PACKAGE_DIR]) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('leeperfect')\n"
        f"pkg.__path__ = [{PACKAGE_DIR!r}]\n"
        "sys.modules['leeperfect'] = pkg\n"
        f"import leeperfect.{module}\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
