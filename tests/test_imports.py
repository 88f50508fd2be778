"""Every module of the package imports first in a fresh interpreter.

Importing leeperfect.<module> normally runs the package's __init__ first,
which loads the modules in one fixed order and can hide an import cycle
that another entry point would hit.  Here the package is an empty namespace
over the same directory, so the named module starts the import chain.
"""

import ast
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


# every Python file of the project, for the unused-import scan below
ROOT = Path(PACKAGE_DIR).parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds in path that nothing else in it reads.

    A name counts as read if it appears as a name anywhere in the module,
    attribute roots included.  Re-exports listed in __all__, and
    __version__, are exempt.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {"__version__"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    assert SOURCES
    unused = [entry for path in SOURCES for entry in _unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_package_import_leaves_the_process_pool_unloaded():
    # survey.scan imports its process pool only for thread_count > 1: the
    # pool machinery would cost every import of the package time and memory
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import leeperfect, leeperfect.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
