"""Every module the package and its tests import is declared.

The package imports only the standard library and the packages named in
`pyproject.toml`'s `dependencies`; the tests may also import the `test`
extra, the package itself and their own `helpers`. Imports are read from
the source with `ast`, so a module imported only inside a function is
checked too.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def declared(specs):
    """Import names of the requirement strings, e.g. "numpy>=1.24" ->
    "numpy"."""
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            .replace("-", "_") for spec in specs}


def undeclared(paths, allowed):
    """(file, line, module) of each absolute import whose top-level name is
    neither in the standard library nor in `allowed`."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in allowed:
                    found.append((path.relative_to(ROOT).as_posix(),
                                  node.lineno, name))
    return found


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def test_package_imports_only_its_dependencies(project):
    paths = sorted((ROOT / "src" / "rtcap").glob("*.py"))
    assert paths
    assert undeclared(paths, declared(project["dependencies"])) == []


def test_tests_import_only_declared_packages(project):
    allowed = (declared(project["dependencies"])
               | declared(project["optional-dependencies"]["test"])
               | {"rtcap", "helpers"})
    paths = sorted((ROOT / "tests").glob("*.py"))
    assert paths
    assert undeclared(paths, allowed) == []
