"""The package's layout: two halves that share only ``errors``, and one
export list per module.

The series half computes coefficients and their determinants; the parameter
half scans the Caratheodory parameters.  Only the command line and the
package itself import from both.  Each public name is listed once, in its
module's ``__all__``, and the package star-imports those lists.
"""

import ast
import itertools
import types
from pathlib import Path

import petalstar
from petalstar import caratheodory, diskmax, extremal, functionals, search, series

SRC = Path(petalstar.__file__).resolve().parent
HALVES = {
    "series": {"series", "functionals", "extremal"},
    "parameter": {"caratheodory", "diskmax", "search"},
}
#: The modules whose ``__all__`` the package star-imports, in that order.
EXPORTING = (series, functionals, caratheodory, diskmax, extremal, search)


def _package_imports(path: Path) -> list:
    """The ``petalstar`` modules a source file imports, in order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.append(node.module)
            else:  # from . import caratheodory as cth
                found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("petalstar."):
            found.append(node.module.split(".", 1)[1])
        elif isinstance(node, ast.Import):
            found.extend(alias.name.split(".", 1)[1] for alias in node.names
                         if alias.name.startswith("petalstar."))
    return found


def test_every_module_has_a_place():
    both = {"__init__", "__main__", "cli", "errors"}
    modules = {path.stem for path in SRC.glob("*.py")}
    assert modules == both | HALVES["series"] | HALVES["parameter"]


def test_halves_share_only_errors():
    for half, modules in HALVES.items():
        for module in modules:
            outside = set(_package_imports(SRC / f"{module}.py")) - modules - {"errors"}
            assert not outside, f"{module} ({half} half) imports {sorted(outside)}"
    assert set(_package_imports(SRC / "search.py")) == {"caratheodory", "errors"}


def test_package_star_imports_the_export_lists():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all([alias.name for alias in node.names] == ["*"] for node in imports)
    assert _package_imports(SRC / "__init__.py") == [m.__name__.split(".")[1] for m in EXPORTING]
    public = {name for name, value in vars(petalstar).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for module in EXPORTING for name in module.__all__}


def test_export_lists_are_disjoint():
    # a name in two lists would be shadowed silently by the later star import
    for a, b in itertools.combinations(EXPORTING, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
    for module in EXPORTING:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
