"""The public surface is what a caller reaches.

Every name in `pfkit.__all__` must be used by the package itself or by a
demo; a function that only tests call belongs in the tests.  Names are
read from the syntax trees of `src/pfkit/*.py` (without `__init__.py`,
which only re-exports) and `demos/*.py`.  Neither those modules nor the
tests may import a name they never use.
"""

import ast
from pathlib import Path

import pfkit

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "pfkit").glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# Exported for callers outside the package, with no caller inside it.
ALLOWED_UNREFERENCED = {
    "identity_system": "fixture for user code and tests",
    "two_atom_swap": "fixture for user code and tests",
    "single_atom_with_nulls": "fixture for user code and tests",
    "bundled_example": "I/O helper: the example system shipped with the package",
    "save_system": "I/O helper: the inverse of load_system",
    "apply_power": "traced by the benchmark and the dense oracle of the tests",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Every identifier read as a name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    used = set().union(*(_used_names(_tree(p)) for p in MODULES + DEMOS))
    unreferenced = sorted(set(pfkit.__all__) - used - set(ALLOWED_UNREFERENCED))
    assert unreferenced == []
    assert set(ALLOWED_UNREFERENCED) <= set(pfkit.__all__)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES + TESTS:
        tree = _tree(path)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.parent.name}/{path.name}: {bound}")
    assert unused == []
