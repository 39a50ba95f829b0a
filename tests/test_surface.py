"""The public surface is what a caller reaches.

Every name in `pfkit.__all__`, and every public method of a public class
in the package, must be used by the package itself or by a demo; a
function that only tests call belongs in the tests.  Names are read from
the syntax trees of `src/pfkit/*.py` (without `__init__.py`, which only
re-exports) and `demos/*.py`.  Neither those modules nor the tests may
import a name they never use.  Private names, which no caller outside the
package reaches, must be read inside the package itself.
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

# Public methods with no caller inside the package, as "Class.method".
ALLOWED_UNCALLED_METHODS = {
    "Density.scale": "traced by the benchmark (perfbench/tracing.py TRACED); "
    "the lower-bound oracle of tests/test_mixing.py uses it",
    "Density.integral_over": "traced by the benchmark (perfbench/tracing.py TRACED); "
    "the trace-defect oracle of tests/test_mixing.py uses it",
}

# A use `x.name` cannot tell which class x is, so a method name that
# several public classes define counts for none of them by itself.  Each
# such method names a caller in the package instead, as
# "path:qualified.name", and the caller must read the method's name.
SHARED_METHOD_CALLERS = {
    "MarkovMatrix.entries": "src/pfkit/cli.py:limit_cmd",
    "UlamModel.entries": "src/pfkit/cli.py:ulam_cmd",
    "Density.integral": "src/pfkit/mixing.py:uniform_mixing_defect",
    "Density.positive_part": "src/pfkit/mixing.py:uniform_mixing_defect",
    "Density.negative_part": "src/pfkit/mixing.py:uniform_mixing_defect",
    "DyadicStepFunction.integral": "src/pfkit/dyadic.py:exactness_profile",
    "DyadicStepFunction.positive_part": "src/pfkit/dyadic.py:exactness_profile",
    "DyadicStepFunction.negative_part": "src/pfkit/dyadic.py:exactness_profile",
    "DyadicSet.measure": "src/pfkit/dyadic.py:image_measure_profile",
    "MeasurableSet.measure": "src/pfkit/mixing.py:lower_bound_witness",
    "AuditFailure.to_dict": "src/pfkit/audit.py:AuditReport.to_dict",
    "AuditReport.to_dict": "src/pfkit/cli.py:audit_cmd",
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


def _attributes_read(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _public_methods():
    """(class name, method name) of every public method, property included,
    of every public class in the package."""
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def _definition(caller):
    """The syntax tree that `SHARED_METHOD_CALLERS` names."""
    path, qualname = caller.split(":")
    assert path.startswith("src/pfkit/"), caller
    node = _tree(ROOT / path)
    for part in qualname.split("."):
        node = next(
            child
            for child in node.body
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == part
        )
    return node


def test_every_public_method_has_a_caller():
    methods = _public_methods()
    owners = {}
    for cls, name in methods:
        owners.setdefault(name, []).append(cls)
    shared = {f"{cls}.{name}" for cls, name in methods if len(owners[name]) > 1}
    assert shared == set(SHARED_METHOD_CALLERS)
    for key, caller in SHARED_METHOD_CALLERS.items():
        assert key.split(".")[1] in _attributes_read(_definition(caller)), key
    read = set().union(*(_attributes_read(_tree(p)) for p in MODULES + DEMOS))
    uncalled = sorted(
        f"{cls}.{name}" for cls, name in methods if len(owners[name]) == 1 and name not in read
    )
    assert uncalled == sorted(ALLOWED_UNCALLED_METHODS)


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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """Module-level private functions, classes and constants, private
    methods, and every method of a private class, by name."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Assign):
            found |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
    found = set(filter(_private, found))
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            found |= {
                item.name
                for item in cls.body
                if isinstance(item, ast.FunctionDef)
                and not item.name.endswith("__")
                and (_private(cls.name) or _private(item.name))
            }
    return found


def _names_read(tree):
    """Identifiers loaded as a name or read as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def test_every_private_name_is_read_in_the_package():
    trees = [_tree(p) for p in MODULES]
    read = set().union(*map(_names_read, trees))
    defined = set().union(*map(_private_definitions, trees))
    assert sorted(defined - read) == []
