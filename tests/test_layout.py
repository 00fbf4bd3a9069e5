"""Package layout: every function, class and method in ``src/mvsense`` has
a caller inside the package.

Code that only the tests call belongs in ``tests/`` (as an oracle helper
in ``conftest.py``) or nowhere. The scan is by name: a definition counts
as used when some ``Name``, ``Attribute`` or import in the package refers
to its name. Docstrings and comments are not references, and dunder
methods are called by the language, not by name.
"""

import ast
from pathlib import Path

import mvsense

PACKAGE = Path(mvsense.__file__).parent

# Helpers waiting for a caller inside the package (the clearance metric).
ALLOWED = {"cylinder_clearance"}


def _definitions_and_references():
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return defined, referenced


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_has_a_caller_in_the_package():
    defined, referenced = _definitions_and_references()
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in referenced and name not in ALLOWED
                    and not _is_dunder(name))
    assert not unused, "defined in src/mvsense but never referenced there: " \
        + ", ".join(unused)


def test_allowlist_names_exist_and_are_unused():
    """An allowlisted name that gained a caller, or went away, leaves the list."""
    defined, referenced = _definitions_and_references()
    for name in ALLOWED:
        assert name in defined, f"{name} is no longer defined"
        assert name not in referenced, f"{name} has a caller now"
