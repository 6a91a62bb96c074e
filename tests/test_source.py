"""Static checks over the package sources."""

import ast
from pathlib import Path

import hobchar

SOURCES = sorted(Path(hobchar.__file__).parent.rglob("*.py"))


def test_sources_found():
    assert any(path.name == "tables.py" for path in SOURCES)


def test_invariants_raise_typed_errors_not_assert():
    # ``python -O`` strips assert statements, so an invariant written as one
    # silently stops being checked; raise ExactnessError or ValueError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_invariants_do_not_raise_assertion_error():
    # a bare AssertionError is no ArithmeticError, so ``cli.run`` would end
    # in a traceback instead of exit code 2; raise ExactnessError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert found == []


def _module_name(path):
    return "hobchar" if path.stem == "__init__" else f"hobchar.{path.stem}"


def test_no_private_names_imported_across_modules():
    # an underscore name is private to its module; a second module that
    # needs it should get a public function instead
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "hobchar"
        and node.module != _module_name(path)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
