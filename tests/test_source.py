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


def _is_cache_decorator(node):
    func = node.func if isinstance(node, ast.Call) else node
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("cache", "lru_cache")


def test_no_cache_decorator_on_nested_functions():
    # a cached inner function is a new cache for every call of the outer
    # one: the wrapper is rebuilt each time and shares nothing between calls
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [
        f"{path.name}:{inner.lineno} {inner.name}"
        for path in SOURCES
        for outer in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(outer, functions)
        for inner in ast.walk(outer)
        if inner is not outer
        and isinstance(inner, functions)
        and any(_is_cache_decorator(d) for d in inner.decorator_list)
    ]
    assert found == []


def test_exact_div_messages_are_not_built_eagerly():
    # exact_div formats its message only when a division fails; an f-string
    # argument is built on every call, exact or not, for nothing
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "exact_div"
        and any(isinstance(arg, ast.JoinedStr) for arg in [*node.args, *(kw.value for kw in node.keywords)])
    ]
    assert found == []


def _called_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_no_fraction_or_float_outside_errors():
    # every table and matrix holds Python ints, and the containers check
    # only their shape: a Fraction may be built only to report a failure
    # (inside a raise or a return), and no float may be built at all
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        reported = {
            id(inner)
            for stmt in ast.walk(tree)
            if isinstance(stmt, (ast.Raise, ast.Return))
            for inner in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "float":
                found.append(f"{path.name}:{node.lineno} float()")
            elif isinstance(node, ast.Constant) and type(node.value) is float:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and _called_name(node) == "Fraction"
                and id(node) not in reported
            ):
                found.append(f"{path.name}:{node.lineno} Fraction()")
    assert found == []


# the label types, the matrix container and the exact-division helpers
ORACLE_PACKAGE_IMPORTS = {
    "Partition",
    "AlphaSystem",
    "SignedSubgroupLabel",
    "BranchingMatrix",
    "ExactnessError",
    "exact_div",
}


def _imports_outside(tree, skipped):
    """Import statements of ``tree`` outside the functions named in ``skipped``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in skipped:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_oracle_shares_no_code_with_the_pipeline():
    # the brute-force oracle is the one check of the classes, the fusion,
    # the induced values and R1 that shares no code with the formula
    # modules; only the two comparisons against them may import more
    path = Path(hobchar.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in _imports_outside(tree, {"oracle_restriction", "oracle_agreement"}):
        if isinstance(node, ast.Import):
            found += [
                f"{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] == "hobchar"
            ]
        elif node.level or (node.module or "").split(".")[0] == "hobchar":
            found += [
                f"{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name not in ORACLE_PACKAGE_IMPORTS
            ]
    assert found == []
