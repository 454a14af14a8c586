"""Internal invariants raise typed errors, which `python -O` keeps."""

import ast
import builtins
from pathlib import Path

import monopath
from monopath import solver


def test_no_assert_statements_in_the_package():
    root = Path(monopath.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_builtin_raises_but_the_input_checks():
    # ValueError and TypeError reject bad arguments; any other built-in
    # exception is not a MonopathError, so it would escape the solver's
    # failure path and crash solve
    root = Path(monopath.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            kind = getattr(builtins, getattr(exc, "id", ""), None)
            if (
                isinstance(kind, type)
                and issubclass(kind, BaseException)
                and kind not in (ValueError, TypeError)
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno} {kind.__name__}")
    assert found == []


def test_solver_handles_exceptions_only_in_dropped_on_error():
    # one failure path: a failing solver stage is dropped and traced as
    # <stage>:error(<name>) by _dropped_on_error, never caught on the side
    tree = ast.parse(Path(solver.__file__).read_text())
    where = [
        (getattr(top, "name", None), node.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.ExceptHandler)
    ]
    assert where and {name for name, _ in where} == {"_dropped_on_error"}, where
