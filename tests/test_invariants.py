"""Internal invariants raise typed errors, which `python -O` keeps."""

import ast
import builtins
from pathlib import Path

import pytest

import monopath
from monopath import solver
from monopath.bipartite import PreconditionViolated, _interleave_xy
from monopath.core import RED, MonopathError
from monopath.oracle import TableInconsistent, _min_cover, _spanning_path


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


def test_interleave_needs_one_fewer_y():
    assert _interleave_xy([1, 2], [3], RED).vertices == (1, 3, 2)
    with pytest.raises(PreconditionViolated):
        _interleave_xy([1, 2], [3, 4], RED)


def test_inconsistent_endpoint_table_is_typed():
    # mask {1, 2} claims vertex 2 as an end, but {1} is marked unreachable
    ends = [0, 0, 0b10, 0b10]
    adj = [0b10, 0b01]
    assert issubclass(TableInconsistent, MonopathError)
    with pytest.raises(TableInconsistent):
        _spanning_path(ends, adj, 0b11)


def test_vertex_on_no_maximal_set_is_typed():
    # only mask {1} is traceable, so vertex 2 lies on no maximal set
    ends = [0, 0b01, 0, 0]
    with pytest.raises(TableInconsistent) as e:
        _min_cover(ends, (0, 0), 2, RED)
    assert str(e.value) == "vertex 2 lies on no maximal set"
