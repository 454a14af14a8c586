"""scripts/line_coverage.py on a tiny module, so the collector keeps
working."""

from __future__ import annotations

import importlib.util
import sys
import textwrap

import pytest

import line_coverage

TINY = textwrap.dedent(
    """\
    def f(x):
        if x:
            return 1
        return 2


    class C:
        def g(self):
            return [y for y in range(3)]
    """
)


def _tiny(tmp_path):
    src = tmp_path / "tiny_cov.py"
    src.write_text(TINY)
    spec = importlib.util.spec_from_file_location("tiny_cov", src)
    return src, spec, importlib.util.module_from_spec(spec)


def test_executable_lines_take_in_nested_code(tmp_path):
    src, _, _ = _tiny(tmp_path)
    # the def, if and return lines, the class body and the method's lines
    assert line_coverage.executable_lines(src) == {1, 2, 3, 4, 7, 8, 9}


def test_lists_the_lines_that_never_ran(tmp_path):
    src, spec, module = _tiny(tmp_path)

    def run():
        spec.loader.exec_module(module)
        return module.f(1)

    before = sys.gettrace()
    result, hits = line_coverage.trace_lines({str(src)}, run)
    assert result == 1
    assert line_coverage.unreached([src], hits) == {src: [4, 9]}
    assert sys.gettrace() is before


@pytest.mark.parametrize(
    "calls, status, want",
    [
        (lambda m: m.f(1), 0, 1),  # lines 4 and 9 never ran
        (lambda m: (m.f(0), m.f(1), m.C().g()), 0, 0),
        (lambda m: m.f(1), 5, 5),  # pytest's failure comes first
        (lambda m: (m.f(0), m.f(1), m.C().g()), 1, 1),
    ],
    ids=["missed", "all-ran", "pytest-failed-and-missed", "pytest-failed"],
)
def test_exit_status(tmp_path, capsys, calls, status, want):
    src, spec, module = _tiny(tmp_path)

    def run():
        spec.loader.exec_module(module)
        calls(module)

    _, hits = line_coverage.trace_lines({str(src)}, run)
    missed = len(line_coverage.unreached([src], hits)[src])
    assert line_coverage.report([src], hits, status) == want
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{src}: {missed} of 7 executable lines never ran"
    )
