"""scripts/line_coverage.py on a tiny module, so the collector keeps
working."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path as FilePath

sys.path.insert(0, str(FilePath(__file__).resolve().parent.parent / "scripts"))

import line_coverage  # noqa: E402

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
