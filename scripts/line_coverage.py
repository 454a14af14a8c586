"""Line coverage from sys.settrace, for a Python without a coverage package:
run pytest under a line tracer and list the lines of a source tree that
never ran.

    PYTHONPATH=src python scripts/line_coverage.py src/monopath
    PYTHONPATH=src python scripts/line_coverage.py src/monopath -- -q tests/test_cli.py

SOURCE is a directory, searched for *.py files, or one .py file.  The
arguments after `--` go to pytest, which runs in this process (default:
`-q tests`).  A line is executable when its file's compiled code maps an
instruction to it, and reached when a traced frame ran it.  stdout holds
one line per executable line that never ran, `path:line: source`, then one
per file, `path: k of m executable lines never ran`.  The exit status is
pytest's when pytest failed, else 1 if a line never ran, else 0.

The tracer starts before pytest imports anything from SOURCE, so module
level lines count too.  It sees this process and its threads only: code run
in worker processes (the sweep's `--workers`) reads as never run.  Tracing
makes a run two to four times slower; the whole suite took 86-115 s
instead of 33-40 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    """The lines an instruction of the file's compiled code maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_lines(files, run):
    """Call run() under a line tracer; return its result and, per file of
    `files` (absolute path strings), the set of lines that ran."""
    hits: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    old = sys.gettrace()
    threading.settrace(scope)
    sys.settrace(scope)
    try:
        result = run()
    finally:
        sys.settrace(old)
        threading.settrace(old)
    return result, hits


def unreached(sources: list[Path], hits: dict[str, set[int]]) -> dict[Path, list[int]]:
    """Per source file, its executable lines that never ran, in order."""
    return {
        p: sorted(executable_lines(p) - hits.get(str(p), set())) for p in sources
    }


def report(sources: list[Path], hits: dict[str, set[int]], status: int) -> int:
    """Print the lines of `sources` that never ran and one total per file;
    return `status` if nonzero, else 1 if a line never ran, else 0."""
    totals = []
    missed = False
    for path, lines in unreached(sources, hits).items():
        text = path.read_text().splitlines()
        for line in lines:
            print(f"{path}:{line}: {text[line - 1].strip()}")
        totals.append(f"{path}: {len(lines)} of {len(executable_lines(path))} "
                      "executable lines never ran")
        missed = missed or bool(lines)
    print("\n".join(totals))
    return status or int(missed)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    own, pytest_args = argv, ["-q", "tests"]
    if "--" in argv:
        cut = argv.index("--")
        own, pytest_args = argv[:cut], argv[cut + 1 :]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("source", type=Path, help="a directory of .py files, or one .py file")
    args = ap.parse_args(own)
    root = args.source.resolve()
    sources = sorted(root.rglob("*.py")) if root.is_dir() else [root]

    import pytest

    status, hits = trace_lines({str(p) for p in sources}, lambda: pytest.main(pytest_args))
    return report(sources, hits, int(status))


if __name__ == "__main__":
    sys.exit(main())
