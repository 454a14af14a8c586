"""Tag census: every trace tag solver.py can write, each reached by a pinned
instance whose solve returns a validated cover.

The tags are read from solver.py itself: every string literal handed to
`trace.append`, `add` or `_dropped_on_error`, or assigned to `tag`.  An
f-string stands for every entry that matches it with its fields filled in;
a stage handed to `_dropped_on_error` is reached by the stage's own entry or
by `<stage>:error(<ExceptionName>)`.  A tag literal added to solver.py
without an entry in CENSUS fails `test_every_tag_literal_has_an_instance`.
A key may end in `#<reason>`: a second instance that reaches the same entry
another way.

Entries with a stand-in (their fourth field) are reached only through a
monkeypatched failure, since no correct input reaches them: a
`<tag>:invalid-dropped` needs a builder that returns an invalid cover.
Every stage handed to `_dropped_on_error` fails on a natural input, with no
stand-in (`test_every_wrapped_stage_fails_naturally`).
"""

from __future__ import annotations

import ast
import random
import re
from pathlib import Path as FilePath

import pytest

from conftest import noisy_colouring, red_hub
from monopath import solver
from monopath.core import (
    BLUE,
    RED,
    Colouring,
    PathCover,
    iter_edges,
    validate_cover,
)
from monopath.gen import extremal, random_colouring
from monopath.solver import SolverConfig, cover_sqrt, solve

DEFAULT = SolverConfig()
C2 = SolverConfig(c1=2.0, c2=0.0, c=2.0)
C1 = SolverConfig(c1=1.0, c2=0.0, c=1.0)
C222 = SolverConfig(c1=2.0, c2=2.0, c=2.0)


def red_star(n: int) -> Colouring:
    """Every edge at vertex 1 red, the rest blue."""
    return Colouring.from_function(n, lambda u, v: RED if u == 1 else BLUE)


def forced_red_star(seed: int) -> Colouring:
    """A noisy colouring with every edge at vertex 1 made red.  Vertex 1 has
    no blue edge, so when ramsey_path cannot certify a blue seed the long
    path stays (1,) and the stripping step's preconditions fail."""
    rng = random.Random(seed)
    n = rng.randint(30, 70)
    bits = noisy_colouring(rng, n).edge_bits()
    return Colouring.from_edge_bits(
        n, [u == 1 or red for (u, _), red in zip(iter_edges(n), bits)]
    )


def _path_only(g, s):
    """An invalid structure cover: the path without its outside vertices."""
    return PathCover(s.path.colour, (s.path,), g.n)


# trace entry -> (colouring, config, entry point, injected (name, stand-in))
CENSUS = {
    "base:oracle": (lambda: random_colouring(10, 0.5, 3), DEFAULT, solve, None),
    "base:structure-R": (lambda: random_colouring(200, 0.5, 0), C222, solve, None),
    "base:greedy": (lambda: extremal(100), DEFAULT, solve, None),
    "pick:sqrt": (lambda: extremal(100), DEFAULT, solve, None),
    "sqrt:y-exit": (lambda: extremal(100), DEFAULT, solve, None),
    "sqrt:invalid-dropped": (
        lambda: extremal(100), DEFAULT, solve,
        ("cover_from_structure", _path_only),
    ),
    # only cover_sqrt falls back; solve's pick reads the bounded candidates
    "sqrt:fallback": (lambda: red_star(16), DEFAULT, cover_sqrt, None),
    # |X| = 1 <= |Y| = 15 fails decompose_full's (i)
    "sqrt:decompose:error(PreconditionViolated)": (
        lambda: red_star(16), DEFAULT, solve, None,
    ),
    "sqrt:decompose": (lambda: red_hub(10, 7), DEFAULT, solve, None),
    # the long path stays (1,): too short for the stripping step
    "sqrt:pipeline:error(PreconditionViolated)": (
        lambda: red_star(37), SolverConfig(0.5, 0.0, 0.5), solve, None,
    ),
    # |X| = |Y| + 2m exactly (427 = 141 + 2*143): the stripping step makes
    # no pass
    "sqrt:pipeline:error(GuardFailed)": (
        lambda: red_hub(568, 428), C222, solve, None,
    ),
    # find_long_path_structure's stripping step succeeds: one decompose pass
    # (|X| = 456, |Y| = 144, m = 147) gives a one-path witness that passes
    # the reduce guard
    "sqrt:reduce": (lambda: red_hub(600, 457), C222, solve, None),
    # the same step with |Y| = 154 gives a witness that fails it
    "sqrt:reduce:error(GuardFailed)": (
        lambda: red_hub(760, 607), C222, solve, None,
    ),
    "bounded:pipeline": (lambda: red_hub(10, 8), C2, solve, None),
    "bounded:pipeline:error(PreconditionViolated)": (
        lambda: forced_red_star(1762), C1, solve, None,
    ),
    # a red hub of 8 on 20: no base cover is a single path, so the bounded
    # pipeline runs, and its witness passes the reduce guard
    "bounded:reduce": (lambda: red_hub(20, 13), C2, solve, None),
    "bounded:y0-exit": (lambda: red_star(20), C2, solve, None),
    "bounded:y-exit": (lambda: red_hub(10, 8), C2, solve, None),
    "bounded:strip": (lambda: red_hub(41, 35), C2, solve, None),
    "bounded:strip:error(PreconditionViolated)": (
        lambda: red_hub(10, 7), C2, solve, None,
    ),
    # the blue path holds the clique 1..36 and Y the hub 37..44, so
    # |X| = |Y| + 2m exactly (36 = 8 + 2*14): the stripping step makes no
    # pass
    "bounded:strip:error(GuardFailed)": (
        lambda: red_hub(44, 37), C2, solve, None,
    ),
    # skips by the pick rule: at n = 10 the oracle's cover is one path, which
    # no later candidate can beat, the sqrt step included
    "sqrt:pipeline:skipped": (lambda: random_colouring(10, 0.5, 3), DEFAULT, solve, None),
    "base:structure-R:skipped": (
        lambda: random_colouring(10, 0.5, 3), DEFAULT, solve, None,
    ),
    # the red structure cover is one path, which neither the blue one, the
    # bounded induction nor a reduce cover (two paths at least) can beat
    "base:structure-B:skipped": (
        lambda: random_colouring(200, 0.5, 0), C222, solve, None,
    ),
    "bounded:pipeline:skipped": (
        lambda: random_colouring(200, 0.5, 0), C222, solve, None,
    ),
    "sqrt:reduce:skipped": (lambda: random_colouring(200, 0.5, 0), C222, solve, None),
    # the red structure cover has two paths, the bounded witness's reduce
    # at least as many, and it would come later in the pick order
    "bounded:reduce:skipped": (lambda: red_hub(16, 10), C2, solve, None),
    # skips by a structure cover's exact size: extremal(100)'s red one has
    # 42 paths, more than the greedy cover's 10, which comes after it
    "base:structure-R:skipped#size": (lambda: extremal(100), DEFAULT, solve, None),
    # red_hub(2000, 1201)'s blue one has 801 paths, more than the red one's
    # 201 before it
    "base:structure-B:skipped#size": (lambda: red_hub(2000, 1201), DEFAULT, solve, None),
}


def _entry(key: str) -> str:
    """The trace entry a CENSUS key stands for."""
    return key.partition("#")[0]


def _field_pattern(node: ast.AST) -> str | None:
    """A regex for the entries a string literal or f-string can write."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.escape(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(
            re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
            for part in node.values
        )
    return None


def tag_patterns() -> set[str]:
    """One regex per tag literal in solver.py, each matching whole entries."""
    tree = ast.parse(FilePath(solver.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", ""))
            suffix = r"(:error\(\w+\))?" if name == "_dropped_on_error" else ""
            if name in ("append", "add", "_dropped_on_error"):
                for arg in node.args:
                    pattern = _field_pattern(arg)
                    if pattern is not None:
                        found.add(pattern + suffix)
        elif isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for t, v in pairs:
                pattern = _field_pattern(v)
                if isinstance(t, ast.Name) and t.id == "tag" and pattern:
                    found.add(pattern)
    return found


def test_every_tag_literal_has_an_instance():
    patterns = tag_patterns()
    assert {re.escape("sqrt:y-exit"), "pick:.+", r".+:error\(.+\)"} <= patterns
    entries = {_entry(key) for key in CENSUS}
    unreached = [
        p for p in sorted(patterns) if not any(re.fullmatch(p, e) for e in entries)
    ]
    assert unreached == []
    stale = [
        e for e in sorted(entries) if not any(re.fullmatch(p, e) for p in patterns)
    ]
    assert stale == []


@pytest.mark.parametrize("entry", sorted(CENSUS))
def test_census_entry_is_reached(monkeypatch, entry):
    build, cfg, entry_point, injected = CENSUS[entry]
    if injected:
        monkeypatch.setattr(solver, *injected)
    g = build()
    res = entry_point(g, cfg)
    assert _entry(entry) in res.branch_trace, res.branch_trace
    assert validate_cover(g, res.cover).valid
    assert not any("|" in t for t in res.branch_trace)


def test_every_wrapped_stage_fails_naturally():
    tree = ast.parse(FilePath(solver.__file__).read_text())
    stages = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", "") == "_dropped_on_error"
    }
    assert stages == {
        "bounded:pipeline", "bounded:strip",
        "sqrt:pipeline", "sqrt:reduce", "sqrt:decompose",
    }
    natural = [_entry(key) for key, entry in CENSUS.items() if entry[3] is None]
    unfailed = [
        stage for stage in sorted(stages)
        if not any(re.fullmatch(re.escape(stage) + r":error\(\w+\)", e) for e in natural)
    ]
    assert unfailed == []
