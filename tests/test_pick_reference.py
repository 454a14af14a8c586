"""An eager reference for solve's and cover_bounded's pick, and the bounds
that let the pick be lazy.

The reference builds every candidate cover straight from the stage
functions, recursing through itself for reduce, and takes the first valid
one in (size, order); cover_bounded's pick reads no validation.  It shares
no memo, pick or skip with the solver, so any laziness there that changes a
cover on a fresh input shows as a difference here.

solver._pick skips a stage whose bound is above a valid cover's size.  That
equals the reference only if no stage yields a bound above its own cover's
size, which the drained stages below check at every level of the recursion.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noisy_colouring
from monopath import arith, solver
from monopath.bipartite import BipartiteView, decompose_full
from monopath.construct import (
    LongPathStructure,
    ReductionWitness,
    _grow,
    find_long_path_structure,
    refine_path,
)
from monopath.core import BLUE, RED, MonopathError, Path, PathCover, validate_cover
from monopath.oracle import DEFAULT_ORACLE_THRESHOLD, exact_f
from monopath.solver import (
    _gamma_isolated,
    _greedy_cover,
    _reduce_guard,
    _strip_and_mop,
    cover_bounded,
    cover_from_structure,
    solve,
)

sys.path.insert(0, str(FilePath(__file__).resolve().parent.parent / "scripts"))

from same_covers import CONFIGS  # noqa: E402
from test_solver_tags import CENSUS  # noqa: E402


def _or_none(build):
    """build(), or None where a stage raises MonopathError."""
    try:
        return build()
    except MonopathError:
        return None


def ref_reduce(g, w: ReductionWitness, cfg) -> PathCover:
    sub, mapping = g.induced([v for v in range(1, g.n + 1) if v not in set(w.S)])
    inner = min(ref_bounded(sub, cfg), key=PathCover.size.fget)
    paths = [Path(tuple(mapping[v] for v in p.vertices), inner.colour) for p in inner.paths]
    extra = w.red_paths if inner.colour is RED else w.blue_paths
    return PathCover(inner.colour, (*paths, *extra), g.n)


def ref_bounded(g, cfg) -> list[PathCover]:
    """cover_bounded's candidates in pick order, every one built."""
    n = g.n
    covers = [exact_f(g).witness] if n <= DEFAULT_ORACLE_THRESHOLD else []
    covers += [cover_from_structure(g, LongPathStructure(*refine_path(g, c))) for c in (RED, BLUE)]
    covers.append(_greedy_cover(g, lambda c: _grow(g, c, [], (1 << n) - 1)))
    if n > cfg.c:
        found = _or_none(lambda: find_long_path_structure(g, 0))
        if isinstance(found, ReductionWitness):
            covers.append(ref_reduce(g, found, cfg))
        elif isinstance(found, LongPathStructure):
            exit_ = 4 * len(_gamma_isolated(found)) ** 2 <= n or len(found.y_degrees) ** 2 <= n
            cover = cover_from_structure(g, found) if exit_ else _or_none(
                lambda: _strip_and_mop(g, found))
            covers += [cover] if cover else []
    return covers


def ref_sqrt(g, cfg) -> PathCover | None:
    """The sqrt step's cover, or None where it fails."""
    n = g.n
    s = _or_none(lambda: find_long_path_structure(g, cfg.c))
    if isinstance(s, ReductionWitness):
        return _or_none(lambda: _reduce_guard(n, s, cfg.c) or ref_reduce(g, s, cfg))
    if not isinstance(s, LongPathStructure):
        return None
    y0 = len(_gamma_isolated(s))
    if arith.le_sqrt_minus_quartic(y0, n, 18 * Fraction(cfg.c)) or (len(s.y_degrees) + 1) ** 2 <= n:
        return cover_from_structure(g, s)
    red = s.path.colour.complement
    view = lambda: BipartiteView.from_colouring(g, s.path.vertices, s.y_degrees, colour=red)
    paths = _or_none(lambda: decompose_full(view()))
    return None if paths is None else PathCover(red, paths, n)


def ref_solve(g, cfg) -> PathCover:
    covers = ref_bounded(g, cfg)
    sqrt = ref_sqrt(g, cfg)
    if sqrt is not None:
        covers.insert(g.n <= DEFAULT_ORACLE_THRESHOLD, sqrt)
    return min((c for c in covers if validate_cover(g, c).valid), key=PathCover.size.fget)


def _same(got: PathCover, want: PathCover) -> bool:
    return got.colour is want.colour and got.paths == want.paths


@given(
    st.one_of(st.integers(2, 15), st.integers(30, 300)),
    st.integers(0, 2**32),
    st.sampled_from(sorted(CONFIGS)),
)
@settings(max_examples=100, deadline=None)
def test_solve_and_cover_bounded_match_the_eager_reference(n, seed, name):
    g, cfg = noisy_colouring(random.Random(seed), n), CONFIGS[name]
    assert _same(solve(g, cfg).cover, ref_solve(g, cfg))
    assert _same(cover_bounded(g, cfg).cover, min(ref_bounded(g, cfg), key=PathCover.size.fget))


def _drained(real_pick):
    """_pick that first runs every stage to its end and checks what the lazy
    pick relies on: each bound is at least the one before it (1 at the
    start) and at most the size of the stage's cover, and a structure
    stage's bound is its cover's exact size.  It then picks from the drained
    stages, so the covers stay the same."""

    def pick(n, cfg, stages, trace, ok=lambda cover: True):
        replay = {}
        for name, stage in stages.items():
            steps = list(stage)
            bounds = [1, *(b for b in steps if isinstance(b, int))]
            assert bounds == sorted(bounds), (name, bounds)
            if steps and isinstance(steps[-1], tuple):
                size = steps[-1][1].size
                assert bounds[-1] <= size, (name, bounds, size)
                if name.startswith("base:structure-"):
                    assert bounds[1:] == [size], (name, bounds, size)
            replay[name] = iter(steps)
        return real_pick(n, cfg, replay, trace, ok)

    return pick


def _reduce_checked(real_reduce):
    def reduce(g, w, cfg):
        cover = real_reduce(g, w, cfg)
        assert cover.size >= 2  # the bound both reduce stages yield
        return cover

    return reduce


def _check_bounds(g, cfg, entry=solve):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_pick", _drained(solver._pick))
        mp.setattr(solver, "reduce", _reduce_checked(solver.reduce))
        return entry(g, cfg)


@given(
    st.one_of(st.integers(2, 15), st.integers(30, 300)),
    st.integers(0, 2**32),
    st.sampled_from(sorted(CONFIGS)),
)
@settings(max_examples=40, deadline=None)
def test_stage_bounds_hold_on_fresh_inputs(n, seed, name):
    g, cfg = noisy_colouring(random.Random(seed), n), CONFIGS[name]
    assert _same(_check_bounds(g, cfg).cover, solve(g, cfg).cover)


@pytest.mark.parametrize("entry", sorted(k for k, v in CENSUS.items() if v[3] is None))
def test_stage_bounds_hold_on_census_instances(entry):
    build, cfg, entry_point, _ = CENSUS[entry]
    g = build()
    assert _same(_check_bounds(g, cfg, entry_point).cover, entry_point(g, cfg).cover)
