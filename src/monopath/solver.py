"""Cover pipeline: the reduction recursion, near-spanning-path completion,
the bounded-size induction, and the sqrt-bound orchestration, plus a
production solve() that returns the first valid cover, in (size, order), of
one candidate list.  Each candidate is a stage that _pick advances best
first, so a cover that cannot win is never built.

With honest default constants every reachable n is a base case; the deep
branches exist to be exercised with small constants, where their size
guarantees are void.  Guarantee flags are therefore always computed from the
final cover size, never assumed from the branch taken.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cache, lru_cache

from . import arith
from .bipartite import BipartiteView, _complete_chunks, decompose_full
from .construct import (
    LongPathStructure,
    ReductionWitness,
    _grow,
    _refine,
    long_path_pipeline,
    strip_paths,
)
from .core import (
    BLUE,
    RED,
    Colouring,
    GuardFailed,
    MonopathError,
    Path,
    PathCover,
    mask_vertices,
    validate_cover,
    vertex_mask,
)
from .oracle import DEFAULT_ORACLE_THRESHOLD, exact_f


class Guarantee(Enum):
    SQRT = "SqrtBound"
    SQRT_PLUS_C = "SqrtPlusCBound"
    NONE = "NoGuarantee"


@dataclass(frozen=True)
class SolverConfig:
    c1: float = 160000.0
    c2: float = 0.0
    c: float = 160000.0

    def __post_init__(self):
        for name in ("c1", "c2", "c"):
            value = getattr(self, name)
            # a comparison, not math.isfinite, so an int too big for a float passes
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.c1 >= self.c2 >= 0:
            raise ValueError(f"need c1 >= c2 >= 0, got {self.c1}, {self.c2}")
        if self.c <= 0:
            raise ValueError(f"need c > 0, got {self.c}")


@dataclass(frozen=True)
class SolveResult:
    cover: PathCover
    guarantee: Guarantee
    branch_trace: tuple[str, ...]


def _guarantee(n: int, size: int, cfg: SolverConfig) -> Guarantee:
    if size <= math.isqrt(n):
        return Guarantee.SQRT
    if arith.lt_sqrt_plus_const(size, n, cfg.c):
        return Guarantee.SQRT_PLUS_C
    return Guarantee.NONE


def _pick(
    n: int, cfg: SolverConfig, stages: dict, trace: list[str], ok=lambda cover: True
) -> SolveResult:
    """The first cover in (size, order) that ok finds valid, over stages, a
    dict from each candidate's name to its stage in pick order.  A stage is
    a generator: it yields lower bounds on its cover's size, then (tag,
    cover), and ends without a cover when it fails.  Each stage starts at
    bound 1, a built cover's bound is its size, and the stage with the least
    (bound, order) goes next: it is advanced, or its cover is checked.  A
    valid cover wins, traced <name>:skipped for each stage left unbuilt, then
    pick:<tag>; an invalid one is dropped, traced <tag>:invalid-dropped.  A
    stage left unbuilt may have run its costly step already (a pipeline or
    refine_path) and yielded a bound: its <name>:skipped reads the same as
    that of a stage never advanced.  As no bound exceeds its stage's final
    size, no cover left unbuilt could have won.  MonopathError when no cover
    is valid."""
    bounds = dict.fromkeys(stages, 1)  # the live stages' bounds, in pick order
    built: dict[str, tuple[str, PathCover]] = {}
    while bounds:
        name = min(bounds, key=bounds.get)  # min keeps the first of equals
        if name not in built:
            step = next(stages[name], None)
            if step is None:
                del bounds[name]
            elif isinstance(step, int):
                bounds[name] = step
            else:
                built[name], bounds[name] = step, step[1].size
        elif ok(built[name][1]):
            tag, cover = built[name]
            trace.extend(f"{k}:skipped" for k in bounds if k not in built)
            trace.append(f"pick:{tag}")
            return SolveResult(cover, _guarantee(n, cover.size, cfg), tuple(trace))
        else:
            trace.append(f"{built[name][0]}:invalid-dropped")
            del bounds[name]
    raise MonopathError(f"no valid cover; dropped {', '.join(t for t, _ in built.values())}")


def _reduce_guard(n: int, w: ReductionWitness, slack: float) -> None:
    size = len(set(w.S))
    if not arith.reduce_guard(n, size, slack, w.k):
        raise GuardFailed(f"sqrt({n}-{size}) + {slack} + {w.k} > sqrt({n})")


def reduce(g: Colouring, w: ReductionWitness, cfg: SolverConfig) -> PathCover:
    """Cover [n] \\ S with cover_bounded, then append the witness paths
    matching its colour.  S must leave a vertex out; a witness from the
    long-path pipeline does, and passes the reduce guard at slack 0
    (ReductionWitness), so the guard is not checked here.  The inductive
    hypothesis on fewer vertices is the bounded induction, not solve(), which
    would fork two fresh pipelines per level."""
    keep = mask_vertices(((1 << g.n) - 1) & ~vertex_mask(w.S))
    sub, mapping = g.induced(keep)
    inner = cover_bounded(sub, cfg).cover
    mapped = tuple(
        Path(tuple(mapping[v] for v in p.vertices), inner.colour)
        for p in inner.paths
    )
    extra = w.red_paths if inner.colour is RED else w.blue_paths
    return PathCover(inner.colour, mapped + tuple(extra), g.n)


def cover_from_structure(g: Colouring, s: LongPathStructure) -> PathCover:
    """The path itself, one path through P per pair of outside vertices that
    see P, and singletons for the rest.  Size is exactly
    1 + ceil(|Y1|/2) + |Y0|, which _structure_size reads off the degrees
    without building the cover."""
    gamma = s.path.colour
    rows = g.rows(gamma)
    pv = s.path.vertices
    pm = ((1 << g.n) - 1) & ~vertex_mask(s.y_degrees)  # y is everything off P
    y0 = _gamma_isolated(s)
    y1 = [y for y, d in s.y_degrees.items() if d]
    paths = [s.path]
    pos: dict[int, int] = {}  # path positions, built on first use
    for a, b in zip(y1[::2], y1[1::2]):
        am = rows[a - 1] & pm
        bm = rows[b - 1] & pm
        common = am & bm
        if common:
            x = (common & -common).bit_length()
            paths.append(Path((a, x, b), gamma))
            continue
        # no common neighbour: connect through a path segment instead
        pos = pos or {v: i for i, v in enumerate(pv)}
        i = min(pos[v] for v in mask_vertices(am))
        j = min(pos[v] for v in mask_vertices(bm))
        seg = pv[i : j + 1] if i < j else pv[j : i + 1][::-1]
        paths.append(Path((a, *seg, b), gamma))
    if len(y1) % 2:
        y = y1[-1]
        am = rows[y - 1] & pm
        x = (am & -am).bit_length()
        paths.append(Path((y, x), gamma))
    for y in y0:
        paths.append(Path((y,), gamma))
    return PathCover(gamma, tuple(paths), g.n)


def _greedy_cover(g: Colouring, first) -> PathCover:
    """Strip maximal paths of the globally majority colour; always valid.
    Its first path is first(gamma), _Shared.first in a solve."""
    red_edges = sum(map(int.bit_count, g.rows(RED))) // 2
    gamma = RED if 4 * red_edges >= g.n * (g.n - 1) else BLUE
    p, alive = first(gamma)
    paths = [p]
    while alive:
        p, alive = _grow(g, gamma, [], alive)
        paths.append(p)
    return PathCover(gamma, tuple(paths), g.n)


def _structure_size(s: LongPathStructure) -> int:
    """cover_from_structure(g, s).size: the path, one path per pair of
    outside vertices that see it, one for an odd one out, and one per
    outside vertex that does not."""
    y1 = sum(map(bool, s.y_degrees.values()))
    return 1 + (y1 + 1) // 2 + len(s.y_degrees) - y1


def _gamma_isolated(s: LongPathStructure) -> list[int]:
    """The outside vertices with no same-colour neighbour on the path."""
    return [y for y, d in s.y_degrees.items() if not d]


def _strip_and_mop(g: Colouring, s: LongPathStructure) -> PathCover:
    """The large-n branch of the bounded induction: strip long opposite-colour
    paths through Y, then mop up the uncovered path vertices with Y0."""
    n = g.n
    red = s.path.colour.complement
    m = arith.ceil_of_coeff_sqrt(2, n)
    stripped, covered = strip_paths(g, s.path, s.y_degrees, m)
    leftover = [x for x in s.path.vertices if not covered >> (x - 1) & 1]
    # bounded:strip is chosen only when 4|Y0|**2 > n, so Y0 is never empty
    mop = _complete_chunks(leftover, _gamma_isolated(s), red)
    return PathCover(red, (*stripped, *mop), n)


class _Shared:
    """What the stages of one colouring share, each built once: each
    colour's first maximal path from the lowest vertex, with the mask of the
    vertices off it, which the greedy cover strips first and refine_path
    rotates from; refine_path, unseeded and unbounded, once per colour,
    which the base structures read and the pipeline tail reuses when its
    degree bound cannot bind; one cover_from_structure per path, shared by a
    base structure, a bounded exit and the sqrt y-exit; the pipeline with
    its slack-free head run once; and reduce, once per witness."""

    def __init__(self, g: Colouring, cfg: SolverConfig):
        full = (1 << g.n) - 1
        self.first = cache(lambda gamma: _grow(g, gamma, [], full))
        self.refined = cache(lambda gamma: _refine(g, gamma, *self.first(gamma), None))
        head = cache(lambda: long_path_pipeline(g, self.refined))
        self.structure = lambda slack: head()(slack)
        self.reduce = cache(lambda w: reduce(g, w, cfg))
        covers: dict[Path, PathCover] = {}  # a structure's degrees follow from its path
        self.cover = lambda s: covers.get(s.path) or covers.setdefault(
            s.path, cover_from_structure(g, s))


@contextmanager
def _dropped_on_error(tag: str, trace: list[str]):
    """Run one stage of the solve that can fail; a MonopathError it raises
    ends the stage without a cover, the trace records
    <tag>:error(<exception name>) and the pick carries on.  This is the
    module's only exception handler, and it wraps the five steps whose
    arithmetic may not close: bounded:pipeline, sqrt:pipeline and
    bounded:strip (the stripping step's PreconditionViolated, or GuardFailed
    when it strips nothing), sqrt:reduce (the reduce guard's GuardFailed)
    and sqrt:decompose (decompose_full's PreconditionViolated).  The other
    steps raise none; exact_f's size guard cannot fire at
    n <= DEFAULT_ORACLE_THRESHOLD.  A stage may yield inside it: when the
    pick leaves that stage suspended, closing it raises GeneratorExit, which
    is no MonopathError and passes through untraced."""
    try:
        yield
    except MonopathError as exc:
        trace.append(f"{tag}:error({type(exc).__name__})")


def _stages(
    g: Colouring, cfg: SolverConfig, shared: _Shared, trace: list[str], sqrt=()
) -> dict:
    """The candidates' stages for _pick, by name in pick order: base:oracle
    (n <= 14), the sqrt step when solve passes it in, each colour's base
    structure, base:greedy, and the bounded-size induction for n above c.  A
    structure stage yields its cover's exact size once refine_path has run;
    bounded yields 2 before its reduce runs, a reduce cover having at least
    two paths.  Each stage traces its steps and the tag of the cover it
    builds."""
    n = g.n

    def add(tag: str, cover: PathCover) -> tuple[str, PathCover]:
        trace.append(tag)
        return tag, cover

    def oracle():
        yield add("base:oracle", exact_f(g).witness)

    def structure(tag, gamma):
        s = LongPathStructure(*shared.refined(gamma))
        yield _structure_size(s)
        yield add(tag, shared.cover(s))

    def greedy():
        yield add("base:greedy", _greedy_cover(g, shared.first))

    def bounded():
        trace.append("bounded:pipeline")
        found = None
        with _dropped_on_error("bounded:pipeline", trace):
            found = shared.structure(0)
        if isinstance(found, ReductionWitness):
            yield 2
            yield add("bounded:reduce", shared.reduce(found))
        elif isinstance(found, LongPathStructure):
            if 4 * len(_gamma_isolated(found)) ** 2 <= n:
                yield add("bounded:y0-exit", shared.cover(found))
            elif len(found.y_degrees) ** 2 <= n:
                yield add("bounded:y-exit", shared.cover(found))
            else:
                with _dropped_on_error("bounded:strip", trace):
                    yield add("bounded:strip", _strip_and_mop(g, found))

    stages = {"base:oracle": oracle()} if n <= DEFAULT_ORACLE_THRESHOLD else {}
    stages.update(sqrt)
    for gamma in (RED, BLUE):
        tag = f"base:structure-{gamma.value}"
        stages[tag] = structure(tag, gamma)
    stages["base:greedy"] = greedy()
    if n > cfg.c:
        stages["bounded"] = bounded()
    return stages


def cover_bounded(g: Colouring, cfg: SolverConfig) -> SolveResult:
    """Always returns a valid cover; follows the bounded-size induction for
    n above the constant, base strategies otherwise (and alongside).  Its
    pick reads no validation."""
    trace: list[str] = []
    return _pick(g.n, cfg, _stages(g, cfg, _Shared(g, cfg), trace), trace)


def _sqrt_step(g: Colouring, cfg: SolverConfig, trace: list[str], shared: _Shared):
    """The sqrt-bound step as a stage (see _pick): it yields 2 before its
    reduce runs, then ("sqrt", cover), and ends without a cover when a guard
    fails or a step raises.  The trace records the branch taken or
    <step>:error(<exception name>), the step being sqrt:pipeline,
    sqrt:reduce or sqrt:decompose."""
    n = g.n
    s = None
    with _dropped_on_error("sqrt:pipeline", trace):
        s = shared.structure(cfg.c)
    if isinstance(s, ReductionWitness):
        with _dropped_on_error("sqrt:reduce", trace):
            _reduce_guard(n, s, cfg.c)
            yield 2
            cov = shared.reduce(s)
            trace.append("sqrt:reduce")
            yield "sqrt", cov
    elif isinstance(s, LongPathStructure):
        y0 = _gamma_isolated(s)
        coeff = 18 * Fraction(cfg.c)
        if arith.le_sqrt_minus_quartic(len(y0), n, coeff) or (len(s.y_degrees) + 1) ** 2 <= n:
            trace.append("sqrt:y-exit")
            yield "sqrt", shared.cover(s)
        else:
            red = s.path.colour.complement
            with _dropped_on_error("sqrt:decompose", trace):
                # decompose_full checks its own preconditions (i) and (ii)
                xs, ys = s.path.vertices, s.y_degrees
                paths = decompose_full(BipartiteView.from_colouring(g, xs, ys, colour=red))
                trace.append("sqrt:decompose")
                yield "sqrt", PathCover(red, paths, n)


def cover_sqrt(g: Colouring, cfg: SolverConfig) -> SolveResult:
    """The sqrt-bound orchestration, its step run to the end; when the step
    ends without a cover it falls back to cover_bounded's pick, built from
    the step's _Shared, and the trace records the detour."""
    trace: list[str] = []
    shared = _Shared(g, cfg)
    step = None
    for step in _sqrt_step(g, cfg, trace, shared):
        pass
    if isinstance(step, tuple):
        return SolveResult(step[1], _guarantee(g.n, step[1].size, cfg), tuple(trace))
    trace.append("sqrt:fallback")
    return _pick(g.n, cfg, _stages(g, cfg, shared, trace), trace)


def solve(g: Colouring, cfg: SolverConfig | None = None) -> SolveResult:
    """The first valid cover in (size, order) of one candidate list:
    base:oracle (small n), sqrt, base:structure-R, base:structure-B,
    base:greedy, bounded:*; MonopathError if none is valid.  _pick builds
    them best first, so a cover that cannot win is not built, and
    validate_cover checks each cover the pick reaches once.  The trace lists
    each stage's steps as the pick advances it, and <tag>:invalid-dropped
    where a cover is found invalid; then <name>:skipped for each stage left
    unbuilt, and pick:<tag>."""
    cfg = SolverConfig() if cfg is None else cfg
    shared = _Shared(g, cfg)
    trace: list[str] = []
    stages = _stages(g, cfg, shared, trace, {"sqrt": _sqrt_step(g, cfg, trace, shared)})
    res = _pick(g.n, cfg, stages, trace, lambda cover: validate_cover(g, cover).valid)
    labels = _labels(g.n)
    paths = tuple(
        Path(tuple(map(labels.__getitem__, p.vertices)), p.colour)
        for p in res.cover.paths
    )
    return replace(res, cover=PathCover(res.cover.colour, paths, g.n))


@lru_cache(maxsize=4)
def _labels(n: int) -> tuple[int, ...]:
    """0..n, one tuple per n.  The constructions compute vertex labels
    afresh, so a result would own one int object per vertex (28 bytes each,
    about 2/3 of a kept n=2000 result); solve takes its result's labels from
    here, so results of the same n share them."""
    return tuple(range(n + 1))
