"""Cover pipeline: the reduction recursion, near-spanning-path completion,
the bounded-size induction, and the sqrt-bound orchestration, plus a
production solve() that always returns a valid cover.

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
    n: int, cfg: SolverConfig, cands: list[tuple[str, PathCover]], trace: list[str]
) -> SolveResult:
    """The smallest candidate wins, the first listed on ties; the pick ends
    the trace."""
    tag, cover = min(cands, key=lambda tc: tc[1].size)
    trace.append(f"pick:{tag}")
    return SolveResult(cover, _guarantee(n, cover.size, cfg), tuple(trace))


def _reduce_guard(n: int, w: ReductionWitness, slack: float) -> None:
    size = len(set(w.S))
    if not arith.reduce_guard(n, size, slack, w.k):
        raise GuardFailed(f"sqrt({n}-{size}) + {slack} + {w.k} > sqrt({n})")


def reduce(g: Colouring, w: ReductionWitness, cfg: SolverConfig, slack: float) -> PathCover:
    """Cover [n] \\ S with cover_bounded, then append the witness paths
    matching its colour.  The arithmetic guard, with slack the paper's
    C1 - C2, is checked exactly first.  The inductive hypothesis on fewer
    vertices is the bounded induction, not solve(), which would fork two
    fresh pipelines per level."""
    n = g.n
    _reduce_guard(n, w, slack)
    keep = mask_vertices(((1 << n) - 1) & ~vertex_mask(w.S))
    if not keep:
        return PathCover(RED, w.red_paths, n)
    sub, mapping = g.induced(keep)
    inner = cover_bounded(sub, cfg).cover
    mapped = tuple(
        Path(tuple(mapping[v] for v in p.vertices), inner.colour)
        for p in inner.paths
    )
    extra = w.red_paths if inner.colour is RED else w.blue_paths
    return PathCover(inner.colour, mapped + tuple(extra), n)


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
    The first of them is first(gamma), _Shared.first's."""
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
    """What a solve's bounded pass and sqrt step share: each colour's
    first maximal path from the lowest vertex, with the mask of the vertices
    off it, grown once, which the greedy cover strips first and refine_path
    rotates from; refine_path, unseeded and unbounded, once per colour, which
    the base structures read and the pipeline tail reuses when its degree
    bound cannot bind; one cover_from_structure per path, shared by a base
    structure and the sqrt y-exit; the pipeline with its slack-free head run
    once; and reduce, whose cover reads no slack, once per witness at slack
    0, the weakest guard (the sqrt step checks its own first)."""

    def __init__(self, g: Colouring, cfg: SolverConfig):
        full = (1 << g.n) - 1
        self.first = cache(lambda gamma: _grow(g, gamma, [], full))
        self.refined = cache(lambda gamma: _refine(g, gamma, *self.first(gamma), None))
        head = cache(lambda: long_path_pipeline(g, self.refined))
        self.structure = lambda slack: head()(slack)
        self.reduce = cache(lambda w: reduce(g, w, cfg, 0))
        covers: dict[Path, PathCover] = {}  # a structure's degrees follow from its path
        self.cover = lambda s: covers.get(s.path) or covers.setdefault(
            s.path, cover_from_structure(g, s))


def _can_win(
    least: int, earlier, later, tag: str, trace: list[str], ok=lambda cover: True
) -> bool:
    """Whether a cover of at least `least` paths (exactly, for a structure
    cover) can still win the pick: no valid cover in hand before it in pick
    order may have <= least paths, none after it < least.  ok(cover) says
    whether a held cover is valid, and is asked only of the covers whose
    size would rule this one out.  If it cannot win, trace <tag>:skipped; the
    caller skips it."""
    if all(c.size > least or not ok(c) for c in earlier) and all(
        c.size >= least or not ok(c) for c in later
    ):
        return True
    trace.append(f"{tag}:skipped")
    return False


@contextmanager
def _dropped_on_error(tag: str, trace: list[str]):
    """Run one stage of the solve; a MonopathError it raises, a failed guard
    included, drops what the stage would have built, the trace records
    <tag>:error(<exception name>) and the caller carries on.  This is the
    module's only exception handler."""
    try:
        yield
    except MonopathError as exc:
        trace.append(f"{tag}:error({type(exc).__name__})")


def _bounded_candidates(
    g: Colouring, cfg: SolverConfig, shared: _Shared
) -> tuple[list[tuple[str, PathCover]], list[str]]:
    """cover_bounded's tagged candidates in pick order, and its trace: the
    base strategies, then the bounded-size induction for n above c, each
    built only if _can_win over those before it (least size 2 for
    bounded:reduce, else 1), at every level of the recursion.  The greedy
    cover is built first but listed in pick order, after the structures:
    a structure cover, whose exact size _structure_size reads off its
    refine_path run, is built only if it can win over the covers before it
    and the greedy cover."""
    n = g.n
    trace: list[str] = []
    cands: list[tuple[str, PathCover]] = []

    def add(cover: PathCover, tag: str) -> None:
        trace.append(tag)
        cands.append((tag, cover))

    if n <= DEFAULT_ORACLE_THRESHOLD:
        with _dropped_on_error("base:oracle", trace):
            add(exact_f(g).witness, "base:oracle")
    # unguarded: the greedy cover is the candidate that is always there
    greedy = _greedy_cover(g, shared.first)
    for gamma in (RED, BLUE):
        tag = f"base:structure-{gamma.value}"
        earlier = [c for _, c in cands]
        with _dropped_on_error(tag, trace):
            # least size 1 first, so refine_path runs only if that can win
            if _can_win(1, earlier, (), tag, trace):
                s = LongPathStructure(*shared.refined(gamma))
                if _can_win(_structure_size(s), earlier, [greedy], tag, trace):
                    add(shared.cover(s), tag)
    add(greedy, "base:greedy")

    if n > cfg.c and _can_win(1, [c for _, c in cands], (), "bounded:pipeline", trace):
        trace.append("bounded:pipeline")
        found = None
        with _dropped_on_error("bounded:pipeline", trace):
            found = shared.structure(0)
        if isinstance(found, ReductionWitness):
            if _can_win(2, [c for _, c in cands], (), "bounded:reduce", trace):
                with _dropped_on_error("bounded:reduce", trace):
                    add(shared.reduce(found), "bounded:reduce")
        elif isinstance(found, LongPathStructure):
            if 4 * len(_gamma_isolated(found)) ** 2 <= n:
                tag, build = "bounded:y0-exit", cover_from_structure
            elif len(found.y_degrees) ** 2 <= n:
                tag, build = "bounded:y-exit", cover_from_structure
            else:
                tag, build = "bounded:strip", _strip_and_mop
            with _dropped_on_error(tag, trace):
                add(build(g, found), tag)
    return cands, trace


def cover_bounded(g: Colouring, cfg: SolverConfig) -> SolveResult:
    """Always returns a valid cover; follows the bounded-size induction for
    n above the constant, base strategies otherwise (and alongside)."""
    return _pick(g.n, cfg, *_bounded_candidates(g, cfg, _Shared(g, cfg)))


def _sqrt_step(
    g: Colouring,
    cfg: SolverConfig,
    trace: list[str],
    shared: _Shared,
    held=((), ()),
    ok=lambda cover: True,
) -> PathCover | None:
    """The sqrt-bound step, or None when a guard fails, a stage raises or
    _can_win skips its reduce over the covers held before and after it in
    pick order, ok telling which of them are valid; the trace records the
    branch taken, the guard that failed, the skip or
    <stage>:error(<exception name>), the stage being sqrt:pipeline,
    sqrt:reduce, sqrt:decompose or, for the exits, sqrt."""
    n = g.n
    s = None
    with _dropped_on_error("sqrt:pipeline", trace):
        s = shared.structure(cfg.c)
    if isinstance(s, ReductionWitness):
        with _dropped_on_error("sqrt:reduce", trace):
            _reduce_guard(n, s, cfg.c)
            if not _can_win(2, *held, "sqrt:reduce", trace, ok):
                return None
            cov = shared.reduce(s)
            trace.append("sqrt:reduce")
            return cov
    if not isinstance(s, LongPathStructure):
        return None

    y0 = _gamma_isolated(s)
    coeff = 18 * Fraction(cfg.c)
    if arith.le_sqrt_minus_quartic(len(y0), n, coeff) or (len(s.y_degrees) + 1) ** 2 <= n:
        with _dropped_on_error("sqrt", trace):
            cov = shared.cover(s)
            trace.append("sqrt:y-exit")
            return cov
        return None

    red = s.path.colour.complement
    with _dropped_on_error("sqrt:decompose", trace):
        # decompose_full checks its own preconditions (i) and (ii)
        xs, ys = s.path.vertices, s.y_degrees
        paths = decompose_full(BipartiteView.from_colouring(g, xs, ys, colour=red))
        trace.append("sqrt:decompose")
        return PathCover(red, paths, n)
    return None


def cover_sqrt(g: Colouring, cfg: SolverConfig) -> SolveResult:
    """The sqrt-bound orchestration; when a guard fails it falls back to
    cover_bounded's pick, built from the sqrt step's _Shared, and the trace
    records the detour."""
    trace: list[str] = []
    shared = _Shared(g, cfg)
    cov = _sqrt_step(g, cfg, trace, shared)
    if cov is None:
        inner = _pick(g.n, cfg, *_bounded_candidates(g, cfg, shared))
        trace.append("sqrt:fallback")
        trace.extend(inner.branch_trace)
        cov = inner.cover
    return SolveResult(cov, _guarantee(g.n, cov.size, cfg), tuple(trace))


def solve(g: Colouring, cfg: SolverConfig | None = None) -> SolveResult:
    """Best valid cover among oracle (small n), the sqrt step, cover_bounded
    and the greedy cover; strictly smaller size wins, then strategy order.

    Each candidate is built at most once, and only if _can_win over the
    valid covers in hand: the oracle and greedy covers are cover_bounded's,
    the sqrt step falls back to its pick, and the _Shared pipeline head and
    reduce covers are built once.  A base structure cover is built only if
    its exact size can win, and refine_path runs unbounded once per colour,
    from the same first path as the greedy cover, shared by the base
    structures and the sqrt pipeline's tail when that is unseeded and its
    degree bound cannot bind (for n <= 4(c + 1)**2, which at the default c
    is every n).  A skipped sqrt step or sqrt:reduce adds no sqrt
    candidate: the fallback would win the bounded pick's tie.

    validate_cover checks only the covers the pick can reach: a held cover
    when its size would make _can_win skip a stage, and the candidates in
    (size, order) up to the first valid one, which wins.  A cover found
    invalid is traced <tag>:invalid-dropped in its own place; one the pick
    never reaches is not checked and keeps its plain tag.
    """
    cfg = SolverConfig() if cfg is None else cfg
    shared = _Shared(g, cfg)
    base, bounded_trace = _bounded_candidates(g, cfg, shared)
    built = dict(base)
    bounded = _pick(g.n, cfg, base, bounded_trace)
    # validate_cover's verdict per cover checked, by id: hashing a cover
    # reads every vertex, and every cover here lives until solve returns
    verdicts: dict[int, bool] = {}

    def ok(cover: PathCover) -> bool:
        if id(cover) not in verdicts:
            verdicts[id(cover)] = validate_cover(g, cover).valid
        return verdicts[id(cover)]

    oracle = [built["base:oracle"]] if "base:oracle" in built else []
    held = (oracle, [bounded.cover, built["base:greedy"]])
    steps: list[str] = []  # the sqrt step's trace
    sqrt = None
    if _can_win(1, *held, "sqrt:pipeline", steps, ok):
        sqrt = _sqrt_step(g, cfg, steps, shared, held, ok)
        if sqrt is None and steps[-1] != "sqrt:reduce:skipped":
            steps.append("sqrt:fallback")
            sqrt = bounded.cover
    # the pick reaches the candidates in (size, order) up to the first valid one
    reach = [c for c in (*oracle, sqrt, bounded.cover, built["base:greedy"]) if c is not None]
    any(ok(c) for c in sorted(reach, key=lambda c: c.size))
    trace: list[str] = []
    cands: list[tuple[str, PathCover]] = []

    def add(cover: PathCover, tag: str) -> None:
        if not verdicts.get(id(cover), True):
            trace.append(f"{tag}:invalid-dropped")
            return
        trace.append(tag)
        cands.append((tag, cover))

    for cover in oracle:
        add(cover, "oracle")
    trace.extend(steps)
    if sqrt is not None:
        add(sqrt, "sqrt")
    trace.extend(bounded.branch_trace)
    add(bounded.cover, "bounded")
    add(built["base:greedy"], "greedy")
    res = _pick(g.n, cfg, cands, trace)
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
