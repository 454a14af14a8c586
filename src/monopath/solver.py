"""Cover pipeline: the reduction recursion, near-spanning-path completion,
the bounded-size induction, and the sqrt-bound orchestration, plus a
production solve() that returns the first valid cover of one candidate list.

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


def _built(c) -> PathCover:
    """A candidate's cover: itself, or what _Shared.greedy builds."""
    return c if isinstance(c, PathCover) else c()


def _in_pick_order(cands):
    """The (tag, candidate) pairs in (size, order), each cover _built: the
    first valid one wins the pick.  A cover has at least one path and the earlier
    candidate wins ties, so a one-path candidate cannot be beaten: it is
    yielded as soon as it is met, and a reader that stops there builds no
    greedy cover listed after it.  The rest follow, sorted by size."""
    rest = []
    for tag, c in cands:
        c = _built(c)
        if c.size == 1:
            yield tag, c
        else:
            rest.append((tag, c))
    yield from sorted(rest, key=lambda tc: tc[1].size)


def _pick(
    n: int, cfg: SolverConfig, cands: list, trace: list[str], ok=lambda cover: True
) -> SolveResult:
    """The first candidate _in_pick_order that ok finds valid wins, traced
    pick:<tag>, after <tag>:invalid-dropped for each one found invalid;
    MonopathError when none is valid."""
    for tag, cover in _in_pick_order(cands):
        if ok(cover):
            trace.append(f"pick:{tag}")
            return SolveResult(cover, _guarantee(n, cover.size, cfg), tuple(trace))
        trace.append(f"{tag}:invalid-dropped")
    raise MonopathError(f"no valid cover; dropped {', '.join(t for t, _ in cands)}")


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
    Its first path is _Shared.first's first(gamma); _Shared.greedy builds it."""
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
    rotates from; the greedy cover, built when a skip test or a pick first
    reads it past the one-path covers (_can_win, _in_pick_order);
    refine_path, unseeded and unbounded, once per colour, which the base
    structures read and the pipeline tail reuses when its degree bound cannot
    bind; one cover_from_structure per path, shared by a base structure, a
    bounded exit and the sqrt y-exit; the pipeline with its slack-free head
    run once; and reduce, once per witness."""

    def __init__(self, g: Colouring, cfg: SolverConfig):
        full = (1 << g.n) - 1
        self.first = cache(lambda gamma: _grow(g, gamma, [], full))
        self.greedy = cache(lambda: _greedy_cover(g, self.first))
        self.refined = cache(lambda gamma: _refine(g, gamma, *self.first(gamma), None))
        head = cache(lambda: long_path_pipeline(g, self.refined))
        self.structure = lambda slack: head()(slack)
        self.reduce = cache(lambda w: reduce(g, w, cfg))
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
    size would rule this one out.  Held covers are _built in order, only as
    far as needed: least 1 reads none after it, as no cover has fewer paths.
    If it cannot win, trace <tag>:skipped; the caller skips it."""
    if all(c.size > least or not ok(c) for c in map(_built, earlier)) and (
        least == 1 or all(c.size >= least or not ok(c) for c in map(_built, later))
    ):
        return True
    trace.append(f"{tag}:skipped")
    return False


@contextmanager
def _dropped_on_error(tag: str, trace: list[str]):
    """Run one stage of the solve that can fail; a MonopathError it raises
    drops what the stage would have built, the trace records
    <tag>:error(<exception name>) and the caller carries on.  This is the
    module's only exception handler, and it wraps the five stages whose
    arithmetic may not close: bounded:pipeline, sqrt:pipeline and
    bounded:strip (the stripping step's PreconditionViolated, or GuardFailed
    when it strips nothing), sqrt:reduce (the reduce guard's GuardFailed)
    and sqrt:decompose (decompose_full's PreconditionViolated).  The other
    stages raise none; exact_f's size guard cannot fire at
    n <= DEFAULT_ORACLE_THRESHOLD."""
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
    cover is listed after the structures as _Shared.greedy, built when read:
    a structure cover, whose exact size _structure_size reads off its
    refine_path run, is built only if it can win over the covers before it
    and, above one path, the greedy cover."""
    n = g.n
    trace: list[str] = []
    cands: list[tuple[str, PathCover]] = []

    def add(cover: PathCover, tag: str) -> None:
        trace.append(tag)
        cands.append((tag, cover))

    if n <= DEFAULT_ORACLE_THRESHOLD:
        add(exact_f(g).witness, "base:oracle")
    for gamma in (RED, BLUE):
        tag = f"base:structure-{gamma.value}"
        earlier = [c for _, c in cands]
        # least size 1 first, so refine_path runs only if that can win
        if _can_win(1, earlier, (), tag, trace):
            s = LongPathStructure(*shared.refined(gamma))
            if _can_win(_structure_size(s), earlier, [shared.greedy], tag, trace):
                add(shared.cover(s), tag)
    # unguarded: the greedy cover is the candidate that is always there
    add(shared.greedy, "base:greedy")

    if n > cfg.c and _can_win(1, [c for _, c in cands], (), "bounded:pipeline", trace):
        trace.append("bounded:pipeline")
        found = None
        with _dropped_on_error("bounded:pipeline", trace):
            found = shared.structure(0)
        if isinstance(found, ReductionWitness):
            if _can_win(2, [c for _, c in cands], (), "bounded:reduce", trace):
                add(shared.reduce(found), "bounded:reduce")
        elif isinstance(found, LongPathStructure):
            if 4 * len(_gamma_isolated(found)) ** 2 <= n:
                add(shared.cover(found), "bounded:y0-exit")
            elif len(found.y_degrees) ** 2 <= n:
                add(shared.cover(found), "bounded:y-exit")
            else:
                with _dropped_on_error("bounded:strip", trace):
                    add(_strip_and_mop(g, found), "bounded:strip")
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
    earlier=(), later=(), ok=lambda cover: True,
) -> PathCover | None:
    """The sqrt-bound step, or None when a guard fails, a stage raises or
    _can_win skips its reduce over the covers before and after it in pick
    order, ok telling which of them are valid; the trace records the
    branch taken, the skip or <stage>:error(<exception name>), the stage
    being sqrt:pipeline, sqrt:reduce or sqrt:decompose."""
    n = g.n
    s = None
    with _dropped_on_error("sqrt:pipeline", trace):
        s = shared.structure(cfg.c)
    if isinstance(s, ReductionWitness):
        with _dropped_on_error("sqrt:reduce", trace):
            _reduce_guard(n, s, cfg.c)
            if not _can_win(2, earlier, later, "sqrt:reduce", trace, ok):
                return None
            cov = shared.reduce(s)
            trace.append("sqrt:reduce")
            return cov
    if not isinstance(s, LongPathStructure):
        return None

    y0 = _gamma_isolated(s)
    coeff = 18 * Fraction(cfg.c)
    if arith.le_sqrt_minus_quartic(len(y0), n, coeff) or (len(s.y_degrees) + 1) ** 2 <= n:
        trace.append("sqrt:y-exit")
        return shared.cover(s)

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
    """The first valid cover in (size, order) of one candidate list:
    base:oracle (small n), sqrt, base:structure-R, base:structure-B,
    base:greedy, bounded:*; MonopathError if none is valid.  The trace lists
    the bounded stages, the sqrt step's, <tag>:invalid-dropped for each
    cover found invalid, then pick:<tag>.

    cover_bounded's candidates are built first, as _can_win over them (the
    oracle's cover before the sqrt step, the rest after it) decides whether
    the sqrt step and its reduce run; each is built at most once, the
    greedy cover only when read (_Shared).  validate_cover checks only the
    covers the pick can reach: one whose size would make _can_win skip a
    stage, and the candidates in (size, order) up to the first valid one.
    """
    cfg = SolverConfig() if cfg is None else cfg
    shared = _Shared(g, cfg)
    cands, trace = _bounded_candidates(g, cfg, shared)
    # validate_cover's verdict per cover checked, by id: hashing a cover
    # reads every vertex, and every cover here lives until solve returns; a
    # greedy cover is checked once built, so one never built has no verdict
    verdicts: dict[int, bool] = {}

    def ok(cover: PathCover) -> bool:
        if id(cover) not in verdicts:
            verdicts[id(cover)] = validate_cover(g, cover).valid
        return verdicts[id(cover)]

    at = sum(tag == "base:oracle" for tag, _ in cands)  # the sqrt cover's place
    covers = [c for _, c in cands]
    if _can_win(1, covers[:at], (), "sqrt:pipeline", trace, ok):
        sqrt = _sqrt_step(g, cfg, trace, shared, covers[:at], covers[at:], ok)
        if sqrt is not None:
            cands.insert(at, ("sqrt", sqrt))
    res = _pick(g.n, cfg, cands, trace, ok)
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
