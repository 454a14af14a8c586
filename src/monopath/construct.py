"""Whole-graph constructions: the two-path cover, the extension/rotation
engine standing in for "longest path", and the long-path structure finder.

The structure finder returns one of two certificates: a near-spanning path
whose outside vertices all have small same-colour degree into it, or a
reduction witness (a vertex set coverable by few paths of both colours).
It works on the colouring as given, in the colour of the two-path cover's
longer path and its complement, so every path it builds carries its true
colour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import filterfalse, islice

from . import arith
from .bipartite import BipartiteView, decompose, ramsey_path
from .bipartite import CannotCertify, _best_greedy
from .core import BLUE, RED, Colour, Colouring, GuardFailed, Path
from .core import grow_end, mask_vertices, vertex_mask


@dataclass(frozen=True)
class TwoPathCover:
    red: Path
    blue: Path


def two_path_cover(g: Colouring) -> TwoPathCover:
    """A red path and a blue path, vertex-disjoint, covering all of [n].

    Classical incremental insertion: each new vertex either extends one of
    the two paths at its active endpoint, or the endpoint edge between the
    paths lets one endpoint migrate so the new vertex fits.
    """
    rows = g.rows(RED)  # an edge's colour is one bit of a red row
    red: list[int] = []
    blue: list[int] = []
    for v in range(1, g.n + 1):
        if red and rows[red[-1] - 1] >> (v - 1) & 1:
            red.append(v)
        elif blue and not rows[blue[-1] - 1] >> (v - 1) & 1:
            blue.append(v)
        elif not red:
            red.append(v)
        elif not blue:
            blue.append(v)
        else:
            x, y = red[-1], blue[-1]
            # here xv is blue and yv is red, so the xy edge decides
            if rows[x - 1] >> (y - 1) & 1:
                blue.pop()
                red.append(y)
                red.append(v)
            else:
                red.pop()
                blue.append(x)
                blue.append(v)
    return TwoPathCover(Path(tuple(red), RED), Path(tuple(blue), BLUE))


def maximal_path(g: Colouring, gamma: Colour, seed_path: Path | None = None) -> Path:
    """Extend a path at both ends until no same-colour edge leaves it.

    Without a seed the path starts at the lowest vertex.
    """
    return _grow(g, gamma, *_start(g, gamma, seed_path))[0]


def _start(g: Colouring, gamma: Colour, seed_path: Path | None) -> tuple[list[int], int]:
    """The seed's vertices and the mask of the others, which _grow takes.
    The seed's vertices must lie in 1..n (InvalidEdge), be distinct and be
    joined by gamma edges (ValueError)."""
    verts = [] if seed_path is None else list(seed_path.vertices)
    free = prev = (1 << g.n) - 1  # the first vertex needs no edge
    for v in verts:
        row = g.mask(v, gamma)
        if not free >> (v - 1) & 1:
            raise ValueError(f"seed {seed_path.vertices} repeats {v}")
        if not prev >> (v - 1) & 1:
            raise ValueError(f"seed edge into {v} is not {gamma.name.lower()}")
        free ^= 1 << (v - 1)
        prev = row
    return verts, free


def _grow(
    g: Colouring, gamma: Colour, verts: list[int], free: int
) -> tuple[Path, int]:
    """maximal_path from the start `verts` (empty: the lowest vertex of
    `free`) through the vertices of `free`, which holds none of verts.
    Returns the path and what is left of free, so a caller that knows the
    start's mask never rebuilds the path's.  free only shrinks, so a stuck
    end stays stuck: the right end grows until it is, then the left.
    """
    if not verts:
        low = free & -free
        verts, free = [low.bit_length()], free ^ low
    rows = g.rows(gamma)
    free = grow_end(rows, verts, free)
    left = [verts[0]]
    free = grow_end(rows, left, free)
    return Path((*left[:0:-1], *verts), gamma), free


@dataclass(frozen=True)
class LongerPath:
    path: Path


@dataclass(frozen=True)
class RedCliqueCertificate:
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class SmallDegree:
    degree: int


def rotate_or_extend(
    g: Colouring,
    path: Path,
    y: int,
    degree_bound: int | float | None = None,
    pmask: int | None = None,
):
    """One step of the rotation argument for an outside vertex y.

    With B the same-colour neighbours of y on the path: an endpoint in B or
    two consecutive members extend the path directly, y going in at the
    first such pair, and the path is read no further; a same-colour chord
    between two predecessors of B allows the detour surgery.  Failing all
    that, the predecessors form an opposite-colour clique, returned as a
    certificate when |B| exceeds degree_bound, else SmallDegree(|B|).
    A caller that holds the path's vertex mask passes it as pmask.
    """
    p = path.vertices
    gamma = path.colour
    if pmask is None:
        pmask = vertex_mask(p)
    ymask = g.mask(y, gamma)  # raises InvalidEdge first for y outside 1..n
    if pmask >> (y - 1) & 1:
        raise ValueError(f"{y} already on the path")
    bmask = ymask & pmask
    if not bmask:
        return SmallDegree(0)
    if bmask & (1 << (p[0] - 1)):
        return LongerPath(Path((y, *p), gamma))
    if bmask & (1 << (p[-1] - 1)):
        return LongerPath(Path((*p, y), gamma))
    # B's positions in path order, up to the first two consecutive ones
    bits = format(bmask, f"0{g.n}b")[::-1]
    bpos: list[int] = []
    for i in (i for i, v in enumerate(p) if bits[v - 1] == "1"):
        if bpos and bpos[-1] == i - 1:
            return LongerPath(Path((*p[:i], y, *p[i:]), gamma))
        bpos.append(i)
    preds = [i - 1 for i in bpos]
    # the first predecessor on the path with a same-colour chord to a later
    # one, joined to the earliest such: one mask AND per predecessor
    later = vertex_mask(p[i] for i in preds)
    for ai, i in enumerate(preds):
        later ^= 1 << (p[i] - 1)
        hit = g.mask(p[i], gamma) & later
        if hit:
            j = next(j for j in preds[ai + 1 :] if hit >> (p[j] - 1) & 1)
            verts = (*p[: i + 1], *p[i + 1 : j + 1][::-1], y, *p[j + 1 :])
            return LongerPath(Path(verts, gamma))
    if degree_bound is not None and len(bpos) > degree_bound:
        return RedCliqueCertificate(tuple(sorted(p[i] for i in preds)))
    return SmallDegree(len(bpos))


def refine_path(
    g: Colouring, gamma: Colour, seed_path: Path | None = None, bound=None
):
    """Grow and rotate until every outside vertex is a dead end.

    Returns (path, outcome) where outcome is a RedCliqueCertificate or, when
    all outside vertices come back SmallDegree, a dict of their degrees.
    That dict is keyed by exactly the vertices off the path, in ascending
    order, so callers read the outside set from it.

    For a fixed path P, rotate_or_extend's outcome for y reads nothing of y
    but B = N_gamma(y) & P, its same-colour neighbours on the path, so
    outside vertices with equal B share one call.  Only SmallDegree is
    memoised: a LongerPath contains y, and it or a certificate ends the scan
    anyway.
    """
    return _refine(g, gamma, *_grow(g, gamma, *_start(g, gamma, seed_path)), bound)


def _refine(g: Colouring, gamma: Colour, p: Path, free: int, bound):
    """refine_path from the grown path p, free being the mask of the vertices
    off it: a caller that already grew the unseeded start passes it here."""
    everyone = (1 << g.n) - 1
    rows = g.rows(gamma)
    while True:
        degs: dict[int, int] = {}
        pmask = everyone ^ free
        small: dict[int, SmallDegree] = {}  # B's mask -> its outcome on p
        for y in mask_vertices(free):
            bmask = rows[y - 1] & pmask
            res = small.get(bmask) or rotate_or_extend(g, p, y, bound, pmask)
            if isinstance(res, LongerPath):
                # the longer path is p plus y, so its mask is known
                p, free = _grow(g, gamma, [*res.path.vertices], free ^ (1 << (y - 1)))
                break
            if isinstance(res, RedCliqueCertificate):
                return p, res
            small[bmask] = res
            degs[y] = res.degree
        else:
            return p, degs


@dataclass(frozen=True)
class LongPathStructure:
    """A path and its outside vertices, each mapped in ascending order to its
    number of same-colour neighbours on the path; the path's colour is the
    structure's."""

    path: Path
    y_degrees: dict[int, int]


@dataclass(frozen=True)
class ReductionWitness:
    """A vertex set S and paths of each colour covering it; the reduction
    step covers [n] \\ S and adds the k paths of the inner cover's colour.

    Every witness find_long_path_structure returns, at any slack >= 0,
    leaves a vertex outside S and passes arith.reduce_guard(n, |S|, 0, k),
    sqrt(n - |S|) + k <= sqrt(n), so solver.reduce checks neither.  Let
    dp = slack + 1 >= 1, r = sqrt(n) and t = ceil(2 dp r) >= 2r.
    - The probe, Ramsey and clique witnesses have k = 1 and |S| >= t, or
      |S| > floor(2 dp r) for the clique, so |S| >= 2r and
      r - sqrt(n - |S|) = |S| / (r + sqrt(n - |S|)) >= |S| / (2r) >= 1.
    - A strip witness has k = j passes and |S| = j|Y|, with
      |Y| > r + 8 dp n**(1/4) and m = t <= 2 dp r + 1.  After j passes
      L = n - j|Y| <= 2|Y| + 2m.  Set u = |Y| - r > 8 dp n**(1/4) >= 8;
      then u**2 - 2u > (3/4)u**2 > 48 dp**2 r > 2r + 2m, so L < u**2, that is
      r + sqrt(L) < |Y|.  Hence j = (r - sqrt(L))(r + sqrt(L)) / |Y|
      <= r - sqrt(L).
    - S lies in q and misses w (probe, Ramsey), on P and misses Y (strip),
      or on P and misses the outside vertex y (clique).
    """

    S: tuple[int, ...]
    red_paths: tuple[Path, ...]
    blue_paths: tuple[Path, ...]

    @property
    def k(self) -> int:
        return max(len(self.red_paths), len(self.blue_paths))


def _witness(s, paths) -> ReductionWitness:
    """S sorted, and the paths split by colour in the order given."""
    return ReductionWitness(
        tuple(sorted(s)),
        tuple(p for p in paths if p.colour is RED),
        tuple(p for p in paths if p.colour is BLUE),
    )


def strip_paths(g: Colouring, path: Path, ys, m: int) -> tuple[tuple[Path, ...], int]:
    """The stripping step: decompose the opposite-colour edges from the
    path's vertices to the outside vertices ys with slack m.  Returns the
    stripped paths and the mask of the vertices they cover; raises
    decompose's PreconditionViolated, or GuardFailed when it strips nothing.
    """
    other = path.colour.complement
    view = BipartiteView.from_colouring(g, path.vertices, ys, colour=other, m=m)
    paths = decompose(view)
    if not paths:
        raise GuardFailed("stripping step produced no paths")
    covered = 0
    for p in paths:
        covered |= vertex_mask(p.vertices)
    return paths, covered


def find_long_path_structure(g: Colouring, slack: float):
    """Run the long-path pipeline; return LongPathStructure or ReductionWitness.

    slack >= 0 is the paper's C1 - C2, the only form in which its constants
    enter the bounds: the degree bound and the witness size target are
    2(slack + 1)sqrt(n).  gamma, the colour of the two-path cover's longer
    path (blue on ties), is the structure's colour; the witnesses pair
    gamma paths with paths of its complement.

    Raises decompose's PreconditionViolated, or GuardFailed when it strips
    nothing, if no branch can close its arithmetic (small n with large
    constants); callers fall back to unconditional strategies.
    """
    if arith._frac(slack) < 0:
        raise ValueError(f"need slack >= 0, got {slack}")
    return long_path_pipeline(g, partial(refine_path, g))(slack)


def long_path_pipeline(g: Colouring, refined):
    """find_long_path_structure(g, .) as a function of the slack >= 0.  The
    head of the pipeline, which reads no slack (two_path_cover and its
    spanning shortcut), runs here once, and the probe (the halves q and w,
    _best_greedy over the opposite-colour edges between them, and its
    vertices in q) at most once, on the first tail that can read it; so a
    caller that needs two slacks shares both.

    refined(gamma) must return refine_path(g, gamma), unseeded and
    unbounded.  The tail calls it in place of refine_path when it has no
    seed and its degree bound is at least n - 1: no |B| can then exceed the
    bound, so both runs are the same, and a caller that memoises refined
    shares the run with its own."""
    n = g.n
    tpc = two_path_cover(g)
    base = tpc.blue if len(tpc.blue.vertices) >= len(tpc.red.vertices) else tpc.red
    # from here base is a gamma path on >= ceil(n/2) vertices
    gamma = base.colour
    other = gamma.complement
    if len(base.vertices) == n:
        return lambda slack: LongPathStructure(base, {})

    half = n // 2
    q = base.vertices[:half]
    qset = set(q)

    @cache
    def probe() -> tuple[list[int], list[int], set[int]]:
        """w, the probe's path and its vertices in q."""
        qmask = vertex_mask(q)
        w = list(islice(filterfalse(qset.__contains__, range(1, n + 1)), half))
        wmask = vertex_mask(w)
        # opposite-colour edges between q and w only
        rows = g.rows(other)
        adj = [0] * n
        for v in q:
            adj[v - 1] = rows[v - 1] & wmask
        for v in w:
            adj[v - 1] = rows[v - 1] & qmask
        # rows off q and w are 0, and vertex 1 is in q or (lowest off q) in w
        path = _best_greedy(adj, range(1, n + 1))
        return w, path, qset.intersection(path)

    def tail(slack: float):
        dp = arith._frac(slack) + 1
        t = arith.ceil_of_coeff_sqrt(2 * dp, n)  # witness size target
        seed = None
        # the probe witness needs |probe ∩ q| >= t and ramsey_path needs
        # l = 2 half - 2t >= 1; as |q| = half, neither holds for t > half
        if t <= half:
            w, path, probe_q = probe()
            # t >= 2 and a one-vertex probe holds at most one vertex of q, so
            # a probe that gets past this test has an edge
            if len(probe_q) >= t:
                return _witness(probe_q, [Path(tuple(path), other), Path(q, gamma)])

            # k (the opposite colour's target) is odd, l (gamma's) even and
            # both sides hold ceil((k + l)/2) vertices, so of ramsey_path's
            # errors only CannotCertify can occur
            k, l = 2 * t - 1, 2 * half - 2 * t
            if l >= 1:
                view = BipartiteView.from_colouring(g, q, w, colour=other)
                try:
                    out = ramsey_path(view, k, l)
                    if out.colour is gamma:
                        seed = out.path
                    else:
                        # only ramsey_path's exact search (n <= 29) gets here:
                        # its greedy opening is the probe's (test_bipartite's
                        # test_padded_rows_give_the_same_greedy_path), and an
                        # opposite-colour path of >= 2t - 1 edges alternates,
                        # so it holds >= t vertices of q
                        s = qset.intersection(out.path.vertices)
                        return _witness(s, [out.path, Path(q, gamma)])
                except CannotCertify:
                    pass

        bound_int = arith.floor_of_coeff_sqrt(2 * dp, n)
        if seed is None and bound_int >= n - 1:
            p, outcome = refined(gamma)
        else:
            p, outcome = refine_path(g, gamma, seed, bound_int)
        if isinstance(outcome, RedCliqueCertificate):
            d = outcome.vertices
            return _witness(d, [Path(d, other), p])

        if arith.le_sqrt_plus_quartic(len(outcome), n, 8 * dp):
            return LongPathStructure(p, outcome)

        # outside set too big for the structure: strip opposite-colour paths
        # through it and hand the covered part back as a witness; each stripped
        # path covers |Y| >= 1 path vertices, so S is never empty
        paths, covered = strip_paths(g, p, outcome, t)
        s = mask_vertices(covered & ~vertex_mask(outcome))  # Y is everything off p
        return _witness(s, [*paths, p])

    return tail
