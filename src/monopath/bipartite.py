"""Bipartite path machinery.

Three constructions drive everything downstream: an alternating path
covering all of Y under a mean-degree condition, an iterated stripping of
such paths that covers Y and most of X, and a full cover of X and Y by at
most ceil(|X|/(|Y|+1)) paths under a degree-class condition.  A bipartite
path Ramsey routine rounds out the set.

Paths in a cover may share vertices, and the full-cover construction relies
on that: Y is kept whole while X shrinks, so later paths revisit Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import RED, Colour, Colouring, MonopathError, Path
from .core import grow_end, mask_vertices, vertex_mask


class EmptyY(MonopathError):
    pass


class SidesTooSmall(MonopathError):
    pass


class EqualLengths(MonopathError):
    pass


class CannotCertify(MonopathError):
    """Neither target length was certified and exact search is infeasible."""


class PreconditionViolated(MonopathError):
    def __init__(self, condition: str, witness=None):
        self.condition = condition
        self.witness = witness
        msg = condition if witness is None else f"{condition} (witness: {witness})"
        super().__init__(msg)


@dataclass(frozen=True, eq=False)
class BipartiteView:
    """One colour class of the edges between two disjoint vertex sets.

    `adjacency[y]` is the bitmask of the X-vertices joined to y in the chosen
    colour, bit x-1 for vertex x as core.vertex_mask builds it.  Pairs absent
    from the adjacency are implicitly the opposite colour, which is what
    ramsey_path reads.  `m` is the slack parameter of the stripping
    decomposition and is ignored by the other operations.
    """

    X: tuple[int, ...]
    Y: tuple[int, ...]
    adjacency: Mapping[int, int]
    m: int = 0
    colour: Colour = RED
    xmask: int = field(init=False, repr=False)  # vertex_mask(X), parsed once

    def __post_init__(self):
        xs = tuple(sorted(set(self.X)))
        ys = tuple(sorted(set(self.Y)))
        xmask = vertex_mask(xs)
        if xmask & vertex_mask(ys):
            raise ValueError("X and Y must be disjoint")
        if self.m < 0:
            raise ValueError("m must be non-negative")
        adj = {}
        for y in ys:
            nbrs = self.adjacency.get(y, 0)
            if nbrs & ~xmask:
                raise ValueError(f"adjacency of {y} leaves X")
            adj[y] = nbrs
        extra = set(self.adjacency) - set(ys)
        if extra:
            raise ValueError(f"adjacency keyed by non-Y vertices: {sorted(extra)}")
        object.__setattr__(self, "X", xs)
        object.__setattr__(self, "Y", ys)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "xmask", xmask)

    @classmethod
    def from_colouring(
        cls,
        g: Colouring,
        xs: Iterable[int],
        ys: Iterable[int],
        colour: Colour = RED,
        m: int = 0,
    ) -> "BipartiteView":
        view = cls(xs, ys, {}, m=m, colour=colour)
        for y in view.Y:  # filled in place: X is parsed once, in __post_init__
            view.adjacency[y] = g.mask(y, colour) & view.xmask
        return view

    def degree(self, y: int) -> int:
        return self.adjacency[y].bit_count()


@dataclass(frozen=True)
class DegreeClasses:
    x0: tuple[int, ...]
    x1: tuple[int, ...]
    y0: tuple[int, ...]
    y1: tuple[int, ...]

    @classmethod
    def from_view(cls, v: BipartiteView) -> "DegreeClasses":
        common = v.xmask  # the x joined to every y
        for y in v.Y:
            common &= v.adjacency[y]
        if common == v.xmask:  # every x is in X0, and v.X lists them
            x0, x1 = v.X, ()
        else:
            x0 = tuple(mask_vertices(common))
            x1 = tuple(mask_vertices(v.xmask & ~common))
        y0 = tuple(y for y in v.Y if v.adjacency[y] == v.xmask)
        y1 = tuple(y for y in v.Y if v.adjacency[y] != v.xmask)
        return cls(x0, x1, y0, y1)


@dataclass(frozen=True)
class RamseyOutcome:
    colour: Colour
    path: Path


def long_path(v: BipartiteView) -> Path:
    """An alternating path on exactly 2|Y| vertices covering all of Y.

    Requires 2*deg(y) >= |X| + |Y| for every y (exact comparison).  Built
    x1 y1 x2 y2 ... by taking, before each y after the first, the lowest
    unused common neighbour of it and its predecessor; the degree condition
    leaves at least |Y| - i choices at step i, so the pool is never empty.
    """
    if not v.Y:
        raise EmptyY("Y is empty")
    total = len(v.X) + len(v.Y)
    for y in v.Y:
        if 2 * v.degree(y) < total:
            raise PreconditionViolated("2*deg(y) >= |X| + |Y|", witness=y)
    return _long_path(v, v.xmask)


def _long_path(v: BipartiteView, free: int) -> Path:
    """long_path on the X-vertices of the mask `free`, whose degree bound
    within `free` the caller has established."""
    verts: list[int] = []
    prev = None
    for y in v.Y:
        pool = v.adjacency[y] if prev is None else v.adjacency[prev] & v.adjacency[y]
        pool &= free
        xbit = pool & -pool
        free ^= xbit
        verts.append(xbit.bit_length())
        verts.append(y)
        prev = y
    return Path(tuple(verts), v.colour)


def decompose(v: BipartiteView) -> tuple[Path, ...]:
    """Strip alternating paths until at most |Y| + 2m X-vertices remain.

    Requires |X| >= |Y| + 2m and deg(y) >= |X| - m for every y.  Each pass
    covers all of Y and removes exactly |Y| X-vertices, so at most
    floor(|X|/|Y|) paths are produced.
    """
    if not v.Y:
        raise PreconditionViolated("Y nonempty")
    if len(v.X) < len(v.Y) + 2 * v.m:
        raise PreconditionViolated("|X| >= |Y| + 2m")
    floor_deg = len(v.X) - v.m
    for y in v.Y:
        if v.degree(y) < floor_deg:
            raise PreconditionViolated("deg(y) >= |X| - m", witness=y)
    paths: list[Path] = []
    alive = v.xmask
    limit = len(v.Y) + 2 * v.m
    while alive.bit_count() > limit:
        # long_path's bound holds within alive: y misses at most m of X, so
        # 2*deg_alive(y) >= 2(|alive| - m) > |alive| + |Y|
        p = _long_path(v, alive)
        paths.append(p)
        alive &= ~vertex_mask(p.vertices)
    return tuple(paths)


def _interleave_xy(xs: list[int], ys: list[int], colour: Colour) -> Path:
    """x1 y1 x2 y2 ... xk.  Every call passes len(xs) - 1 ys: _complete_chunks
    by construction, and decompose_full's three calls by its docstring proof."""
    verts: list[int] = []
    for i, x in enumerate(xs):
        verts.append(x)
        if i < len(ys):
            verts.append(ys[i])
    return Path(tuple(verts), colour)


def _complete_chunks(xs: list[int], ys: list[int], colour: Colour) -> list[Path]:
    """Cover xs of a complete bipartite graph with ceil(|xs|/(|ys|+1))
    paths, each chunk threading the lowest ys it needs; a full chunk threads
    every y, so with |xs| > |ys| the first one covers ys too."""
    step = len(ys) + 1
    chunks = (xs[i : i + step] for i in range(0, len(xs), step))
    return [_interleave_xy(c, ys[: len(c) - 1], colour) for c in chunks]


def decompose_full(v: BipartiteView) -> tuple[Path, ...]:
    """Cover all of X and Y with exactly ceil(|X|/(|Y|+1)) paths.

    Needs (i) |X| > |Y| and (ii) X1 = Y1 = 0, or |X0|*|Y0| > 2*|X1|*|Y1|
    with Y0 nonempty (cross-multiplied to dodge the empty-class quotients).

    Each round builds P through X0 and all of Y1, then Q through all of Y0,
    preferring X1-vertices and topping up from X0 so the concatenation
    always retires exactly |Y| + 1 X-vertices.

    Why no step fails, with a, b, c, d = |X0|, |X1|, |Y0|, |Y1|: X1 is
    empty exactly when Y1 is, so past the X1 test b, d >= 1 and (ii) reads
    ac > 2bd.  A round starts with |alive| > |Y| (by (i), then the continue
    test), which fills Q, and sees at most d of Y1 and at least c of
    Y0; with X1 alive after it, it took >= c of X1 (Q takes X1 first) and
    <= d + 1 of X0.  If round r saw at most d of X0, it saw >= c + 1 of X1,
    so b >= rc + 1 and a > 2rd, against a <= rd + r - 1: P gets its
    |Y1| + 1.  After round r with X1 alive and |alive| <= |Y|, |X1| >= |Y0|
    would give b >= (r + 1)c, a > 2(r + 1)d and over 2d of X0 alive, so
    |alive| > |Y|; and b >= rc + 1 leaves over r(d - 1) >= 0 of X0 alive:
    the closing path exists.  Rounds retire |Y| + 1 X-vertices each, the
    chunk finish takes ceil(rest/(|Y|+1)) paths and the closing path one.
    """
    if len(v.X) <= len(v.Y):
        raise PreconditionViolated("(i) |X| > |Y|")
    cl = DegreeClasses.from_view(v)
    # an empty Y0 fails the product test, so (ii) leaves Y0 nonempty
    if (cl.x1 or cl.y1) and len(cl.x0) * len(cl.y0) <= 2 * len(cl.x1) * len(cl.y1):
        raise PreconditionViolated("(ii) |X0|*|Y0| > 2*|X1|*|Y1|")

    ys = list(v.Y)
    x0_all = v.xmask & ~vertex_mask(cl.x1)  # x-classes are fixed: Y never shrinks
    adj = v.adjacency
    paths: list[Path] = []
    alive = v.xmask
    x0a, x1a = list(cl.x0), list(cl.x1)  # the alive classes: all of X first
    while True:
        if not x1a:
            # every remaining x sees all of Y: plain chunking finishes
            paths.extend(_complete_chunks(x0a, ys, v.colour))
            return tuple(paths)
        # both nonempty: an alive X1 vertex misses some y, and y0a holds
        # the entry Y0, which (ii) leaves nonempty
        y0a = [y for y in ys if not alive & ~adj[y]]
        y1a = [y for y in ys if alive & ~adj[y]]
        p_xs = x0a[: len(y1a) + 1]
        # Q threads y0a through x1a first, then the x0a that P left
        q_xs = (x1a + x0a[len(p_xs) :])[: len(y0a)]
        r_verts = list(_interleave_xy(p_xs, y1a, v.colour).vertices)
        for y, x in zip(y0a, q_xs):
            r_verts.append(y)
            r_verts.append(x)
        paths.append(Path(tuple(r_verts), v.colour))
        alive &= ~vertex_mask(p_xs + q_xs)

        x0a = mask_vertices(alive & x0_all)
        x1a = mask_vertices(alive & ~x0_all)
        if not x1a or alive.bit_count() > len(ys):
            continue  # done, complete finish or recursion
        # |X'| <= |Y| with a deficient x left: close with one more path
        y0n = [y for y in ys if not alive & ~adj[y]]
        q2_ys = y0n[: len(x1a) + 1]
        q2 = _interleave_xy(q2_ys, x1a, v.colour).vertices
        taken = vertex_mask(q2_ys)
        p2_ys = [y for y in ys if not taken >> (y - 1) & 1][: len(x0a) - 1]
        r2 = _interleave_xy(x0a, p2_ys, v.colour).vertices + q2
        paths.append(Path(r2, v.colour))
        return tuple(paths)


# --- bipartite path Ramsey -------------------------------------------------

RAMSEY_EXACT_THRESHOLD = 14


def _vertex_masks(v: BipartiteView) -> tuple[list[int], list[int]]:
    """Per-vertex partner masks in view colour and its complement, vertex
    u's at index u - 1 and 0 for a label outside the view."""
    xmask = v.xmask
    ymask = vertex_mask(v.Y)
    main = [0] * max(v.X + v.Y, default=0)
    other = main[:]
    for y in v.Y:
        nbrs = v.adjacency[y]
        main[y - 1] = nbrs
        other[y - 1] = xmask ^ nbrs
        for x in mask_vertices(nbrs):
            main[x - 1] |= 1 << (y - 1)
    for x in v.X:
        other[x - 1] = ymask ^ main[x - 1]
    return main, other


def _grow_rotate(adj: Sequence[int], start: int) -> list[int]:
    """Grow a path greedily from `start`, with lookahead rotations; adj[u - 1]
    is vertex u's mask.

    A rotation is applied only when the resulting new endpoint can extend
    immediately, so the path never stops growing until genuinely stuck at
    both ends.
    """
    path = [start]
    free = ((1 << len(adj)) - 1) ^ (1 << (start - 1))
    flipped_once = False
    while True:
        size = len(path)
        free = grow_end(adj, path, free)
        if len(path) > size:
            flipped_once = False
        if not free:  # spanning: both scans below would fail, flipping it once
            return path[::-1]
        # the tail is stuck, so all its neighbours are on the path
        on_path = adj[path[-1] - 1]
        for i in range(len(path) - 2):
            if on_path >> (path[i] - 1) & 1 and adj[path[i + 1] - 1] & free:
                path[i + 1 :] = path[:i:-1]
                break
        else:
            if flipped_once:
                return path
            path.reverse()
            flipped_once = True


def _best_greedy(adj: Sequence[int], verts: Sequence[int]) -> list[int]:
    """_grow_rotate from the first of verts with a neighbour, else [verts[0]]."""
    start = next((v for v in verts if adj[v - 1]), None)
    if start is None:
        return list(verts[:1])
    return _grow_rotate(adj, start)


def _exact_path(
    adj: Sequence[int], verts: list[int], target_edges: int
) -> list[int] | None:
    """A path with exactly target_edges edges, or None if none exists.

    Depth-first with early exit; failed (endpoint, unvisited) states are
    memoised, which keeps the search tractable on the small sides this is
    meant for.  The memo maps each unvisited mask to the mask of endpoints
    that failed with it, so it holds one int per unvisited mask.  Starts
    are tried in the order of verts and next vertices lowest first, and a
    memoised state has no completion, so with verts ascending the path
    returned is the lexicographically least one: it starts at the lowest
    vertex that starts any such path.  ramsey_path calls it with
    target_edges >= 1; the oracle calls it on all of [n] with target
    n - 1, for a spanning path.
    """
    dead: dict[int, int] = {}
    stack: list[int] = []

    def dfs(last: int, free: int, edges: int) -> bool:
        if edges == target_edges:
            return True
        bit = 1 << (last - 1)
        if dead.get(free, 0) & bit:
            return False
        cand = adj[last - 1] & free
        while cand:
            b = cand & -cand
            cand ^= b
            w = b.bit_length()
            stack.append(w)
            if dfs(w, free ^ b, edges + 1):
                return True
            stack.pop()
        dead[free] = dead.get(free, 0) | bit
        return False

    everyone = vertex_mask(verts)
    for s in verts:
        stack.append(s)
        if dfs(s, everyone ^ (1 << (s - 1)), 0):
            return list(stack)
        stack.pop()
    return None


def ramsey_path(v: BipartiteView, k: int, l: int) -> RamseyOutcome:
    """A view-colour path with >= k edges or a complement path with >= l.

    The view is read as a complete bipartite graph: listed pairs carry the
    view colour, missing pairs the complement.  Requires k != l and both
    sides at least ceil((k+l)/2); under those hypotheses one of the two
    targets always exists.

    Greedy grow-and-rotate tries both colours first.  If it certifies
    neither target, small instances (both sides <= RAMSEY_EXACT_THRESHOLD)
    go to exact search; above the threshold that is not feasible, so
    CannotCertify is raised for the caller to handle.
    """
    if k == l:
        raise EqualLengths(f"k = l = {k}")
    need = -(-(k + l) // 2)
    if min(len(v.X), len(v.Y)) < need:
        raise SidesTooSmall(
            f"sides ({len(v.X)}, {len(v.Y)}) below ceil((k+l)/2) = {need}"
        )
    main_adj, other_adj = _vertex_masks(v)
    verts = sorted(v.X + v.Y)
    main_colour = v.colour
    other_colour = v.colour.complement

    gm = _best_greedy(main_adj, verts)
    if len(gm) - 1 >= k:
        return RamseyOutcome(main_colour, Path(tuple(gm), main_colour))
    go = _best_greedy(other_adj, verts)
    if len(go) - 1 >= l:
        return RamseyOutcome(other_colour, Path(tuple(go), other_colour))
    if max(len(v.X), len(v.Y)) > RAMSEY_EXACT_THRESHOLD:
        raise CannotCertify(
            f"greedy paths reached {len(gm) - 1}/{k} and {len(go) - 1}/{l} edges"
        )

    # exact regime (k, l >= 1, since the greedy paths meet any target <= 0):
    # search the colour closer to its target first
    deficit_main = (k - (len(gm) - 1)) / k
    deficit_other = (l - (len(go) - 1)) / l
    order = [(main_adj, k, main_colour), (other_adj, l, other_colour)]
    if deficit_other < deficit_main:
        order.reverse()
    for adj, target, colour in order:
        found = _exact_path(adj, verts, target)
        if found is not None:
            return RamseyOutcome(colour, Path(tuple(found), colour))
    raise CannotCertify("no path of either target length; hypothesis violated")
