"""Exact minimum same-colour path covers for small n.

Subset dynamic programming: an endpoint table marks every vertex set spanned
by a single path of the working colour, and a top-down set-cover recursion
over maximal traceable sets gives the minimum number of paths.  Since cover
paths may share vertices, any path can be replaced by a maximal traceable
superset, so restricting the recursion to maximal sets loses nothing.

The table is filled one component of the colour at a time, in either of two
forms that give the same entries.  A component with at least 2/5 of its
possible edges is pulled: each mask tests its submasks one vertex smaller,
a fixed k * 2**(k-1) tests for k vertices.  A sparser one is pushed: only
masks that some path spans are visited, each extended once per new end.
The cut sits where the two cost the same on random colourings, between
densities 0.36 (n = 16) and 0.44 (n = 12).

exact_f stops at the first colour with a spanning path, red first, since
no cover beats one path; the set cover runs only when neither colour spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import BLUE, RED, Colour, Colouring, MonopathError, Path, PathCover
from .core import mask_vertices

DEFAULT_ORACLE_THRESHOLD = 14
# the largest n the subset DP accepts whatever threshold is asked for: its
# tables hold 2**n entries, up to 40 bytes each under tracemalloc, and
# exact_f keeps one alive at a time, so a peak of 1.0-2.6 MB at n = 16, and
# each further vertex doubles it
ORACLE_MAX_N = 16


class TooLarge(MonopathError):
    """Instance exceeds the subset-DP resource guard."""


def _guard(n: int, threshold: int) -> None:
    if n > threshold:
        raise TooLarge(f"n={n} exceeds oracle threshold {threshold}")
    if n > ORACLE_MAX_N:
        raise TooLarge(f"n={n} exceeds the oracle's ceiling {ORACLE_MAX_N}")


def _ends_table(g: Colouring, gamma: Colour) -> tuple[list[int], tuple[int, ...]]:
    """ends[mask] = bitmask of vertices ending some gamma-path spanning mask.

    A path lies inside one component of the colour, so each component is
    filled on its own, by whichever builder its edge count favours; masks
    that meet two components stay 0.
    """
    n = g.n
    adj = g.rows(gamma)
    ends = [0] * (1 << n)
    for part in _components(adj):
        k = part.bit_count()
        edges = sum(adj[v - 1].bit_count() for v in mask_vertices(part)) // 2
        build = _pull_ends if 5 * edges >= k * (k - 1) else _push_ends
        build(adj, part, ends)
    return ends, adj


def _components(adj: tuple[int, ...]) -> list[int]:
    """Vertex masks of the colour's connected components."""
    seen = 0
    out = []
    for i in range(len(adj)):
        if seen >> i & 1:
            continue
        part = todo = 1 << i
        while todo:
            b = todo & -todo
            todo ^= b
            new = adj[b.bit_length() - 1] & ~part
            part |= new
            todo |= new
        seen |= part
        out.append(part)
    return out


# Both builders fill ends[m] for every nonempty m inside part, a union of
# components, visiting the masks in ascending order via m -> (m - part) & part.


def _pull_ends(adj: tuple[int, ...], part: int, ends: list[int]) -> None:
    """Dense parts: w ends a path on m iff a neighbour of w ends one on m - w."""
    bits = [(1 << (v - 1), adj[v - 1]) for v in mask_vertices(part)]
    m = 0
    while m != part:
        m = (m - part) & part
        if m & (m - 1):
            e = 0
            for b, a in bits:
                if m & b and a & ends[m ^ b]:
                    e |= b
            ends[m] = e
        else:
            ends[m] = m


def _push_ends(adj: tuple[int, ...], part: int, ends: list[int]) -> None:
    """Sparse parts: extend only traceable masks, once per new end w."""
    for v in mask_vertices(part):
        ends[1 << (v - 1)] = 1 << (v - 1)
    m = 0
    while m != part:
        m = (m - part) & part
        e = ends[m]
        if not e:
            continue
        ext = 0
        while e:
            xbit = e & -e
            e ^= xbit
            ext |= adj[xbit.bit_length() - 1]
        ext &= part ^ m
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            ends[m | wbit] |= wbit


def _spanning_path(ends: list[int], adj: tuple[int, ...], mask: int) -> list[int]:
    """Walk one witness path back out of the endpoint table, lowest ids first.

    By the table's definition an end w of a mask m of two or more vertices
    has a neighbour that ends a path on m - w, and ends[m - w] lies inside
    m - w: so the next vertex is the lowest bit of adj[w] & ends[m - w],
    which is never 0."""
    b = ends[mask] & -ends[mask]
    out = [b.bit_length()]
    m = mask
    while m != b:
        m ^= b
        b = adj[b.bit_length() - 1] & ends[m]
        b &= -b
        out.append(b.bit_length())
    return out


def _maximal_masks(ends: list[int], n: int) -> list[int]:
    """Traceable masks with no traceable strict superset, ascending.

    Bit-parallel over all masks at once: in each big int below, byte m
    stands for mask m, so OR-ing in a copy shifted by 8 * 2**i bytes pulls
    each mask's value from the mask with bit i added.
    """
    size = 1 << n
    traceable = int.from_bytes(bytes(map(bool, ends)), "little")
    up = traceable  # byte m: m or some superset of m is traceable
    for i in range(n):
        up |= (up >> (8 << i)) & _without_bit(i, size)
    strict = 0  # byte m: some strict superset of m is traceable
    for i in range(n):
        strict |= (up >> (8 << i)) & _without_bit(i, size)
    keep = (traceable & ~strict).to_bytes(size, "little")
    return [m for m in range(size) if keep[m]]


def _without_bit(i: int, size: int) -> int:
    """Byte m is 1 iff mask m lacks bit i, for m < size."""
    run = 1 << i
    return int.from_bytes((b"\1" * run + b"\0" * run) * (size // (2 * run)), "little")


def min_cover_colour(
    g: Colouring, gamma: Colour, threshold: int = DEFAULT_ORACLE_THRESHOLD
) -> tuple[int, PathCover]:
    """Minimum number of gamma-paths whose union covers [n], with a witness."""
    _guard(g.n, threshold)
    return _min_cover(*_ends_table(g, gamma), g.n, gamma)


def _min_cover(
    ends: list[int], adj: tuple[int, ...], n: int, gamma: Colour
) -> tuple[int, PathCover]:
    """The minimum cover by maximal traceable sets, from gamma's endpoint
    table.  Every vertex v lies on one ({v} is traceable), so cost always
    finds a set through the lowest vertex left."""
    full = (1 << n) - 1
    if ends[full]:
        p = Path(tuple(_spanning_path(ends, adj, full)), gamma)
        return 1, PathCover(gamma, (p,), n)

    maximal = _maximal_masks(ends, n)
    by_v: list[list[int]] = [[] for _ in range(n)]
    for w in maximal:
        for v in mask_vertices(w):
            by_v[v - 1].append(w)

    memo: dict[int, int] = {0: 0}
    choice: dict[int, int] = {}

    def cost(s: int) -> int:
        got = memo.get(s)
        if got is not None:
            return got
        v = (s & -s).bit_length() - 1
        best = None
        for w in by_v[v]:  # memo answers a repeated s & ~w; the first best w stays
            c = cost(s & ~w) + 1
            if best is None or c < best[0]:
                best = (c, w)
        memo[s] = best[0]
        choice[s] = best[1]
        return best[0]

    value = cost(full)
    paths = []
    s = full
    while s:
        w = choice[s]
        paths.append(Path(tuple(_spanning_path(ends, adj, w)), gamma))
        s &= ~w
    return value, PathCover(gamma, tuple(paths), n)


@dataclass(frozen=True)
class OracleResult:
    value: int
    colour: Colour
    witness: PathCover = field(repr=False)


def exact_f(g: Colouring, threshold: int = DEFAULT_ORACLE_THRESHOLD) -> OracleResult:
    """min over both colours of min_cover_colour; Red wins ties.

    A spanning path (value 1) ends the search, so the set cover runs only
    when neither colour spans.  At most one 2**n table is alive at a time:
    red's is dropped before blue's is built and rebuilt if it is needed.
    """
    _guard(g.n, threshold)
    n = g.n
    ends, adj = _ends_table(g, RED)
    if ends[(1 << n) - 1]:
        return OracleResult(1, RED, _min_cover(ends, adj, n, RED)[1])
    del ends
    blue_v, blue_c = _min_cover(*_ends_table(g, BLUE), n, BLUE)
    if blue_v > 1:
        red_v, red_c = _min_cover(*_ends_table(g, RED), n, RED)
        if red_v <= blue_v:
            return OracleResult(red_v, RED, red_c)
    return OracleResult(blue_v, BLUE, blue_c)
