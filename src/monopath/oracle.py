"""Exact minimum same-colour path covers for small n.

Subset dynamic programming: an endpoint table marks every vertex set spanned
by a single path of the working colour, and a top-down set-cover recursion
over maximal traceable sets gives the minimum number of paths.  Since cover
paths may share vertices, any path can be replaced by a maximal traceable
superset, so restricting the recursion to maximal sets loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import RED, Colour, Colouring, MonopathError, Path, PathCover
from .core import mask_vertices, vertex_mask

DEFAULT_ORACLE_THRESHOLD = 14
# the largest n the subset DP accepts whatever threshold is asked for: its
# tables hold 2**n entries, 25-40 bytes each under tracemalloc, so a peak
# of 1.6-2.6 MB at n = 16, and each further vertex doubles it
ORACLE_MAX_N = 16


class TooLarge(MonopathError):
    """Instance exceeds the subset-DP resource guard."""


class TableInconsistent(MonopathError):
    """The subset DP's own tables contradict each other: a bug, never a
    property of the input colouring."""


def _guard(n: int, threshold: int) -> None:
    if n > threshold:
        raise TooLarge(f"n={n} exceeds oracle threshold {threshold}")
    if n > ORACLE_MAX_N:
        raise TooLarge(f"n={n} exceeds the oracle's ceiling {ORACLE_MAX_N}")


def _ends_table(g: Colouring, gamma: Colour) -> tuple[list[int], list[int]]:
    """ends[mask] = bitmask of vertices ending some gamma-path spanning mask."""
    n = g.n
    adj = [g.mask(v, gamma) for v in range(1, n + 1)]
    ends = [0] * (1 << n)
    for i in range(n):
        ends[1 << i] = 1 << i
    for m in range(1, 1 << n):
        e = ends[m]
        if not e:
            continue
        while e:
            xbit = e & -e
            e ^= xbit
            ext = adj[xbit.bit_length() - 1] & ~m
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                ends[m | wbit] |= wbit
    return ends, adj


def _spanning_path(ends: list[int], adj: list[int], mask: int) -> list[int]:
    """Walk one witness path back out of the endpoint table, lowest ids first."""
    ebit = ends[mask] & -ends[mask]
    cur = ebit.bit_length()
    out = [cur]
    m = mask
    while m != 1 << (cur - 1):
        m2 = m & ~(1 << (cur - 1))
        cand = adj[cur - 1] & m2
        nxt = 0
        while cand:
            b = cand & -cand
            cand ^= b
            if ends[m2] & b:
                nxt = b
                break
        if not nxt:
            raise TableInconsistent(f"no predecessor of {cur} in mask {m:#x}")
        cur = nxt.bit_length()
        out.append(cur)
        m = m2
    return out


class TraceableFamily:
    """All vertex subsets spanned by a single path of one colour."""

    def __init__(
        self, g: Colouring, gamma: Colour, threshold: int = DEFAULT_ORACLE_THRESHOLD
    ):
        _guard(g.n, threshold)
        self.colour = gamma
        self.n = g.n
        self._ends, self._adj = _ends_table(g, gamma)

    def __contains__(self, subset) -> bool:
        return all(1 <= v <= self.n for v in subset) and bool(
            self._ends[vertex_mask(subset)]
        )

    def witness_path(self, subset) -> Path:
        for v in subset:
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} outside 1..{self.n}")
        mask = vertex_mask(subset)
        if not mask or not self._ends[mask]:
            raise ValueError(f"{sorted(subset)} is not traceable")
        return Path(tuple(_spanning_path(self._ends, self._adj, mask)), self.colour)


def _maximal_masks(ends: list[int], n: int) -> list[int]:
    """Traceable masks with no traceable strict superset, ascending."""
    size = 1 << n
    anysup = [1 if ends[m] else 0 for m in range(size)]
    for i in range(n):
        bit = 1 << i
        for m in range(size):
            if not m & bit and anysup[m | bit]:
                anysup[m] = 1
    out = []
    for m in range(1, size):
        if not ends[m]:
            continue
        if all(m & (1 << i) or not anysup[m | (1 << i)] for i in range(n)):
            out.append(m)
    return out


def min_cover_colour(
    g: Colouring, gamma: Colour, threshold: int = DEFAULT_ORACLE_THRESHOLD
) -> tuple[int, PathCover]:
    """Minimum number of gamma-paths whose union covers [n], with a witness."""
    _guard(g.n, threshold)
    n = g.n
    ends, adj = _ends_table(g, gamma)
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
        seen = set()
        for w in by_v[v]:
            t = s & ~w
            if t in seen:
                continue
            seen.add(t)
            c = cost(t) + 1
            if best is None or c < best[0]:
                best = (c, w)
        if best is None:
            raise TableInconsistent(f"vertex {v + 1} lies on no maximal set")
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
    """min over both colours of min_cover_colour; Red wins ties."""
    _guard(g.n, threshold)
    red_v, red_c = min_cover_colour(g, RED, threshold)
    blue_v, blue_c = min_cover_colour(g, RED.complement, threshold)
    if blue_v < red_v:
        return OracleResult(blue_v, RED.complement, blue_c)
    return OracleResult(red_v, RED, red_c)
