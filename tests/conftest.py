"""Shared fixtures and deliberately naive reference implementations.

Everything here recomputes answers from first principles (plain DFS and
brute enumeration) so the package under test is never used to check
itself.  Keep these slow and obvious.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path as FilePath

import pytest

from monopath.core import BLUE, RED, Colour, Colouring, Path, edge_count, iter_edges
from monopath.core import vertex_mask
from monopath.gen import indexed_colouring

# what solve, cover_bounded and cover_sqrt return on the committed plan
SAVED_COVERS = FilePath(__file__).parent / "data" / "same_covers.txt"


def from_int(n: int, x: int) -> Colouring:
    """Colouring number x: bit i of x reddens the i-th edge of iter_edges.

    The same numbering as gen.indexed_colouring, which test_row_io checks
    against a per-edge reference."""
    return indexed_colouring(n, x)


def all_colourings(n: int):
    for x in range(1 << edge_count(n)):
        yield from_int(n, x)


def path_ok(g: Colouring, p: Path) -> bool:
    """Simple path in one colour: no repeats, every edge the path's colour."""
    vs = p.vertices
    if len(set(vs)) != len(vs):
        return False
    if not all(1 <= v <= g.n for v in vs):
        return False
    return all(g.colour(a, b) is p.colour for a, b in zip(vs, vs[1:]))


def longest_mono_path(g: Colouring, colour: Colour) -> int:
    """Max vertex count of a simple path in one colour class; plain DFS."""
    n = g.n
    adj = [0] * (n + 1)
    for u, v in iter_edges(n):
        if g.colour(u, v) is colour:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    best = 1

    def dfs(last: int, mask: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        free = adj[last] & ~mask
        while free:
            b = free & -free
            free ^= b
            v = b.bit_length() - 1
            dfs(v, mask | b, size + 1)

    for s in range(1, n + 1):
        dfs(s, 1 << s, 1)
    return best


def has_mono_path_with_edges(
    adj: dict[int, set[int]], verts: list[int], edges_needed: int
) -> bool:
    """Does the graph contain a simple path with >= edges_needed edges?

    Threshold-limited DFS over an explicit adjacency dict; used to recount
    bipartite path existence without any bitmask cleverness.
    """
    if edges_needed <= 0:
        return bool(verts)

    def dfs(last: int, used: frozenset, edges: int) -> bool:
        if edges >= edges_needed:
            return True
        return any(
            dfs(v, used | {v}, edges + 1) for v in adj[last] if v not in used
        )

    return any(dfs(s, frozenset([s]), 0) for s in verts)


def naive_min_cover(g: Colouring) -> int:
    """Minimum same-colour path cover size by brute force; n <= 5 only.

    Overlap is allowed, so this is plain set cover over the vertex sets of
    monochromatic paths: enumerate every simple path by DFS, keep the
    maximal vertex sets, try all k-subsets for growing k.  Disjoint
    partitions would NOT be a correct reference: a red star on five
    vertices is covered by two overlapping red paths but needs three once
    paths must be disjoint.
    """
    assert g.n <= 5
    full = frozenset(range(1, g.n + 1))
    best = g.n
    for colour in (RED, BLUE):
        sets: set[frozenset] = set()

        def dfs(last: int, used: tuple[int, ...]) -> None:
            sets.add(frozenset(used))
            for v in full:
                if v not in used and g.colour(last, v) is colour:
                    dfs(v, used + (v,))

        for s in full:
            dfs(s, (s,))
        maximal = [s for s in sets if not any(s < t for t in sets)]
        for k in range(1, best):
            if any(
                frozenset().union(*combo) == full
                for combo in combinations(maximal, k)
            ):
                best = k
                break
    return best


def random_colouring_with(rng: random.Random, n: int, p: float = 0.5) -> Colouring:
    return Colouring.from_edge_bits(
        n, (rng.random() < p for _ in range(edge_count(n)))
    )


def red_hub(n: int, first: int) -> Colouring:
    """Every edge touching first..n red, the rest a blue clique."""
    return Colouring.hub(n, range(first, n + 1))


def noisy_colouring(rng: random.Random, n: int) -> Colouring:
    """Half the time a random colouring of random density, half the time a
    red hub of random width on random labels with a few edges flipped."""
    if rng.random() < 0.5:
        return random_colouring_with(rng, n, rng.random())
    hub = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
    flip = rng.choice((0.0, 0.02, 0.1))
    return Colouring.from_edge_bits(
        n,
        ((u in hub or v in hub) != (rng.random() < flip) for u, v in iter_edges(n)),
    )


# bipartite instance generators; X = 1..a, Y = a+1..a+b, adjacency built
# directly so the preconditions hold by construction (except the last, which
# rejection-samples against the degree classes)


def _view(a: int, b: int, adj: dict[int, set[int]], m: int = 0):
    from monopath.bipartite import BipartiteView

    xs = tuple(range(1, a + 1))
    ys = tuple(range(a + 1, a + b + 1))
    return BipartiteView(xs, ys, {y: vertex_mask(adj[y]) for y in ys}, m=m)


def long_path_instance(rng: random.Random, max_side: int = 30):
    """Every y has 2*deg(y) >= |X| + |Y|."""
    b = rng.randint(1, max_side)
    a = rng.randint(b, max_side)
    lo = -(-(a + b) // 2)
    xs = list(range(1, a + 1))
    adj = {}
    for y in range(a + 1, a + b + 1):
        adj[y] = set(rng.sample(xs, rng.randint(lo, a)))
    return _view(a, b, adj)


def decompose_instance(rng: random.Random, max_x: int = 30):
    """|X| > |Y| + 2m and every deg(y) >= |X| - m; m stored on the view."""
    m = rng.randint(0, 4)
    b = rng.randint(1, max(1, (max_x - 2 * m) // 2))
    a = rng.randint(b + 2 * m + 1, max_x + 2 * m + b)
    xs = list(range(1, a + 1))
    adj = {}
    for y in range(a + 1, a + b + 1):
        missing = set(rng.sample(xs, rng.randint(0, m)))
        adj[y] = set(xs) - missing
    return _view(a, b, adj, m=m)


def decompose_full_instance(rng: random.Random, max_x: int = 28):
    """|X| > |Y|, and X1 = Y1 = 0 or |X0|*|Y0| > 2*|X1|*|Y1| with Y0 != 0."""
    from monopath.bipartite import DegreeClasses

    while True:
        b = rng.randint(1, 10)
        a = rng.randint(b + 1, max_x)
        p_keep = rng.choice([1.0, 0.97, 0.92])
        adj = {}
        for y in range(a + 1, a + b + 1):
            adj[y] = {x for x in range(1, a + 1) if rng.random() < p_keep}
        v = _view(a, b, adj)
        cl = DegreeClasses.from_view(v)
        if not cl.x1 and not cl.y1:
            return v
        if cl.y0 and len(cl.x0) * len(cl.y0) > 2 * len(cl.x1) * len(cl.y1):
            return v


def alternating_in_view(v, path) -> bool:
    """Path vertices alternate X and Y and every step is a view edge."""
    xset, yset = set(v.X), set(v.Y)
    vs = path.vertices
    if len(set(vs)) != len(vs):
        return False
    for s, t in zip(vs, vs[1:]):
        if s in xset and t in yset:
            x, y = s, t
        elif s in yset and t in xset:
            x, y = t, s
        else:
            return False
        if not v.adjacency[y] >> (x - 1) & 1:
            return False
    return all(w in xset or w in yset for w in vs)


def bip_colour_adjacency(v, of_view_colour: bool) -> dict[int, set[int]]:
    """Explicit adjacency over X+Y: view edges, or their bipartite complement."""
    adj = {w: set() for w in (*v.X, *v.Y)}
    for y in v.Y:
        for x in v.X:
            if bool(v.adjacency[y] >> (x - 1) & 1) == of_view_colour:
                adj[x].add(y)
                adj[y].add(x)
    return adj


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def _replay_run() -> tuple[list[str], int]:
    """stdout of scripts/same_covers.py on the committed plan --against
    tests/data/same_covers.txt, and the number of oracle endpoint tables the
    run built; run once for the tests that read either."""
    import same_covers
    from monopath import oracle

    built = 0
    table = oracle._ends_table

    def counted(g, gamma):
        nonlocal built
        built += 1
        return table(g, gamma)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
        mp.setattr(oracle, "_ends_table", counted)
        same_covers.main(["--against", str(SAVED_COVERS)])
    return out.getvalue().splitlines(), built


@pytest.fixture(scope="session")
def replay(_replay_run) -> list[str]:
    return _replay_run[0]


@pytest.fixture(scope="session")
def replay_tables(_replay_run) -> int:
    return _replay_run[1]


@pytest.fixture(scope="session")
def big_random_5000() -> Colouring:
    # shared across the slow large-n tests; building it dominates their cost
    return from_int(5000, random.Random(42).getrandbits(edge_count(5000)))
