"""Instance generators: the extremal construction, seeded random colourings,
an indexed enumerator, and adversarial hill-climbing over edge flips."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import Colouring, edge_count, iter_edges
from .oracle import DEFAULT_ORACLE_THRESHOLD, exact_f

# bump if the edge-sampling scheme ever changes; identical (n, p, seed) must
# give identical colourings across platforms and releases
GENERATOR_NAME = "monopath-rng-v1"

# each kind's parameters and their types, the one table that the CLI's
# generator tags, its gen flags and the sweep's seed list read; a GenSpec
# field that its kind does not list keeps its default
PARAMS: dict[str, dict[str, type]] = {
    "extremal": {},
    "random": {"p": float, "seed": int},
    "adversarial": {"seed": int, "iters": int, "restarts": int},
    "enumerate": {"seed": int},
}

# the largest n a GenSpec accepts, checked before anything is built:
# Colouring._from_digits lays the edges out in an n*n-byte digit matrix,
# which at 2**14 vertices is 256 MiB
MAX_N = 1 << 14


@dataclass(frozen=True)
class GenSpec:
    """Declarative instance request.  For kind "enumerate" the seed is the
    colouring index; "extremal" ignores seed entirely."""

    kind: str
    n: int
    p: float = 0.5
    seed: int = 0
    iters: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"need 1 <= n <= {MAX_N}, got {self.n}")
        if not 0 <= self.p <= 1:
            raise ValueError(f"need 0 <= p <= 1, got {self.p}")


def extremal(n: int) -> Colouring:
    """Blue clique on the first n - isqrt(n) + 1 vertices, everything
    touching the rest red."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a_size = n - max(0, math.isqrt(n) - 1)
    # clique vertices are red exactly to the hub, hub vertices to all others
    full = (1 << n) - 1
    hub = full >> a_size << a_size
    return Colouring._trusted(
        n, [hub] * a_size + [full ^ (1 << (v - 1)) for v in range(a_size + 1, n + 1)]
    )


def random_colouring(n: int, p: float, seed: int) -> Colouring:
    """Each edge independently red with probability p."""
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    draw = random.Random(seed).random
    return Colouring.from_edge_bits(n, [draw() < p for _ in range(edge_count(n))])


def indexed_colouring(n: int, index: int) -> Colouring:
    """The index-th colouring, low bit = first edge in iter_edges order."""
    m = edge_count(n)
    if not 0 <= index < 1 << m:
        raise ValueError(f"index {index} outside 0..2^{m}-1")
    # the low bit first, without re-shifting the whole index once per edge
    digits = format(index, f"0{m}b")[::-1][:m]  # [:m]: 0 formats as "0" at m = 0
    return Colouring._from_digits(n, digits.encode("ascii"))


def _score(g: Colouring) -> int:
    if g.n <= DEFAULT_ORACLE_THRESHOLD:
        return exact_f(g).value
    from .solver import solve

    return solve(g).cover.size


def adversarial_search(
    n: int, iters: int, seed: int, restarts: int = 1
) -> tuple[Colouring, int]:
    """Hill-climb single-edge flips from the extremal colouring, accepting
    non-worsening moves; the result never scores below extremal.  The score
    is the oracle's value up to its threshold, the solver's size above."""
    base = extremal(n)
    base_score = _score(base)
    best, best_score = base, base_score
    edges = list(iter_edges(n))
    for r in range(restarts):
        rng = random.Random(seed * 1000003 + r)
        cur, cur_score = base, base_score
        for _ in range(iters):
            if not edges:
                break
            u, v = edges[rng.randrange(len(edges))]
            cand = cur.with_edge(u, v, cur.colour(u, v).complement)
            cand_score = _score(cand)
            if cand_score >= cur_score:
                cur, cur_score = cand, cand_score
                if cur_score > best_score:
                    best, best_score = cur, cur_score
    return best, best_score


def build(spec: GenSpec) -> Colouring:
    if spec.kind == "extremal":
        return extremal(spec.n)
    if spec.kind == "random":
        return random_colouring(spec.n, spec.p, spec.seed)
    if spec.kind == "enumerate":
        return indexed_colouring(spec.n, spec.seed)
    return adversarial_search(spec.n, spec.iters, spec.seed, spec.restarts)[0]
